"""Workload builders shared by every experiment.

The two evaluation sets mirror Table 6: choices differ slightly
between Mali and v3d "because their ML frameworks do not implement
exactly the same set of NNs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.harness import (RecordedWorkload, record_inference,
                                record_kernel_workload)
from repro.bench.harness import cached
from repro.errors import ReproError
from repro.gpu.isa import Op
from repro.soc.boards import board_for_family
from repro.soc.machine import Machine, fresh_replay_machine
from repro.stack.driver import AdrenoDriver, MaliDriver, V3dDriver
from repro.stack.framework import AclNetwork, NcnnNetwork, build_model
from repro.stack.framework.base import NetworkRunner
from repro.stack.runtime import OpenClRuntime, VulkanRuntime
from repro.stack.runtime.kernel_ir import KernelIR, KernelOp

MALI_INFERENCE_SET = ("mnist", "alexnet", "mobilenet", "squeezenet",
                      "resnet12", "vgg16")
V3D_INFERENCE_SET = ("yolov4-tiny", "alexnet", "mobilenet", "squeezenet",
                     "resnet18", "vgg16")

#: The full Table 3 recording roster (18 inference workloads on Mali).
MALI_FULL_ROSTER = MALI_INFERENCE_SET + (
    "lenet5", "googlenet-lite", "kws", "har", "autoencoder",
    "yolov4-tiny", "resnet18")


@dataclass
class StackHandle:
    """A fully-configured stack ready to run (and record) a model."""

    machine: Machine
    driver: object
    runtime: object
    net: NetworkRunner

    def run(self, x: np.ndarray, **kwargs) -> np.ndarray:
        return self.net.run(x, **kwargs)


#: GPU family -> the (driver, runtime, framework) stack recorded on it.
STACKS = {
    "mali": (MaliDriver, OpenClRuntime, AclNetwork),
    "adreno": (AdrenoDriver, OpenClRuntime, AclNetwork),
    "v3d": (V3dDriver, VulkanRuntime, NcnnNetwork),
}


def build_stack(family: str, model_name: str, fuse: bool = False,
                seed: int = 3, board: Optional[str] = None,
                obs: bool = False) -> StackHandle:
    """Bring up the full GPU stack for one model on a fresh machine.

    ``obs=True`` enables observability *before* driver construction so
    the driver's chokepoint stream feeds the obs session too.
    """
    board = board or board_for_family(family)
    machine = Machine.create(board, seed=seed)
    if obs:
        from repro.obs import enable_observability
        enable_observability(machine)
    model = build_model(model_name)
    if family not in STACKS:
        raise ReproError(f"unknown GPU family {family!r}")
    make_driver, make_runtime, make_net = STACKS[family]
    driver = make_driver(machine)
    runtime = make_runtime(driver)
    net = make_net(runtime, model, fuse=fuse)
    net.configure()
    return StackHandle(machine, driver, runtime, net)


def get_recorded(family: str, model_name: str, fuse: bool = False,
                 granularity: str = "monolithic",
                 board: Optional[str] = None
                 ) -> Tuple[RecordedWorkload, StackHandle]:
    """Record a workload once; reuse across experiments."""
    key = ("rec", family, model_name, fuse, granularity, board)

    def produce():
        stack = build_stack(family, model_name, fuse=fuse, board=board)
        warm = np.zeros(stack.net.model.input_shape, np.float32)
        stack.net.run(warm)
        workload = record_inference(stack.net, granularity=granularity)
        return workload, stack

    return cached(key, produce)


def zoo_store(mix, vault=None):
    """A serving store of the zoo recording of each (family, model) in
    ``mix``; given a ``vault``, packed into it and served from there."""
    from repro.serve import RecordingStore, VaultRecordingStore

    store = RecordingStore() if vault is None \
        else VaultRecordingStore(vault, list(mix))
    for family, model in mix:
        recording = get_recorded(family, model)[0].recording
        if vault is None:
            store.add(family, model, recording)
        else:
            vault.pack(recording)
    return store


def model_input(model_name: str, seed: int = 42) -> np.ndarray:
    model = build_model(model_name)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(model.input_shape).astype(np.float32)


def vecadd_ir(elements: int) -> KernelIR:
    """The 16M-element vecadd math kernel of Figure 9 (scaled)."""
    shape = (elements,)
    return KernelIR(
        "vecadd",
        [KernelOp(Op.ADD, ("a", "b"), "c")],
        {"a": shape, "b": shape, "c": shape},
    )


def saxpy_ir(elements: int, alpha: float = 2.0) -> KernelIR:
    """Second math kernel of Table 3 (scale + add)."""
    shape = (elements,)
    return KernelIR(
        "saxpy",
        [KernelOp(Op.SCALE, ("x",), "t0", (alpha,)),
         KernelOp(Op.ADD, ("t0", "y"), "out")],
        {"x": shape, "y": shape, "t0": shape, "out": shape},
    )


def record_math_kernel(family: str, ir: KernelIR, board: str,
                       seed: int = 3) -> RecordedWorkload:
    """Record a raw kernel workload on the given board."""
    machine = Machine.create(board, seed=seed)
    make_driver, make_runtime, _make_net = STACKS[family]
    runtime = make_runtime(make_driver(machine))
    runtime.init_context()
    return record_kernel_workload(runtime, ir, ir.name)
