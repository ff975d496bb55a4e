"""Table 1: "our GPU model fits popular integrated GPUs".

Three CPU/GPU interface styles -- Mali job chains + job slots, v3d
control lists, Adreno ring buffer + SMMU -- all satisfy the paper's
GPU model (MMIO, virtual memory, enforceable synchronous submission)
and all record and replay through the *same* GPUReplay core, with only
per-family interface knowledge swapped (kick registers, PTE encoding,
reset/power sequences).
"""

import numpy as np
import pytest

from repro.core import Replayer, record_inference
from repro.soc import Machine
from repro.stack.driver import AdrenoDriver, MaliDriver, V3dDriver
from repro.stack.framework import AclNetwork, NcnnNetwork, build_model
from repro.stack.reference import run_reference
from repro.stack.runtime import OpenClRuntime, VulkanRuntime
from repro.environments.base import host_kernel_configures_gpu

FAMILIES = [
    ("mali", "hikey960", MaliDriver, OpenClRuntime, AclNetwork),
    ("v3d", "raspberrypi4", V3dDriver, VulkanRuntime, NcnnNetwork),
    ("adreno", "pixel4", AdrenoDriver, OpenClRuntime, AclNetwork),
]


@pytest.mark.parametrize(
    "family,board,driver_cls,runtime_cls,net_cls", FAMILIES,
    ids=[f[0] for f in FAMILIES])
def test_tab01_family_records_and_replays(benchmark, family, board,
                                          driver_cls, runtime_cls,
                                          net_cls):
    def roundtrip():
        machine = Machine.create(board, seed=600)
        net = net_cls(runtime_cls(driver_cls(machine)),
                      build_model("mnist"), fuse=False)
        net.configure()
        net.run(np.zeros(net.model.input_shape, np.float32))
        workload = record_inference(net)

        target = Machine.create(board, seed=601)
        host_kernel_configures_gpu(target)
        replayer = Replayer(target)
        replayer.init()
        replayer.load(workload.recording)
        x = np.random.default_rng(3).standard_normal(
            net.model.input_shape).astype(np.float32)
        result = replayer.replay(inputs={"input": x})
        expected = run_reference(net.model, x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))
        return workload.recording

    recording = benchmark.pedantic(roundtrip, rounds=1, iterations=1)
    assert recording.meta.family == family
    # Sync submission was enforceable on every family (Table 1's
    # SyncJob column): one completion interrupt is handled per job
    # (never coalesced), and most jobs block the CPU explicitly (the
    # rest retire before the CPU comes back to submit).
    from repro.core import actions as act
    irq_entries = sum(1 for a in recording.actions
                      if isinstance(a, act.IrqEnter))
    waits = sum(1 for a in recording.actions
                if isinstance(a, act.WaitIrq))
    assert irq_entries == recording.meta.n_jobs
    assert waits >= recording.meta.n_jobs // 2


def test_tab01_pte_formats_are_family_specific(benchmark):
    from repro.gpu import PTE_FORMATS

    def distinct_encodings():
        out = {}
        for name, fmt in PTE_FORMATS.items():
            out[name] = fmt.encode_pte(0x1000, 0x5)  # R|X
        return out

    encodings = benchmark.pedantic(distinct_encodings, rounds=1,
                                   iterations=1)
    assert len(encodings) == 4  # mali, mali-lpae, v3d, adreno-smmu
    assert len(set(encodings.values())) == 4  # all distinct layouts
