"""Figure 7: NN inference delays, GR vs the full stack.

Paper result: on CPU-overhead-heavy benchmarks the replayer is faster
(up to 70% on MNIST/Mali, ~20% faster on Mali average); on large NNs
the advantage diminishes -- GR is ~5% *slower* on v3d average, paying
for memory-dump loading (e.g. ResNet18) and synchronous-job idles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.harness import ResultTable, geomean
from repro.bench.workloads import (MALI_INFERENCE_SET, V3D_INFERENCE_SET,
                                   get_recorded, model_input)
from repro.core.replay import boot_replayer
from repro.stack.reference import run_reference


def stack_inference_ns(stack, x: np.ndarray) -> int:
    stack.runtime.set_sync_submission(False)
    stack.net.run(x)  # warm
    t0 = stack.machine.clock.now()
    stack.net.run(x)
    return stack.machine.clock.now() - t0


def gr_inference_ns(family: str, workload, x: np.ndarray,
                    check: bool = True) -> int:
    replayer = boot_replayer(workload.recording, None, 4321)[1]
    result = replayer.replay(inputs={"input": x})
    if check:
        from repro.stack.framework import build_model
        model = build_model(workload.workload)
        expected = run_reference(model, x, fuse=False)
        if not np.array_equal(result.output,
                              expected.reshape(result.output.shape)):
            raise AssertionError(
                f"replayed {workload.workload} output diverged from the "
                "CPU reference")
    return result.duration_ns


def inference_delays(family: str = "mali",
                     models: Sequence[str] = ()) -> ResultTable:
    if not models:
        models = (MALI_INFERENCE_SET if family == "mali"
                  else V3D_INFERENCE_SET)
    table = ResultTable(
        f"Figure 7 ({family}): NN inference delays",
        ["model", "stack_ms", "gr_ms", "gr_vs_stack_pct"])
    ratios = []
    for model_name in models:
        workload, stack = get_recorded(family, model_name)
        x = model_input(model_name)
        stack_ns = stack_inference_ns(stack, x)
        gr_ns = gr_inference_ns(family, workload, x)
        ratio = gr_ns / stack_ns
        ratios.append(ratio)
        table.add_row(
            model=model_name,
            stack_ms=stack_ns / 1e6,
            gr_ms=gr_ns / 1e6,
            gr_vs_stack_pct=100.0 * (ratio - 1.0),
        )
    table.notes.append(
        f"geomean GR/stack = {geomean(ratios):.3f} "
        "(paper: Mali ~20% faster avg, v3d ~5% slower avg)")
    return table
