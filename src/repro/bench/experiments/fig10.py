"""Figure 10: GR removes unnecessary intervals between replay actions.

Paper result (ACL NN inference on Mali G71): without the GPU-idle skip
heuristic, replayed inference is 1.1-4.9x longer; startup would be up
to two orders of magnitude longer.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import ResultTable
from repro.bench.workloads import (MALI_INFERENCE_SET, get_recorded,
                                   model_input)
from repro.core.replay import boot_replayer


def _replay_ns(family: str, workload, x, use_recorded: bool) -> int:
    replayer = boot_replayer(workload.recording, None, 777)[1]
    result = replayer.replay(inputs={"input": x},
                             use_recorded_intervals=use_recorded)
    return result.duration_ns


def skip_interval_ablation(models: Sequence[str] = MALI_INFERENCE_SET,
                           family: str = "mali") -> ResultTable:
    table = ResultTable(
        "Figure 10: replay with vs without interval skipping",
        ["model", "skip_ms", "noskip_ms", "slowdown_x"])
    for model_name in models:
        workload, _stack = get_recorded(family, model_name)
        x = model_input(model_name)
        skip_ns = _replay_ns(family, workload, x, use_recorded=False)
        noskip_ns = _replay_ns(family, workload, x, use_recorded=True)
        table.add_row(model=model_name,
                      skip_ms=skip_ns / 1e6,
                      noskip_ms=noskip_ns / 1e6,
                      slowdown_x=noskip_ns / skip_ns)
    table.notes.append("paper: without skipping, 1.1-4.9x longer")
    return table
