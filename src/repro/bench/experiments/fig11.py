"""Figure 11: NN inference delay (incl. startup) vs recording granularity.

Paper result: per-fused-layer recordings cost only ~15% more than one
monolithic recording (the extra is per-recording replayer startup);
per-layer recordings cost more but maximize composability.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.harness import ResultTable
from repro.bench.workloads import (fresh_replay_machine, get_recorded,
                                   model_input)
from repro.core.conditional import replay_sequence
from repro.core.replayer import Replayer

GRANULARITY_CONFIGS = (
    ("monolithic", True, "monolithic"),
    ("per-fused-layer", True, "layer"),
    ("per-layer", False, "layer"),
)


def _replay_total_ns(family: str, workload, x) -> int:
    """Init + load + replay of the whole chain (startup included)."""
    machine = fresh_replay_machine(family, seed=555)
    replayer = Replayer(machine)
    t0 = machine.clock.now()
    replayer.init()
    replay_sequence(replayer, workload.recordings, inputs={"input": x})
    return machine.clock.now() - t0


def recording_granularity(
        models: Sequence[str] = ("mnist", "alexnet", "mobilenet"),
        family: str = "mali") -> ResultTable:
    table = ResultTable(
        "Figure 11: inference delay (incl. startup) by granularity",
        ["model", "granularity", "recordings", "total_ms",
         "vs_monolithic_x"])
    for model_name in models:
        x = model_input(model_name)
        monolithic_ns = None
        for label, fuse, granularity in GRANULARITY_CONFIGS:
            workload, _stack = get_recorded(family, model_name,
                                            fuse=fuse,
                                            granularity=granularity)
            total_ns = _replay_total_ns(family, workload, x)
            if label == "monolithic":
                monolithic_ns = total_ns
            table.add_row(
                model=model_name,
                granularity=label,
                recordings=len(workload.recordings),
                total_ms=total_ns / 1e6,
                vs_monolithic_x=total_ns / monolithic_ns,
            )
    table.notes.append(
        "paper: fused-layer recordings ~15% slower than monolithic; "
        "the extra delay is per-recording replayer startup")
    return table
