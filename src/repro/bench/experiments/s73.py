"""Section 7.3 (CPU memory): replayer vs full-stack footprints.

Paper result: executing NN inference, the replayer's CPU memory is
2-10 MB (average 5 MB) versus the stack's 220-310 MB (average 270 MB)
-- the replayer runs a much smaller codebase and sidesteps GPU
contexts, NN optimizations and JIT commands/shader generation.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import ResultTable
from repro.bench.workloads import (MALI_INFERENCE_SET, get_recorded,
                                   model_input)
from repro.core.replay import boot_replayer
from repro.core.replayer import Replayer

#: Fixed resident memory of the replayer itself: code, the
#: interpreter's state, the nano driver's bookkeeping.
REPLAYER_RSS_BYTES = 2 * 1024 * 1024


def cpu_footprint_bytes(replayer: Replayer) -> int:
    """Modeled resident CPU memory of a replayer with a recording
    staged and no checkpoint policy: its fixed footprint plus the
    decompressed recording (actions + dumps) -- no GPU contexts, no
    JIT caches, no NN graph structures."""
    return REPLAYER_RSS_BYTES + replayer.current.size_unzipped()


def cpu_memory(family: str = "mali",
               models: Sequence[str] = MALI_INFERENCE_SET) -> ResultTable:
    table = ResultTable(
        f"Section 7.3 ({family}): CPU memory during NN inference",
        ["model", "stack_mb", "replayer_mb", "ratio"])
    for model_name in models:
        workload, stack = get_recorded(family, model_name)
        stack_bytes = stack.net.cpu_footprint_bytes()

        replayer = boot_replayer(workload.recording, None, 733)[1]
        replayer.replay(inputs={"input": model_input(model_name)})
        replayer_bytes = cpu_footprint_bytes(replayer)

        table.add_row(
            model=model_name,
            stack_mb=stack_bytes / 1e6,
            replayer_mb=replayer_bytes / 1e6,
            ratio=stack_bytes / replayer_bytes,
        )
    table.notes.append(
        "paper: replayer 2-10 MB (avg 5) vs stack 220-310 MB (avg 270)")
    return table
