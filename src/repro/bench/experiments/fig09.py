"""Figure 9: replaying recordings from other GPUs on Mali G71.

Paper result (vecadd over 16M elements): recordings from G31 (1 core)
and G52 (2 cores) replay on G71 after the page-table/MMU patch, but at
4-8x lower performance; further patching the core-affinity register
recovers full 8-core speed. Unpatched recordings do not replay at all.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ResultTable, cached
from repro.bench.workloads import record_math_kernel, vecadd_ir
from repro.core.patching import patch_recording_for_sku
from repro.core.replay import boot_replayer
from repro.errors import ReplayError

#: Scaled from the paper's 16M to keep numpy time bounded; the shape
#: (per-core scaling) is size-independent.
VECADD_ELEMENTS = 1 << 20

SOURCE_BOARDS = {"g31": "odroid-c4", "g52": "odroid-n2",
                 "g71": "hikey960"}


def _vecadd_recording(sku: str):
    def produce():
        return record_math_kernel("mali", vecadd_ir(VECADD_ELEMENTS),
                                  SOURCE_BOARDS[sku])
    return cached(("vecadd", sku), produce)


def _replay_on_g71(recording, inputs, expect) -> int:
    replayer = boot_replayer(recording, "hikey960", 2024)[1]
    result = replayer.replay(inputs=inputs)
    if not np.array_equal(result.outputs["c"], expect):
        raise AssertionError("cross-GPU replay produced wrong results")
    return result.duration_ns


def cross_gpu_replay() -> ResultTable:
    rng = np.random.default_rng(3)
    a = rng.standard_normal(VECADD_ELEMENTS).astype(np.float32)
    b = rng.standard_normal(VECADD_ELEMENTS).astype(np.float32)
    inputs = {"a": a, "b": b}
    expect = a + b

    table = ResultTable(
        "Figure 9: cross-GPU record/replay (vecadd) on Mali G71",
        ["recorded_on", "patch", "replays", "duration_ms",
         "vs_native"])

    native = _vecadd_recording("g71").recording
    native_ns = _replay_on_g71(native, inputs, expect)
    table.add_row(recorded_on="g71", patch="none (native)",
                  replays="yes", duration_ms=native_ns / 1e6,
                  vs_native=1.0)

    for sku in ("g31", "g52"):
        recording = _vecadd_recording(sku).recording
        # Unpatched: must fail (wrong PTE bits / MMU config).
        try:
            _replay_on_g71(recording, inputs, expect)
            unpatched = "yes (UNEXPECTED)"
        except (ReplayError, AssertionError):
            unpatched = "no"
        table.add_row(recorded_on=sku, patch="unpatched",
                      replays=unpatched, duration_ms=float("nan"),
                      vs_native=float("nan"))

        half, _ = patch_recording_for_sku(recording, "g71",
                                          patch_affinity=False)
        half_ns = _replay_on_g71(half, inputs, expect)
        table.add_row(recorded_on=sku, patch="pgtable+mmu",
                      replays="yes", duration_ms=half_ns / 1e6,
                      vs_native=half_ns / native_ns)

        full, _ = patch_recording_for_sku(recording, "g71",
                                          patch_affinity=True)
        full_ns = _replay_on_g71(full, inputs, expect)
        table.add_row(recorded_on=sku, patch="pgtable+mmu+affinity",
                      replays="yes", duration_ms=full_ns / 1e6,
                      vs_native=full_ns / native_ns)

    table.notes.append(
        "paper: patched-but-affinity-limited replay runs 4-8x slower; "
        "affinity patch restores full 8-core speed")
    return table
