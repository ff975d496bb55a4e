"""Recording surgery: slice equivalence, composition, job-level dedup.

Three claims, matching the surgery subsystem's contracts:

- **Equivalence**: an unmutated slice replays byte-identical to the
  same job inside its parent session, on every GPU family. For one
  zoo model per family the mid job is sliced and both sides replayed;
  ``equivalence_ok`` counts the families that match exactly.

- **Composition**: a stitched session (interleave of two slices, two
  rounds) agrees with the shared CPU op semantics *and* with the
  expected bytes its manifest captured from the parent sessions.
  ``composed_differential_ok`` is 1.0 iff every output of the GPU
  replay, the CPU reference, and the manifest are byte-identical.

- **Job-level dedup**: sibling-SKU micro-recordings (a g31-recorded
  mali slice plus its g52/g71 patches) differ only in actions and
  metadata, so the vault must share essentially every dump chunk
  between them. ``sibling_dump_dedup`` is the fraction of their dump
  chunk refs resolving to shared chunks -- the ``BENCH_surgery.json``
  pin CI guards at >= 0.9.

Slice/compose wall cost and the per-kernel replay time (virtual ns of
one micro-recording replay) ride along in the pin for trend tracking;
they are not guarded ratios.
"""

from __future__ import annotations

import time
from tempfile import TemporaryDirectory
from typing import Dict, List, Tuple

import numpy as np

from repro.bench.harness import ResultTable
from repro.bench.workloads import get_recorded
from repro.core.patching import patch_recording_for_sku
from repro.core.recording import Recording
from repro.core.replay import boot_replayer
from repro.store import Vault
from repro.surgery import (analyze_recording, cpu_reference_outputs,
                           interleave, slice_job, verify_slice)
from repro.surgery.composer import replay_composed_outputs

#: One zoo model per family for the equivalence check; the mali parent
#: is recorded on the smallest board so its slice also feeds the
#: sibling-SKU dedup corpus.
SURGERY_BENCH_MODEL = "mnist"
SURGERY_BENCH_FAMILIES = ("mali", "v3d", "adreno")
SURGERY_BENCH_BOARDS = {"mali": "odroid-c4"}
SURGERY_BENCH_SKUS = ("g52", "g71")


def _parent(family: str) -> Recording:
    workload, _stack = get_recorded(family, SURGERY_BENCH_MODEL, True,
                                    "monolithic",
                                    SURGERY_BENCH_BOARDS.get(family))
    return workload.recording


def _replay_duration_ns(recording: Recording) -> int:
    return boot_replayer(recording, None, 4242)[1].replay().duration_ns


def measure_surgery() -> Dict[str, object]:
    """Slice every family, compose, pack the sibling-SKU corpus.
    Returns a flat dict (the BENCH_surgery.json format)."""
    equivalence_ok = 0
    slice_walls: List[float] = []
    mali_slices = []
    slice_dump_bytes = parent_dump_bytes = closure_bytes = 0
    replay_virtual_ns = 0

    for family in SURGERY_BENCH_FAMILIES:
        parent = _parent(family)
        analysis = analyze_recording(parent)
        jobs = [analysis.jobs[len(analysis.jobs) // 2]]
        if family == "mali":
            # Two mali slices feed the composition check below.
            jobs.append(analysis.jobs[0])
        for info in jobs:
            start = time.perf_counter()
            slice_ = slice_job(parent, info.job_index, analysis=analysis)
            slice_walls.append(time.perf_counter() - start)
            if family == "mali":
                mali_slices.append((parent, slice_))
        # Equivalence is judged on the mid job (the first sliced).
        parent_, slice_ = (parent, slice_) if family != "mali" \
            else (mali_slices[0][0], mali_slices[0][1])
        if verify_slice(parent_, slice_, analysis=analysis):
            equivalence_ok += 1
        slice_dump_bytes += slice_.recording.dump_bytes()
        parent_dump_bytes += parent.dump_bytes()
        closure_bytes += sum(s for _va, s in
                             (tuple(r) for r in slice_.manifest.closure))
        replay_virtual_ns += _replay_duration_ns(slice_.recording)

    compose_start = time.perf_counter()
    composed = interleave([s for _p, s in mali_slices], rounds=2)
    compose_wall = time.perf_counter() - compose_start
    expected = composed.manifest.expected_output_arrays()
    cpu = cpu_reference_outputs(composed.recording)
    gpu = replay_composed_outputs(composed)
    composed_ok = all(
        np.array_equal(want.reshape(-1),
                       np.asarray(cpu[name], np.float32).reshape(-1))
        and np.array_equal(want.reshape(-1),
                           np.asarray(gpu[name], np.float32).reshape(-1))
        for name, want in expected.items())

    # Sibling-SKU corpus: the g31-recorded mali slice + SKU patches.
    base = mali_slices[0][1].recording
    corpus = [base] + [patch_recording_for_sku(base, sku)[0]
                       for sku in SURGERY_BENCH_SKUS]
    with TemporaryDirectory() as root:
        vault = Vault(root)
        for recording in corpus:
            vault.pack(recording)
        sharing = vault.job_sharing_stats()

    n_slices = len(slice_walls)
    return {
        "families_checked": len(SURGERY_BENCH_FAMILIES),
        "equivalence_ok": equivalence_ok,
        "composed_differential_ok": 1.0 if composed_ok else 0.0,
        "composed_jobs": len(composed.manifest.schedule),
        "sibling_micros": sharing["micro_recordings"],
        "sibling_dump_dedup": sharing["dump_chunk_dedup"],
        "slices": n_slices,
        "slice_ms": 1e3 * sum(slice_walls) / n_slices,
        "compose_ms": 1e3 * compose_wall,
        "slice_replay_virtual_ns": replay_virtual_ns
        // len(SURGERY_BENCH_FAMILIES),
        "slice_dump_bytes": slice_dump_bytes,
        "parent_dump_bytes": parent_dump_bytes,
        "closure_bytes": closure_bytes,
    }


def surgery_report() -> ResultTable:
    """The surgery benchmark as a printable result table."""
    m = measure_surgery()
    table = ResultTable(
        f"Recording surgery: {m['slices']} slices over "
        f"{m['families_checked']} families, one interleaved "
        f"composition, {m['sibling_micros']} sibling-SKU micros",
        ["metric", "value"])
    for metric in ("equivalence_ok", "composed_differential_ok",
                   "composed_jobs", "sibling_dump_dedup", "slice_ms",
                   "compose_ms", "slice_replay_virtual_ns",
                   "slice_dump_bytes", "parent_dump_bytes"):
        table.add_row(metric=metric, value=m[metric])
    table.notes.append(
        "equivalence_ok counts families whose mid-job slice replays "
        "byte-identical to the job inside its parent session")
    table.notes.append(
        "sibling_dump_dedup is the CI-guarded metric: fraction of "
        "dump-chunk refs the sibling-SKU micro-recordings share")
    return table
