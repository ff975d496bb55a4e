"""Emulated GPU performance counters -- the deterministic counter tape.

Real GPUs expose hardware performance counters (instructions retired,
cache hits, DRAM bytes) that profilers sample per kernel.  The
simulated GPUs here execute replay programs through the shader
executor, so the equivalent numbers are *exact*, not sampled: every
instruction retired, every FLOP the cost model attributes, every TLB
probe the MMU answers.  ``CounterTape`` collects them per
``(recording digest, job, kernel)`` row as replays run, forming a
deterministic tape that rides the machine's existing obs session --
ODIN-style replay-driven counter harvesting (PAPERS.md).

Attribution model:

* ``begin_session(digest)`` is called by the replayer once per replay
  attempt (and by the mega-batch path once per fused run).  It opens a
  *session row* ``(digest12, -1, -1)`` that absorbs driver-level costs
  not tied to one kernel: MMIO register writes and resident-upload
  bytes skipped.
* ``begin_job()`` / ``record_kernel(...)`` are called by the GPU
  device as jobs complete: one kernel row per program executed, with
  instructions retired (the shader executor's return value), modeled
  FLOPs and bytes touched (``isa.kernel_cost``), the TLB hit/miss
  delta the program caused, and the mega-batch fan-out it ran under.

Determinism: every value is derived from replayed state on the
virtual clock -- same seed, same tape, byte for byte.  The tape is
always on (the flight-recorder precedent); ``enabled = False`` turns
every hook into a cheap guard for the overhead benchmark's "off" arm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gpu import isa

#: Hard cap on distinct rows so a long-lived serving worker cannot
#: grow the tape without bound; overflow is counted, not silent.
MAX_ROWS = 4096

#: Per-session kernel label list kept for profiler frame naming;
#: bounded the same way.
MAX_SESSION_KERNELS = 1024

_ROW_FIELDS = ("instructions", "flops", "bytes_touched", "mmio_writes",
               "tlb_hits", "tlb_misses", "upload_skipped_bytes",
               "mega_fanout", "replays")


class CounterRow:
    """One ``(digest12, job, kernel)`` aggregation bucket."""

    __slots__ = ("digest", "job", "kernel", "name", "instructions",
                 "flops", "bytes_touched", "mmio_writes", "tlb_hits",
                 "tlb_misses", "upload_skipped_bytes", "mega_fanout",
                 "replays")

    def __init__(self, digest: str, job: int, kernel: int,
                 name: str = "") -> None:
        self.digest = digest
        self.job = job
        self.kernel = kernel
        self.name = name
        self.instructions = 0
        self.flops = 0.0
        self.bytes_touched = 0
        self.mmio_writes = 0
        self.tlb_hits = 0
        self.tlb_misses = 0
        self.upload_skipped_bytes = 0
        self.mega_fanout = 0
        self.replays = 0

    def as_dict(self) -> dict:
        entry = {"digest": self.digest, "job": self.job,
                 "kernel": self.kernel, "name": self.name}
        for field in _ROW_FIELDS:
            entry[field] = getattr(self, field)
        return entry


def kernel_label(program) -> str:
    """Deterministic kernel name: the dominant op plus trailer count.

    ``conv2d+5`` reads as "a CONV2D (the most expensive op by modeled
    FLOPs) plus 5 other instructions fused in the same program".  Ties
    break toward the earliest instruction, so the label is stable.
    """
    return isa.kernel_cost(program)[2]


class CounterTape:
    """Per-device accumulator of emulated GPU performance counters."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rows: Dict[Tuple[str, int, int], CounterRow] = {}
        self.dropped_rows = 0
        # Running totals kept alongside the rows so totals() is O(1)
        # and survives row-cap overflow.
        self.total_instructions = 0
        self.total_flops = 0.0
        self.total_bytes_touched = 0
        self.total_mmio_writes = 0
        self.total_tlb_hits = 0
        self.total_tlb_misses = 0
        self.total_upload_skipped_bytes = 0
        self.total_replays = 0
        self.total_kernels = 0
        self.total_mega_fanout = 0
        # Session cursor state.  A default session row means the tape
        # never has to branch on "no session yet" in the hot hooks.
        self.session = self._row("", -1, -1, "session")
        self.session_kernels: List[Tuple[str, float]] = []
        self._job = -1
        self._kernel = -1
        self._digest = ""

    # -- row management ------------------------------------------------

    def _row(self, digest: str, job: int, kernel: int,
             name: str) -> CounterRow:
        key = (digest, job, kernel)
        row = self.rows.get(key)
        if row is None:
            if len(self.rows) >= MAX_ROWS:
                self.dropped_rows += 1
                return CounterRow(digest, job, kernel, name)
            row = CounterRow(digest, job, kernel, name)
            self.rows[key] = row
        return row

    # -- hooks (called from replayer / device / driver) ----------------

    def begin_session(self, digest: str) -> None:
        """Open a replay session for ``digest`` (one per attempt)."""
        if not self.enabled:
            return
        self._digest = digest[:12]
        self._job = -1
        self._kernel = -1
        self.session = self._row(self._digest, -1, -1, "session")
        self.session.replays += 1
        self.total_replays += 1
        self.session_kernels = []

    def begin_job(self) -> None:
        """A GPU job of the current session started retiring."""
        if not self.enabled:
            return
        self._job += 1
        self._kernel = -1

    def record_kernel(self, program, instructions: int,
                      tlb_hits: int, tlb_misses: int,
                      fanout: int = 0) -> None:
        """One shader program finished under the current job."""
        if not self.enabled:
            return
        self._kernel += 1
        flops, nbytes, label = isa.kernel_cost(program)
        row = self._row(self._digest, self._job, self._kernel, label)
        scale = fanout if fanout else 1
        flops *= scale
        nbytes *= scale
        row.instructions += instructions
        row.flops += flops
        row.bytes_touched += nbytes
        row.tlb_hits += tlb_hits
        row.tlb_misses += tlb_misses
        row.replays += 1
        if fanout:
            row.mega_fanout += fanout
            self.total_mega_fanout += fanout
        self.total_instructions += instructions
        self.total_flops += flops
        self.total_bytes_touched += nbytes
        self.total_tlb_hits += tlb_hits
        self.total_tlb_misses += tlb_misses
        self.total_kernels += 1
        if len(self.session_kernels) < MAX_SESSION_KERNELS:
            self.session_kernels.append((label, flops))

    def note_mmio_write(self) -> None:
        """An MMIO register write landed (nano driver hook).

        Callers on the register-write hot path guard on ``enabled``
        themselves before calling.
        """
        self.session.mmio_writes += 1
        self.total_mmio_writes += 1

    def note_upload_skipped(self, nbytes: int) -> None:
        """A resident-dump upload was skipped (``nbytes`` not moved)."""
        self.session.upload_skipped_bytes += nbytes
        self.total_upload_skipped_bytes += nbytes

    # -- export --------------------------------------------------------

    def totals(self) -> dict:
        return {
            "instructions": self.total_instructions,
            "flops": self.total_flops,
            "bytes_touched": self.total_bytes_touched,
            "mmio_writes": self.total_mmio_writes,
            "tlb_hits": self.total_tlb_hits,
            "tlb_misses": self.total_tlb_misses,
            "upload_skipped_bytes": self.total_upload_skipped_bytes,
            "mega_fanout": self.total_mega_fanout,
            "replays": self.total_replays,
            "kernels": self.total_kernels,
        }

    def snapshot(self) -> dict:
        """Deterministic, JSON-ready view of the whole tape."""
        rows = [row.as_dict() for key, row in
                sorted(self.rows.items())]
        return {
            "schema": "gpucounters.v1",
            "enabled": self.enabled,
            "totals": self.totals(),
            "dropped_rows": self.dropped_rows,
            "rows": rows,
        }

    def reset(self) -> None:
        self.__init__(enabled=self.enabled)


def aggregate(snapshots: List[Optional[dict]]) -> dict:
    """Merge per-device tape snapshots into one fleet-level view.

    Rows with the same ``(digest, job, kernel)`` key sum field-wise
    (their per-worker halves of the same logical workload); totals sum
    directly.  Accepts ``None`` entries so callers can pass worker
    lists without filtering.
    """
    merged: Dict[Tuple[str, int, int], dict] = {}
    totals: Dict[str, float] = {}
    dropped = 0
    enabled = False
    for snap in snapshots:
        if not snap:
            continue
        enabled = enabled or bool(snap.get("enabled"))
        dropped += snap.get("dropped_rows", 0)
        for name, value in snap.get("totals", {}).items():
            totals[name] = totals.get(name, 0) + value
        for row in snap.get("rows", []):
            key = (row.get("digest", ""), row.get("job", -1),
                   row.get("kernel", -1))
            entry = merged.get(key)
            if entry is None:
                merged[key] = dict(row)
            else:
                for field in _ROW_FIELDS:
                    entry[field] = entry.get(field, 0) \
                        + row.get(field, 0)
    rows = [merged[key] for key in sorted(merged)]
    return {
        "schema": "gpucounters.v1",
        "enabled": enabled,
        "totals": totals,
        "dropped_rows": dropped,
        "rows": rows,
    }


#: Shared disabled tape for machines that opt out entirely.
NULL_TAPE = CounterTape(enabled=False)
