"""The replay actions of Table 2.

A recording is a sequence of these actions plus memory dumps. Every
action carries:

- ``min_interval_ns`` -- the pacing interval the replayer must respect
  before executing the action (Section 4.5). Zero for intervals the
  recorder proved skippable (GPU idle throughout);
- ``recorded_interval_ns`` -- the raw record-time interval, kept so the
  skip-interval ablation (Figure 10) can replay without the heuristic;
- ``src`` -- the full-driver source location, used in replay-failure
  reports (Section 5.4);
- ``job_index`` -- which GPU job the action belongs to (0 = before the
  first kick), used by the interval analysis of Figure 5.

The module ends with the executor contract, which the compiled
executor and the reference interpreter both import from here, so
neither loads the other.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple


@dataclass
class Action:
    """Base replay action."""

    min_interval_ns: int = 0
    recorded_interval_ns: int = 0
    src: str = ""
    job_index: int = 0


@dataclass
class RegReadOnce(Action):
    """Read @reg once; a value != @val is a replay error unless ignored."""

    reg: str = ""
    val: int = 0
    #: True for volatile registers expected to return nondeterministic
    #: values; the read still happens but the value is not checked.
    ignore: bool = False


@dataclass
class RegReadWait(Action):
    """Poll @reg until (value & mask) == val, at most timeout_ns."""

    reg: str = ""
    mask: int = 0xFFFFFFFF
    val: int = 0
    timeout_ns: int = 0


@dataclass
class RegWrite(Action):
    """Write @val to @reg; @mask selects the written bits."""

    reg: str = ""
    mask: int = 0xFFFFFFFF
    val: int = 0
    #: True when this write starts a GPU job (the kick register); used
    #: for job accounting and checkpoint safe-points.
    is_job_kick: bool = False


@dataclass
class SetGpuPgtable(Action):
    """Point the GPU at the replayer's page tables.

    ``memattr`` is the recorded translation-config value -- the field
    the cross-SKU patch flips (Section 6.4 item 2).
    """

    memattr: int = 0


@dataclass
class MapGpuMem(Action):
    """Allocate ``num_pages`` and map them at GPU VA ``addr``.

    ``raw_pte_flags`` are the low PTE bits in the *source SKU's*
    encoding, captured from the record-time page tables. The replayer
    decodes them with its own SKU's format -- which silently goes wrong
    across LPAE/non-LPAE SKUs until patched (Section 6.4 item 1).
    """

    addr: int = 0
    num_pages: int = 0
    raw_pte_flags: int = 0


@dataclass
class UnmapGpuMem(Action):
    """Unmap the GPU memory at ``addr`` and free its physical pages."""

    addr: int = 0
    num_pages: int = 0


@dataclass
class Upload(Action):
    """Load memory dump #``dump_index`` at GPU VA ``addr``."""

    addr: int = 0
    dump_index: int = 0


@dataclass
class CopyToGpu(Action):
    """Deposit app-supplied input bytes at GPU VA ``gaddr``."""

    gaddr: int = 0
    size: int = 0
    buffer_name: str = ""


@dataclass
class CopyFromGpu(Action):
    """Extract ``size`` bytes at GPU VA ``gaddr`` for the app."""

    gaddr: int = 0
    size: int = 0
    buffer_name: str = ""


@dataclass
class WaitIrq(Action):
    """Wait for a GPU interrupt; handling = replaying what follows."""

    timeout_ns: int = 0


@dataclass
class IrqEnter(Action):
    """Enter interrupt context (subsequent actions ran in the ISR)."""


@dataclass
class IrqExit(Action):
    """Leave interrupt context (the record-time handler's eret)."""


#: Stable wire tags for serialization (order is part of the format).
ACTION_TYPES: Tuple[type, ...] = (
    RegReadOnce, RegReadWait, RegWrite, SetGpuPgtable, MapGpuMem,
    UnmapGpuMem, Upload, CopyToGpu, CopyFromGpu, WaitIrq, IrqEnter, IrqExit,
)

ACTION_TAGS = {cls: tag for tag, cls in enumerate(ACTION_TYPES)}


# -- the executor contract ---------------------------------------------------

#: Dispatch overhead per action, on either executor.
ACTION_OVERHEAD_NS = 300

#: Timeout when an IrqEnter must wait for an interrupt that arrived
#: asynchronously at record time (it preempted the CPU mid-work, so no
#: explicit WaitIrq precedes it in the recording).
IMPLICIT_IRQ_TIMEOUT_NS = 2_000_000_000


@dataclass
class InterpreterOptions:
    """Replay-time knobs."""

    #: Replay the raw recorded gaps instead of the skip-heuristic ones.
    use_recorded_intervals: bool = False
    #: Extra delay injected before paced actions (failure recovery,
    #: Section 5.4: "injects additional delay to the action intervals").
    extra_delay_ns: int = 0
    #: Restrict the extra delay to actions in [start, end) -- "the
    #: action intervals that precede the divergence occurrence".
    extra_delay_range: Optional[tuple] = None


@dataclass
class InterpreterStats:
    actions_executed: int = 0
    jobs_kicked: int = 0
    irqs_waited: int = 0
    pacing_wait_ns: int = 0
    #: Bytes actually moved into GPU memory by Upload actions.
    upload_bytes: int = 0
    #: Bytes Upload actions skipped because identical content was
    #: already GPU-resident (repeated replays, recovery retries).
    upload_skipped_bytes: int = 0
    #: Virtual time spent inside Upload actions (resident-check or DMA).
    upload_ns: int = 0
    #: Virtual time spent blocked on GPU interrupts (WaitIrq plus the
    #: implicit wait synthesized for asynchronous IrqEnter).
    irq_wait_ns: int = 0
    #: Virtual time of the first job-kick write (GR "startup" ends here).
    first_kick_at_ns: int = -1

    def add(self, other: "InterpreterStats") -> None:
        """Accumulate ``other``'s totals (``first_kick_at_ns`` is not one)."""
        for f in fields(self):
            if f.name != "first_kick_at_ns":
                setattr(self, f.name,
                        getattr(self, f.name) + getattr(other, f.name))
