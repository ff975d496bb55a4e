"""The flight recorder: always-on, bounded chokepoint history.

Full tracing (:mod:`repro.obs.tracer`) is opt-in and unbounded; the
flight recorder is the opposite trade-off, after rr's "always be
recording" lesson: every machine keeps a fixed-size ring of the most
recent chokepoint events -- register I/O, polls, IRQ waits, memory
maps, uploads, pacing decisions, job kicks -- even when observability
is off. When a replay diverges, the ring *is* the forensic record: the
doctor (:mod:`repro.obs.doctor`) folds its tail into the
:class:`~repro.obs.doctor.DivergenceReport`.

Contract (same as the rest of the obs layer, but stricter because the
recorder cannot be turned off): recording an event never touches the
virtual clock and never allocates beyond the ring -- a bounded deque
of small tuples. Events are stored as plain tuples
``(seq, t_ns, kind, action_index, detail)`` to keep the hot-path cost
at one tuple build plus one deque append; the doctor expands them.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Tuple

#: Default ring capacity. Sized to hold the full tail of one job --
#: kick, poll, IRQ wait, completion reads -- plus the surrounding
#: memory traffic, while keeping the always-on footprint in the tens
#: of kilobytes.
DEFAULT_RING_SIZE = 256


class FlightEvent(NamedTuple):
    """One chokepoint event, as handed out by :meth:`FlightRecorder.window`."""

    seq: int
    t_ns: int
    kind: str
    action_index: int
    detail: Tuple


class FlightRecorder:
    """Fixed-size ring of recent chokepoint events, always on.

    One per :class:`~repro.soc.machine.Machine` (``machine.flight``).
    Executors keep :attr:`action_index` pointed at the replay action
    currently in flight so every event lands pre-attributed; code that
    runs outside a replay (record-time device activity) tags events
    with whatever index is current, usually ``-1``.
    """

    __slots__ = ("ring", "seq", "action_index", "_tape")

    def __init__(self, capacity: int = DEFAULT_RING_SIZE):
        if capacity < 1:
            raise ValueError(
                f"flight recorder capacity must be >= 1, got {capacity}")
        self.ring: deque = deque(maxlen=capacity)
        #: Total events ever recorded; the next event's sequence number.
        self.seq = 0
        #: Replay action currently executing (set by the interpreters).
        self.action_index = -1
        self._tape: Optional[list] = None

    # -- hot path -------------------------------------------------------------

    def record(self, t_ns: int, kind: str, detail: Tuple = ()) -> None:
        """Append one event. Never advances the clock."""
        event = (self.seq, t_ns, kind, self.action_index, detail)
        self.seq += 1
        self.ring.append(event)
        tape = self._tape
        if tape is not None:
            tape.append(event)

    # -- capacity accounting --------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.ring.maxlen or 0

    @property
    def ring_size(self) -> int:
        """Alias for :attr:`capacity` (stable report-schema name)."""
        return self.ring.maxlen or 0

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring since the last :meth:`clear`."""
        return self.seq - len(self.ring)

    def __len__(self) -> int:
        return len(self.ring)

    def clear(self) -> None:
        self.ring.clear()
        self.seq = 0
        self.action_index = -1

    def snapshot(self) -> Dict[str, int]:
        """``flight.*`` gauge values (events seen, drops, capacity)."""
        return {
            "flight.events": self.seq,
            "flight.dropped": self.dropped,
            "flight.ring_size": self.ring_size,
        }

    # -- inspection -----------------------------------------------------------

    def window(self, last: Optional[int] = None) -> List[FlightEvent]:
        """The most recent ``last`` events (all retained, by default),
        oldest first."""
        events = list(self.ring)
        if last is not None:
            events = events[-last:]
        return [FlightEvent(*event) for event in events]

    # -- lockstep capture ------------------------------------------------------

    def start_capture(self) -> List[Tuple]:
        """Additionally copy every future event onto an unbounded tape.

        The doctor's fast-vs-reference lockstep comparison needs the
        *complete* event stream of one replay, not just the ring tail;
        the returned list grows as events arrive and stays valid after
        :meth:`stop_capture`.
        """
        self._tape = []
        return self._tape

    def stop_capture(self) -> List[Tuple]:
        tape = self._tape if self._tape is not None else []
        self._tape = None
        return tape
