"""Virtual time: a discrete-event clock and clock domains.

Every delay in the simulation -- GPU job execution, driver polling
loops, JIT compilation, world switches -- is expressed as virtual
nanoseconds on a single :class:`VirtualClock`. The clock doubles as a
tiny discrete-event engine: devices schedule future events (e.g. "job
completes in 3 ms, then raise the job IRQ") and the events fire when
CPU-side code advances time past them.

Determinism: with a fixed machine seed, the same program produces the
same event order and the same final virtual time on every run, which is
what makes the benchmark suite reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SocError


@dataclass(order=True)
class _Event:
    due_ns: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    tag: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)


class EventHandle:
    """Opaque handle returned by :meth:`VirtualClock.schedule`."""

    def __init__(self, event: _Event):
        self._event = event

    @property
    def due_ns(self) -> int:
        return self._event.due_ns

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        self._event.cancelled = True


class VirtualClock:
    """Monotonic virtual-time source with a pending-event queue.

    ``advance(delta)`` moves time forward, firing any scheduled events
    whose due time falls inside the advanced window. Event callbacks run
    with ``now()`` set to their due time, so a callback that schedules
    further events keeps causality intact.
    """

    def __init__(self) -> None:
        #: Current virtual time in nanoseconds. Read-only: only the
        #: clock moves it. Hot paths read it instead of calling now().
        self.now_ns = 0
        self._heap: List[_Event] = []
        self._seq = itertools.count()
        self._draining = False

    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.now_ns

    def schedule(self, delay_ns: int, callback: Callable[[], None],
                 tag: str = "") -> EventHandle:
        """Schedule ``callback`` to fire ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SocError(f"cannot schedule event in the past ({delay_ns} ns)")
        event = _Event(self.now_ns + delay_ns, next(self._seq), callback, tag)
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def advance(self, delta_ns: int) -> None:
        """Advance virtual time by ``delta_ns``, firing due events."""
        if delta_ns < 0:
            raise SocError(f"cannot advance time backwards ({delta_ns} ns)")
        target_ns = self.now_ns + delta_ns
        heap = self._heap
        if self._draining or (heap and (heap[0].due_ns <= target_ns
                                        or heap[0].cancelled)):
            self._advance_to(target_ns)
        else:
            # Nothing due inside the window -- the overwhelmingly
            # common case for small CPU-side advances -- in one frame.
            self.now_ns = target_ns

    def next_event_ns(self) -> Optional[int]:
        """Due time of the earliest pending event, or None."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0].due_ns

    def advance_to_next_event(self, limit_ns: Optional[int] = None) -> bool:
        """Jump to the next pending event (bounded by ``limit_ns``).

        Returns True if an event was reached and fired, False if there
        was no event inside the bound (time advances to the bound).
        """
        due = self.next_event_ns()
        if due is None or (limit_ns is not None and due > limit_ns):
            if limit_ns is not None and limit_ns > self.now_ns:
                self._advance_to(limit_ns)
            return False
        self._advance_to(due)
        return True

    def pending_count(self) -> int:
        self._discard_cancelled()
        return len(self._heap)

    # -- internals ---------------------------------------------------------

    def _discard_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    def _advance_to(self, target_ns: int) -> None:
        if self._draining:
            # An event callback advanced the clock; just move time, the
            # outer drain loop keeps firing newly-due events.
            if target_ns > self.now_ns:
                self.now_ns = target_ns
            return
        self._draining = True
        try:
            while True:
                self._discard_cancelled()
                if not self._heap or self._heap[0].due_ns > target_ns:
                    break
                event = heapq.heappop(self._heap)
                if event.due_ns > self.now_ns:
                    self.now_ns = event.due_ns
                event.callback()
                # Callbacks may push time forward; never move backwards.
                if self.now_ns > target_ns:
                    target_ns = self.now_ns
            if target_ns > self.now_ns:
                self.now_ns = target_ns
        finally:
            self._draining = False


class ClockDomain:
    """A named clock domain with a programmable rate.

    GPU cost models convert work (cycles) to virtual time through the
    domain's current rate, so underclocking the GPU genuinely slows the
    simulated jobs down -- which is how the paper's "underclocked GPU
    fails to keep up with replay actions" failure mode is reproduced.
    """

    def __init__(self, name: str, rate_hz: int, clock: VirtualClock,
                 stabilize_ns: int = 0):
        if rate_hz <= 0:
            raise SocError(f"clock domain {name}: rate must be positive")
        self.name = name
        self._rate_hz = rate_hz
        self._clock = clock
        self._stabilize_ns = stabilize_ns
        self._stable_at_ns = 0
        self.enabled = True

    @property
    def rate_hz(self) -> int:
        return self._rate_hz

    def set_rate(self, rate_hz: int) -> None:
        """Change the domain rate; the domain needs time to re-stabilize."""
        if rate_hz <= 0:
            raise SocError(f"clock domain {self.name}: rate must be positive")
        self._rate_hz = rate_hz
        self._stable_at_ns = self._clock.now() + self._stabilize_ns

    def is_stable(self) -> bool:
        return self._clock.now() >= self._stable_at_ns

    def cycles_to_ns(self, cycles: float) -> int:
        """Convert a cycle count at the current rate to nanoseconds."""
        if not self.enabled:
            raise SocError(f"clock domain {self.name} is gated off")
        return max(1, int(cycles * 1_000_000_000 / self._rate_hz))

