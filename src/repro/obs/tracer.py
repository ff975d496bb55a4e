"""A span tracer keyed to the virtual clock.

Spans are emitted as Chrome trace-event JSON (the format loaded by
``chrome://tracing`` and Perfetto). Every span lives on a *track* --
one (pid, tid) pair per simulated process/thread: the CPU environment
gets one pid with tids for its streams; each GPU gets its own pid.
The replay path's per-action, per-job and GPU-slot rows are not spans:
an obs session draws them from the flight tape on the same tracks
(:func:`repro.obs.chrome_trace.flight_chrome_events`).

The tracer NEVER advances the clock; it only reads ``clock.now()``.
That is the determinism contract of the whole obs layer: virtual-time
results with tracing enabled are bit-identical to results without.

Internally timestamps stay integer nanoseconds; they are converted to
the trace-event format's microseconds only at export.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.soc.nullobs import Track


class SpanHandle:
    """An open span; ``closed`` guards against double-ends."""

    __slots__ = ("name", "track", "start_ns", "args", "closed")

    def __init__(self, name: str, track: Track, start_ns: int,
                 args: Optional[dict]):
        self.name = name
        self.track = track
        self.start_ns = start_ns
        self.args = args
        self.closed = False


class SpanTracer:
    """Collects trace events against a virtual clock."""

    def __init__(self, clock):
        self._clock = clock
        self._events: List[dict] = []
        self._tracks: Dict[Tuple[str, str], Track] = {}
        self._pids: Dict[str, int] = {}
        self._next_pid = 1
        self._next_tid = 1
        self._stacks: Dict[Track, List[SpanHandle]] = {}

    # -- tracks ----------------------------------------------------------------

    def track(self, process: str, thread: str = "main") -> Track:
        """Get-or-create the track for a process/thread pair.

        First use emits the ``process_name``/``thread_name`` metadata
        events that make the Perfetto UI label the rows.
        """
        key = (process, thread)
        track = self._tracks.get(key)
        if track is not None:
            return track
        pid = self._pids.get(process)
        if pid is None:
            pid = self._next_pid
            self._next_pid += 1
            self._pids[process] = pid
            self._events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": process}})
        tid = self._next_tid
        self._next_tid += 1
        track = Track(pid, tid)
        self._tracks[key] = track
        self._events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": thread}})
        return track

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str, track: Track, cat: str = "",
              args: Optional[dict] = None) -> SpanHandle:
        now = self._clock.now()
        handle = SpanHandle(name, track, now, args)
        self._stacks.setdefault(track, []).append(handle)
        event = {"ph": "B", "name": name, "pid": track.pid,
                 "tid": track.tid, "ts_ns": now}
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = dict(args)
        self._events.append(event)
        return handle

    def end(self, handle: SpanHandle,
            args: Optional[dict] = None) -> None:
        """Close ``handle`` (and, LIFO-style, anything opened inside it
        that was left open -- abandoned children are auto-closed at the
        same timestamp so the exported trace always nests)."""
        if handle.closed:
            return
        stack = self._stacks.get(handle.track, [])
        if handle not in stack:
            handle.closed = True
            return
        now = self._clock.now()
        while stack:
            top = stack.pop()
            top.closed = True
            event = {"ph": "E", "name": top.name, "pid": top.track.pid,
                     "tid": top.track.tid, "ts_ns": now}
            if top is handle and args:
                event["args"] = dict(args)
            self._events.append(event)
            if top is handle:
                break

    @contextmanager
    def span(self, name: str, track: Track, cat: str = "",
             args: Optional[dict] = None):
        handle = self.begin(name, track, cat, args)
        try:
            yield handle
        finally:
            self.end(handle)

    # -- point and interval events ------------------------------------------------

    def instant(self, name: str, track: Track,
                args: Optional[dict] = None) -> None:
        event = {"ph": "i", "name": name, "pid": track.pid,
                 "tid": track.tid, "ts_ns": self._clock.now(), "s": "t"}
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def complete(self, name: str, track: Track, start_ns: int,
                 end_ns: int, args: Optional[dict] = None,
                 cat: str = "") -> None:
        """A closed interval recorded after the fact (ph ``X``)."""
        event = {"ph": "X", "name": name, "pid": track.pid,
                 "tid": track.tid, "ts_ns": start_ns,
                 "dur_ns": max(0, end_ns - start_ns)}
        if cat:
            event["cat"] = cat
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def counter_sample(self, name: str, track: Track,
                       values: Dict[str, float]) -> None:
        self._events.append({
            "ph": "C", "name": name, "pid": track.pid, "tid": track.tid,
            "ts_ns": self._clock.now(), "args": dict(values)})

    # -- export ---------------------------------------------------------------------

    def open_span_count(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())

    def finalize(self) -> None:
        """Close every still-open span at the current virtual time."""
        for stack in self._stacks.values():
            while stack:
                top = stack[-1]
                self.end(top, args={"auto_closed": True})

    @property
    def event_count(self) -> int:
        return len(self._events)

    def to_chrome_trace(self) -> dict:
        """Export as a Chrome trace-event JSON object.

        Still-open spans are closed at the current instant first, so
        the result always validates. ``ts``/``dur`` are microseconds
        per the trace-event spec; the exact nanosecond values ride
        along in ``args`` consumers that need them can use.
        """
        self.finalize()
        out = []
        for event in self._events:
            converted = {k: v for k, v in event.items()
                         if k not in ("ts_ns", "dur_ns")}
            if "ts_ns" in event:
                converted["ts"] = event["ts_ns"] / 1e3
            if "dur_ns" in event:
                converted["dur"] = event["dur_ns"] / 1e3
            out.append(converted)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "virtual-ns",
                          "exporter": "repro.obs"},
        }
