"""The no-op observability session a machine starts with.

``machine.obs`` is :data:`NULL_OBS` until ``enable_observability``
swaps in a live :class:`repro.obs.session.Observability`. It lives
under ``soc`` so that a machine never imports :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Track:
    """One timeline row: a (pid, tid) pair."""

    pid: int
    tid: int


class _NullSpan:
    """A reusable no-op span handle / context manager."""

    __slots__ = ()
    closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def end(self, args: Optional[dict] = None) -> None:
        pass


class _NullMetric:
    """Accepts every Counter/Gauge/Histogram mutation, records nothing."""

    __slots__ = ()
    value = 0
    count = 0
    sum = 0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def mean(self) -> float:
        return 0.0


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()
_NULL_TRACK = Track(0, 0)


class NullObservability:
    """Same surface as :class:`Observability`; does nothing."""

    enabled = False

    def track(self, process: str, thread: str = "main") -> Track:
        return _NULL_TRACK

    def span(self, name, track, cat="", args=None):
        return _NULL_SPAN

    def begin(self, name, track, cat="", args=None):
        return _NULL_SPAN

    def end(self, handle, args=None) -> None:
        pass

    def instant(self, name, track, args=None) -> None:
        pass

    def complete(self, name, track, start_ns, end_ns, args=None,
                 cat="") -> None:
        pass

    def counter(self, name):
        return _NULL_METRIC

    def gauge(self, name):
        return _NULL_METRIC

    def histogram(self, name, boundaries=None):
        return _NULL_METRIC

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def publish_replay(self, recording, stats) -> None:
        pass

    def driver_tracer(self):
        return None

    def to_chrome_trace(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}


NULL_OBS = NullObservability()
