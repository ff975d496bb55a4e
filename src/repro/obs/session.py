"""The per-machine observability session and its null twin.

Every :class:`~repro.soc.machine.Machine` carries an ``obs`` attribute.
By default it is :data:`NULL_OBS` (defined in :mod:`repro.soc.nullobs`,
re-imported here) -- an object with the same surface
as :class:`Observability` whose every method is a no-op -- so the
instrumented code paths (driver, recorder, interpreter, environments)
never branch on "is obs on?" and never pay more than one attribute
lookup and a call when it is off.

``enable_observability(machine)`` swaps in a live session *before*
stack bring-up; components constructed afterwards subscribe to it.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import SpanHandle, SpanTracer, Track
from repro.soc.nullobs import NULL_OBS, NullObservability


class Observability:
    """One machine's telemetry: a span tracer plus a metrics registry."""

    enabled = True

    def __init__(self, clock):
        self.tracer = SpanTracer(clock)
        self.metrics = MetricsRegistry()
        self._driver_tracer = None

    # -- tracing shortcuts -----------------------------------------------------

    def track(self, process: str, thread: str = "main") -> Track:
        return self.tracer.track(process, thread)

    def span(self, name: str, track: Track, cat: str = "",
             args: Optional[dict] = None):
        return self.tracer.span(name, track, cat, args)

    def begin(self, name: str, track: Track, cat: str = "",
              args: Optional[dict] = None) -> SpanHandle:
        return self.tracer.begin(name, track, cat, args)

    def end(self, handle: SpanHandle,
            args: Optional[dict] = None) -> None:
        self.tracer.end(handle, args)

    def instant(self, name: str, track: Track,
                args: Optional[dict] = None) -> None:
        self.tracer.instant(name, track, args)

    def complete(self, name: str, track: Track, start_ns: int,
                 end_ns: int, args: Optional[dict] = None,
                 cat: str = "") -> None:
        self.tracer.complete(name, track, start_ns, end_ns, args, cat)

    # -- metrics shortcuts -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str,
                  boundaries: Optional[Sequence[float]] = None
                  ) -> Histogram:
        return self.metrics.histogram(name, boundaries)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.metrics.snapshot()

    # -- driver chokepoint subscription ----------------------------------------

    def driver_tracer(self):
        """The DriverTracer that feeds this session (lazily built).

        Imported lazily: :mod:`repro.obs.driver_hook` pulls in
        :mod:`repro.stack.driver.trace`, and a session on a replay-only
        machine must not load the stack it replaces.
        """
        if self._driver_tracer is None:
            from repro.obs.driver_hook import ObsDriverTracer
            self._driver_tracer = ObsDriverTracer(self)
        return self._driver_tracer

    # -- export ----------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        return self.tracer.to_chrome_trace()

    def export_timeline(self, path: str) -> dict:
        trace = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1)
        return trace


def enable_observability(machine) -> Observability:
    """Attach a live obs session to ``machine`` (idempotent).

    Call *before* constructing drivers/runtimes so their chokepoint
    subscriptions land on the live session.
    """
    if isinstance(machine.obs, Observability):
        return machine.obs
    obs = Observability(machine.clock)
    machine.obs = obs
    return obs
