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
It also captures the machine's flight tape, the replay path's one
per-chokepoint stream: the session's replay timeline rows and
``replay.*`` metrics are views of it.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from repro.obs.chrome_trace import event_to_dict, flight_chrome_events
from repro.obs.metrics import (LATENCY_BUCKETS_NS, Counter, Gauge,
                               Histogram, MetricsRegistry)
from repro.obs.tracer import SpanHandle, SpanTracer, Track
from repro.soc.nullobs import NULL_OBS, NullObservability

#: Recording action type -> the flight kind each execution of it
#: records exactly once, and the counter of those executions.
_EXECUTIONS = {"RegWrite": ("RegWrite", "replay.reg_writes"),
               "RegReadOnce": ("RegRead", "replay.reg_reads"),
               "RegReadWait": ("RegPoll", "replay.reg_polls"),
               "Upload": ("Upload", "replay.uploads")}


class Observability:
    """One machine's telemetry: a span tracer, a metrics registry and,
    for a session attached to a ``machine``, its flight tape."""

    enabled = True

    def __init__(self, clock, machine=None):
        self.tracer = SpanTracer(clock)
        self.metrics = MetricsRegistry()
        self._driver_tracer = None
        #: Every flight event since the session started.
        self.tape = [] if machine is None else machine.flight.start_capture()
        gpu = getattr(machine, "gpu", None)
        self._gpu_process = f"gpu:{gpu.model_name}" if gpu else "gpu"
        #: Tape events already folded into the metrics.
        self._published = 0

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

    def publish_replay(self, recording, stats) -> None:
        """Publish one executor pass over ``recording`` (the replayer
        calls this once per pass): totals from its
        :class:`~repro.core.actions.InterpreterStats`, counts and
        interrupt waits from the tape events charged to its actions
        since the previous pass. The keys registered depend on the
        recording's action types, not on how far the pass got."""
        events = self.tape[self._published:]
        self._published = len(self.tape)
        actions = recording.actions
        kinds = {type(action).__name__ for action in actions}
        counter = self.metrics.counter
        for kind in kinds & _EXECUTIONS.keys():
            counter(_EXECUTIONS[kind][1])
        if "Upload" in kinds:
            counter("replay.upload_bytes").inc(stats.upload_bytes)
            counter("replay.upload_skipped_bytes").inc(
                stats.upload_skipped_bytes)
        if kinds & {"WaitIrq", "IrqEnter"}:
            waits = counter("replay.irq_waits")
            wait_ns = self.histogram("replay.irq_wait_ns",
                                     LATENCY_BUCKETS_NS)
        counter("replay.actions").inc(stats.actions_executed)
        counter("replay.pacing_wait_ns").inc(stats.pacing_wait_ns)
        irqs = 0
        for _seq, _t_ns, kind, index, detail in events:
            if index < 0:
                continue
            if kind == "WaitIrq":
                waits.inc()
                wait_ns.observe(detail[2])
            elif kind == "GpuIrqRaise":
                irqs += 1
            else:
                own = _EXECUTIONS.get(type(actions[index]).__name__)
                if own is not None and own[0] == kind:
                    counter(own[1]).inc()
        if irqs:
            counter("nano.irqs").inc(irqs)

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
        """The span tracer's rows plus the flight tape's replay rows."""
        flight = flight_chrome_events(
            [event_to_dict(event) for event in self.tape],
            self.tracer.track, self._gpu_process)
        trace = self.tracer.to_chrome_trace()
        trace["traceEvents"].extend(flight)
        return trace

    def export_timeline(self, path: str) -> dict:
        trace = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1)
        return trace


def enable_observability(machine) -> Observability:
    """Attach a live obs session to ``machine`` (idempotent).

    Call *before* constructing drivers/runtimes so their chokepoint
    subscriptions land on the live session. The session captures the
    machine's flight tape from here on.
    """
    if isinstance(machine.obs, Observability):
        return machine.obs
    obs = Observability(machine.clock, machine)
    machine.obs = obs
    return obs
