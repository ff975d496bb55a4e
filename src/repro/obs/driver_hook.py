"""The obs layer's subscription to the driver's trace chokepoints.

The same :class:`~repro.stack.driver.trace.TraceEvent` stream the
recorder consumes (Section 4.1's instrumentation) also feeds metrics
and the timeline here -- fan-out through the driver's
:class:`~repro.stack.driver.trace.TracerMux` means both subscribers
see every event, simultaneously, with zero virtual-time cost.

Metric names emitted here (``driver.*``) are part of the stable
metrics interface documented in DESIGN.md.
"""

from __future__ import annotations

from weakref import proxy

from repro.stack.driver import trace


class ObsDriverTracer(trace.DriverTracer):
    """Converts driver chokepoint events into metrics + timeline rows."""

    def __init__(self, obs):
        self.obs = proxy(obs)  # the session owns its tracer
        self._cpu = obs.track("cpu", "driver")
        self._irq_track = obs.track("cpu", "irq")
        self._irq_span = None

    def emit(self, event: trace.TraceEvent) -> None:
        obs = self.obs
        if isinstance(event, trace.RegWriteEvent):
            obs.counter("driver.reg_writes").inc()
        elif isinstance(event, trace.RegReadEvent):
            obs.counter("driver.reg_reads").inc()
        elif isinstance(event, trace.RegPollEvent):
            obs.counter("driver.poll_loops").inc()
            obs.counter("driver.poll_iterations").inc(event.polls)
            obs.instant(f"poll:{event.name}", self._cpu,
                        args={"polls": event.polls,
                              "success": event.success,
                              "src": event.src})
        elif isinstance(event, trace.WaitIrqEvent):
            obs.counter("driver.irq_waits").inc()
            obs.instant("wait-irq", self._cpu,
                        args={"timeout_ns": event.timeout_ns,
                              "src": event.src})
        elif isinstance(event, trace.IrqEvent):
            if event.phase == "enter":
                obs.counter("driver.irq_entries").inc()
                self._irq_span = obs.begin("irq", self._irq_track,
                                           cat="irq",
                                           args={"src": event.src})
            elif self._irq_span is not None:
                obs.end(self._irq_span)
                self._irq_span = None
        elif isinstance(event, trace.JobKickEvent):
            obs.counter("driver.job_kicks").inc()
            obs.instant(f"job-kick:slot{event.slot}", self._cpu,
                        args={"chain_va": event.chain_va,
                              "job_index": event.job_index,
                              "src": event.src})
        elif isinstance(event, trace.MemMapEvent):
            obs.counter("driver.mem_maps").inc()
            obs.counter("driver.mapped_pages").inc(event.num_pages)
        elif isinstance(event, trace.MemUnmapEvent):
            obs.counter("driver.mem_unmaps").inc()
