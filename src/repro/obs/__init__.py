"""``repro.obs`` -- unified observability for the whole reproduction.

The paper's evaluation is built on *seeing* the CPU/GPU boundary:
register I/O counts, polling iterations, dump bytes, IRQ wait
latencies, replay retries (Section 7, Figures 3-11). This package is
the one place all of that telemetry flows through:

- :mod:`repro.obs.tracer` -- a span tracer keyed to the virtual clock,
  exporting Chrome trace-event JSON (``chrome://tracing`` / Perfetto);
- :mod:`repro.obs.metrics` -- counters, gauges and fixed-boundary
  histograms with a JSON-serializable snapshot;
- :mod:`repro.obs.session` -- the :class:`Observability` object that a
  :class:`~repro.soc.machine.Machine` carries (a no-op null object by
  default, so the instrumented code paths cost nothing when disabled);
- :mod:`repro.obs.chrome_trace` -- a validator for the exported
  timeline (used by tests, ``grr trace`` and the CI smoke job);
- :mod:`repro.soc.flight` -- the always-on bounded flight recorder
  every machine carries (forensics for ``grr doctor``) lives beside
  the machine, as does the null session this package re-imports;
- :mod:`repro.obs.rtrace` -- request-scoped tracing for the serving
  path: one causal span tree per request, JSONL/Chrome export,
  completeness validation (event-log schema v1);
- :mod:`repro.obs.attribution` -- tail-latency attribution over
  rtrace logs (exclusive-time decomposition by stage);
- :mod:`repro.obs.slo` -- declarative latency/error-budget objectives
  with sliding-window burn rates and deterministic alerts;
- :mod:`repro.obs.prof` -- the continuous profiler: exclusive
  virtual time folded onto server/worker/rung/action/kernel frame
  stacks (``.folded`` + Chrome flamegraph export);
- :mod:`repro.obs.timeseries` -- periodic virtual-clock scrapes of
  the metrics registry into ring-buffered series (OpenMetrics +
  JSONL exporters, ``grr dash``);
- :mod:`repro.obs.doctor` -- divergence localization and failure
  forensics (NOT imported here: it depends on the replayer and the
  GPU models, which nothing else in this package needs -- import it
  by name, ``from repro.obs.doctor import run_doctor``).

Determinism contract: observability only ever *reads* the virtual
clock. Enabling it must change recorded/replayed virtual-time results
by exactly zero.
"""

from repro.obs.attribution import AttributionReport, attribute
from repro.obs.chrome_trace import validate_chrome_trace
from repro.obs.metrics import (LATENCY_BUCKETS_NS, SIZE_BUCKETS_BYTES,
                               Counter, Gauge, Histogram, MetricsRegistry,
                               global_registry, snapshot_diff)
from repro.obs.prof import (chrome_flame, folded_stacks, parse_folded,
                            to_folded_text, validate_folded)
from repro.obs.rtrace import (NULL_RTRACE, NullRequestTracer,
                              RequestTracer, SpanNode, events_to_chrome,
                              events_to_jsonl, load_events, span_trees,
                              validate_events)
from repro.obs.session import (NULL_OBS, NullObservability, Observability,
                               enable_observability)
from repro.obs.slo import (SloAlert, SloResult, SloSpec, default_slos,
                           evaluate_slos, slo_report)
from repro.obs.timeseries import (TimeSeriesCollector,
                                  validate_openmetrics)
from repro.obs.tracer import SpanTracer, Track

__all__ = [
    "AttributionReport",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_NS",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_RTRACE",
    "NullObservability",
    "NullRequestTracer",
    "Observability",
    "RequestTracer",
    "SIZE_BUCKETS_BYTES",
    "SloAlert",
    "SloResult",
    "SloSpec",
    "SpanNode",
    "SpanTracer",
    "TimeSeriesCollector",
    "Track",
    "attribute",
    "chrome_flame",
    "default_slos",
    "enable_observability",
    "evaluate_slos",
    "events_to_chrome",
    "events_to_jsonl",
    "folded_stacks",
    "global_registry",
    "load_events",
    "parse_folded",
    "slo_report",
    "snapshot_diff",
    "span_trees",
    "to_folded_text",
    "validate_chrome_trace",
    "validate_events",
    "validate_folded",
    "validate_openmetrics",
]
