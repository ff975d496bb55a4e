"""The metrics registry: counters, gauges and fixed-bucket histograms.

Metric names form a stable interface (documented in DESIGN.md and
README.md): experiments and the ``BENCH_*.json`` trajectory key on
them, so renaming one is an API change. Histograms use *fixed* bucket
boundaries chosen at creation, so snapshots from different runs are
directly comparable -- no adaptive binning.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ObsError
from repro.units import LATENCY_BUCKETS_NS, SIZE_BUCKETS_BYTES


class Counter:
    """A monotonically increasing integer-or-float count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """A value that can move both ways (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A fixed-boundary histogram (cumulative-style buckets).

    ``boundaries`` are the inclusive upper edges of the first
    ``len(boundaries)`` buckets; one implicit overflow bucket catches
    everything above the last edge.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "sum")

    def __init__(self, name: str,
                 boundaries: Sequence[float] = LATENCY_BUCKETS_NS):
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ObsError(
                f"histogram {name}: boundaries must be sorted, non-empty")
        self.name = name
        self.boundaries = tuple(boundaries)
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value: float) -> None:
        index = len(self.boundaries)
        for i, edge in enumerate(self.boundaries):
            if value <= edge:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def overflow_count(self) -> int:
        """Observations above the last boundary.

        These are invisible to :meth:`percentile` beyond the clamp to
        the last edge, so snapshots report them explicitly: a non-zero
        overflow count is the signal that high quantiles are
        underestimates and the boundaries need widening.
        """
        return self.bucket_counts[-1]

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile from the bucket counts.

        Linear interpolation inside the bucket holding the requested
        rank, assuming observations spread evenly across it (the
        standard fixed-bucket estimator). The overflow bucket has no
        upper edge, so estimates clamp to the last boundary -- a known
        property of fixed-bucket percentiles, not a bug.
        """
        if not 0.0 <= q <= 100.0:
            raise ObsError(
                f"histogram {self.name}: percentile {q} not in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        cumulative = 0.0
        lower = 0.0
        for i, bucket_count in enumerate(self.bucket_counts):
            if i == len(self.boundaries):
                # Overflow bucket: no upper edge, so any rank landing
                # here clamps to the last boundary (see docstring).
                return float(self.boundaries[-1])
            upper = float(self.boundaries[i])
            if bucket_count and cumulative + bucket_count >= rank:
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
            lower = upper
        return float(self.boundaries[-1])


class MetricsRegistry:
    """Name -> metric map with get-or-create accessors.

    A name is bound to one metric kind forever; asking for the same
    name as a different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ObsError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  boundaries: Optional[Sequence[float]] = None
                  ) -> Histogram:
        if boundaries is None:
            boundaries = LATENCY_BUCKETS_NS
        metric = self._get_or_create(name, Histogram, boundaries)
        if metric.boundaries != tuple(boundaries):
            raise ObsError(
                f"histogram {name!r} re-requested with different "
                "boundaries")
        return metric

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-serializable dump of every metric, keyed by kind."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                hist: Histogram = metric  # type: ignore[assignment]
                out["histograms"][name] = {
                    "boundaries": list(hist.boundaries),
                    "bucket_counts": list(hist.bucket_counts),
                    "count": hist.count,
                    "sum": hist.sum,
                    "overflow_count": hist.overflow_count,
                    "p50": hist.percentile(50),
                    "p95": hist.percentile(95),
                    "p99": hist.percentile(99),
                }
        return out

    def reset(self) -> None:
        self._metrics.clear()


def namespace_snapshot(prefix: str,
                       snapshot: Dict[str, Dict[str, object]]
                       ) -> Dict[str, Dict[str, object]]:
    """The same snapshot with every name prefixed ``prefix.name`` --
    how a fleet report keeps per-node metrics apart (``node0.serve.*``)
    without a label dimension the exporters don't have."""
    return {kind: {f"{prefix}.{name}": value
                   for name, value in (snapshot.get(kind) or {}).items()}
            for kind in ("counters", "gauges", "histograms")}


def merge_snapshots(snapshots: list) -> Dict[str, Dict[str, object]]:
    """Aggregate registry snapshots (one per fleet node) into one.

    Counters and gauges sum name-wise (the gauges that survive
    aggregation meaningfully -- worker counts, queue depths -- are
    additive; rate gauges should be recomputed fleet-side, not
    merged). Histograms with identical boundaries merge bucket-wise
    and re-derive their percentiles from the merged buckets, so the
    fleet p99 is estimated from fleet-wide data, not averaged.
    """
    merged: Dict[str, Dict[str, object]] = {
        "counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for kind in ("counters", "gauges"):
            for name, value in (snapshot.get(kind) or {}).items():
                merged[kind][name] = merged[kind].get(name, 0) + value
        for name, hist in (snapshot.get("histograms") or {}).items():
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = {
                    "boundaries": list(hist["boundaries"]),
                    "bucket_counts": list(hist["bucket_counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                }
                continue
            if into["boundaries"] != list(hist["boundaries"]):
                raise ObsError(
                    f"histogram {name!r}: cannot merge differing "
                    "boundaries")
            into["bucket_counts"] = [
                a + b for a, b in zip(into["bucket_counts"],
                                      hist["bucket_counts"])]
            into["count"] += hist["count"]
            into["sum"] += hist["sum"]
    for name, hist in merged["histograms"].items():
        scratch = Histogram(name, hist["boundaries"])
        scratch.bucket_counts = list(hist["bucket_counts"])
        scratch.count = hist["count"]
        scratch.sum = hist["sum"]
        hist["overflow_count"] = scratch.overflow_count
        hist["p50"] = scratch.percentile(50)
        hist["p95"] = scratch.percentile(95)
        hist["p99"] = scratch.percentile(99)
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    return merged


def snapshot_diff(before: Dict[str, Dict[str, object]],
                  after: Dict[str, Dict[str, object]]
                  ) -> Dict[str, object]:
    """Structured comparison of two :meth:`MetricsRegistry.snapshot` dumps.

    Returns a JSON-serializable report with, per metric kind, the
    series that appeared (``added``), vanished (``removed``), and
    changed value (``changed``). Counters and gauges report numeric
    deltas; histograms report count/sum deltas plus percentile shifts
    -- the before/after triage view ``grr stats --diff`` renders.

    Snapshots may come from different runs of different code versions
    (that is the whole point), so the diff is defensive: metrics
    present only in ``after`` (counters registered mid-run) land in
    ``added``, kind sections may be missing or ``None`` entirely, and
    malformed values degrade to a before/after report without a delta
    instead of raising.
    """
    def _numeric(value) -> bool:
        return isinstance(value, (int, float)) \
            and not isinstance(value, bool)

    report: Dict[str, object] = {}
    for kind in ("counters", "gauges"):
        a = dict(before.get(kind) or {})
        b = dict(after.get(kind) or {})
        added = {name: b[name] for name in sorted(set(b) - set(a))}
        removed = {name: a[name] for name in sorted(set(a) - set(b))}
        changed = {}
        for name in sorted(set(a) & set(b)):
            if a[name] != b[name]:
                entry = {"before": a[name], "after": b[name]}
                if _numeric(a[name]) and _numeric(b[name]):
                    entry["delta"] = b[name] - a[name]
                changed[name] = entry
        report[kind] = {
            "added": added, "removed": removed, "changed": changed}
    a = dict(before.get("histograms") or {})
    b = dict(after.get("histograms") or {})
    hadded = {name: b[name] for name in sorted(set(b) - set(a))}
    hremoved = {name: a[name] for name in sorted(set(a) - set(b))}
    hchanged: Dict[str, object] = {}
    for name in sorted(set(a) & set(b)):
        ha, hb = a[name], b[name]
        if ha == hb:
            continue
        if not isinstance(ha, dict) or not isinstance(hb, dict):
            hchanged[name] = {"before": ha, "after": hb}
            continue

        def _field_delta(field: str, pa=ha, pb=hb):
            va, vb = pa.get(field, 0), pb.get(field, 0)
            if _numeric(va) and _numeric(vb):
                return vb - va
            return 0

        entry: Dict[str, object] = {
            "count_delta": _field_delta("count"),
            "sum_delta": _field_delta("sum"),
            "overflow_delta": _field_delta("overflow_count"),
        }
        for p in ("p50", "p95", "p99"):
            pa, pb = ha.get(p, 0.0), hb.get(p, 0.0)
            shift = pb - pa if _numeric(pa) and _numeric(pb) else 0
            entry[p] = {"before": pa, "after": pb, "shift": shift}
        hchanged[name] = entry
    report["histograms"] = {
        "added": hadded, "removed": hremoved, "changed": hchanged}
    return report


#: Process-wide registry for telemetry that is not tied to one machine
#: (the bench recording cache, report-level aggregates).
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _GLOBAL
