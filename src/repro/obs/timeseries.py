"""Time-series metrics: periodic virtual-clock scrapes of the registry.

The :class:`~repro.obs.metrics.MetricsRegistry` is a point-in-time
view; CI diffs two snapshots at most.  This module adds the third
dimension: a :class:`TimeSeriesCollector` scrapes the registry at
fixed *virtual-clock* intervals into bounded ring-buffer series, so a
serve run yields queue depth / shed rate / cache hit ratio curves
instead of a single end-state number.

Determinism: scrapes are pinned to exact interval boundaries
``t_k = k * interval_ns``.  ``maybe_scrape(now)`` is piggybacked on
the serving engine's event loop (a virtual clock has no timers of its
own and a recurring scheduled event would keep the drain loop alive
forever); each boundary crossed since the last call emits one sample
stamped at the boundary, carrying the registry state at the first
event point past it.  Same seed, same event sequence, same samples --
byte for byte in the JSONL export.

Exports are OpenMetrics text (dots become underscores, counters gain
``_total``) and JSONL (one ``{"series", "t_ns", "value"}`` object per
sample, sorted), plus sparkline-ready access for ``grr dash``.
"""

from __future__ import annotations

import json
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram

#: Default scrape cadence: 1 ms of virtual time.
DEFAULT_INTERVAL_NS = 1_000_000

#: Ring capacity per series; older samples are dropped (and counted).
DEFAULT_CAPACITY = 1024

#: Hard cap on distinct series so a misbehaving caller cannot grow
#: the collector without bound.
MAX_SERIES = 256


class Series:
    """One named metric over time, ring-bounded.

    Samples are two columns: stamps in an ``array``, values in a list
    so each keeps its Python type (JSONL writes ``1`` and ``1.0``
    differently). Once full, an append overwrites the oldest slot and
    moves the ring's head, so it costs O(1) at any fill.
    """

    __slots__ = ("name", "kind", "capacity", "dropped", "_t_ns",
                 "_values", "_head")

    def __init__(self, name: str, kind: str,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self.kind = kind  # "counter" | "gauge"
        self.capacity = capacity
        self.dropped = 0
        self._t_ns = array("q")
        self._values: List[float] = []
        #: Slot of the oldest sample once the ring is full.
        self._head = 0

    def append(self, t_ns: int, value: float) -> None:
        if len(self._values) < self.capacity:
            self._t_ns.append(t_ns)
            self._values.append(value)
            return
        head = self._head
        self._t_ns[head] = t_ns
        self._values[head] = value
        self._head = (head + 1) % self.capacity
        self.dropped += 1

    @property
    def samples(self) -> List[Tuple[int, float]]:
        """``(t_ns, value)`` pairs, oldest first."""
        pairs = list(zip(self._t_ns, self._values))
        return pairs[self._head:] + pairs[:self._head]

    def last(self) -> Optional[float]:
        return self._values[self._head - 1] if self._values else None

    def values(self) -> List[float]:
        return self._values[self._head:] + self._values[:self._head]


class TimeSeriesCollector:
    """Scrape a metrics registry into ring-buffered series.

    ``derive`` is an optional hook mapping the scraped counter and
    gauge values (a snapshot's ``"counters"`` and ``"gauges"``; no
    histograms) to extra gauge values
    (``{"serve.cache.hit_ratio": 0.93, ...}``) -- the serving engine
    uses it for ratios that only make sense as a time series, without
    polluting the registry itself.
    """

    def __init__(self, registry, interval_ns: int = DEFAULT_INTERVAL_NS,
                 capacity: int = DEFAULT_CAPACITY,
                 derive: Optional[Callable[[dict], Dict[str, float]]]
                 = None) -> None:
        self.registry = registry
        self.interval_ns = max(1, int(interval_ns))
        self.capacity = capacity
        self.derive = derive
        self.series: Dict[str, Series] = {}
        self.dropped_series = 0
        self.scrapes = 0
        self._next_t = 0

    # -- recording -----------------------------------------------------

    def _series(self, name: str, kind: str) -> Optional[Series]:
        entry = self.series.get(name)
        if entry is None:
            if len(self.series) >= MAX_SERIES:
                self.dropped_series += 1
                return None
            entry = Series(name, kind, self.capacity)
            self.series[name] = entry
        return entry

    def record(self, t_ns: int, name: str, value: float,
               kind: str = "gauge") -> None:
        entry = self._series(name, kind)
        if entry is not None:
            entry.append(t_ns, value)

    def scrape(self, t_ns: int) -> None:
        """Sample every registry metric once, stamped at ``t_ns``.

        Reads only what the series hold -- each counter and gauge
        value, each histogram's count and p95 -- rather than a full
        registry snapshot.
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: List[Tuple[str, Histogram]] = []
        for name, metric in self.registry.items():
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms.append((name, metric))
        for name, value in counters.items():
            self.record(t_ns, name, value, kind="counter")
        for name, value in gauges.items():
            self.record(t_ns, name, value)
        for name, hist in histograms:
            self.record(t_ns, name + ".count", hist.count,
                        kind="counter")
            self.record(t_ns, name + ".p95", hist.percentile(95))
        if self.derive is not None:
            derived = self.derive({"counters": counters,
                                   "gauges": gauges})
            for name in sorted(derived):
                self.record(t_ns, name, derived[name])
        self.scrapes += 1

    def maybe_scrape(self, now_ns: int) -> int:
        """Emit one sample per interval boundary crossed up to ``now``.

        Called from the engine's event loop; returns how many scrapes
        fired.  Boundary timestamps are exact multiples of the
        interval, so the export is independent of *which* event
        crossed them.
        """
        fired = 0
        while self._next_t <= now_ns:
            self.scrape(self._next_t)
            self._next_t += self.interval_ns
            fired += 1
        return fired

    # -- export --------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per sample, sorted by (t_ns, series)."""
        rows = []
        for name in sorted(self.series):
            for t_ns, value in self.series[name].samples:
                rows.append((t_ns, name, value))
        rows.sort()
        lines = [json.dumps({"series": name, "t_ns": t_ns,
                             "value": value}, sort_keys=True,
                            separators=(",", ":"))
                 for t_ns, name, value in rows]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_openmetrics(self) -> str:
        """OpenMetrics text exposition of every series.

        Metric names swap dots for underscores; counters gain the
        conventional ``_total`` suffix.  Timestamps are seconds with
        nanosecond precision.  Ends with ``# EOF`` per the spec.
        """
        lines: List[str] = []
        for name in sorted(self.series):
            entry = self.series[name]
            metric = name.replace(".", "_").replace("-", "_")
            if entry.kind == "counter":
                lines.append(f"# TYPE {metric} counter")
                sample_name = metric + "_total"
            else:
                lines.append(f"# TYPE {metric} gauge")
                sample_name = metric
            for t_ns, value in entry.samples:
                lines.append(f"{sample_name} {_fmt_value(value)} "
                             f"{t_ns / 1e9:.9f}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-ready structural view (report plumbing + tests)."""
        return {
            "schema": "timeseries.v1",
            "interval_ns": self.interval_ns,
            "scrapes": self.scrapes,
            "dropped_series": self.dropped_series,
            "series": {
                name: {"kind": entry.kind,
                       "dropped": entry.dropped,
                       "samples": [[t, v] for t, v in entry.samples]}
                for name, entry in sorted(self.series.items())
            },
        }


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def parse_jsonl(text: str) -> Dict[str, List[Tuple[int, float]]]:
    """Parse a JSONL export back into ``{series: [(t_ns, value)]}``."""
    series: Dict[str, List[Tuple[int, float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        series.setdefault(row["series"], []).append(
            (row["t_ns"], row["value"]))
    return series


def validate_openmetrics(text: str) -> List[str]:
    """Schema-check OpenMetrics text; returns problems (CI gate)."""
    problems: List[str] = []
    if not text.endswith("# EOF\n"):
        problems.append("missing terminating '# EOF'")
    typed: set = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                problems.append(f"line {number}: malformed TYPE")
                continue
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            problems.append(f"line {number}: expected "
                            f"'name value timestamp'")
            continue
        name = parts[0]
        base = name[:-len("_total")] if name.endswith("_total") \
            else name
        if base not in typed and name not in typed:
            problems.append(f"line {number}: sample {name!r} has no "
                            f"preceding TYPE")
        if not all(c.isalnum() or c == "_" for c in name):
            problems.append(f"line {number}: invalid metric name "
                            f"{name!r}")
        try:
            float(parts[1])
            float(parts[2])
        except ValueError:
            problems.append(f"line {number}: non-numeric value or "
                            f"timestamp")
    return problems
