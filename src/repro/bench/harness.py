"""Experiment plumbing: result tables, the pinned suites and a
recording cache.

Recordings are expensive to produce (a full stack bring-up plus a
taint-instrumented run), and many experiments share them; the cache
keys them by (board, model, fuse, granularity) so the whole benchmark
suite records each workload once.

A pinned suite (:data:`SUITES`) is one ``measure_*`` function and the
``BENCH_*.json`` file that pins it. A measurement is a flat dict plus
one ``"host"`` section holding what the host decides (its CPU clock,
its zlib's output sizes); everything else -- virtual ns, counts, bytes
this repo lays out, ratios of those, the config echo -- is the pin,
and :func:`check` holds it to the pin exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.cache import LruCache
from repro.obs.metrics import global_registry


@dataclass
class ResultTable:
    """One regenerated table/figure: rows of named values."""

    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"{self.title}: row missing columns {missing}")
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        return [row[name] for row in self.rows]

    def row_for(self, key_column: str, key: object) -> Dict[str, object]:
        for row in self.rows:
            if row[key_column] == key:
                return row
        raise KeyError(f"{self.title}: no row with {key_column}={key!r}")

    def render(self) -> str:
        """Plain-text rendering (what the bench harness prints)."""
        widths = {c: len(c) for c in self.columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {}
            for c in self.columns:
                value = row[c]
                if isinstance(value, float):
                    text = f"{value:.3f}"
                else:
                    text = str(value)
                rendered[c] = text
                widths[c] = max(widths[c], len(text))
            rendered_rows.append(rendered)
        lines = [self.title,
                 "  ".join(c.ljust(widths[c]) for c in self.columns),
                 "  ".join("-" * widths[c] for c in self.columns)]
        for rendered in rendered_rows:
            lines.append("  ".join(rendered[c].ljust(widths[c])
                                   for c in self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    # -- serialization (bench JSON output / CI artifacts) ------------------

    def to_dict(self) -> Dict[str, object]:
        def coerce(value: object) -> object:
            # numpy scalars sneak into rows from result arrays; strip
            # them so json.dumps and round-trip equality both work.
            if hasattr(value, "item") and not isinstance(
                    value, (str, bytes)):
                return value.item()
            return value

        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [{c: coerce(v) for c, v in row.items()}
                     for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ResultTable":
        table = cls(title=payload["title"],
                    columns=list(payload["columns"]),
                    notes=list(payload.get("notes", [])))
        for row in payload.get("rows", []):
            table.add_row(**row)
        return table

    def to_json(self, **dump_kwargs: object) -> str:
        return json.dumps(self.to_dict(), **dump_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        return cls.from_dict(json.loads(text))


#: The measurement section no pin may hold.
HOST = "host"


def pin_of(measured: Dict[str, object]) -> Dict[str, object]:
    """What a pin holds of a measurement: all of it but ``"host"``."""
    return {key: value for key, value in measured.items() if key != HOST}


def check(pinned: Dict[str, object],
          measured: Dict[str, object]) -> List[str]:
    """Every difference between a pin and a measurement, one line per
    key: a changed value (type included, so 1 is not 1.0), a pinned key
    no longer measured, a measured key not pinned. ``[]`` means the pin
    holds exactly."""
    expected = pin_of(measured)
    differences = []
    for key in sorted(set(pinned) | set(expected)):
        if key not in expected:
            differences.append(f"{key}: pinned {pinned[key]!r}, "
                               "not measured")
        elif key not in pinned:
            differences.append(f"{key}: measured {expected[key]!r}, "
                               "not pinned")
        elif type(pinned[key]) is not type(expected[key]) \
                or pinned[key] != expected[key]:
            differences.append(f"{key}: pinned {pinned[key]!r}, "
                               f"measured {expected[key]!r}")
    return differences


@dataclass(frozen=True)
class Suite:
    """One pinned benchmark suite (``grr bench --suite NAME``)."""

    name: str
    #: The :mod:`repro.bench.experiments` function that measures it.
    measure_name: str
    #: Its pin, relative to the repository root.
    pin: str
    #: Its table title, formatted with the measurement.
    title: str

    def measure(self) -> Dict[str, object]:
        # Call-time import: the experiments import this module.
        from repro.bench import experiments
        return getattr(experiments, self.measure_name)()

    def table(self, measured: Dict[str, object]) -> ResultTable:
        """A measurement as a printable table, host values last."""
        table = ResultTable(self.title.format(**measured),
                            ["metric", "value"])
        for key, value in pin_of(measured).items():
            table.add_row(metric=key, value=value)
        for key, value in measured.get(HOST, {}).items():
            table.add_row(metric=f"{HOST}.{key}", value=value)
        table.notes.append(f"{HOST}.* values are the host's (CPU time, "
                           "zlib sizes): reported, never pinned")
        return table


SUITES = {suite.name: suite for suite in (
    Suite("fastpath", "measure_fastpath", "BENCH_replay_fastpath.json",
          "Replay fast path ({family}/{model}): warm loads, compiled "
          "dispatch, resident dumps"),
    Suite("serve", "measure_serve", "BENCH_serve.json",
          "Serving throughput ({requests} requests): mega-batched "
          "{workers}-worker pool vs sequential worker"),
    Suite("fleet", "measure_fleet", "BENCH_fleet.json",
          "Fleet scaling ({requests} Zipf-skewed requests): "
          "{nodes}-node fleet vs single node"),
    Suite("obs", "measure_obs", "BENCH_obs.json",
          "Observability overhead ({requests} requests, best of "
          "{repeats}): tracing + GPU counters + time series on vs off"),
    Suite("store", "measure_store", "BENCH_store.json",
          "Recording vault: {recordings} same-family recordings "
          "({models} models x {skus_per_model} SKUs)"),
    Suite("surgery", "measure_surgery", "BENCH_surgery.json",
          "Recording surgery: {slices} slices over {families_checked} "
          "families, one interleaved composition, {sibling_micros} "
          "sibling-SKU micros"),
)}


#: (board, model, fuse, granularity) -> (RecordedWorkload, stack info).
#: The bound is comfortably above the bench suite's distinct workload
#: count and finite under a long-lived serve loop that cycles through
#: arbitrarily many recordings.
RECORDING_CACHE = LruCache(capacity=32)


def cached(key: tuple, produce: Callable[[], object]) -> object:
    """``RECORDING_CACHE``'s value for ``key``, produced on a miss.
    Hits, misses and evictions are mirrored into the global metrics
    registry (``bench.recording_cache.hits`` / ``.misses`` /
    ``.evictions``) so bench JSON output shows how much record work
    the cache saved."""
    registry = global_registry()
    value, hit = RECORDING_CACHE.lookup(key)
    if hit:
        registry.counter("bench.recording_cache.hits").inc()
        return value
    registry.counter("bench.recording_cache.misses").inc()
    value = produce()
    evicted = RECORDING_CACHE.put(key, value)
    if evicted:
        registry.counter("bench.recording_cache.evictions").inc(evicted)
    return value


def clear_recording_cache() -> None:
    RECORDING_CACHE.clear()


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, accumulated in log space.

    A naive running product overflows to ``inf`` (or underflows to
    0.0) long before the mean itself is out of float range; summing
    logs keeps every intermediate bounded. Any non-positive value
    makes the geometric mean ill-defined, so it yields 0.0.
    """
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return math.exp(math.fsum(math.log(v) for v in values)
                    / len(values))
