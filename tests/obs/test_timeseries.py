"""The time-series collector: scrapes, rings, exports."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (MAX_SERIES, Series,
                                  TimeSeriesCollector, parse_jsonl,
                                  validate_openmetrics)


def _registry():
    registry = MetricsRegistry()
    registry.counter("serve.requests.submitted").inc(3)
    registry.gauge("serve.queue.depth").set(2)
    registry.histogram("serve.latency_ns", (10, 100)).observe(50)
    return registry


class TestScraping:
    def test_scrape_samples_every_kind(self):
        collector = TimeSeriesCollector(_registry(), interval_ns=100)
        collector.scrape(0)
        assert collector.series[
            "serve.requests.submitted"].kind == "counter"
        assert collector.series["serve.queue.depth"].kind == "gauge"
        assert collector.series[
            "serve.latency_ns.count"].kind == "counter"
        assert "serve.latency_ns.p95" in collector.series

    def test_boundaries_are_exact_multiples(self):
        collector = TimeSeriesCollector(_registry(), interval_ns=100)
        fired = collector.maybe_scrape(347)
        assert fired == 4  # t = 0, 100, 200, 300
        samples = collector.series["serve.queue.depth"].samples
        assert [t for t, _ in samples] == [0, 100, 200, 300]
        # The next event past 400 emits exactly one more at t=400.
        assert collector.maybe_scrape(401) == 1
        assert collector.series[
            "serve.queue.depth"].samples[-1][0] == 400

    def test_no_double_scrape_for_same_boundary(self):
        collector = TimeSeriesCollector(_registry(), interval_ns=100)
        assert collector.maybe_scrape(50) == 1   # t = 0
        assert collector.maybe_scrape(99) == 0
        assert collector.maybe_scrape(100) == 1  # t = 100

    def test_scrape_reads_no_snapshot_and_records_the_same(self):
        # Scrapes read metric values directly; what they record is
        # what a scrape of a full registry snapshot would.
        def snapshot_scrape(collector, t_ns):
            snapshot = collector.registry.snapshot()
            for name in sorted(snapshot["counters"]):
                collector.record(t_ns, name,
                                 snapshot["counters"][name],
                                 kind="counter")
            for name in sorted(snapshot["gauges"]):
                collector.record(t_ns, name, snapshot["gauges"][name])
            for name in sorted(snapshot["histograms"]):
                hist = snapshot["histograms"][name]
                collector.record(t_ns, name + ".count", hist["count"],
                                 kind="counter")
                collector.record(t_ns, name + ".p95", hist["p95"])
            collector.scrapes += 1

        registries = [_registry(), _registry()]
        fast = TimeSeriesCollector(registries[0], interval_ns=100,
                                   capacity=5)
        slow = TimeSeriesCollector(registries[1], interval_ns=100,
                                   capacity=5)

        def refuse():
            raise AssertionError("scrape took a full snapshot")

        registries[0].snapshot = refuse
        for step in range(9):
            for registry in registries:
                registry.counter("serve.requests.submitted").inc(step)
                registry.gauge("serve.queue.depth").set(step * 0.5)
                registry.histogram("serve.latency_ns",
                                   (10, 100)).observe(step * 13)
                if step == 4:
                    registry.counter("serve.late").inc()
            fast.scrape(step * 100)
            snapshot_scrape(slow, step * 100)
        assert fast.to_jsonl() == slow.to_jsonl()
        assert fast.to_openmetrics() == slow.to_openmetrics()
        assert fast.snapshot() == slow.snapshot()

    def test_derive_hook_adds_series(self):
        def derive(snapshot):
            submitted = snapshot["counters"][
                "serve.requests.submitted"]
            return {"serve.custom.ratio": submitted / 10.0}

        collector = TimeSeriesCollector(_registry(), interval_ns=100,
                                        derive=derive)
        collector.scrape(0)
        assert collector.series["serve.custom.ratio"].last() == 0.3


class TestBounds:
    def test_ring_capacity_drops_oldest(self):
        series = Series("s", "gauge", capacity=3)
        for t in range(5):
            series.append(t, t * 1.0)
        assert [t for t, _ in series.samples] == [2, 3, 4]
        assert series.dropped == 2

    def test_full_ring_keeps_order_types_and_exports(self):
        # A full series overwrites its oldest slot in place; readers
        # still see the newest ``capacity`` samples oldest first, each
        # value with its own type (JSONL writes 1 and 1.0 apart).
        registry = MetricsRegistry()
        collector = TimeSeriesCollector(registry, capacity=4)
        appended = [(t, t if t % 2 else t + 0.5) for t in range(11)]
        for t_ns, value in appended:
            collector.record(t_ns, "s", value)
        series = collector.series["s"]
        kept = appended[-4:]
        assert series.samples == kept
        assert series.values() == [value for _, value in kept]
        assert [type(v) for v in series.values()] == [int, float] * 2
        assert series.last() == kept[-1][1]
        assert series.dropped == 7
        assert collector.to_jsonl() == "".join(
            f'{{"series":"s","t_ns":{t},"value":{v}}}\n'
            for t, v in kept)
        assert collector.to_openmetrics().splitlines()[1:-1] == [
            f"s {v if isinstance(v, int) else repr(v)} {t / 1e9:.9f}"
            for t, v in kept]
        snap = collector.snapshot()["series"]["s"]
        assert snap == {"kind": "gauge", "dropped": 7,
                        "samples": [[t, v] for t, v in kept]}

    def test_series_cap(self):
        registry = MetricsRegistry()
        collector = TimeSeriesCollector(registry, interval_ns=100)
        for index in range(MAX_SERIES + 5):
            collector.record(0, f"series.{index:04d}", 1.0)
        assert len(collector.series) == MAX_SERIES
        assert collector.dropped_series == 5


class TestExports:
    def test_jsonl_round_trip_sorted(self):
        collector = TimeSeriesCollector(_registry(), interval_ns=100)
        collector.maybe_scrape(250)
        text = collector.to_jsonl()
        assert text.endswith("\n")
        parsed = parse_jsonl(text)
        assert parsed["serve.queue.depth"] == [(0, 2), (100, 2),
                                               (200, 2)]
        lines = text.splitlines()
        assert lines == sorted(
            lines, key=lambda l: __import__("json").loads(l)["t_ns"])

    def test_jsonl_byte_identical_for_identical_state(self):
        texts = []
        for _ in range(2):
            collector = TimeSeriesCollector(_registry(),
                                            interval_ns=100)
            collector.maybe_scrape(250)
            texts.append(collector.to_jsonl())
        assert texts[0] == texts[1]

    def test_openmetrics_validates(self):
        collector = TimeSeriesCollector(_registry(), interval_ns=100)
        collector.maybe_scrape(150)
        text = collector.to_openmetrics()
        assert validate_openmetrics(text) == []
        assert "# TYPE serve_requests_submitted counter" in text
        assert "serve_requests_submitted_total 3" in text
        assert text.endswith("# EOF\n")

    def test_validate_openmetrics_catches_problems(self):
        assert validate_openmetrics("x 1 0.0\n") != []  # no EOF/TYPE
        assert any("no preceding TYPE" in p for p in
                   validate_openmetrics("name 1 0.0\n# EOF\n"))
        assert any("non-numeric" in p for p in validate_openmetrics(
            "# TYPE m gauge\nm one 0.0\n# EOF\n"))

    def test_snapshot_schema(self):
        collector = TimeSeriesCollector(_registry(), interval_ns=100)
        collector.scrape(0)
        snap = collector.snapshot()
        assert snap["schema"] == "timeseries.v1"
        assert snap["scrapes"] == 1
        assert "serve.queue.depth" in snap["series"]
