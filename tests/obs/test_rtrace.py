"""Unit tests for request-scoped tracing (event-log schema v1).

These drive :class:`RequestTracer` by hand -- no serving engine -- so
every invariant the completeness validator enforces is pinned down in
isolation: explicit parents, per-request sid ordinals, exactly one
terminal per request, exclusive-time decomposition summing to the
root, byte-stable JSONL and a Perfetto-valid Chrome export.
"""

import json

from repro.obs.chrome_trace import validate_chrome_trace
from repro.obs.rtrace import (NULL_RTRACE, ROOT_SID, RequestTracer,
                              events_to_chrome, events_to_jsonl,
                              load_events, span_trees, sorted_events,
                              validate_events)
from repro.soc.clock import VirtualClock


def _tracer():
    return RequestTracer(VirtualClock())


def _one_request(tracer, rid=7):
    """A well-formed little tree: request > queue, attempt > replay."""
    tracer.submit(rid, t_ns=100, args={"family": "mali"})
    q = tracer.begin(rid, "queue", t_ns=100)
    tracer.end(rid, q, t_ns=400)
    a = tracer.begin(rid, "attempt", t_ns=400, args={"worker": 0})
    r = tracer.begin(rid, "replay", psid=a, t_ns=450)
    tracer.end(rid, r, t_ns=900)
    tracer.mark(rid, "ladder", psid=a, t_ns=900, args={"rung": "none"})
    tracer.end(rid, a, t_ns=950)
    tracer.finish(rid, "ok", t_ns=1000)


class TestTracer:
    def test_root_sid_is_zero_and_children_count_up(self):
        tracer = _tracer()
        assert tracer.submit(1, t_ns=0) == ROOT_SID
        assert tracer.begin(1, "queue", t_ns=0) == 1
        assert tracer.begin(1, "attempt", t_ns=0) == 2
        # sids are per request, not global.
        tracer.submit(2, t_ns=0)
        assert tracer.begin(2, "queue", t_ns=0) == 1

    def test_complete_request_validates_clean(self):
        tracer = _tracer()
        _one_request(tracer)
        assert validate_events(tracer.events, expected_rids={7}) == []
        assert tracer.finished(7)

    def test_unfinished_span_is_auto_closed_and_flagged(self):
        tracer = _tracer()
        tracer.submit(3, t_ns=0)
        tracer.begin(3, "queue", t_ns=0)  # never ended by the engine
        tracer.finish(3, "ok", t_ns=500)
        errors = validate_events(tracer.events)
        assert any("auto-closed" in e for e in errors)

    def test_auto_closed_span_end_repeats_its_name(self):
        # Schema v1: an ``end`` repeats its span's name, auto-closed
        # or not.
        tracer = _tracer()
        tracer.submit(3, t_ns=0)
        outer = tracer.begin(3, "attempt", t_ns=0)
        tracer.begin(3, "replay", psid=outer, t_ns=10)
        tracer.finish(3, "ok", t_ns=500)
        auto = [(e["sid"], e["name"]) for e in tracer.events
                if e["ev"] == "end" and e["args"].get("auto")]
        assert auto == [(2, "replay"), (1, "attempt")]

    def test_double_finish_is_flagged_not_raised(self):
        tracer = _tracer()
        _one_request(tracer, rid=4)
        tracer.finish(4, "ok", t_ns=2000)
        errors = validate_events(tracer.events)
        assert any("terminal" in e for e in errors)

    def test_missing_and_unexpected_rids_are_flagged(self):
        tracer = _tracer()
        _one_request(tracer, rid=5)
        errors = validate_events(tracer.events, expected_rids={5, 6})
        assert any("rid 6" in e and "never traced" in e for e in errors)
        errors = validate_events(tracer.events, expected_rids=set())
        assert any("not expected" in e for e in errors)

    def test_null_tracer_is_inert(self):
        assert NULL_RTRACE.enabled is False
        NULL_RTRACE.submit(1)
        NULL_RTRACE.finish(1, "ok")
        assert NULL_RTRACE.events == []
        assert NULL_RTRACE.begin(1, "x") == -1
        assert not NULL_RTRACE.finished(1)


class TestTrees:
    def test_exclusive_times_sum_to_root_duration(self):
        tracer = _tracer()
        _one_request(tracer)
        root = span_trees(tracer.events)[7]
        assert root.duration_ns == 900
        total = sum(node.exclusive_ns for node in root.walk())
        assert total == root.duration_ns
        names = {node.name for node in root.walk()}
        assert names == {"request", "queue", "attempt", "replay"}

    def test_terminal_status_lands_in_root_args(self):
        tracer = _tracer()
        _one_request(tracer)
        root = span_trees(tracer.events)[7]
        assert root.args["status"] == "ok"

    def test_parenting_is_explicit_not_stack_based(self):
        # Interleaved spans of two requests must not cross-link.
        tracer = _tracer()
        tracer.submit(1, t_ns=0)
        tracer.submit(2, t_ns=0)
        a1 = tracer.begin(1, "attempt", t_ns=10)
        a2 = tracer.begin(2, "attempt", t_ns=10)
        tracer.begin(1, "replay", psid=a1, t_ns=20)
        tracer.begin(2, "replay", psid=a2, t_ns=20)
        tracer.finish(1, "ok", t_ns=100)
        tracer.finish(2, "ok", t_ns=100)
        roots = span_trees(tracer.events)
        for rid in (1, 2):
            attempt = roots[rid].children[0]
            assert [c.name for c in attempt.children] == ["replay"]


class TestExport:
    def test_jsonl_round_trips_and_is_time_sorted(self, tmp_path):
        tracer = _tracer()
        # Emit out of order on purpose: the engine scores batch spans
        # onto the timeline before the clock reaches them.
        tracer.submit(1, t_ns=500)
        tracer.submit(2, t_ns=100)
        tracer.finish(2, "ok", t_ns=200)
        tracer.finish(1, "ok", t_ns=600)
        text = events_to_jsonl(tracer.events)
        path = tmp_path / "events.jsonl"
        path.write_text(text)
        loaded = load_events(str(path))
        assert loaded == sorted_events(tracer.events)
        stamps = [event["t_ns"] for event in loaded]
        assert stamps == sorted(stamps)

    def test_jsonl_is_byte_stable(self):
        def build():
            tracer = _tracer()
            _one_request(tracer)
            return events_to_jsonl(tracer.events)
        assert build() == build()

    def test_empty_log_exports_empty_string(self):
        assert events_to_jsonl([]) == ""

    def test_chrome_export_validates(self):
        tracer = _tracer()
        tracer.meta("run", args={"schema": "rtrace.v1"})
        _one_request(tracer)
        doc = events_to_chrome(tracer.events)
        assert validate_chrome_trace(doc) == []
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases == {"M", "X", "i"}
        # One timeline row per request, named after it.
        names = [event["args"]["name"]
                 for event in doc["traceEvents"] if event["ph"] == "M"]
        assert "request 7" in names

    def test_chrome_span_args_merge_begin_and_end(self):
        tracer = _tracer()
        _one_request(tracer)
        doc = events_to_chrome(tracer.events)
        attempt = next(e for e in doc["traceEvents"]
                       if e["ph"] == "X" and e["name"] == "attempt")
        assert attempt["args"]["worker"] == 0
        assert attempt["args"]["sid"] == 2

    def test_events_are_json_safe(self):
        tracer = _tracer()
        _one_request(tracer)
        for event in tracer.events:
            json.dumps(event)
