"""Trace completeness under failure: every admitted request tells its
whole story, exactly once, even while the fault ladder is climbing.

A 200-request seeded run with a 30% fault rate against an overloaded
3-worker pool exercises every path the tracer must follow: batching,
worker-internal retries, other-worker retries with backoff, reference
and CPU degradation, deadline/queue sheds. The assertions are the
ISSUE's acceptance criteria verbatim: one complete causal span tree
per request (no orphan spans, no double completions), shed requests
traced to their shed decision, byte-identical same-seed event logs,
attribution stages summing to end-to-end latency, and a Chrome export
that passes the Perfetto validator.
"""

import json

import pytest

from repro.core.replayer import clear_load_cache
from repro.obs.attribution import attribute
from repro.obs.chrome_trace import validate_chrome_trace
from repro.obs.rtrace import (events_to_chrome, events_to_jsonl,
                              load_events, span_trees, validate_events)
from repro.obs.slo import slo_report
from repro.bench.workloads import zoo_store
from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                         generate_requests)
from repro.units import MS, US

REQUESTS = 200
LOAD = LoadgenConfig(
    requests=REQUESTS, seed=424242,
    mix=(("mali", "mnist"), ("mali", "kws"), ("v3d", "mnist")),
    mean_interarrival_ns=300 * US,
    deadline_ns=80 * MS,
    fault_rate=0.3)
POOL = ServerConfig(families=("mali", "mali", "v3d"), seed=99,
                    queue_depth=16, max_batch=4)


def _run(trace=True):
    clear_load_cache()
    store = zoo_store(LOAD.mix)
    config = POOL if trace else ServerConfig(
        families=POOL.families, seed=POOL.seed,
        queue_depth=POOL.queue_depth, max_batch=POOL.max_batch,
        trace=False)
    server = ReplayServer(store, config)
    report = server.serve(generate_requests(LOAD))
    server.close()
    return report


@pytest.fixture(scope="module")
def report():
    return _run()


def test_run_exercises_the_whole_ladder(report):
    """Guard the fixture itself: if the scenario stops producing
    faults, sheds and degradations, the completeness assertions below
    would pass vacuously."""
    counts = report.counts()
    assert counts["shed"] > 0
    assert counts["degraded"] > 0
    assert counts["ok"] > 0
    counters = report.snapshot["counters"]
    assert counters.get("serve.worker_failures", 0) > 0
    assert counters.get("serve.retries", 0) > 0


def test_every_request_has_one_complete_span_tree(report):
    rids = {r.rid for r in report.responses}
    assert rids == set(range(REQUESTS))
    errors = validate_events(report.trace_events, expected_rids=rids)
    assert errors == []


def test_trace_latency_matches_response_latency(report):
    roots = span_trees(report.trace_events)
    by_rid = {r.rid: r for r in report.responses}
    assert set(roots) == set(by_rid)
    for rid, root in roots.items():
        response = by_rid[rid]
        assert root.args["status"] == response.status
        if response.status != "shed":
            assert root.duration_ns \
                == response.completed_ns - response.arrival_ns


def test_shed_requests_are_traced_to_the_shed_decision(report):
    roots = span_trees(report.trace_events)
    shed = [r for r in report.responses if r.status == "shed"]
    assert shed
    for response in shed:
        root = roots[response.rid]
        assert root.args["status"] == "shed"
        # The terminal carries the shed reason the engine recorded.
        terminal = next(
            e for e in report.trace_events
            if e["rid"] == response.rid and e["ev"] == "mark"
            and e["name"] == "terminal")
        assert terminal["args"]["reason"] in (
            "queue-full", "deadline", "store-lost", "starved")


def test_failed_attempts_carry_ladder_marks(report):
    ladder = [e for e in report.trace_events
              if e["ev"] == "mark" and e["name"] == "ladder"]
    assert ladder, "no failure-ladder rungs traced despite faults"
    rungs = {e["args"]["rung"] for e in ladder}
    assert rungs <= {"other-worker", "reference", "cpu"}
    # Climbing requests retried elsewhere must show backoff spans.
    assert any(e["name"] == "backoff" for e in report.trace_events)


def test_exclusive_stage_times_sum_to_end_to_end(report):
    roots = span_trees(report.trace_events)
    for root in roots.values():
        assert sum(n.exclusive_ns for n in root.walk()) \
            == root.duration_ns


def test_attribution_decomposes_p99_exhaustively(report):
    decomposition = attribute(report.trace_events, p_lo=99.0)
    assert decomposition.requests
    assert decomposition.total_ns > 0
    assert sum(s.total_ns for s in decomposition.stages) \
        == decomposition.total_ns


def test_chrome_export_is_perfetto_valid(report):
    doc = events_to_chrome(report.trace_events)
    assert validate_chrome_trace(doc) == []
    # One timeline row per traced request.
    threads = [e for e in doc["traceEvents"]
               if e["ph"] == "M" and e["name"] == "thread_name"]
    assert len(threads) == REQUESTS


def test_same_seed_event_logs_are_byte_identical(tmp_path):
    log_a = events_to_jsonl(_run().trace_events)
    log_b = events_to_jsonl(_run().trace_events)
    assert log_a == log_b
    # ... and the JSONL round-trips losslessly through disk.
    path = tmp_path / "events.jsonl"
    path.write_text(log_a)
    assert events_to_jsonl(load_events(str(path))) == log_a


def test_slo_report_is_deterministic_same_seed(report):
    a = json.dumps(slo_report(report.trace_events), sort_keys=True)
    b = json.dumps(slo_report(_run().trace_events), sort_keys=True)
    assert a == b


def test_tracing_does_not_change_the_served_results(report):
    """The determinism contract, extended to the request tracer: a
    trace=False run must produce a byte-identical response summary --
    tracing reads the clock, never shapes it."""
    untraced = _run(trace=False)
    assert untraced.trace_events == []
    assert json.dumps(untraced.summary(), sort_keys=True) \
        == json.dumps(report.summary(), sort_keys=True)
