"""Concurrency stress: seeded clients hammering a small pool.

A burst of 120 requests (5x faster than the pool drains) with random
faults lands on a 3-worker pool behind a queue of depth 8. The engine
must shed loudly rather than lose quietly, the queue must drain to
zero, the always-on flight-recorder rings must stay bounded, and --
the determinism claim -- two runs with the same seed must produce
byte-identical metric snapshots and response summaries.
"""

import json

from repro.soc.flight import DEFAULT_RING_SIZE
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, generate_requests)
from repro.units import MS, US

REQUESTS = 120
LOAD = LoadgenConfig(
    requests=REQUESTS, seed=424242,
    mix=(("mali", "mnist"), ("mali", "kws"), ("v3d", "mnist")),
    mean_interarrival_ns=200 * US,
    deadline_ns=60 * MS,
    fault_rate=0.3)
POOL = ServerConfig(families=("mali", "mali", "v3d"), seed=99,
                    queue_depth=8, max_batch=4)


def _run():
    store = RecordingStore.from_zoo(LOAD.mix)
    server = ReplayServer(store, POOL)
    report = server.serve(generate_requests(LOAD))
    return server, report


def test_no_request_lost_or_double_answered():
    server, report = _run()
    try:
        assert report.lost == []
        # Exactly one terminal response per request: rids are unique
        # by construction of the response map, so a full range proves
        # both "none lost" and "none double-answered".
        assert [r.rid for r in report.responses] == list(range(REQUESTS))
        counts = report.counts()
        assert sum(counts.values()) == REQUESTS
        # The burst genuinely overloads the pool: shedding happened
        # and was accounted, not silent.
        assert counts["shed"] > 0
        assert report.snapshot["counters"]["serve.requests.shed"] \
            == counts["shed"]
        # Faults genuinely fired and the ladder absorbed them.
        assert report.snapshot["counters"].get(
            "serve.worker_failures", 0) > 0
    finally:
        server.close()


def test_queue_drains_and_flight_rings_stay_bounded():
    server, report = _run()
    try:
        assert report.snapshot["gauges"]["serve.queue.depth"] == 0
        for worker in server.workers:
            flight = worker.machine.flight
            assert len(flight.ring) <= DEFAULT_RING_SIZE
            # The ring wrapped (it saw far more events than it holds),
            # i.e. bounded is load-bearing, not vacuous.
            assert flight.seq >= len(flight.ring)
    finally:
        server.close()


def test_custom_flight_capacity_is_respected_under_overload():
    """The ring bound is configurable end to end: a server built with
    ``flight_capacity=32`` must hand every worker machine a 32-slot
    recorder, and the overload burst must wrap it, not grow it."""
    store = RecordingStore.from_zoo(LOAD.mix)
    server = ReplayServer(store, ServerConfig(
        families=("mali", "mali", "v3d"), seed=99, queue_depth=8,
        max_batch=4, flight_capacity=32))
    server.serve(generate_requests(LOAD))
    try:
        for worker in server.workers:
            flight = worker.machine.flight
            assert flight.capacity == 32
            assert len(flight.ring) <= 32
            assert flight.seq >= len(flight.ring)
    finally:
        server.close()


def test_same_seed_runs_are_byte_identical():
    from repro.core.replayer import clear_load_cache

    server_a, report_a = _run()
    server_a.close()
    # The process-wide load cache now holds every recording; clearing
    # it proves determinism does not depend on cache temperature.
    clear_load_cache()
    server_b, report_b = _run()
    server_b.close()
    summary_a = json.dumps(report_a.summary(), sort_keys=True)
    summary_b = json.dumps(report_b.summary(), sort_keys=True)
    assert summary_a == summary_b
