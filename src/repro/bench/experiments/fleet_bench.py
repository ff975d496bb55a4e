"""Fleet scaling: N-node cluster vs a single node, plus the
fleet-vs-single differential contract.

Two measurements share one flat result dict (the ``BENCH_fleet.json``
pin):

- **scaling**: a skewed-popularity (Zipf), diurnal request stream hot
  enough to saturate one node is served by a single node (one
  ReplayServer booted exactly like a fleet node: one worker per
  family, no autoscaler) and by an N-node fleet (digest-affinity
  routing + queue-depth autoscaling). ``scaling_ratio`` is single
  makespan over fleet makespan -- both virtual nanoseconds off the
  same deterministic event loop, so the ratio is exactly
  reproducible. The ISSUE 9 bar: a 3-node fleet clears 2x.
- **differential**: a 500-request faulted stream served by the fleet
  and by a single deep-queue server; ``differential_ok`` is 1.0 only
  if every answer is byte-identical across the two and the fleet
  neither lost nor double-answered anything.

Every value is virtual time, a count or a ratio of those, so all of it
is pinned in ``BENCH_fleet.json`` and a re-measurement must reproduce
it exactly; the latency percentiles are nearest-rank over the scaling
run's answers.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.workloads import zoo_store
from repro.fleet import Fleet, FleetConfig
from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                         generate_requests)
from repro.units import MS, SEC, US

#: The (family, model) pairs the fleet benchmark streams.
FLEET_BENCH_MIX = (("mali", "mnist"), ("mali", "kws"),
                   ("v3d", "mnist"))


def _skewed_stream(requests: int, seed: int):
    """Zipf-popular, diurnally-shaped, arriving fast enough to bury a
    single node (interarrival well under one service time)."""
    return generate_requests(LoadgenConfig(
        requests=requests, seed=seed, mix=FLEET_BENCH_MIX,
        mean_interarrival_ns=200 * US, deadline_ns=0,
        shape="diurnal", popularity="zipf", zipf_s=1.2))


def _fuzz_stream(requests: int, seed: int):
    return generate_requests(LoadgenConfig(
        requests=requests, seed=seed, mix=FLEET_BENCH_MIX,
        deadline_ns=0, fault_rate=0.1, shape="diurnal",
        popularity="zipf"))


def _single_node(store, seed: int, queue_depth: int):
    """One ReplayServer shaped exactly like one fleet node boots:
    one worker per hosted family."""
    return ReplayServer(store, ServerConfig(
        families=("mali", "v3d"), seed=seed,
        queue_depth=queue_depth, timeseries=False))


def measure_fleet(requests: int = 200, seed: int = 17,
                  nodes: int = 3,
                  differential_requests: int = 500) -> Dict[str, object]:
    """Measure scaling + differential; returns a flat dict."""
    store = zoo_store(FLEET_BENCH_MIX)

    # -- scaling curve: single node vs N-node fleet -----------------
    stream = _skewed_stream(requests, seed)
    single = _single_node(store, seed, queue_depth=requests)
    single_report = single.serve(stream)
    single.close()

    fleet = Fleet(store, FleetConfig(
        nodes=nodes, queue_depth=requests, seed=seed))
    fleet_report = fleet.serve(stream)
    fleet.close()
    for report, name in ((single_report, "single"),
                         (fleet_report, "fleet")):
        if report.lost or report.counts()["shed"]:
            raise AssertionError(
                f"{name} benchmark run lost/shed requests: "
                f"{report.counts()}, lost={report.lost}")

    counters = fleet_report.snapshot["counters"]
    routed = counters.get("fleet.router.hops", 0)
    affinity = counters.get("fleet.router.affinity_hits", 0)
    percentiles = fleet_report.latency_percentiles()

    # -- differential: fleet answers == single-node answers ---------
    fuzz = _fuzz_stream(differential_requests, seed + 1)
    oracle = ReplayServer(store, ServerConfig(
        families=("mali", "mali", "v3d"), seed=seed,
        queue_depth=differential_requests, timeseries=False))
    oracle_report = oracle.serve(fuzz)
    oracle.close()
    diff_fleet = Fleet(store, FleetConfig(
        nodes=nodes, queue_depth=differential_requests, seed=seed))
    diff_report = diff_fleet.serve(fuzz)
    diff_fleet.close()

    oracle_answers = {r.rid: r.output_digest()
                      for r in oracle_report.responses}
    fleet_answers = {r.rid: r.output_digest()
                     for r in diff_report.responses}
    differential_ok = (
        not diff_report.lost and not diff_report.duplicates
        and diff_report.counts()["shed"] == 0
        and fleet_answers == oracle_answers)

    return {
        "requests": requests,
        "nodes": nodes,
        "single_makespan_ns": int(single_report.makespan_ns),
        "fleet_makespan_ns": int(fleet_report.makespan_ns),
        "single_rps": single_report.throughput_rps(),
        "fleet_rps": fleet_report.throughput_rps(),
        "scaling_ratio": single_report.makespan_ns
        / fleet_report.makespan_ns,
        "fleet_p50_ns": percentiles["p50"],
        "fleet_p95_ns": percentiles["p95"],
        "fleet_p99_ns": percentiles["p99"],
        "affinity_hits": int(affinity),
        "p2c_picks": int(counters.get("fleet.router.p2c_picks", 0)),
        "affinity_ratio": affinity / routed if routed else 0.0,
        "autoscale_up": int(counters.get("fleet.autoscale.up", 0)),
        "workers_peak": int(
            fleet_report.snapshot["gauges"]["fleet.workers.peak"]),
        "differential_requests": differential_requests,
        "differential_ok": 1.0 if differential_ok else 0.0,
        "differential_lost": len(diff_report.lost),
        "differential_duplicates": len(diff_report.duplicates),
    }

