"""Observability overhead: the always-on telemetry tax on serving.

The deep-observability layer (request tracing, the GPU counter tape,
time-series scrapes) is designed to ride the serving engine by
default, so its cost is a first-class benchmark: the same closed
request batch is served twice --

- **on**: the defaults (``trace=True``, ``gpu_counters=True``,
  ``timeseries=True``), everything recording;
- **off**: all three disabled -- the bare engine.

Virtual makespans MUST be identical (observability only reads the
clock; the run asserts it), so the only thing that can differ is host
CPU time. ``obs_speed_ratio`` is off-arm CPU time over on-arm CPU
time (1.0 = free, 0.9 = 10% overhead) measured best-of-N to shave
scheduler noise, and ``overhead_ratio`` is the same number expressed
as a fractional slowdown; both are the host's (``"host"``), held to
the benchmark's 10% budget and never pinned. ``BENCH_obs.json`` pins
what observability *recorded*: the shared makespan, trace events,
series and the GPU counter totals.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.bench.workloads import zoo_store
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, generate_requests)

#: Same mix as the serving benchmark, minus the multi-MB model so the
#: overhead measurement is dominated by engine work, not numpy copies.
OBS_BENCH_MIX = (("mali", "mnist"), ("mali", "kws"))


def serve_once(store: RecordingStore, config: ServerConfig,
               requests) -> Dict[str, object]:
    start = time.process_time()
    server = ReplayServer(store, config)
    report = server.serve(requests)
    server.close()
    elapsed = time.process_time() - start
    if report.lost or report.counts()["shed"]:
        raise AssertionError(
            f"benchmark run lost/shed requests: {report.counts()}, "
            f"lost={report.lost}")
    return {
        "cpu_s": elapsed,
        "makespan_ns": report.makespan_ns,
        "counters": report.gpu_counters.get("totals", {}),
        "trace_events": len(report.trace_events),
        "series": (len(report.timeseries.snapshot()["series"])
                   if report.timeseries is not None else 0),
    }


def obs_arms(requests: int = 48, seed: int = 11, workers: int = 3,
             max_batch: int = 4
             ) -> Tuple[RecordingStore, list, ServerConfig,
                        ServerConfig]:
    """``(store, stream, on_config, off_config)`` of the benchmark."""
    stream = generate_requests(LoadgenConfig(
        requests=requests, seed=seed, mix=OBS_BENCH_MIX,
        mean_interarrival_ns=0, deadline_ns=0, fault_rate=0.0))
    store = zoo_store(OBS_BENCH_MIX)

    pool = ("mali",) * workers
    on_cfg = ServerConfig(families=pool, seed=seed,
                          queue_depth=requests, max_batch=max_batch)
    off_cfg = ServerConfig(families=pool, seed=seed,
                           queue_depth=requests, max_batch=max_batch,
                           trace=False, timeseries=False,
                           gpu_counters=False)
    return store, stream, on_cfg, off_cfg


def measure_obs(requests: int = 48, seed: int = 11,
                workers: int = 3, max_batch: int = 4,
                repeats: int = 3) -> Dict[str, object]:
    """Serve with observability on and off; returns a flat dict.

    Each arm runs ``repeats`` times and keeps the *fastest* CPU time
    (the standard noise-rejection estimator for short benchmarks).
    Arms alternate so cache warm-up and CPU frequency drift hit both
    equally.
    """
    store, stream, on_cfg, off_cfg = obs_arms(requests, seed, workers,
                                              max_batch)
    best_on: Dict[str, object] = {}
    best_off: Dict[str, object] = {}
    for _ in range(repeats):
        on = serve_once(store, on_cfg, stream)
        off = serve_once(store, off_cfg, stream)
        if not best_on or on["cpu_s"] < best_on["cpu_s"]:
            best_on = on
        if not best_off or off["cpu_s"] < best_off["cpu_s"]:
            best_off = off

    if best_on["makespan_ns"] != best_off["makespan_ns"]:
        raise AssertionError(
            "observability changed virtual time: "
            f"on={best_on['makespan_ns']} off={best_off['makespan_ns']}")

    ratio = best_off["cpu_s"] / best_on["cpu_s"]
    totals = best_on["counters"]
    return {
        "requests": requests,
        "workers": workers,
        "repeats": repeats,
        "makespan_ns": int(best_on["makespan_ns"]),
        "trace_events": int(best_on["trace_events"]),
        "timeseries_series": int(best_on["series"]),
        "gpu_instructions": int(totals.get("instructions", 0)),
        "gpu_kernels": int(totals.get("kernels", 0)),
        "gpu_mmio_writes": int(totals.get("mmio_writes", 0)),
        "host": {
            "cpu_on_s": best_on["cpu_s"],
            "cpu_off_s": best_off["cpu_s"],
            "obs_speed_ratio": ratio,
            "overhead_ratio": 1.0 / ratio - 1.0,
        },
    }

