"""Serving throughput: batched multi-worker pool vs sequential worker.

One closed batch of requests (everything arrives at t=0, no deadlines,
no faults) is served three ways:

- **mega-batched**: four mali workers, same-content batching on and
  ``mega_batch=True`` -- a worker runs each same-digest batch as ONE
  fused replay (the chain executes once, the batch rides through the
  shader executor's batch dimension and MMIO superblocks);
- **plain**: the same pool with per-request replay -- warm workers
  keep their session maps and resident dumps, so batch-mates pay only
  input/output movement (the PR 4 behaviour);
- **sequential**: one worker, ``max_batch=1`` -- every dispatch stands
  alone, the pre-serving-engine way of answering a stream.

``throughput_ratio`` is sequential makespan over the mega-batched
makespan, ``plain_throughput_ratio`` the same over plain batching;
the latency percentiles are the mega-batched arm's, nearest-rank over
its answers. All makespans are *virtual* nanoseconds off the same
deterministic event loop, so everything here is exactly reproducible
and all of it is pinned in ``BENCH_serve.json``. The mix leads with
``dense-serve`` (the zoo model whose multi-MB weights are not shrunk)
so the dump re-uploads that warm batching avoids cost what they would
on a real board.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.workloads import zoo_store
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, generate_requests)
from repro.units import SEC

#: The (family, model) pairs the serving benchmark streams.
SERVE_BENCH_MIX = (("mali", "dense-serve"), ("mali", "mnist"))


def _makespan(store: RecordingStore, config: ServerConfig,
              requests) -> Dict[str, object]:
    server = ReplayServer(store, config)
    report = server.serve(requests)
    server.close()
    if report.lost or report.counts()["shed"]:
        raise AssertionError(
            f"benchmark run lost/shed requests: {report.counts()}, "
            f"lost={report.lost}")
    return {
        "makespan_ns": report.makespan_ns,
        "percentiles": report.latency_percentiles(),
        "batches": report.snapshot["counters"]["serve.batches"],
        "mega_batches": report.snapshot["counters"].get(
            "serve.mega.batches", 0),
    }


def measure_serve(requests: int = 64, seed: int = 7,
                  workers: int = 4,
                  max_batch: int = 4) -> Dict[str, object]:
    """Serve the same closed batch every way; returns a flat dict."""
    stream = generate_requests(LoadgenConfig(
        requests=requests, seed=seed, mix=SERVE_BENCH_MIX,
        mean_interarrival_ns=0, deadline_ns=0, fault_rate=0.0))
    store = zoo_store(SERVE_BENCH_MIX)

    pool = ("mali",) * workers
    plain = _makespan(store, ServerConfig(
        families=pool, seed=seed,
        queue_depth=requests, max_batch=max_batch), stream)
    fused = _makespan(store, ServerConfig(
        families=pool, seed=seed,
        queue_depth=requests, max_batch=max_batch,
        mega_batch=True), stream)
    sequential = _makespan(store, ServerConfig(
        families=("mali",), seed=seed,
        queue_depth=requests, max_batch=1), stream)

    return {
        "requests": requests,
        "workers": workers,
        "max_batch": max_batch,
        "sequential_makespan_ns": int(sequential["makespan_ns"]),
        "plain_makespan_ns": int(plain["makespan_ns"]),
        "mega_makespan_ns": int(fused["makespan_ns"]),
        "mega_rps": requests * SEC / fused["makespan_ns"],
        "sequential_rps": requests * SEC / sequential["makespan_ns"],
        "throughput_ratio":
            sequential["makespan_ns"] / fused["makespan_ns"],
        "plain_throughput_ratio":
            sequential["makespan_ns"] / plain["makespan_ns"],
        "mega_batches": int(fused["batches"]),
        "mega_fused_batches": int(fused["mega_batches"]),
        "p50_ns": fused["percentiles"]["p50"],
        "p95_ns": fused["percentiles"]["p95"],
        "p99_ns": fused["percentiles"]["p99"],
    }
