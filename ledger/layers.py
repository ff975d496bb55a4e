"""Per-layer metrics of a traced run.

Three sources, named per metric in ``ledger/README.md``:

- **spans**: CPU time of the wrapped public entry points
  (:mod:`spans`), per call and as each layer's self-time share of the
  timed ops;
- **micro-pass**: entry points too hot to wrap (memory pages, MMU
  walks) and single steps the workload only runs mixed with others
  (decode, verify, cold/warm load, the three executors) are timed in
  isolation on a fresh machine with this workload's first recording;
- **reports**: exact counts the program already keeps (serve/fleet
  counters, GPU counter tapes, vault accounting, virtual-time
  attribution).

A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from spans import Tracer

_now = time.process_time_ns


def exact_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over the exact per-op values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _time_ns(fn: Callable[[], object], repeat: int = 1) -> float:
    """Median CPU ns of ``repeat`` calls."""
    samples = []
    for _ in range(repeat):
        t0 = _now()
        fn()
        samples.append(_now() - t0)
    return statistics.median(samples)


def _ms(ns: float) -> float:
    return ns / 1e6


# -- micro-pass -------------------------------------------------------------


def soc_gpu_micro(board: str, seed: int, pages: int = 512) -> Dict[str, float]:
    """Page-granular costs of physical memory, the page allocator and
    the GPU MMU on a fresh machine of ``board``."""
    from repro.gpu.mmu import GpuMmu, PageTableBuilder, PERM_R, PERM_W
    from repro.soc.machine import Machine
    from repro.soc.memory import PAGE_SIZE

    machine = Machine.create(board, seed=seed)
    memory, allocator = machine.memory, machine.gpu_allocator
    out: Dict[str, float] = {}

    t0 = _now()
    pas = allocator.alloc_pages(pages, "ledger")
    out["soc.alloc_pages_host_ns_per_page"] = (_now() - t0) / pages

    payload = bytes(range(256)) * (PAGE_SIZE // 256)
    t0 = _now()
    for pa in pas:
        memory.write(pa, payload)
    out["soc.mem_write_host_ns_per_page"] = (_now() - t0) / pages
    t0 = _now()
    for pa in pas:
        memory.read(pa, PAGE_SIZE)
    out["soc.mem_read_host_ns_per_page"] = (_now() - t0) / pages

    fmt = machine.require_gpu().mmu.fmt
    tables = PageTableBuilder(memory, allocator, fmt, tag="ledger-pt")
    mmu = GpuMmu(memory, fmt)
    base_va = 0x1000_0000
    vas = [base_va + i * PAGE_SIZE for i in range(pages)]
    t0 = _now()
    for va, pa in zip(vas, pas):
        tables.map_page(va, pa, PERM_R | PERM_W)
    out["gpu.mmu_map_host_ns_per_page"] = (_now() - t0) / pages
    mmu.set_base(tables.root_pa)
    t0 = _now()
    for va in vas:
        mmu.translate(va, "r")
    out["gpu.mmu_translate_miss_host_ns"] = (_now() - t0) / pages
    t0 = _now()
    for va in vas:
        mmu.translate(va, "r")
    out["gpu.mmu_translate_hit_host_ns"] = (_now() - t0) / pages
    t0 = _now()
    for va in vas:
        tables.unmap_page(va)
    out["gpu.mmu_unmap_host_ns_per_page"] = (_now() - t0) / pages
    return out


def core_micro(family: str, recording, seed: int,
               replays: int = 20) -> Dict[str, float]:
    """Recording codec, verifier, cold/warm load and the three
    executors side by side, on one fresh replay machine."""
    from repro.bench.workloads import fresh_replay_machine
    from repro.core.recording import Recording
    from repro.core.replayer import Replayer, clear_load_cache
    from repro.core.verifier import verify_recording
    from repro.serve import request_inputs

    out: Dict[str, float] = {}
    blob = recording.to_bytes()
    out["core.recording_encode_host_ms"] = _ms(
        _time_ns(recording.to_bytes, 3))
    out["core.recording_decode_host_ms"] = _ms(
        _time_ns(lambda: Recording.from_bytes(blob), 3))
    # digest() memoizes on the instance: time it on fresh decodes.
    fresh = [Recording.from_bytes(blob) for _ in range(3)]
    copies = iter(fresh)
    out["core.digest_host_ms"] = _ms(
        _time_ns(lambda: next(copies).digest(), 3))

    clear_load_cache()
    replayer = Replayer(fresh_replay_machine(family, seed=seed,
                                             board=recording.meta.board))
    out["core.init_host_ms"] = _ms(_time_ns(replayer.init))
    names = replayer.nano.register_names()
    out["core.verify_host_ms"] = _ms(
        _time_ns(lambda: verify_recording(recording, names), 3))
    out["core.load_cold_host_ms"] = _ms(
        _time_ns(lambda: replayer.load(recording)))
    out["core.load_cold_virtual_ns"] = replayer.load_ns
    out["core.load_warm_host_ms"] = _ms(
        _time_ns(lambda: replayer.load(recording)))
    out["core.load_warm_virtual_ns"] = replayer.load_ns

    inputs = [request_inputs(recording, seed + k) for k in range(8)]
    results = []
    out["core.first_replay_host_ms"] = _ms(_time_ns(
        lambda: results.append(replayer.replay(inputs=inputs[0]))))
    for _ in range(3):
        replayer.replay(inputs=inputs[0])

    rotating = itertools.cycle(inputs)
    fast_ns = [_time_ns(lambda: results.append(
        replayer.replay(inputs=next(rotating)))) for _ in range(replays)]
    warm = results[-1]
    out["core.replay_virtual_ns"] = statistics.median(
        r.duration_ns for r in results[1:])
    out["core.actions_per_replay"] = warm.stats.actions_executed
    out["core.host_us_per_action"] = (
        statistics.median(fast_ns) / 1e3
        / max(1, warm.stats.actions_executed))
    out["core.upload_bytes_per_replay"] = warm.stats.upload_bytes
    moved = warm.stats.upload_bytes + warm.stats.upload_skipped_bytes
    out["core.upload_skipped_share"] = (
        warm.stats.upload_skipped_bytes / moved if moved else 0.0)
    out["core.retry_attempts_per_replay"] = statistics.fmean(
        r.attempts for r in results)

    replayer.fast_path = False
    replayer.replay(inputs=inputs[0])
    out["core.replay_reference_host_ms_p50"] = _ms(statistics.median(
        _time_ns(lambda: replayer.replay(inputs=inputs[0]))
        for _ in range(max(3, replays // 4))))
    replayer.fast_path = True
    replayer.replay_mega(inputs)
    out["core.replay_mega8_host_ms_per_member"] = _ms(statistics.median(
        _time_ns(lambda: replayer.replay_mega(inputs))
        for _ in range(max(3, replays // 4)))) / len(inputs)
    replayer.cleanup()
    return out


def store_micro(recording, scratch_dir: str,
                vault_root: Optional[str]) -> Dict[str, float]:
    """Chunker, pack and fetch throughput on this one recording in a
    scratch vault; a scrub plus the accounting of the workload's own
    vault when it has one."""
    from repro.store import Vault, chunks

    raw = recording.to_bytes(compress=False)
    payload = raw[:1 << 20]
    ns = _time_ns(lambda: chunks.split(payload), 3)
    out = {"store.chunk_split_mb_per_host_s":
           len(payload) / 2 ** 20 / (ns / 1e9)}
    scratch = Vault(scratch_dir)
    t0 = _now()
    manifest = scratch.pack(recording)
    out["store.pack_mb_per_host_s"] = \
        len(raw) / 2 ** 20 / ((_now() - t0) / 1e9)
    t0 = _now()
    scratch.fetch(manifest.digest, verify=True)
    out["store.fetch_mb_per_host_s"] = \
        len(raw) / 2 ** 20 / ((_now() - t0) / 1e9)
    if vault_root:
        vault = Vault.open(vault_root)
        t0 = _now()
        problems = vault.verify()
        out["store.verify_host_ms"] = _ms(_now() - t0)
        if problems:
            raise AssertionError(f"vault scrub found {problems}")
        stats = vault.stats()
        zipped = sum(vault.fetch(d).size_zipped() for d in vault.digests())
        out["store.chunk_refs"] = stats.chunk_refs
        out["store.unique_chunks"] = stats.unique_chunks
        out["store.disk_bytes"] = stats.disk_bytes
        out["store.dedup_savings"] = 1.0 - stats.disk_bytes / zipped
    return out


def kernel_micro(pairs, recordings, seed: int,
                 replays: int = 200) -> Dict[str, float]:
    """One kernel micro-recording per family (surgery slices a single
    kernel out of the mid job), replayed ``replays`` times: upload +
    dispatch + shader-exec of one kernel, nothing else."""
    from repro.bench.workloads import fresh_replay_machine
    from repro.core.replayer import Replayer
    from repro.surgery import analyze_recording, slice_job

    host_ns: List[int] = []
    virtual: List[int] = []
    seen = set()
    for family, model in pairs:
        if family in seen:
            continue
        seen.add(family)
        parent = recordings[(family, model)]
        analysis = analyze_recording(parent)
        job = analysis.jobs[len(analysis.jobs) // 2]
        micro = slice_job(parent, job.job_index, kernel_index=0,
                          analysis=analysis).recording
        replayer = Replayer(fresh_replay_machine(
            family, seed=seed, board=micro.meta.board))
        replayer.init()
        replayer.load(micro)
        replayer.replay()
        for _ in range(replays):
            t0 = _now()
            result = replayer.replay()
            host_ns.append(_now() - t0)
            virtual.append(result.duration_ns)
        replayer.cleanup()
    return {"gpu.kernel_replay_host_ms_p50": _ms(statistics.median(host_ns)),
            "gpu.kernel_virtual_ns": statistics.median(virtual)}


# -- spans ------------------------------------------------------------------


def span_metrics(tracer: Tracer, replays_in_ops: int) -> Dict[str, float]:
    """Per-call times and per-layer shares out of the span table."""
    def p50_ms(name: str) -> float:
        ds = tracer.durations_ns(name)
        return _ms(statistics.median(ds)) if ds else 0.0

    total, by_layer, by_name = tracer.op_breakdown()

    def share(ns: float) -> float:
        return ns / total if total else 0.0

    replay_ns = tracer.durations_ns("core.Replayer.replay")
    out = {
        "soc.machine_create_host_ms": p50_ms("soc.Machine.create"),
        "soc.machine_create_share":
            share(by_name.get("soc.Machine.create", 0)),
        "core.replay_fast_host_ms_p50":
            _ms(exact_percentile(replay_ns, 50)),
        "core.replay_fast_host_ms_p99":
            _ms(exact_percentile(replay_ns, 99)),
        "core.record_host_ms": p50_ms("core.record_inference"),
        "core.replay_share": share(
            by_name.get("core.Replayer.replay", 0)
            + by_name.get("core.Replayer.replay_mega", 0)),
        "stack.build_host_ms": p50_ms("stack.build_stack"),
        "stack.run_host_ms": p50_ms("stack.NetworkRunner.run"),
        "store.pack_host_ms_p50": p50_ms("store.Vault.pack"),
        "store.fetch_host_ms_p50": p50_ms("store.Vault.fetch"),
        "store.fetch_share": share(by_name.get("store.Vault.fetch", 0)),
        "serve.pool_boot_host_ms": p50_ms("serve.ReplayServer.boot"),
        "serve.self_share": share(by_layer.get("serve", 0)),
        "fleet.build_host_ms": p50_ms("fleet.Fleet.build"),
        "fleet.self_share": share(by_layer.get("fleet", 0)),
        "obs.self_share": share(by_layer.get("obs", 0)),
        "surgery.analyze_host_ms": p50_ms("surgery.analyze_recording"),
        "surgery.slice_host_ms_p50": p50_ms("surgery.slice_job"),
        "surgery.verify_slice_host_ms_p50": p50_ms("surgery.verify_slice"),
        "harness.op_uncovered_share": share(by_layer.get("op", 0)),
    }
    per_replay = max(1, replays_in_ops)
    out["soc.mem_calls_per_replay"] = tracer.counts["soc.mem"] / per_replay
    out["gpu.mmu_calls_per_replay"] = tracer.counts["gpu.mmu"] / per_replay
    return out


# -- reports ----------------------------------------------------------------


def serve_report_metrics(report, cpu_ns: int) -> Dict[str, float]:
    """Counts and virtual-time shares of one serve run. ``report`` is a
    ServeReport, or a FleetReport (its node registries merged)."""
    from repro.obs.attribution import attribute

    snapshot = getattr(report, "aggregate", None) or report.snapshot
    counters = snapshot["counters"]
    requests = report.submitted
    batches = counters.get("serve.batches", 0)
    batch_size = snapshot["histograms"].get("serve.batch.size")
    latencies = [r.latency_ns for r in report.responses
                 if r.status != "shed"]
    attribution = attribute(report.trace_events, 0, 100)
    stage_ns = {s.stage: s.total_ns for s in attribution.stages}
    total = attribution.total_ns or 1
    # An exec span hands its time down to per-kernel child spans.
    exec_ns = sum(ns for stage, ns in stage_ns.items()
                  if stage == "exec" or stage.startswith("kernel:"))
    return {
        "serve.host_us_per_request": cpu_ns / 1e3 / requests,
        "serve.batches": batches,
        "serve.mean_batch_size":
            batch_size["sum"] / batch_size["count"]
            if batch_size and batch_size["count"] else 0.0,
        "serve.mega_fused_batches": counters.get("serve.mega.batches", 0),
        "serve.retries": counters.get("serve.retries", 0),
        "serve.shed": counters.get("serve.requests.shed", 0),
        "serve.degraded": counters.get("serve.requests.degraded", 0),
        "serve.cpu_fallbacks": counters.get("serve.cpu_fallbacks", 0),
        "serve.queue_virtual_share": stage_ns.get("queue", 0) / total,
        "serve.exec_virtual_share": exec_ns / total,
        "serve.upload_virtual_share": stage_ns.get("upload", 0) / total,
        "serve.load_virtual_share": stage_ns.get("load", 0) / total,
        "serve.exact_p99_ns": exact_percentile(latencies, 99),
        "serve.bucketed_p99_ns": report.latency_percentiles()["p99"],
        "obs.trace_events": len(report.trace_events),
    }


def gpu_counter_metrics(totals: Dict[str, object]) -> Dict[str, float]:
    return {"gpu.counters.instructions": totals.get("instructions", 0),
            "gpu.counters.mmio_writes": totals.get("mmio_writes", 0)}


def obs_export_metrics(report) -> Dict[str, float]:
    """Cost of turning one serve run's telemetry into its exports."""
    from repro.obs.rtrace import events_to_jsonl

    series = report.timeseries

    def export() -> None:
        events_to_jsonl(report.trace_events)
        if series is not None:
            series.to_jsonl()
            series.to_openmetrics()
    ns = _time_ns(export)
    points = (sum(len(s["samples"]) for s in
                  series.snapshot()["series"].values())
              if series is not None else 0)
    return {"obs.export_host_ms": _ms(ns),
            "obs.timeseries_points": points}


def fleet_report_metrics(report, cpu_ns: int,
                         replicated: int) -> Dict[str, float]:
    counters = report.snapshot["counters"]
    hops = counters.get("fleet.router.hops", 0)
    return {
        "fleet.host_us_per_request": cpu_ns / 1e3 / report.submitted,
        "fleet.router_hops": hops,
        "fleet.affinity_hit_share":
            counters.get("fleet.router.affinity_hits", 0) / hops
            if hops else 0.0,
        "fleet.p2c_picks": counters.get("fleet.router.p2c_picks", 0),
        "fleet.autoscale_up": counters.get("fleet.autoscale.up", 0),
        "fleet.workers_peak":
            report.snapshot["gauges"].get("fleet.workers.peak", 0),
        "fleet.replication_fetches": replicated,
        "fleet.admission_rejected":
            counters.get("fleet.admission.quota_shed", 0)
            + counters.get("fleet.admission.priority_shed", 0),
    }
