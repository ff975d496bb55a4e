"""``grr serve`` and ``grr fleet``: serve a seeded synthetic load on
the replay serving engine (:mod:`repro.serve`) or on a simulated
multi-node fleet (:mod:`repro.fleet`), no recording file needed.

Both take the :data:`SHARED` flags, build their recordings the same
way (:func:`serving_store`: zoo models, or ``--synthetic`` composed
surgery sessions) and end the same way (:func:`finish`): the summary,
exit 1 on a lost request, then every answer checked against the CPU
reference unless ``--no-verify``.
"""

from __future__ import annotations

import json
import sys

from repro.core.replay import UsageError
from repro.errors import ReproError
from repro.tools.grr import (command, comma_list, fmt_ns, print_json,
                             usage, write_file)

#: The flags ``serve`` and ``fleet`` share, with what both give them;
#: :func:`add_shared` takes what each gives its own.
SHARED = (
    ("--requests", {"type": int}),
    ("--families", {}),
    ("--models", {"default": "mnist,kws",
                  "help": "comma list of zoo models in the mix"}),
    ("--seed", {"type": int, "default": 2026}),
    ("--synthetic", {"type": int, "default": 0, "metavar": "K"}),
    ("--synthetic-seed", {"type": int, "default": 7,
                          "help": "surgery-plan seed (default 7)"}),
    ("--fault-rate", {"type": float, "default": 0.0,
                      "help": "probability a request carries an injected "
                      "fault (transient/sticky/poison)"}),
    ("--max-batch", {"type": int, "default": 4}),
    ("--queue-depth", {"type": int}),
    ("--json", {"action": "store_true",
                "help": "machine-readable run summary"}),
    ("--no-verify", {"action": "store_true",
                     "help": "skip checking served outputs against the "
                     "CPU reference"}),
    ("--no-trace", {"action": "store_true",
                    "help": "disable request-scoped tracing"}),
    ("--trace-out", {"default": None, "metavar": "EVENTS_JSONL"}),
)


def add_shared(parser, **own) -> None:
    """Add the :data:`SHARED` flags; ``own`` maps a flag's dest to the
    keyword arguments this command gives it on top."""
    for flag, kwargs in SHARED:
        parser.add_argument(flag, **kwargs,
                            **own.get(flag[2:].replace("-", "_"), {}))


def serving_store(args):
    """``(families, store)`` from ``--families``, ``--models`` and
    ``--synthetic``."""
    from repro.serve import RecordingStore
    from repro.soc.boards import board_for_family

    families = comma_list(args.families)
    models = comma_list(args.models)
    for family in families:
        try:
            board_for_family(family)
        except ReproError:
            raise UsageError(f"unknown family {family!r}") from None
    if not args.synthetic:
        return families, RecordingStore.from_zoo(tuple(
            (family, model)
            for family in sorted(set(families)) for model in models))
    # The synthetic workload source: composed surgery sessions
    # drawn from a seeded plan, served exactly like zoo models.
    from repro.surgery import SyntheticRecordingStore

    store = SyntheticRecordingStore()
    for family in sorted(set(families)):
        store.populate_from_models(
            family, list(models), sessions=args.synthetic,
            seed=args.synthetic_seed)
    return families, store


def run(args, store, server, **load):
    """Serve ``--requests`` seeded requests on ``server``, then close
    it; the report."""
    from repro.serve import LoadgenConfig, generate_requests

    load_cfg = LoadgenConfig(
        requests=args.requests, seed=args.seed, mix=tuple(store.mix()),
        fault_rate=args.fault_rate, **load)
    # Stamp the load shape into the event log so a saved trace is
    # self-describing (no-op when tracing is off).
    server.rtrace.meta("loadgen", args=load_cfg.to_dict())
    report = server.serve(generate_requests(load_cfg))
    server.close()
    return report


def aux(args):
    """Where lines other than the summary go: ``--json`` keeps stdout
    the summary alone."""
    return sys.stderr if args.json else sys.stdout


def finish(args, report, store, head, tail=(), failures=()) -> int:
    """Print the run's summary (``head``, latency, throughput,
    ``tail``; ``--json``: the report's own), then the exit code: 1 if
    a request was lost, for any of ``failures``, or if an answer
    disagrees with the CPU reference."""
    percentiles = report.latency_percentiles()
    if args.json:
        print_json({**report.summary(), "percentiles": percentiles})
    else:
        print(*head, f"  latency p50 {fmt_ns(int(percentiles['p50']))}  "
              f"p95 {fmt_ns(int(percentiles['p95']))}  "
              f"p99 {fmt_ns(int(percentiles['p99']))}",
              f"  throughput {report.throughput_rps():.1f} requests/s "
              f"(virtual)", *tail, sep="\n")
    if report.lost:
        failures = (f"{len(report.lost)} requests lost: "
                    f"{report.lost[:10]}", *failures)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.no_verify:
        return 0
    from repro.serve import verify_report

    mismatches = verify_report(report, store)
    if mismatches:
        print(f"error: {len(mismatches)} outputs disagree with the "
              f"CPU reference:", file=sys.stderr)
        for mismatch in mismatches[:10]:
            print(f"  {mismatch}", file=sys.stderr)
        return 1
    counts = report.counts()
    print(f"  verified: all {counts['ok'] + counts['degraded']} answered "
          f"outputs match the CPU reference", file=aux(args))
    return 0


def add_serve(sub) -> None:
    parser = command(sub, "serve", cmd_serve,
                     help="run the concurrent replay serving engine "
                     "against a seeded synthetic load (no recording file "
                     "needed)")
    add_shared(
        parser, requests={"default": 200},
        families={"default": "mali,mali,v3d",
                  "help": "comma list; assigned to workers cyclically "
                  "(default mali,mali,v3d)"},
        synthetic={"help": "serve K composed surgery sessions per "
                   "family (sliced + recomposed from the zoo models) "
                   "instead of the models themselves"},
        queue_depth={"default": 64},
        trace_out={"help": "write the request trace event log (schema "
                   "rtrace.v1, one JSON event per line; feed to `grr "
                   "top` / `grr attribute` / `grr slo`)"})
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--mega", action="store_true",
                        help="fuse same-digest fast-path batches into "
                        "one mega-batch replay (falls back to "
                        "per-request replay on divergence)")
    parser.add_argument("--trace-chrome", default=None,
                        metavar="TRACE_JSON",
                        help="write a Perfetto-loadable Chrome trace "
                        "of all request timelines (with the folded "
                        "profile merged in as a flamegraph track)")
    parser.add_argument("--profile-out", default=None,
                        metavar="PROF_FOLDED",
                        help="write the continuous profile as "
                        "flamegraph.pl-compatible folded stacks "
                        "(exclusive virtual time per frame stack)")
    parser.add_argument("--timeseries-out", default=None,
                        metavar="TS_JSONL",
                        help="write the time-series samples as JSONL "
                        "(feed to `grr dash`)")
    parser.add_argument("--openmetrics", default=None,
                        metavar="METRICS_TXT",
                        help="write the time-series samples as "
                        "OpenMetrics text exposition")
    parser.add_argument("--no-timeseries", action="store_true",
                        help="disable the periodic metrics scraper")
    parser.add_argument("--no-counters", action="store_true",
                        help="disable the GPU performance-counter tape")


def cmd_serve(args) -> int:
    """Run the serving engine against a seeded synthetic load."""
    from repro.serve import ReplayServer, ServerConfig

    if args.no_trace and (args.trace_out or args.trace_chrome
                          or args.profile_out):
        raise usage("--trace-out/--trace-chrome/--profile-out "
                    "require tracing (drop --no-trace)")
    if args.no_timeseries and (args.timeseries_out or args.openmetrics):
        raise usage("--timeseries-out/--openmetrics require the "
                    "time-series collector (drop --no-timeseries)")
    families, store = serving_store(args)
    workers = tuple(families[i % len(families)]
                    for i in range(args.workers))
    report = run(args, store, ReplayServer(store, ServerConfig(
        families=workers, seed=args.seed,
        queue_depth=args.queue_depth, max_batch=args.max_batch,
        mega_batch=args.mega, trace=not args.no_trace,
        timeseries=not args.no_timeseries,
        gpu_counters=not args.no_counters)))

    if args.trace_out or args.trace_chrome or args.profile_out:
        from repro.obs.prof import chrome_flame, folded_stacks, \
            to_folded_text
        from repro.obs.rtrace import (events_to_chrome, events_to_jsonl,
                                      validate_events)

        events = report.trace_events
        problems = validate_events(
            events, expected_rids={r.rid for r in report.responses})
        for problem in problems[:5]:
            print(f"warning: trace incomplete: {problem}",
                  file=sys.stderr)
        if args.trace_out:
            write_file(args.trace_out, events_to_jsonl(events),
                       f"{len(events)} events, {len(report.responses)} "
                       f"request traces", aux(args))
        if args.trace_chrome:
            trace_doc = events_to_chrome(events)
            # The continuous profile rides the same timeline document
            # as a flamegraph track (one slice per frame stack).
            trace_doc["traceEvents"].extend(
                chrome_flame(folded_stacks(events)))
            write_file(args.trace_chrome,
                       json.dumps(trace_doc, indent=1, sort_keys=True),
                       "load in Perfetto / chrome://tracing", aux(args))
        if args.profile_out:
            stacks = folded_stacks(events)
            write_file(args.profile_out, to_folded_text(stacks),
                       f"{len(stacks)} frame stacks; render with "
                       f"flamegraph.pl or `grr profile`", aux(args))
    if args.timeseries_out:
        write_file(args.timeseries_out, report.timeseries.to_jsonl(),
                   f"{len(report.timeseries.series)} series; feed to "
                   f"`grr dash`", aux(args))
    if args.openmetrics:
        write_file(args.openmetrics, report.timeseries.to_openmetrics(),
                   "OpenMetrics text exposition", aux(args))

    counts = report.counts()
    counters = report.snapshot["counters"]
    head = [f"served {report.submitted} requests on {args.workers} "
            f"workers ({', '.join(workers)}) in "
            f"{fmt_ns(report.makespan_ns)} virtual",
            f"  ok {counts['ok']}  degraded {counts['degraded']}  "
            f"shed {counts['shed']}  lost {len(report.lost)}",
            f"  retries {counters.get('serve.retries', 0)}  "
            f"worker failures "
            f"{counters.get('serve.worker_failures', 0)}  "
            f"cpu fallbacks {counters.get('serve.cpu_fallbacks', 0)}"]
    if args.mega:
        head.append(f"  mega batches "
                    f"{counters.get('serve.mega.batches', 0)} "
                    f"({counters.get('serve.mega.requests', 0)} fused "
                    f"requests, "
                    f"{counters.get('serve.mega.fallbacks', 0)} "
                    f"fallbacks)")
    totals = report.gpu_counters.get("totals", {})
    tail = [f"  gpu counters: {totals.get('kernels', 0):.0f} "
            f"kernels, {totals.get('instructions', 0):.0f} "
            f"instructions, {totals.get('flops', 0):.3g} flops, "
            f"{totals.get('mmio_writes', 0):.0f} mmio writes, "
            f"tlb {totals.get('tlb_hits', 0):.0f}/"
            f"{totals.get('tlb_misses', 0):.0f} hit/miss"] \
        if totals.get("kernels") else []
    return finish(args, report, store, head, tail)


def add_fleet(sub) -> None:
    parser = command(sub, "fleet", cmd_fleet,
                     help="serve a seeded synthetic load on a simulated "
                     "multi-node cluster (digest-affinity routing, "
                     "queue-depth autoscaling)")
    add_shared(
        parser, requests={"default": 300},
        families={"default": "mali,v3d",
                  "help": "comma list of board families every node "
                  "hosts a pool for (default mali,v3d)"},
        synthetic={"help": "serve K composed surgery sessions per "
                   "family instead of the zoo models"},
        queue_depth={"default": 256,
                     "help": "per-node admission queue bound"},
        trace_out={"help": "write the fleet-wide request trace event "
                   "log (router hops and node spans on one timeline)"})
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--shape", default="poisson",
                        choices=("poisson", "diurnal", "spike"),
                        help="arrival shape (default poisson)")
    parser.add_argument("--popularity", default="uniform",
                        choices=("uniform", "zipf"),
                        help="model popularity over the mix "
                        "(default uniform)")
    parser.add_argument("--tenants", default=None,
                        help="comma list of tenant names to stamp on "
                        "requests (round-robin by the loadgen RNG)")
    parser.add_argument("--quota", action="append", metavar="TENANT=N",
                        help="cap a tenant's fleet-wide in-flight "
                        "requests (repeatable)")
    parser.add_argument("--max-workers", type=int, default=3,
                        help="autoscaler ceiling per family per node "
                        "(default 3)")
    parser.add_argument("--routing-out", default=None,
                        metavar="DECISIONS_JSONL",
                        help="write the router's decision log (one "
                        "JSON decision per line)")


def cmd_fleet(args) -> int:
    """Serve a seeded synthetic load on a simulated multi-node fleet."""
    from repro.fleet import Fleet, FleetConfig

    if args.no_trace and args.trace_out:
        raise usage("--trace-out requires tracing (drop --no-trace)")
    families, store = serving_store(args)
    quotas = []
    for spec in args.quota or ():
        tenant, _, cap = spec.partition("=")
        if not tenant or not cap.isdigit():
            raise usage(f"--quota wants TENANT=N, got {spec!r}")
        quotas.append((tenant, int(cap)))
    report = run(args, store, Fleet(store, FleetConfig(
        nodes=args.nodes, node_families=families, seed=args.seed,
        queue_depth=args.queue_depth, max_batch=args.max_batch,
        workers_max=args.max_workers, trace=not args.no_trace,
        quotas=tuple(quotas))), shape=args.shape,
        popularity=args.popularity, tenants=comma_list(args.tenants))

    if args.routing_out:
        write_file(args.routing_out, "".join(
            json.dumps(decision, sort_keys=True) + "\n"
            for decision in report.routing),
            f"{len(report.routing)} routing decisions", aux(args))
    if args.trace_out:
        from repro.obs.rtrace import events_to_jsonl

        write_file(args.trace_out, events_to_jsonl(report.trace_events),
                   f"{len(report.trace_events)} events across "
                   f"{args.nodes} nodes", aux(args))

    counts = report.counts()
    counters = report.snapshot["counters"]
    head = [f"served {report.submitted} requests on {args.nodes} nodes "
            f"({', '.join(families)} per node) in "
            f"{fmt_ns(report.makespan_ns)} virtual",
            f"  ok {counts['ok']}  degraded {counts['degraded']}  "
            f"shed {counts['shed']}  lost {len(report.lost)}  "
            f"duplicates {len(report.duplicates)}",
            f"  routing: affinity "
            f"{counters.get('fleet.router.affinity_hits', 0)}  "
            f"p2c {counters.get('fleet.router.p2c_picks', 0)}  "
            f"spills {counters.get('fleet.router.overload_spills', 0)}",
            f"  autoscale: up {counters.get('fleet.autoscale.up', 0)}  "
            f"down {counters.get('fleet.autoscale.down', 0)}  peak "
            f"workers "
            f"{report.snapshot['gauges'].get('fleet.workers.peak', 0):.0f}"]
    if counters.get("fleet.replication.peer_fetches"):
        head.append(
            f"  replication: peer fetches "
            f"{counters.get('fleet.replication.peer_fetches', 0)}  "
            f"corrupt chunks "
            f"{counters.get('fleet.replication.corrupt_chunks', 0)}")
    duplicates = [f"{len(report.duplicates)} requests answered more "
                  f"than once: {report.duplicates[:10]}"] \
        if report.duplicates else []
    return finish(args, report, store, head, failures=duplicates)
