"""``grr profile | dash | top | attribute | slo``: read back what
``grr serve`` writes -- the request trace event log (``--trace-out``,
schema rtrace.v1) and the time-series log (``--timeseries-out``). A
file that is not such a log is a usage error (exit 2)."""

from __future__ import annotations

import json
import sys
from collections import Counter

from repro.tools.grr import (command, comma_list, fmt_ns, invalid,
                             print_json, usage, write_file)

_EVENT_LOG = "event log from `grr serve --trace-out`"


def read_events(path: str):
    """The trace event log at ``path``."""
    from repro.obs.rtrace import load_events

    try:
        return load_events(path)
    except ValueError as error:
        raise usage(f"{path} is not a trace event log: {error}") from None


def add_profile(sub) -> None:
    parser = command(sub, "profile", cmd_profile,
                     help="fold a serve trace event log into a "
                     "flamegraph-ready profile of exclusive virtual time")
    parser.add_argument("file", help=_EVENT_LOG)
    parser.add_argument("-o", "--out", default=None,
                        metavar="PROF_FOLDED",
                        help="write flamegraph.pl-compatible folded "
                        "stacks instead of printing a table")
    parser.add_argument("--chrome", default=None, metavar="FLAME_JSON",
                        help="also write a Perfetto-loadable "
                        "flamegraph layout")
    parser.add_argument("--limit", type=int, default=20,
                        help="table rows to print when not writing "
                        "a file (default 20)")


def cmd_profile(args) -> int:
    """Fold a serve trace into a flamegraph-ready profile.

    The invariant checked here is the one the profiler is built on:
    every frame's *exclusive* virtual time sums back to the end-to-end
    virtual time of the traced requests. A violation means the span
    trees are malformed (exit 1), not a rendering nit.
    """
    from repro.obs.prof import (chrome_flame, folded_stacks,
                                request_total_ns, to_folded_text,
                                total_ns, validate_folded)

    events = read_events(args.file)
    stacks = folded_stacks(events)
    if not stacks:
        print("error: no complete request spans in log",
              file=sys.stderr)
        return 1
    text = to_folded_text(stacks)
    problems = validate_folded(text)
    profiled = total_ns(stacks)
    end_to_end = request_total_ns(events)
    if profiled != end_to_end:
        problems.append(
            f"exclusive time sums to {profiled} ns but requests span "
            f"{end_to_end} ns end to end")
    if invalid("profile", problems, file=sys.stderr):
        return 1
    if args.out:
        write_file(args.out, text,
                   f"{len(stacks)} frame stacks, {fmt_ns(profiled)} "
                   f"exclusive virtual time; render with flamegraph.pl")
    if args.chrome:
        write_file(args.chrome, json.dumps(
            {"traceEvents": chrome_flame(stacks), "displayTimeUnit": "ms"},
            indent=1, sort_keys=True),
            "flamegraph layout; load in Perfetto / chrome://tracing")
    if not args.out and not args.chrome:
        limit = args.limit or len(stacks)
        width = max(len(stack) for stack in stacks)
        for stack, ns in sorted(stacks.items(),
                                key=lambda kv: (-kv[1], kv[0]))[:limit]:
            share = ns / profiled if profiled else 0.0
            print(f"{stack:<{min(width, 72)}} {fmt_ns(ns):>12} "
                  f"{share:6.1%}")
        if len(stacks) > limit:
            print(f"... {len(stacks) - limit} more frame stacks "
                  f"(raise --limit, or -o for the full .folded)")
    return 0


def add_dash(sub) -> None:
    parser = command(sub, "dash", cmd_dash,
                     help="terminal sparkline dashboard over a serve "
                     "time-series JSONL log")
    parser.add_argument("file", help="JSONL from `grr serve "
                        "--timeseries-out`")
    parser.add_argument("--series", default=None,
                        help="comma list of series names (default: the "
                        "interesting serving curves present in the log)")
    parser.add_argument("--width", type=int, default=60,
                        help="sparkline width in cells (default 60)")


#: Eight-level unicode sparkline ramp (lowest to highest).
_SPARKS = "▁▂▃▄▅▆▇█"

#: Series `grr dash` shows when --series is not given (curves the
#: serving engine derives or that move request by request).
_DASH_DEFAULT = ("serve.queue.depth", "serve.requests.submitted",
                 "serve.shed.rate", "serve.cache.hit_ratio",
                 "serve.mega.fanout", "serve.latency_ns.p95")


def _sparkline(values, width: int) -> str:
    if len(values) > width:
        # Downsample by striding from the tail: the recent end of the
        # curve is the interesting part of a dashboard.
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1,
                    int((v - lo) / span * len(_SPARKS)))]
        for v in values)


def cmd_dash(args) -> int:
    """Terminal sparkline dashboard over a time-series JSONL log."""
    from repro.obs.timeseries import parse_jsonl

    try:
        with open(args.file) as handle:
            series = parse_jsonl(handle.read())
    except (ValueError, KeyError, TypeError) as error:
        raise usage(f"{args.file} is not a time-series JSONL log: "
                    f"{error}") from None
    if not series:
        print("(no samples in log)")
        return 0
    if args.series:
        names = comma_list(args.series)
        missing = [name for name in names if name not in series]
        if missing:
            raise usage(f"series not in log: {', '.join(missing)}; "
                        f"available: {', '.join(sorted(series))}")
    else:
        names = [name for name in _DASH_DEFAULT if name in series]
        if not names:
            names = sorted(series)[:8]
    t_lo = min(t for rows in series.values() for t, _ in rows)
    t_hi = max(t for rows in series.values() for t, _ in rows)
    print(f"{args.file}: {len(series)} series, "
          f"{sum(len(r) for r in series.values())} samples over "
          f"{fmt_ns(t_hi - t_lo)} virtual")
    for name in names:
        values = [value for _, value in series[name]]
        lo, hi, last = min(values), max(values), values[-1]
        print(f"  {name:<26} {_sparkline(values, args.width)}  "
              f"min {lo:g}  max {hi:g}  last {last:g}")
    return 0


def add_top(sub) -> None:
    parser = command(sub, "top", cmd_top,
                     help="post-hoc dashboard over a serve trace event "
                     "log: slowest requests with per-stage breakdowns")
    parser.add_argument("file", help=_EVENT_LOG)
    parser.add_argument("--limit", type=int, default=15,
                        help="rows to show (default 15)")


def cmd_top(args) -> int:
    """Post-hoc dashboard over a serve trace: slowest requests first."""
    from repro.obs.metrics import percentile
    from repro.obs.rtrace import span_trees, validate_events

    events = read_events(args.file)
    problems = validate_events(events)
    for problem in problems[:5]:
        print(f"warning: {problem}", file=sys.stderr)
    roots = span_trees(events)
    if not roots:
        print("(no request traces in log)")
        return 0

    rows = []
    for rid in sorted(roots):
        root = roots[rid]
        status = str(root.args.get("status", "?"))
        stages = {}
        for node in root.walk():
            stages[node.name] = stages.get(node.name, 0) \
                + node.exclusive_ns
        rows.append((rid, status, root.duration_ns, stages))

    answered = [lat for _, status, lat, _ in rows if status != "shed"]
    counts = Counter(status for _, status, _, _ in rows)

    summary = "  ".join(f"{status} {counts[status]}"
                        for status in sorted(counts))
    print(f"{len(rows)} request(s): {summary}")
    if answered:
        print("answered latency " + "  ".join(
            f"p{q} {fmt_ns(percentile(answered, q))}"
            for q in (50, 95, 99)))
    print(f"{'rid':>5} {'status':<9} {'latency':>12}  breakdown "
          "(exclusive virtual time)")
    rows.sort(key=lambda row: (-row[2], row[0]))
    for rid, status, latency, stages in rows[:args.limit]:
        parts = sorted(stages.items(), key=lambda kv: (-kv[1], kv[0]))
        breakdown = "  ".join(
            f"{name} {fmt_ns(ns)}" for name, ns in parts[:4] if ns)
        print(f"{rid:>5} {status:<9} {fmt_ns(latency):>12}  "
              f"{breakdown or '-'}")
    if len(rows) > args.limit:
        print(f"  ... {len(rows) - args.limit} more "
              f"(raise --limit to see them)")
    return 0


def add_attribute(sub) -> None:
    parser = command(sub, "attribute", cmd_attribute,
                     help="tail-latency attribution: fold a latency "
                     "percentile band's span trees into ranked exclusive "
                     "per-stage virtual time (sums to end-to-end by "
                     "construction)")
    parser.add_argument("file", help=_EVENT_LOG)
    parser.add_argument("--p-lo", type=float, default=99.0,
                        help="band lower percentile (default 99)")
    parser.add_argument("--p-hi", type=float, default=100.0,
                        help="band upper percentile (default 100)")
    parser.add_argument("--status", default=None,
                        help="comma list of terminal statuses to "
                        "include (default: all but shed)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")


def cmd_attribute(args) -> int:
    """Decompose a latency percentile band into per-stage time."""
    from repro.obs.attribution import attribute

    if not 0.0 <= args.p_lo <= args.p_hi <= 100.0:
        raise usage(f"bad percentile band [{args.p_lo:g}, "
                    f"{args.p_hi:g}]: want 0 <= --p-lo <= --p-hi <= 100")
    report = attribute(read_events(args.file), p_lo=args.p_lo,
                       p_hi=args.p_hi,
                       statuses=comma_list(args.status) if args.status
                       else None)
    if args.json:
        print_json(report.to_dict())
    else:
        print(report.render())
    return 0


def add_slo(sub) -> None:
    parser = command(sub, "slo", cmd_slo,
                     help="evaluate latency/error-budget objectives with "
                     "sliding-window burn-rate alerts against an event log")
    parser.add_argument("file", help=_EVENT_LOG)
    parser.add_argument("--latency-ms", type=float, default=100.0,
                        help="latency SLO cutoff in virtual ms "
                        "(default 100)")
    parser.add_argument("--target", type=float, default=None,
                        help="override every objective's target fraction")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any objective is missed")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable slo.v1 report")


def cmd_slo(args) -> int:
    """Evaluate SLOs with burn-rate alerts against an event log."""
    from repro.obs.slo import (SloSpec, default_slos, evaluate_slos,
                               slo_report)
    from repro.units import MS

    # Exit 1 is a missed SLO under --strict; a bad flag is not one.
    if args.target is not None and not 0.0 < args.target < 1.0:
        raise usage(f"--target {args.target:g} is not in (0, 1)")
    events = read_events(args.file)
    specs = default_slos(deadline_ns=int(args.latency_ms * MS))
    if args.target is not None:
        specs = [SloSpec(name=spec.name, target=args.target,
                         latency_ns=spec.latency_ns,
                         window_ns=spec.window_ns,
                         burn_threshold=spec.burn_threshold)
                 for spec in specs]
    results = evaluate_slos(events, specs)
    if args.json:
        print_json(slo_report(events, specs))
    else:
        for result in results:
            print(result.render())
    if args.strict and any(not r.met for r in results):
        missed = ", ".join(r.spec.name for r in results if not r.met)
        print(f"error: SLO(s) missed: {missed}", file=sys.stderr)
        return 1
    return 0
