"""Judge sets of ledger runs against the benchmark's own bounds.

    python3 ledger/compare.py A.json            # is one set steady?
    python3 ledger/compare.py A.json B.json     # did B get worse than A?

A set is the JSON list ``run.py --out`` appends to (``sweep.py``
fills one). One row per (workload, metric).

One set: the spread of a metric is the distance between the first and
third quartile of its runs over their median; ``steady`` is a spread
within a third of the bound, ``within`` inside the bound, ``noisy``
beyond it (``setup_s`` is exempt, as in the driver's acceptance rule).

Two sets: B's median against A's, direction and bound applied. A
metric whose spread inside either set exceeds its bound cannot settle
a change of that size, so it reads ``unresolved`` unless every run of
one set beats every run of the other. Runs of the same workload, seed
and mode present in both sets must agree exactly on every virtual and
exact metric when ``--exact`` is given (two sets of one commit).
Exits 1 on a noisy metric, a regression, an inexact pair under
``--exact``, or a higher failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import clock_of, load_spec  # noqa: E402

Key = Tuple[str, int]  # (workload, trace)


def metric_specs() -> Dict[str, dict]:
    spec = load_spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        return json.load(handle)


def by_metric(runs: List[dict]) -> Dict[Key, Dict[str, List[float]]]:
    """(workload, trace) -> metric -> values. Host metrics of a run
    made on a starved box (``unresolved_host``) are left out."""
    table: Dict[Key, Dict[str, List[float]]] = {}
    for run in runs:
        metrics = table.setdefault((run["workload"], run["trace"]), {})
        for name, entry in run["metrics"].items():
            if run.get("unresolved_host") and is_host(entry["unit"]):
                continue
            metrics.setdefault(name, []).append(entry["value"])
    return table


def is_host(unit: str) -> bool:
    return clock_of(unit) == "host"


def spread(values: List[float]) -> float:
    """Interquartile distance over the median; 0 for fewer than two
    runs or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(spec: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a`` as a share of ``a``
    (negative = better)."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return -change if spec["better"] == "higher" else change


def failed_share(runs: List[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def judge_one(runs: List[dict], specs: Dict[str, dict]) -> int:
    bad = 0
    print(f"{'workload':<12} {'metric':<36} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for (workload, trace), metrics in sorted(by_metric(runs).items()):
        for name, values in metrics.items():
            bound = specs[name].get("bound")
            if bound is None:
                continue
            s = spread(values)
            verdict = ("steady" if s <= bound / 3 else
                       "within" if s <= bound else "noisy")
            if verdict == "noisy" and name != "setup_s":
                bad += 1
            print(f"{workload:<12} {name:<36} {len(values):>3} "
                  f"{statistics.median(values):>14.6g} {s:>8.3f} "
                  f"{bound:>6.2f}  {verdict}")
    return bad


def exact_mismatches(a_runs: List[dict], b_runs: List[dict]) -> List[str]:
    index = {(r["workload"], r["seed"], r["trace"]): r for r in a_runs}
    out = []
    for run in b_runs:
        other = index.get((run["workload"], run["seed"], run["trace"]))
        if other is None:
            continue
        for name, entry in run["metrics"].items():
            if not is_host(entry["unit"]) \
                    and entry["value"] != other["metrics"][name]["value"]:
                out.append(f"{run['workload']} seed {run['seed']} {name}: "
                           f"{other['metrics'][name]['value']!r} != "
                           f"{entry['value']!r}")
        if run.get("answers") != other.get("answers"):
            out.append(f"{run['workload']} seed {run['seed']}: "
                       "answer digests differ")
    return out


def judge_two(a_runs: List[dict], b_runs: List[dict],
              specs: Dict[str, dict], exact: bool) -> int:
    bad = 0
    a_table, b_table = by_metric(a_runs), by_metric(b_runs)
    print(f"{'workload':<12} {'metric':<36} {'A median':>13} "
          f"{'B median':>13} {'worse by':>9} {'bound':>6}  verdict")
    for key in sorted(a_table.keys() & b_table.keys()):
        for name, a_values in a_table[key].items():
            b_values = b_table[key].get(name)
            bound = specs[name].get("bound")
            if not b_values:
                continue
            a_med = statistics.median(a_values)
            b_med = statistics.median(b_values)
            worse = worsening(specs[name], a_med, b_med)
            if bound is None:
                verdict = "info"
            else:
                noisy = max(spread(a_values), spread(b_values)) > bound
                sign = 1 if specs[name]["better"] == "lower" else -1
                disjoint = (
                    min(sign * v for v in b_values)
                    > max(sign * v for v in a_values)
                    or max(sign * v for v in b_values)
                    < min(sign * v for v in a_values))
                if noisy and not disjoint:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSION"
                    bad += 1
                else:
                    verdict = "ok"
            if bound is not None or key[1] == 1:
                print(f"{key[0]:<12} {name:<36} {a_med:>13.6g} "
                      f"{b_med:>13.6g} {worse:>+9.3f} "
                      f"{'-' if bound is None else format(bound, '.2f'):>6}"
                      f"  {verdict}")
    fa, fb = failed_share(a_runs), failed_share(b_runs)
    print(f"failed share: A {fa:.6f}  B {fb:.6f}")
    if fb > fa:
        print("B fails more ops than A")
        bad += 1
    if exact:
        mismatches = exact_mismatches(a_runs, b_runs)
        for line in mismatches[:20]:
            print(f"INEXACT {line}")
        print(f"exact pairs: {len(mismatches)} virtual/exact values differ")
        bad += len(mismatches)
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    parser.add_argument("--exact", action="store_true",
                        help="same-seed runs of A and B must agree on "
                        "every virtual and exact metric")
    args = parser.parse_args(argv)
    specs = metric_specs()
    if args.b is None:
        bad = judge_one(load_runs(args.a), specs)
    else:
        bad = judge_two(load_runs(args.a), load_runs(args.b), specs,
                        args.exact)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
