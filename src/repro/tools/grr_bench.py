"""``grr bench``: measure one pinned suite of :mod:`repro.bench.harness`
once; print its table, its pin (``--json``), and check it against a
pin file (``--check``, exact: the pins hold no host number)."""

from __future__ import annotations

import json
import sys

from repro.tools.grr import command, usage


def add_bench(sub) -> None:
    parser = command(sub, "bench", cmd_bench,
                     help="measure a pinned benchmark suite once: print "
                     "its table, its pin (--json) and/or check a pin "
                     "(--check)")
    parser.add_argument("--suite", default="fastpath",
                        help="fastpath, serve, fleet, obs, store or "
                        "surgery (default fastpath)")
    parser.add_argument("--json", action="store_true",
                        help="print exactly the pin (re-pin with "
                        "--json > BENCH_<suite>.json)")
    parser.add_argument("--check", default=None, metavar="PINNED_JSON",
                        help="exit 1 naming every value that differs "
                        "from the pin, either way")


def cmd_bench(args) -> int:
    from repro.bench.harness import SUITES, check, pin_of

    suite = SUITES.get(args.suite)
    if suite is None:
        raise usage(f"unknown suite {args.suite!r}; known: "
                    f"{', '.join(SUITES)}")
    measured = suite.measure()
    # --json keeps stdout the pin alone, so the table goes to stderr.
    print(suite.table(measured).render(),
          file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(json.dumps(pin_of(measured), indent=2, sort_keys=True))
    if args.check:
        with open(args.check) as handle:
            differences = check(json.load(handle), measured)
        for difference in differences:
            print(f"  {difference}", file=sys.stderr)
        if differences:
            print(f"error: {len(differences)} value(s) of the {args.suite} "
                  f"suite differ from {args.check}", file=sys.stderr)
            return 1
        print(f"{args.suite}: {args.check} holds exactly", file=sys.stderr)
    return 0
