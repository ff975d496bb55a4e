"""Fill one set of runs for ``compare.py``: every workload on every
seed, one ``run.py`` process after another.

    python3 ledger/sweep.py --out ledger/out/A.json --seeds 1-10
    python3 ledger/sweep.py --out ledger/out/A.json --seeds 1 --trace 1
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)

from spec import load_spec  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(LEDGER_DIR, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--trace", str(args.trace), "--out", args.out]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True)
            status = "ok" if done.returncode == 0 else \
                f"exit {done.returncode}"
            print(f"{workload} seed {seed}: {status}", flush=True)
            failures += done.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
