"""Observability overhead: exact pin + claims.

Claims:

- always-on observability (request tracing + the GPU counter tape +
  time-series scrapes) costs at most 10% host CPU time on the serving
  benchmark: the median over interleaved on/off pairs of each pair's
  CPU-time ratio;
- it costs exactly *zero* virtual time -- the on and off arms finish
  with identical makespans (the determinism contract: obs only reads
  the clock; ``measure_obs`` raises if they diverge).

``BENCH_obs.json`` pins what observability recorded -- the shared
makespan, trace events, series and GPU counter totals -- exactly; the
CPU times and the overhead ratio are the host's and are never pinned.
``grr bench --suite obs --check`` runs the same check.
"""

import gc
import json
import pathlib
import statistics

import pytest

from repro.bench.experiments.obs_bench import obs_arms, serve_once
from repro.bench.harness import SUITES, check

SUITE = SUITES["obs"]
PIN_FILE = pathlib.Path(__file__).resolve().parent.parent / SUITE.pin

#: The headline budget: full observability may cost at most this
#: fraction of serving CPU time.
OVERHEAD_BUDGET = 0.10

#: On/off pairs the budget is judged over, and serves per arm of a
#: pair: each serve is about 0.1 s of CPU, so an arm is about 0.4 s.
#: Within a pair the two arms' serves alternate (on, off, off, on,
#: ...) so drift of the host's speed falls on both.
OVERHEAD_PAIRS = 11
SERVES_PER_ARM = 4


@pytest.fixture(scope="module")
def measured():
    return SUITE.measure()


def test_pin_is_exact(measured):
    assert check(json.loads(PIN_FILE.read_text()), measured) == []


def _overhead_ratios():
    """One ``on / off - 1`` CPU-time ratio per interleaved pair."""
    store, stream, on_cfg, off_cfg = obs_arms()
    serve_once(store, on_cfg, stream)  # warm the load cache
    configs = (on_cfg, off_cfg)
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        cpu_s = [0.0, 0.0]
        for serve in range(SERVES_PER_ARM):
            first = (pair + serve) % 2
            for arm in (first, 1 - first):
                gc.collect()
                cpu_s[arm] += serve_once(store, configs[arm],
                                         stream)["cpu_s"]
        ratios.append(cpu_s[0] / cpu_s[1] - 1.0)
    return ratios


def test_overhead_within_budget():
    ratios = _overhead_ratios()
    median = statistics.median(ratios)
    assert median <= OVERHEAD_BUDGET, (
        f"observability costs {median:.1%} CPU time in the median of "
        f"{len(ratios)} on/off pairs (budget {OVERHEAD_BUDGET:.0%}): "
        + " ".join(f"{ratio:+.1%}" for ratio in sorted(ratios)))


def test_obs_table_renders(measured):
    print(SUITE.table(measured).render())
