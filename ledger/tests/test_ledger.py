"""Checks of the ledger itself, driving ``run.py --smoke``.

Run explicitly (``testpaths`` keeps it out of tier-1):

    python3 -m pytest ledger/tests/test_ledger.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(LEDGER)
sys.path.insert(0, LEDGER)

from spec import EXACT_UNITS, load_spec  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_ledger(root, *args, out=None):
    command = [sys.executable, os.path.join(root, "ledger", "run.py"),
               *args]
    if out:
        command += ["--out", out]
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every smoke run the tests below read, two at a time: per
    workload seed 3 twice untraced and once traced, plus seed 4 once."""
    base = tmp_path_factory.mktemp("ledger")
    jobs = {}
    for workload in WORKLOADS:
        jobs[(workload, 3, 0, "a")] = ("--seed", "3", "--trace", "0")
        jobs[(workload, 3, 0, "b")] = ("--seed", "3", "--trace", "0")
        jobs[(workload, 3, 1, "a")] = ("--seed", "3", "--trace", "1")
    jobs[("serve_knee", 4, 0, "a")] = ("--seed", "4", "--trace", "0")

    def one(item):
        key, flags = item
        out = str(base / ("-".join(str(k) for k in key) + ".json"))
        done = run_ledger(ROOT, "--workload", key[0], "--smoke", *flags,
                          out=out)
        assert done.returncode == 0, done.stdout + done.stderr
        with open(out) as handle:
            record = json.load(handle)[0]
        record["last_line"] = done.stdout.strip().splitlines()[-1]
        return key, record

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(one, jobs.items()))


def exact_part(record):
    """What must repeat for a seed: virtual and exact metrics, counts,
    inputs and answers. Host times are left out."""
    return {
        "metrics": {name: entry["value"]
                    for name, entry in record["metrics"].items()
                    if entry["unit"] in ("vns",) + EXACT_UNITS},
        "attempted": record["attempted"], "failed": record["failed"],
        "correct": record["correct"], "stream": record["stream"],
        "answers": record["answers"], "rounds": record["rounds"],
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_exactly(runs, workload):
    first = exact_part(runs[(workload, 3, 0, "a")])
    assert first == exact_part(runs[(workload, 3, 0, "b")])
    assert first["correct"] and first["attempted"] >= 1
    assert first["metrics"], "no virtual metric to compare"


def test_other_seed_draws_other_inputs(runs):
    assert runs[("serve_knee", 3, 0, "a")]["stream"] \
        != runs[("serve_knee", 4, 0, "a")]["stream"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_listed_metrics(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record = runs[(workload, 3, trace, "a")]
        listed = [m["name"] for m in SPEC[section]]
        assert sorted(record["metrics"]) == sorted(listed)
        assert all(NAME.match(name) for name in listed)
        last = json.loads(record["last_line"])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert sorted(last["metrics"]) == sorted(listed)
        for spec in SPEC[section]:
            assert last["metrics"][spec["name"]]["unit"] == spec["unit"]
    untraced = runs[(workload, 3, 0, "a")]["metrics"]
    assert all(entry["value"] > 0 for entry in untraced.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_add_up(runs, workload):
    assert (workload, 3, 1, "a") in runs
    with open(os.path.join(LEDGER, "out",
                           f"{workload}.trace.json")) as handle:
        events = json.load(handle)["traceEvents"]
    assert any(e["cat"] == "op" for e in events)
    children = {}
    for event in events:
        children.setdefault(event["args"]["parent"], []).append(event)

    def self_sum(event):
        kids = children.get(event["args"]["id"], [])
        own = event["dur"] - sum(k["dur"] for k in kids)
        assert own >= -1e-6, (event["name"], own)
        return own + sum(self_sum(k) for k in kids)

    for root in children.get(-1, []):
        assert self_sum(root) == pytest.approx(root["dur"], abs=1e-3)


def test_traced_cold_start_spans_cover_the_op(runs):
    metrics = runs[("cold_start", 3, 1, "a")]["metrics"]
    assert metrics["harness.op_uncovered_share"]["value"] <= 0.10
    assert metrics["harness.trace_overhead_ratio"]["value"] > 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_ledger(str(tmp_path), "--workload", "replay_hot",
                      "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _record(workload, seed, value, failed=0):
    return {"workload": workload, "seed": seed, "trace": 0,
            "attempted": 100, "failed": failed, "answers": "x",
            "metrics": {
                "host_ops_per_s": {"value": value, "unit": "1/s"},
                "virtual_makespan_ns": {"value": 1000.0, "unit": "vns"}}}


def test_compare_applies_direction_bound_and_spread(tmp_path, capsys):
    import compare

    def write(name, records):
        path = tmp_path / name
        path.write_text(json.dumps(records))
        return str(path)

    steady = write("a.json", [_record("replay_hot", s, 100 + s % 3)
                              for s in range(10)])
    slower = write("b.json", [_record("replay_hot", s, 70 + s % 3)
                              for s in range(10)])
    noisy = write("c.json", [_record("replay_hot", s, 60 + 9 * s)
                             for s in range(10)])
    failing = write("d.json", [_record("replay_hot", s, 100 + s % 3,
                                       failed=1) for s in range(10)])
    assert compare.main([steady]) == 0
    assert compare.main([noisy]) == 1
    assert compare.main([steady, steady, "--exact"]) == 0
    assert compare.main([steady, slower]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main([slower, steady]) == 0
    assert compare.main([steady, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([steady, failing]) == 1
