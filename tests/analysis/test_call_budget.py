"""The per-action floor: Python calls one warm replay makes, and the
per-recording floor: those one cold start makes.

The replayer should cost its actions and its kernels, not the layers
in between (DESIGN.md "The per-action floor"), and a cold start its
recording, not its chunks and pages. So that host work is *counted*,
not timed: ``sys.setprofile`` sees every Python frame one replay (or
cold start) opens, and with a fixed machine seed that count is the
same on every run. numpy's own Python wrappers are left out: they are
the kernels' cost, and move with the numpy version.

A ceiling is only ever re-pinned downwards. If this test fails
because a replay makes more calls, find the frame that was added to
the hot path, not a higher number.
"""

from __future__ import annotations

import gc
import os
import sys

import pytest

from repro.bench.workloads import fresh_replay_machine, get_recorded
from repro.core.replay import seeded_inputs
from repro.core.replayer import Replayer, clear_load_cache
from repro.store import Vault

#: Each ``replay_hot`` recording -> the calls its fourth replay on a
#: seed-7 machine may make. Measured 2,341 / 7,320 / 2,740 / 2,478 / 2,415
#: with about half a percent of slack; before the floor was paid the
#: same count read 4,053 / 12,709 / 4,763 / 4,049 / 4,495.
BUDGET = {
    ("mali", "dense-serve"): 2353,
    ("mali", "alexnet"): 7357,
    ("mali", "mnist"): 2754,
    ("v3d", "mnist"): 2491,
    ("adreno", "mnist"): 2428,
}

#: Each ``replay_hot`` recording -> the calls of its cold start on a
#: seed-7 machine: boot, ``init``, a verified ``Vault.fetch``, ``load``
#: and the first replay (``cold_start``'s op). Measured 5,351 / 14,313
#: / 5,942 / 5,039 / 5,576 with about half a percent of slack; while a
#: fetch hashed every chunk and the first replay stored, scrubbed,
#: mapped and walked page by page, the same count read 22,016 /
#: 18,315 / 7,481 / 6,699 / 8,373.
COLD_BUDGET = {
    ("mali", "dense-serve"): 5378,
    ("mali", "alexnet"): 14385,
    ("mali", "mnist"): 5972,
    ("v3d", "mnist"): 5064,
    ("adreno", "mnist"): 5604,
}

_NUMPY = os.sep + "numpy" + os.sep


def counted(run) -> int:
    """Python calls ``run()`` makes, numpy's left out."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and _NUMPY not in frame.f_code.co_filename:
            calls += 1
    # No collection inside the count: it would run finalizers of other
    # tests' garbage there.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def calls_in_fourth_replay(family: str, model: str) -> int:
    recording = get_recorded(family, model)[0].recording
    replayer = Replayer(fresh_replay_machine(family, seed=7))
    replayer.init()
    replayer.load(recording)
    inputs = seeded_inputs(recording, 7)
    for _ in range(3):
        replayer.replay(inputs=inputs)
    calls = counted(lambda: replayer.replay(inputs=inputs))
    replayer.cleanup()
    return calls


def calls_in_cold_start(family: str, model: str, root: str) -> int:
    """The calls of one cold start of a packed recording, after one
    that warmed what a process keeps (imports, decode tables)."""
    recording = get_recorded(family, model)[0].recording
    digest = Vault(root).pack(recording).digest
    inputs = seeded_inputs(recording, 7)

    def cold_start():
        clear_load_cache()
        replayer = Replayer(fresh_replay_machine(family, seed=7))
        replayer.init()
        replayer.load(Vault.open(root).fetch(digest, verify=True))
        replayer.replay(inputs=inputs)
        return replayer
    cold_start().cleanup()
    held = []
    calls = counted(lambda: held.append(cold_start()))
    held.pop().cleanup()
    return calls


@pytest.mark.parametrize("pair", BUDGET, ids="/".join)
def test_a_warm_replay_stays_within_its_call_budget(pair):
    first = calls_in_fourth_replay(*pair)
    assert calls_in_fourth_replay(*pair) == first
    assert first <= BUDGET[pair]


@pytest.mark.parametrize("pair", COLD_BUDGET, ids="/".join)
def test_a_cold_start_stays_within_its_call_budget(pair, tmp_path):
    first = calls_in_cold_start(*pair, str(tmp_path))
    assert calls_in_cold_start(*pair, str(tmp_path)) == first
    assert first <= COLD_BUDGET[pair]
