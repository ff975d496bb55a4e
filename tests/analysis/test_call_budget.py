"""The per-action floor: Python calls one warm replay makes.

The replayer should cost its actions and its kernels, not the layers
in between (DESIGN.md "The per-action floor"). So the host work of a
warm replay is *counted*, not timed: ``sys.setprofile`` sees every
Python frame one replay opens, and with a fixed machine seed that
count is the same on every run. numpy's own Python wrappers are left
out: they are the kernels' cost, and move with the numpy version.

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
from repro.core.replayer import Replayer

#: Each ``replay_hot`` recording -> the calls its fourth replay on a
#: seed-7 machine may make. Measured 2,350 / 7,354 / 2,752 / 2,848 / 2,949
#: with about half a percent of slack; before the floor was paid the
#: same count read 4,053 / 12,709 / 4,763 / 4,049 / 4,495.
BUDGET = {
    ("mali", "dense-serve"): 2362,
    ("mali", "alexnet"): 7390,
    ("mali", "mnist"): 2766,
    ("v3d", "mnist"): 2862,
    ("adreno", "mnist"): 2964,
}

_NUMPY = os.sep + "numpy" + os.sep


def calls_in_fourth_replay(family: str, model: str) -> int:
    recording = get_recorded(family, model)[0].recording
    replayer = Replayer(fresh_replay_machine(family, seed=7))
    replayer.init()
    replayer.load(recording)
    inputs = seeded_inputs(recording, 7)
    for _ in range(3):
        replayer.replay(inputs=inputs)
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
        replayer.replay(inputs=inputs)
    finally:
        sys.setprofile(None)
        gc.enable()
    replayer.cleanup()
    return calls


@pytest.mark.parametrize("pair", BUDGET, ids="/".join)
def test_a_warm_replay_stays_within_its_call_budget(pair):
    first = calls_in_fourth_replay(*pair)
    assert calls_in_fourth_replay(*pair) == first
    assert first <= BUDGET[pair]
