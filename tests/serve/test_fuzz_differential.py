"""Property-based differential fuzz of the serving engine.

Each case draws a random serving scenario -- request count, worker
pool shape, (family, model) mix, fault schedule, batching knob -- from
one seed, runs it through the concurrent engine, and asserts the core
replay invariant end to end: for *every* answered request (including
retried, rebatched and degraded ones) the served output equals the
reference interpreter's output equals the CPU reference's output.

The engine may take any path it likes through the degradation ladder;
it may never change the answer.
"""

import random

import numpy as np
import pytest

from repro.bench.workloads import board_for_family, fresh_replay_machine
from repro.core.replayer import Replayer
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, generate_requests,
                         request_inputs)
from repro.units import MS

CASES = 50
FAMILIES = ("mali", "v3d", "adreno")
MODELS = ("mnist", "kws")

_STORE = None


def _store() -> RecordingStore:
    global _STORE
    if _STORE is None:
        _STORE = RecordingStore.from_zoo(
            tuple((f, m) for f in FAMILIES for m in MODELS))
    return _STORE


def _case_config(case_seed: int):
    """One random scenario, fully determined by ``case_seed``."""
    rng = random.Random(0xF0220 + case_seed)
    worker_families = tuple(
        rng.choice(FAMILIES) for _ in range(rng.randint(1, 3)))
    mix = tuple((family, rng.choice(MODELS))
                for family in set(worker_families))
    load = LoadgenConfig(
        requests=rng.randint(4, 10),
        seed=rng.randrange(1 << 30),
        mix=mix,
        mean_interarrival_ns=rng.choice((0, 1 * MS, 5 * MS)),
        deadline_ns=0,  # equivalence fuzz: answer everything
        fault_rate=rng.uniform(0.0, 0.5))
    server = ServerConfig(
        families=worker_families,
        seed=rng.randrange(1 << 30),
        queue_depth=64,
        max_batch=rng.randint(1, 4))
    return load, server


class _ReferenceRig:
    """One reference-interpreter replayer per family, reused across
    requests (reset between recordings, like a serve worker)."""

    def __init__(self):
        self._rigs = {}

    def output(self, family, model, input_seed):
        recording = _store().healthy(family, model)
        rig = self._rigs.get(family)
        if rig is None:
            machine = fresh_replay_machine(
                family, seed=77, board=board_for_family(family))
            replayer = Replayer(machine, fast_path=False)
            replayer.init()
            rig = {"replayer": replayer, "digest": None}
            self._rigs[family] = rig
        replayer = rig["replayer"]
        if rig["digest"] != recording.digest():
            if replayer.current is not None:
                replayer.reset_session()
            replayer.load(recording)
            rig["digest"] = recording.digest()
        result = replayer.replay(
            inputs=request_inputs(recording, input_seed),
            max_attempts=1)
        return result.outputs


@pytest.fixture(scope="module")
def reference_rig():
    return _ReferenceRig()


@pytest.mark.parametrize("case_seed", range(CASES))
def test_served_equals_reference_equals_cpu(case_seed, reference_rig):
    load, server_config = _case_config(case_seed)
    requests = generate_requests(load)
    server = ReplayServer(_store(), server_config)
    report = server.serve(requests)
    server.close()

    assert report.lost == [], f"case {case_seed} lost requests"
    assert len(report.responses) == load.requests
    assert report.snapshot["gauges"]["serve.queue.depth"] == 0

    for response in report.responses:
        assert response.status in ("ok", "degraded"), (
            f"case {case_seed} rid {response.rid}: no deadline, no "
            f"bounded queue pressure, yet {response.status}")
        cpu = _store().reference_outputs(
            response.family, response.model, response.input_seed)
        ref = reference_rig.output(response.family, response.model,
                                   response.input_seed)
        for name, want in cpu.items():
            got = response.outputs[name].reshape(-1)
            assert np.array_equal(got, want.reshape(-1)), (
                f"case {case_seed} rid {response.rid} "
                f"({response.path}): served output != CPU reference")
            assert np.array_equal(ref[name].reshape(-1),
                                  want.reshape(-1)), (
                f"case {case_seed} rid {response.rid}: reference "
                f"interpreter != CPU reference")


def test_faulted_requests_still_answer_correctly(reference_rig):
    """A concentrated dose: every request carries a fault, and every
    answer must still match the CPU reference."""
    load = LoadgenConfig(
        requests=9, seed=31337,
        mix=(("mali", "mnist"), ("mali", "kws")),
        mean_interarrival_ns=0, deadline_ns=0, fault_rate=1.0)
    requests = generate_requests(load)
    assert all(r.fault is not None for r in requests)
    server = ReplayServer(_store(), ServerConfig(
        families=("mali", "mali"), seed=5, max_batch=2))
    report = server.serve(requests)
    server.close()
    assert report.lost == []
    counters = report.snapshot["counters"]
    assert counters.get("serve.worker_failures", 0) > 0
    for response in report.responses:
        cpu = _store().reference_outputs(
            response.family, response.model, response.input_seed)
        for name, want in cpu.items():
            assert np.array_equal(response.outputs[name].reshape(-1),
                                  want.reshape(-1))
