"""Bound executors survive a content switch: a worker alternating
between contents binds each compiled program once, and what it keeps
is the replayer's alone."""

import gc
import weakref

import pytest

from repro.bench.workloads import (fresh_replay_machine, get_recorded,
                                   model_input)
from repro.core.actions import MapGpuMem
from repro.core.compiled import CompiledProgram
from repro.core.recording import Recording
from repro.core.replayer import (BOUND_EXECUTORS, LOAD_CACHE, Replayer,
                                 clear_load_cache)
from repro.obs import enable_observability
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, generate_requests, verify_report)

MODELS = ("mnist", "kws")


@pytest.fixture
def binds(monkeypatch):
    """Every ``CompiledProgram.bind`` call, as (program, nano)."""
    calls = []
    real = CompiledProgram.bind

    def bind(self, nano, dumps):
        calls.append((self, nano))
        return real(self, nano, dumps)
    monkeypatch.setattr(CompiledProgram, "bind", bind)
    return calls


def _server(workers=1):
    clear_load_cache()
    store = RecordingStore()
    for model in MODELS:
        store.add("mali", model, get_recorded("mali", model)[0].recording)
    server = ReplayServer(store, ServerConfig(
        families=("mali",) * workers, seed=5, max_batch=1))
    requests = generate_requests(LoadgenConfig(
        requests=16, seed=9, mix=tuple(("mali", m) for m in MODELS),
        mean_interarrival_ns=0, deadline_ns=0))
    return store, server, requests


def test_worker_alternating_two_digests_binds_each_program_once(
        binds, monkeypatch):
    store, server, requests = _server()
    switches = []
    real_reset = Replayer.reset_session
    monkeypatch.setattr(
        Replayer, "reset_session",
        lambda self: switches.append(self) or real_reset(self))
    report = server.serve(requests)
    assert verify_report(report, store) == []
    assert len(switches) > 2            # the stream really alternates
    assert len(binds) == len(MODELS)
    assert len({id(program) for program, _nano in binds}) == len(MODELS)
    server.close()


def test_a_session_enabled_after_replays_sees_the_next_replay(binds):
    """An executor holds no obs state, so enabling observability binds
    nothing new; the session reads the next replay off the flight
    tape. The timeline draws every action that recorded an event: all
    but the MapGpuMem actions, which re-map regions the session holds
    (a no-op that touches nothing)."""
    workload, _stack = get_recorded("mali", "mnist")
    machine = fresh_replay_machine("mali", seed=41)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(workload.recording)
    inputs = {"input": model_input("mnist", seed=1)}
    replayer.replay(inputs=inputs)
    replayer.reset_session()
    replayer.load(workload.recording)      # same content staged again
    replayer.replay(inputs=inputs)
    executor = replayer._executor
    obs = enable_observability(machine)
    result = replayer.replay(inputs=inputs)
    assert len(binds) == 1
    assert replayer._executor is executor
    assert len(replayer._executors) <= BOUND_EXECUTORS
    actions = workload.recording.actions
    assert result.stats.actions_executed == len(actions)
    assert obs.snapshot()["counters"]["replay.actions"] == len(actions)
    drawn = {event["args"]["index"]
             for event in obs.to_chrome_trace()["traceEvents"]
             if event.get("cat") == "replay-action"}
    assert drawn == {index for index, action in enumerate(actions)
                     if not isinstance(action, MapGpuMem)}


def test_closed_server_leaves_no_reference_to_a_worker_machine(binds):
    store, server, requests = _server(workers=2)
    server.serve(requests)
    machines = [weakref.ref(worker.machine) for worker in server.workers]
    assert len(LOAD_CACHE) >= len(MODELS)   # programs stay shared...
    server.close()
    del server, store, requests
    binds.clear()
    gc.collect()
    # ...but nothing process-wide holds an executor, a nano driver or
    # anything else that leads to a machine.
    assert [ref() for ref in machines] == [None, None]


def test_the_load_cache_keeps_no_recording_alive():
    """A cache entry holds verification and compilation results only:
    once the replayer that loaded a recording is gone, so are the
    recording and its dump bytes, and a later load of equal content
    still hits the entry and replays to the same bytes."""
    clear_load_cache()
    blob = get_recorded("mali", "mnist")[0].recording.to_bytes()
    inputs = {"input": model_input("mnist", seed=3)}

    def replay(recording, seed):
        replayer = Replayer(fresh_replay_machine("mali", seed=seed))
        replayer.init()
        replayer.load(recording)
        outputs = replayer.replay(inputs=inputs).outputs
        hit = replayer.last_load_info["cache"]
        replayer.cleanup()
        return {name: out.tobytes() for name, out in outputs.items()}, hit

    recording = Recording.from_bytes(blob)
    dump = max(recording.dumps, key=lambda d: d.size)
    refs = [weakref.ref(recording), weakref.ref(dump),
            weakref.ref(dump.pages.data)]
    first, hit = replay(recording, seed=51)
    assert hit == "miss"
    del recording, dump
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    assert len(LOAD_CACHE) == 1

    second, hit = replay(Recording.from_bytes(blob), seed=52)
    assert hit == "hit"
    assert second == first
