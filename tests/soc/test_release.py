"""A machine, a server and a fleet are freed when they are dropped
(DESIGN.md "Ownership" and "Owns downward").

A ``Machine`` owns downward, and a callback registered on a soc object
(a register handler, an interrupt handler, the memory write hook, an
event) does not keep its owner alive. So the object graph under a
machine has no cycle, and reference counting frees a record stack or
a replay machine, pages and all, the moment its last owner lets go.
The serving layer owns downward the same way: a server owns its
workers, a fleet its nodes, and a node's completion hook holds the
fleet weakly. These tests hold that with the cyclic collector switched
off: after ``del``, weakrefs to the machines are dead, and a
collection finds no ``repro`` object left for it to free.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.bench.workloads import build_stack, get_recorded, zoo_store
from repro.core.harness import record_inference
from repro.core.replay import seeded_inputs
from repro.core.replayer import Replayer
from repro.fleet import Fleet, FleetConfig, ReplicatedVaultStore
from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                         generate_requests)
from repro.soc.machine import fresh_replay_machine
from repro.store.vault import Vault

FAMILIES = ("mali", "v3d", "adreno")
#: What the serving cases serve: one model on two families.
MIX = (("mali", "mnist"), ("v3d", "mnist"))


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_repro_garbage():
    """The ``repro`` classes of what only the cyclic collector frees."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        # type(), not isinstance(): a dead weak proxy may be in there.
        found = sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                        for obj in gc.garbage
                        if type(obj).__module__.startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    gc.collect()
    return found


def replay_once(machine, recording):
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(recording)
    replayer.replay(seeded_inputs(recording, 2026))
    replayer.cleanup()
    return replayer


@pytest.mark.parametrize("family, obs", [(family, False) for family in
                                         FAMILIES] + [("mali", True)])
def test_a_dropped_record_stack_is_freed(family, obs, no_collector):
    stack = build_stack(family, "mnist", obs=obs)
    stack.run(np.zeros(stack.net.model.input_shape, np.float32))
    recording = record_inference(stack.net).recording
    refs = weakref.ref(stack.machine), weakref.ref(stack.machine.memory)
    del stack
    assert [ref() for ref in refs] == [None, None]
    assert cyclic_repro_garbage() == []
    assert recording.actions


@pytest.mark.parametrize("family", FAMILIES)
def test_a_dropped_replay_machine_is_freed(family, no_collector):
    recording = get_recorded(family, "mnist")[0].recording
    machine = fresh_replay_machine(family)
    replayer = replay_once(machine, recording)
    refs = weakref.ref(machine), weakref.ref(machine.memory)
    del machine, replayer
    assert [ref() for ref in refs] == [None, None]
    assert cyclic_repro_garbage() == []


def test_a_cleaned_replayer_pins_no_recording(tmp_path):
    """A caller may keep a cleaned replayer (and its machine): it holds
    neither the last recording's dumps nor the executor bound to
    them."""
    vault = Vault(str(tmp_path / "vault"))
    recording = vault.fetch(vault.pack(
        get_recorded("mali", "mnist")[0].recording).digest)
    replayer = replay_once(fresh_replay_machine("mali"), recording)
    dump = weakref.ref(recording.dumps[0])
    del recording
    assert dump() is None
    assert replayer.program is None and replayer.verification is None
    assert len(replayer._executors) == 0


def requests(fault_rate=0.0):
    return generate_requests(LoadgenConfig(requests=40, seed=3, mix=MIX,
                                           fault_rate=fault_rate))


def serve_and_close(store, fault_rate, config):
    """Serve 40 requests on a closed 2-worker server; weakrefs to its
    workers' machines and how many requests carried a fault."""
    server = ReplayServer(store, ServerConfig(families=("mali", "v3d"),
                                              **config))
    report = server.serve(requests(fault_rate))
    server.close()
    assert not report.lost
    return ([weakref.ref(worker.machine) for worker in server.workers],
            sum(1 for response in report.responses if response.fault))


@pytest.mark.parametrize("fault_rate, config", [
    (0.0, {}),
    (0.0, {"trace": False, "timeseries": False, "gpu_counters": False}),
    (0.0, {"mega_batch": True}),
    (0.1, {}),
], ids=["default", "obs-off", "mega-batch", "faults"])
def test_a_closed_server_is_freed(fault_rate, config, no_collector):
    machines, faulted = serve_and_close(zoo_store(MIX), fault_rate, config)
    assert [ref() for ref in machines] == [None, None]
    assert cyclic_repro_garbage() == []
    assert bool(faulted) == bool(fault_rate)


def test_a_closed_server_on_a_vault_is_freed(tmp_path, no_collector):
    store = zoo_store(MIX, Vault(str(tmp_path / "vault")))
    machines, _ = serve_and_close(store, 0.0, {})
    del store
    assert [ref() for ref in machines] == [None, None]
    assert cyclic_repro_garbage() == []


def test_a_closed_fleet_is_freed(tmp_path, no_collector):
    """Two nodes over replicated vaults; only node 0's vault holds the
    recordings, so node 1 fetches from its peer."""
    vaults = [Vault(str(tmp_path / f"node{i}")) for i in range(2)]
    zoo_store(MIX, vaults[0])
    stores = [ReplicatedVaultStore(vault, list(MIX), peers=[
        peer for peer in vaults if peer is not vault]) for vault in vaults]
    fleet = Fleet(stores, FleetConfig(nodes=2))
    report = fleet.serve(requests())
    fleet.close()
    assert not report.lost and not report.duplicates
    assert "replicated" in [entry["outcome"]
                            for entry in stores[1].replication_log]
    machines = [weakref.ref(worker.machine)
                for server in fleet.servers for worker in server.workers]
    del fleet, stores, vaults, report
    assert machines and not any(ref() for ref in machines)
    assert cyclic_repro_garbage() == []
