"""A machine is freed when it is dropped (DESIGN.md "Ownership").

A ``Machine`` owns downward, and a callback registered on a soc object
(a register handler, an interrupt handler, the memory write hook, an
event) does not keep its owner alive. So the object graph under a
machine has no cycle, and reference counting frees a record stack or
a replay machine, pages and all, the moment its last owner lets go.
These tests hold that with the cyclic collector switched off: after
``del``, weakrefs to the machine and its memory are dead, and a
collection finds no ``repro`` object left for it to free.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.bench.workloads import build_stack, get_recorded
from repro.core.harness import record_inference
from repro.core.replay import seeded_inputs
from repro.core.replayer import Replayer
from repro.soc.machine import fresh_replay_machine
from repro.store.vault import Vault

FAMILIES = ("mali", "v3d", "adreno")


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
