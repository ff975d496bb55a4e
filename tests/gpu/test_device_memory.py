"""A warm replay machine holds bounded memory: fired and cancelled
events are forgotten, the busy history is a ring."""

import gc
import tracemalloc

import pytest

from repro.bench.workloads import (fresh_replay_machine, get_recorded,
                                   model_input)
from repro.core.replayer import Replayer
from repro.errors import SocError
from repro.gpu.device import BUSY_HISTORY
from repro.soc import Machine
from tests.gpu import hwutil

WARMUPS = 60      # fills the busy-history ring and the flight ring
REPLAYS = 200


@pytest.mark.parametrize("family", ["mali", "v3d", "adreno"])
def test_warm_replays_do_not_grow_the_heap(family):
    workload, _stack = get_recorded(family, "mnist")
    machine = fresh_replay_machine(family, seed=77)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(workload.recording)
    gpu = machine.gpu
    leftovers = []
    gpu.busy_observers.append(
        lambda busy: busy or leftovers.extend(gpu._pending_ops))
    inputs = {"input": model_input("mnist", seed=5)}
    for _ in range(WARMUPS):
        replayer.replay(inputs=inputs)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(REPLAYS):
            replayer.replay(inputs=inputs)
            assert not gpu.busy and not gpu._pending_ops
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < REPLAYS * 1024, f"{grown / REPLAYS:.0f} B per replay"
    assert leftovers == []   # idle edges never saw a tracked event
    assert len(gpu.busy_transitions) == BUSY_HISTORY


@pytest.fixture
def machine():
    m = Machine.create("hikey960", seed=21)
    hwutil.mali_power_up(m)
    return m


def test_cancelled_event_is_forgotten(machine):
    space = hwutil.AddressSpace(machine)
    space.activate_mali()
    _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
    hwutil.submit_mali_job(machine, space, shader_va, size)
    gpu = machine.gpu
    assert gpu.busy and len(gpu._pending_ops) == 1
    gpu.regs.write("JS0_COMMAND", 2)   # hard stop cancels the completion
    assert not gpu.busy and gpu._pending_ops == []


def test_idle_throughout_refuses_a_window_older_than_the_ring(machine):
    gpu = machine.gpu
    gpu.idle_throughout(0, machine.clock.now())   # all of it retained
    machine.clock.advance(1000)
    gpu.trim_busy_history()
    now = machine.clock.now()
    assert gpu.idle_throughout(now, now + 10)
    with pytest.raises(SocError, match="no longer retained"):
        gpu.idle_throughout(now - 1, now + 10)
