"""The device's content-keyed kernel cache: decode once per distinct
blob, fetch the bytes on every kick, never serve a stale program."""

import numpy as np
import pytest

import repro.gpu.device as device_mod
from repro.bench.workloads import (fresh_replay_machine, get_recorded,
                                   model_input)
from repro.core.replayer import Replayer
from repro.gpu.isa import (Instruction, Op, Program, TensorRef,
                           decode_program, encode_program, kernel_cost)
from repro.gpu.mali import JS_STATUS_DONE, JS_STATUS_FAULT
from repro.gpu.mmu import PERM_R, PERM_X
from repro.soc import Machine
from tests.gpu import hwutil


@pytest.fixture
def machine():
    m = Machine.create("hikey960", seed=21)
    hwutil.mali_power_up(m)
    return m


@pytest.fixture
def space(machine):
    space = hwutil.AddressSpace(machine)
    space.activate_mali()
    return space


def _run(machine, space, shader_va, size):
    hwutil.submit_mali_job(machine, space, shader_va, size)
    return hwutil.wait_mali_job(machine)


def _binary_blob(op, va_a, va_b, va_c, n=64):
    return encode_program(Program([Instruction(op, (
        TensorRef(va_a, (n,)), TensorRef(va_b, (n,)),
        TensorRef(va_c, (n,))))]))


def test_overwritten_blob_runs_and_is_labelled_as_the_new_program(
        machine, space):
    a, b, out_va, shader_va, size = hwutil.vec_add_job(space)
    gpu = machine.gpu
    assert _run(machine, space, shader_va, size) == 1
    assert _run(machine, space, shader_va, size) == 1   # served cached
    assert len(gpu._kernels) == 1
    result = np.frombuffer(space.read(out_va, a.nbytes), np.float32)
    assert np.array_equal(result, a + b)
    assert gpu.counters.session_kernels[-1][0] == "add"

    # Same VA, same size, other bytes: the operand VAs are reused.
    add = decode_program(space.read(shader_va, size))
    va_a, va_b, va_c = (ref.va for ref in add.instructions[0].operands)
    blob = _binary_blob(Op.SUB, va_a, va_b, va_c)
    assert len(blob) == size
    space.write(shader_va, blob)
    assert _run(machine, space, shader_va, size) == 1
    result = np.frombuffer(space.read(out_va, a.nbytes), np.float32)
    assert np.array_equal(result, a - b)
    assert gpu.counters.session_kernels[-1][0] == "sub"
    assert len(gpu._kernels) == 2


def test_corrupted_blob_still_faults_the_job(machine, space):
    _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
    assert _run(machine, space, shader_va, size) == 1
    assert machine.gpu.regs.read("JS0_STATUS") == JS_STATUS_DONE
    good = space.read(shader_va, size)
    space.write(shader_va, b"\xff" + good[1:])   # break the magic
    assert _run(machine, space, shader_va, size) == 1 << 16
    assert machine.gpu.regs.read("JS0_STATUS") == JS_STATUS_FAULT
    assert len(machine.gpu._kernels) == 1        # nothing bad cached
    space.write(shader_va, good)
    assert _run(machine, space, shader_va, size) == 1


def test_cache_holds_at_most_its_cap(machine, space, monkeypatch):
    monkeypatch.setattr(device_mod, "MAX_KERNELS", 4)
    gpu = machine.gpu
    va = space.alloc(64 * 4)
    shader_va = space.alloc(256, PERM_R | PERM_X)
    blobs = []
    for k in range(10):
        blob = encode_program(Program([Instruction(
            Op.SCALE, (TensorRef(va, (64,)), TensorRef(va, (64,))),
            (float(k),))]))
        blobs.append(blob)
        space.write(shader_va, blob)
        program = gpu._fetch_kernel(shader_va, len(blob), "x")
        assert program.instructions[0].params == (float(k),)
        assert program.cost == kernel_cost(Program(program.instructions))
        assert len(gpu._kernels) <= 4
    assert list(gpu._kernels) == blobs[-4:]   # oldest out first


@pytest.mark.parametrize("family", ["mali", "v3d", "adreno"])
def test_warm_replay_fetches_every_blob_and_decodes_none(family,
                                                         monkeypatch):
    workload, _stack = get_recorded(family, "mnist")
    machine = fresh_replay_machine(family, seed=31)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(workload.recording)
    inputs = {"input": model_input("mnist", seed=3)}
    first = replayer.replay(inputs=inputs)
    gpu = machine.gpu
    kernels = gpu.counters.total_kernels
    assert 0 < len(gpu._kernels) <= kernels

    decoded = []
    real = device_mod.decode_program
    monkeypatch.setattr(device_mod, "decode_program",
                        lambda blob: decoded.append(blob) or real(blob))
    fetched = []
    read_va = gpu.mmu.read_va
    monkeypatch.setattr(
        gpu.mmu, "read_va",
        lambda va, size, access="r":
            fetched.append(size) or read_va(va, size, access=access))
    again = replayer.replay(inputs=inputs)
    assert decoded == []
    assert len(fetched) >= kernels                 # blobs still read
    assert gpu.counters.total_kernels == 2 * kernels
    assert np.array_equal(again.output, first.output)
