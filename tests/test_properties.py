"""Property-based tests on cross-cutting invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import Recording, RecordingMeta
from repro.core.verifier import verify_recording
from repro.errors import ReproError, VerificationError
from repro.gpu import PERM_R, PERM_W, PERM_X, PTE_FORMATS, PageTableBuilder
from repro.gpu.faults import walk_page_table
from repro.soc.memory import PAGE_SIZE, PageAllocator, PhysicalMemory
from repro.units import MIB

REGISTERS = {"GPU_COMMAND", "JS0_COMMAND", "JOB_IRQ_STATUS"}


# --------------------------------------------------------------------------
# Verifier totality: arbitrary recordings either verify or raise
# VerificationError -- never anything else, never a hang.
# --------------------------------------------------------------------------

_any_action = st.one_of(
    st.builds(act.RegWrite,
              reg=st.sampled_from(sorted(REGISTERS) + ["EVIL_REG"]),
              val=st.integers(0, 2 ** 32 - 1)),
    st.builds(act.RegReadOnce,
              reg=st.sampled_from(sorted(REGISTERS) + ["EVIL_REG"]),
              val=st.integers(0, 2 ** 32 - 1)),
    st.builds(act.MapGpuMem,
              addr=st.integers(0, 2 ** 31).map(lambda v: v & ~0xFFF),
              num_pages=st.integers(0, 3000),
              raw_pte_flags=st.integers(0, 0xFFF)),
    st.builds(act.UnmapGpuMem,
              addr=st.integers(0, 2 ** 31).map(lambda v: v & ~0xFFF),
              num_pages=st.integers(0, 10)),
    st.builds(act.Upload, addr=st.integers(0, 2 ** 31),
              dump_index=st.integers(0, 4)),
    st.builds(act.CopyToGpu, gaddr=st.integers(0, 2 ** 31),
              size=st.integers(0, 100000),
              buffer_name=st.just("x")),
    st.builds(act.WaitIrq, timeout_ns=st.integers(0, 2 ** 40)),
    st.builds(act.SetGpuPgtable, memattr=st.integers(0, 255)),
    st.builds(act.IrqEnter),
    st.builds(act.IrqExit),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_any_action, max_size=25),
       st.integers(0, 3))
def test_verifier_is_total(actions, dump_count):
    dumps = [MemoryDump(i * PAGE_SIZE, b"d" * 64)
             for i in range(dump_count)]
    recording = Recording(RecordingMeta(), actions, dumps)
    try:
        report = verify_recording(recording, REGISTERS,
                                  max_gpu_bytes=64 * MIB)
        assert report.actions == len(actions)
    except VerificationError:
        pass  # rejection is the other legal outcome


# --------------------------------------------------------------------------
# Page tables: after any interleaving of maps/unmaps, walking the live
# tables reproduces exactly the builder's view.
# --------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(st.sampled_from(["map", "unmap"]),
              st.integers(0, 63),  # page index inside a window
              st.sampled_from([PERM_R, PERM_R | PERM_W,
                               PERM_R | PERM_X])),
    max_size=40)


@settings(max_examples=60, deadline=None)
@given(_ops, st.sampled_from(["mali", "mali-lpae", "v3d"]))
def test_pagetable_walk_matches_builder_state(ops, fmt_name):
    memory = PhysicalMemory(32 * MIB)
    allocator = PageAllocator(memory, 0, 4096, seed=1)
    fmt = PTE_FORMATS[fmt_name]
    pt = PageTableBuilder(memory, allocator, fmt)
    live = {}
    for op, index, perms in ops:
        va = 0x100000 + index * PAGE_SIZE
        if op == "map" and va not in live:
            pa = allocator.alloc_page()
            pt.map_page(va, pa, perms)
            live[va] = (pa, perms if fmt.has_permissions
                        else PERM_R | PERM_W | PERM_X)
        elif op == "unmap" and va in live:
            pt.unmap_page(va)
            allocator.free_pages([live.pop(va)[0]])
    walked = walk_page_table(memory, pt.root_pa, fmt)
    assert walked == sorted((va, pa, perms)
                            for va, (pa, perms) in live.items())


# --------------------------------------------------------------------------
# Serialization is a proper normal form: decode(encode(x)) re-encodes
# to identical bytes.
# --------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(
    act.RegWrite,
    reg=st.sampled_from(["A", "B"]),
    val=st.integers(0, 2 ** 32 - 1),
    min_interval_ns=st.integers(0, 2 ** 30),
    is_job_kick=st.booleans()), min_size=1, max_size=15),
    st.binary(min_size=0, max_size=300))
def test_serialization_normal_form(actions, blob):
    dumps = [MemoryDump(0x1000, blob)] if blob else []
    recording = Recording(RecordingMeta(workload="nf", family="v3d",
                                        gpu_model="v3d-4.2",
                                        board="raspberrypi4"),
                          actions, dumps)
    once = recording.to_bytes(compress=False)
    twice = Recording.from_bytes(once).to_bytes(compress=False)
    assert once == twice


# --------------------------------------------------------------------------
# Allocator: alloc/free sequences conserve pages and never double-book.
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alloc", "free"]),
                          st.integers(0, 63)), max_size=60),
       st.integers(0, 2 ** 16))
def test_allocator_conservation(ops, seed):
    memory = PhysicalMemory(4 * MIB)
    allocator = PageAllocator(memory, 0, 64, seed=seed)
    held = []
    for op, pick in ops:
        if op == "alloc" and allocator.pages_free:
            held.append(allocator.alloc_page())
        elif op == "free" and held:
            # Any held page, not only the newest one.
            allocator.free_pages([held.pop(pick % len(held))])
    assert allocator.pages_in_use == len(held)
    assert allocator.pages_in_use + allocator.pages_free == 64
    assert len(set(held)) == len(held)  # no page handed out twice


# --------------------------------------------------------------------------
# The GPU compute path is a function: same recording + same input =>
# bit-identical output, across machines and interference.
# --------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 3))
def test_replay_is_a_pure_function_of_inputs(seed, contention):
    # hypothesis can't take fixtures; fetch from the shared cache.
    from repro.bench.workloads import (fresh_replay_machine,
                                       get_recorded, model_input)
    from repro.core.replayer import Replayer

    workload, _ = get_recorded("mali", "mnist")
    outputs = []
    for machine_seed in (seed, seed ^ 0xABCD):
        machine = fresh_replay_machine("mali", seed=machine_seed)
        machine.interference.mem_contention = float(contention)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        x = model_input("mnist", seed=seed)
        outputs.append(replayer.replay(inputs={"input": x}).output)
    assert np.array_equal(outputs[0], outputs[1])
