"""The per-family job-submission table: round trips over each family's
structure, and the register state a kick reads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import gpu
from repro.core.dispatch import DISPATCH, Entry
from repro.errors import JobDecodeError
from repro.gpu import jobs
from repro.gpu.jobs import RING_PKT, RING_PKT_MAGIC

FAMILIES = sorted(DISPATCH)
PAGE = 4096


class Memory(dict):
    """Byte-addressed GPU memory: a read of an unwritten byte raises."""

    def load(self, dumps):
        for va, data in dumps:
            for offset, byte in enumerate(data):
                self[va + offset] = byte
        return self

    def read(self, va, size):
        return bytes(self[va + offset] for offset in range(size))


def parent(family, head, shaders, split):
    """A structure as a stack emits it, submitting ``shaders`` from
    ``head``: its (va, bytes) dumps, the setup writes and the kick.
    The v3d list branches to a second segment after ``split`` packets."""
    if family == "mali":
        vas = [head + 0x40 * i for i in range(len(shaders))]
        dumps = [(va, jobs.encode_mali_job(jobs.MaliJobDescriptor(
                     jobs.MALI_JOB_TYPE_COMPUTE, next_va, *shader)))
                 for va, next_va, shader in zip(vas, vas[1:] + [0],
                                                shaders)]
        return dumps, [("JS1_HEAD_LO", head & 0xFFFFFFFF),
                       ("JS1_HEAD_HI", head >> 32),
                       ("JS1_AFFINITY", 3)], ("JS1_COMMAND", 1)
    if family == "v3d":
        segments = [shaders[:split], shaders[split:]]
        rest_va = head + 0x1000
        first = b"".join(jobs.encode_cl_exec(*s) for s in segments[0])
        dumps = [(head, first + jobs.encode_cl_halt())]
        if segments[1]:
            dumps = [(head, first + jobs.encode_cl_branch(rest_va)),
                     (rest_va, b"".join(jobs.encode_cl_exec(*s)
                                        for s in segments[1])
                      + jobs.encode_cl_halt())]
        return dumps, [("CT0QBA", head)], \
            ("CT0QEA", head + len(dumps[0][1]))
    ring = b"".join(RING_PKT.pack(RING_PKT_MAGIC, size, va)
                    for va, size in shaders)
    return [(head, ring)], [("CP_RB_BASE_LO", head & 0xFFFFFFFF),
                            ("CP_RB_BASE_HI", head >> 32),
                            ("CP_RB_SIZE", 0x1000)], \
        ("CP_RB_WPTR", len(ring))


def submit(dispatch, writes, kick):
    """The submission a tape of (register, value) writes makes."""
    regs = {}
    for reg, val in writes:
        dispatch.write(regs, reg, val)
    assert kick[0] in gpu.FAMILIES[dispatch.family].kick_regs
    return dispatch.kick(regs, *kick)


def emitted(dispatch, setup):
    """``dispatch.writes`` as the (register, value) pairs it emits."""
    writes, kick = dispatch.writes(setup)
    assert not any(w.is_job_kick for w in writes) and kick.is_job_kick
    return [(w.reg, w.val) for w in writes], (kick.reg, kick.val)


def moved(dumps, dispatch, delta):
    return [(va + delta, dispatch.rebase(data, delta)[0])
            for va, data in dumps]


shaders_st = st.lists(
    st.tuples(st.integers(0x200, 0x8000).map(lambda p: p * PAGE),
              st.integers(16, 4096)),
    min_size=1, max_size=6)
heads = st.integers(0x200000 // 0x100, (1 << 36) // 0x100).map(
    lambda h: h * 0x100)
deltas = st.integers(-0x100, 0x100).map(lambda d: d * PAGE)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(shaders=shaders_st, head=heads, data=st.data())
def test_walking_an_emitted_structure_returns_its_kernels(
        family, shaders, head, data):
    dispatch = DISPATCH[family]
    split = data.draw(st.integers(0, len(shaders)))
    dumps, writes, kick = parent(family, head, shaders, split)
    memory = Memory().load(dumps)
    setup = submit(dispatch, writes, kick)
    kernels = dispatch.walk(setup, memory.read)
    assert [(k.shader_va, k.shader_size) for k in kernels] == shaders
    # Re-emit any run of them, as the slicer does for a job or kernel.
    lo = data.draw(st.integers(0, len(kernels) - 1))
    hi = data.draw(st.integers(lo + 1, len(kernels)))
    structs, resubmit, _layout = dispatch.encode(setup, kernels[lo:hi],
                                                 memory.read)
    again = dispatch.walk(submit(dispatch, *emitted(dispatch, resubmit)),
                          Memory().load(structs).read)
    assert [(k.shader_va, k.shader_size) for k in again] == shaders[lo:hi]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(shaders=shaders_st, head=heads, delta=deltas, data=st.data())
def test_rebase_there_and_back_is_the_identity(family, shaders, head,
                                               delta, data):
    dispatch = DISPATCH[family]
    split = data.draw(st.integers(0, len(shaders)))
    for _va, blob in parent(family, head, shaders, split)[0]:
        there, pointers = dispatch.rebase(blob, delta)
        assert len(there) == len(blob) and pointers >= 1
        assert dispatch.rebase(there, -delta) == (blob, pointers)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(shaders=shaders_st, head=heads, delta=deltas, data=st.data())
def test_a_rebased_structure_walks_shifted(family, shaders, head, delta,
                                           data):
    dispatch = DISPATCH[family]
    split = data.draw(st.integers(0, len(shaders)))
    dumps, writes, kick = parent(family, head, shaders, split)
    setup = submit(dispatch, writes, kick)
    before = dispatch.walk(setup, Memory().load(dumps).read)
    shifted = dispatch.shift(setup, delta)
    assert dispatch.head(shifted) == dispatch.head(setup) + delta
    after = dispatch.walk(shifted,
                          Memory().load(moved(dumps, dispatch, delta)).read)
    assert after == [Entry(k.desc_va + delta, k.desc_size,
                           k.shader_va + delta, k.shader_size)
                     for k in before]


class TestAdrenoRing:
    dispatch = DISPATCH["adreno"]
    shaders = [(0x300000, 64), (0x301000, 64), (0x302000, 64)]

    def ring(self):
        dumps, writes, _kick = parent("adreno", 0x200000, self.shaders, 0)
        regs = {}
        for reg, val in writes:
            self.dispatch.write(regs, reg, val)
        return Memory().load(dumps), regs

    def test_a_doorbell_walks_from_the_last_one(self):
        memory, regs = self.ring()
        first = self.dispatch.kick(regs, "CP_RB_WPTR", RING_PKT.size)
        second = self.dispatch.kick(regs, "CP_RB_WPTR", 3 * RING_PKT.size)
        assert self.dispatch.head(second) == 0x200000 + RING_PKT.size
        assert [(k.shader_va, k.shader_size) for k in
                self.dispatch.walk(first, memory.read)] == self.shaders[:1]
        assert [(k.shader_va, k.shader_size) for k in
                self.dispatch.walk(second, memory.read)] == self.shaders[1:]

    def test_a_new_base_rewinds_the_ring(self):
        _memory, regs = self.ring()
        self.dispatch.kick(regs, "CP_RB_WPTR", RING_PKT.size)
        self.dispatch.write(regs, "CP_RB_BASE_LO", 0x200000)
        setup = self.dispatch.kick(regs, "CP_RB_WPTR", RING_PKT.size)
        assert setup["rptr"] == 0

    @pytest.mark.parametrize("wptr", [RING_PKT.size // 2,
                                      RING_PKT.size + 4, 0x1010])
    def test_the_device_doorbell_rule(self, wptr):
        memory, regs = self.ring()
        with pytest.raises(JobDecodeError):
            self.dispatch.walk(self.dispatch.kick(regs, "CP_RB_WPTR", wptr),
                               memory.read)


def test_a_v3d_span_is_the_list_from_base_to_end():
    dispatch = DISPATCH["v3d"]
    dumps, writes, kick = parent("v3d", 0x200000, [(0x300000, 64)] * 2, 2)
    setup = submit(dispatch, writes, kick)
    assert dispatch.span(setup) == [(0x200000, len(dumps[0][1]))]
    assert DISPATCH["mali"].span(setup) == []


def test_every_family_names_its_kick_registers():
    assert gpu.FAMILIES["mali"].kick_regs == {"JS0_COMMAND", "JS1_COMMAND"}
    assert gpu.FAMILIES["v3d"].kick_regs == {"CT0QEA"}
    assert gpu.FAMILIES["adreno"].kick_regs == {"CP_RB_WPTR"}
