"""Hand-rolled mini-driver helpers for exercising GPU device models.

Deliberately *not* the repro.stack driver: device tests should poke
registers directly, like a bring-up engineer would.
"""

from __future__ import annotations

import numpy as np

from repro.gpu import jobs as jobfmt
from repro.gpu import PERM_R, PERM_W, PERM_X, PageTableBuilder
from repro.gpu.isa import (Instruction, Op, Program, TensorRef,
                           encode_program)
from repro.soc import firmware as fw
from repro.soc.memory import PAGE_SIZE
from repro.units import MS, US


def poll_until(clock, predicate, step_ns: int, timeout_ns: int):
    """Poll ``predicate`` on the virtual clock, advancing ``step_ns`` per
    try: a driver's ``wait_for`` loop, as a bring-up test writes one.
    Returns ``(success, polls)``, ``polls`` counting evaluations."""
    deadline = clock.now() + timeout_ns
    polls = 1
    if predicate():
        return True, polls
    while clock.now() < deadline:
        clock.advance(min(step_ns, deadline - clock.now()))
        polls += 1
        if predicate():
            return True, polls
    return False, polls


def mali_power_up(machine):
    regs = machine.gpu.regs
    regs.write("GPU_COMMAND", 1)
    ok, _ = poll_until(machine.clock,
                       lambda: regs.read("GPU_IRQ_RAWSTAT") & 1,
                       10 * US, 5 * MS)
    assert ok, "reset did not complete"
    regs.write("GPU_IRQ_CLEAR", 1)
    regs.write("L2_PWRON", 1)
    poll_until(machine.clock, lambda: regs.read("L2_READY") == 1,
               10 * US, 5 * MS)
    present = regs.read("SHADER_PRESENT")
    regs.write("SHADER_PWRON", present)
    ok, _ = poll_until(machine.clock,
                       lambda: regs.read("SHADER_READY") == present,
                       10 * US, 5 * MS)
    assert ok, "shader cores did not power up"


def v3d_power_up(machine):
    machine.firmware.request(fw.TAG_SET_POWER, 10, 1)
    regs = machine.gpu.regs
    regs.write("CTL_RESET", 1)
    ok, _ = poll_until(machine.clock,
                       lambda: regs.read("CTL_STATUS") & 1, 10 * US,
                       5 * MS)
    assert ok, "v3d reset did not complete"
    regs.write("CTL_INT_MSK", 0x7)


class AddressSpace:
    """A tiny GPU address space for device tests."""

    def __init__(self, machine):
        self.machine = machine
        self.pt = PageTableBuilder(machine.memory, machine.gpu_allocator,
                                   machine.gpu.mmu.fmt)
        self._next_va = 0x10_0000

    def alloc(self, nbytes: int, perms=PERM_R | PERM_W) -> int:
        pages = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        va = self._next_va
        self._next_va += (pages + 1) * PAGE_SIZE
        for i in range(pages):
            self.pt.map_page(va + i * PAGE_SIZE,
                             self.machine.gpu_allocator.alloc_page(),
                             perms)
        return va

    def write(self, va: int, data: bytes) -> None:
        offset = 0
        while offset < len(data):
            entry = self.pt.lookup(va + offset)
            assert entry is not None
            pa, _ = entry
            in_page = (va + offset) % PAGE_SIZE
            chunk = min(len(data) - offset, PAGE_SIZE - in_page)
            self.machine.memory.write(pa + in_page,
                                      data[offset:offset + chunk])
            offset += chunk

    def read(self, va: int, size: int) -> bytes:
        out = b""
        offset = 0
        while offset < size:
            entry = self.pt.lookup(va + offset)
            assert entry is not None
            pa, _ = entry
            in_page = (va + offset) % PAGE_SIZE
            chunk = min(size - offset, PAGE_SIZE - in_page)
            out += self.machine.memory.read(pa + in_page, chunk)
            offset += chunk
        return out

    def activate_mali(self, memattr=None):
        regs = self.machine.gpu.regs
        if memattr is None:
            memattr = self.machine.gpu.spec.required_memattr
        regs.write("AS0_TRANSTAB_LO", self.pt.root_pa & 0xFFFFFFFF)
        regs.write("AS0_TRANSTAB_HI", self.pt.root_pa >> 32)
        regs.write("AS0_MEMATTR", memattr)
        regs.write("AS0_COMMAND", 1)

    def activate_v3d(self):
        regs = self.machine.gpu.regs
        regs.write("MMU_PT_PA_BASE", self.pt.root_pa >> 12)
        regs.write("MMU_CTRL", 0x5)


def vec_add_job(space: AddressSpace, n: int = 64, seed: int = 0):
    """Build an ADD job; returns (in_a_va, in_b_va, out_va, job info)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n).astype(np.float32)
    b = rng.standard_normal(n).astype(np.float32)
    va_a = space.alloc(n * 4)
    va_b = space.alloc(n * 4)
    va_c = space.alloc(n * 4)
    space.write(va_a, a.tobytes())
    space.write(va_b, b.tobytes())
    program = Program([Instruction(Op.ADD, (
        TensorRef(va_a, (n,)), TensorRef(va_b, (n,)),
        TensorRef(va_c, (n,))))])
    blob = encode_program(program)
    shader_va = space.alloc(len(blob), PERM_R | PERM_X)
    space.write(shader_va, blob)
    return a, b, va_c, shader_va, len(blob)


def submit_mali_job(machine, space: AddressSpace, shader_va: int,
                    shader_size: int, slot: int = 0,
                    affinity: int = 0xFF) -> int:
    desc = jobfmt.encode_mali_job(
        jobfmt.MaliJobDescriptor(1, 0, shader_va, shader_size))
    job_va = space.alloc(len(desc), PERM_R | PERM_X)
    space.write(job_va, desc)
    regs = machine.gpu.regs
    regs.write(f"JS{slot}_HEAD_LO", job_va & 0xFFFFFFFF)
    regs.write(f"JS{slot}_HEAD_HI", job_va >> 32)
    regs.write(f"JS{slot}_AFFINITY", affinity)
    regs.write(f"JS{slot}_COMMAND", 1)
    return job_va


def wait_mali_job(machine, slot: int = 0, timeout=50 * MS) -> int:
    regs = machine.gpu.regs
    mask = (1 << slot) | (1 << (16 + slot))
    ok, _ = poll_until(machine.clock,
                       lambda: regs.read("JOB_IRQ_RAWSTAT") & mask,
                       10 * US, timeout)
    assert ok, "job never completed"
    status = regs.read("JOB_IRQ_RAWSTAT") & mask
    regs.write("JOB_IRQ_CLEAR", status)
    return status
