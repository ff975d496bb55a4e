"""The Adreno device model: ring-buffer submission, SMMU."""

import numpy as np
import pytest

from repro.gpu import adreno as hw
from repro.soc import Machine
from repro.units import MS, US
from tests.gpu import hwutil
from tests.gpu.hwutil import poll_until


@pytest.fixture
def machine():
    m = Machine.create("pixel4", seed=71)
    regs = m.gpu.regs
    regs.write("RBBM_SW_RESET_CMD", 1)
    ok, _ = poll_until(m.clock, lambda: regs.read("RBBM_RESET_STATUS"),
                       10 * US, 5 * MS)
    assert ok
    regs.write("GDSC_PWR_CTRL", 1)
    poll_until(m.clock, lambda: regs.read("GDSC_PWR_STATUS"), 10 * US,
               5 * MS)
    regs.write("SPTP_PWR_CTRL", 1)
    ok, _ = poll_until(m.clock, lambda: regs.read("SPTP_PWR_STATUS"),
                       10 * US, 5 * MS)
    assert ok
    regs.write("RBBM_INT_0_MASK", 0x7)
    return m


@pytest.fixture
def space(machine):
    space = hwutil.AddressSpace(machine)
    regs = machine.gpu.regs
    regs.write("SMMU_TTBR0_LO", space.pt.root_pa & 0xFFFFFFFF)
    regs.write("SMMU_TTBR0_HI", space.pt.root_pa >> 32)
    regs.write("SMMU_CR0", hw.SMMU_ENABLE)
    regs.write("SMMU_TLBIALL", 1)
    return space


def setup_ring(machine, space, packets=64):
    from repro.gpu import PERM_R, PERM_X
    ring_va = space.alloc(packets * hw.RING_PKT.size, PERM_R | PERM_X)
    regs = machine.gpu.regs
    regs.write("CP_RB_BASE_LO", ring_va & 0xFFFFFFFF)
    regs.write("CP_RB_BASE_HI", ring_va >> 32)
    regs.write("CP_RB_SIZE", packets * hw.RING_PKT.size)
    return ring_va


def ring_submit(machine, space, ring_va, wptr, shader_va, size):
    packet = hw.RING_PKT.pack(hw.RING_PKT_MAGIC, size, shader_va)
    space.write(ring_va + wptr, packet)
    machine.gpu.regs.write("CP_RB_WPTR", wptr + hw.RING_PKT.size)
    return wptr + hw.RING_PKT.size


def wait_int(machine, bits, timeout=100 * MS):
    regs = machine.gpu.regs
    ok, _ = poll_until(machine.clock,
                       lambda: regs.read("RBBM_INT_0_STATUS") & bits,
                       10 * US, timeout)
    assert ok, "interrupt never arrived"
    status = regs.read("RBBM_INT_0_STATUS")
    regs.write("RBBM_INT_CLEAR_CMD", status)
    return status


class TestRingExecution:
    def test_vecadd_via_ring(self, machine, space):
        ring_va = setup_ring(machine, space)
        a, b, out_va, shader_va, size = hwutil.vec_add_job(space)
        ring_submit(machine, space, ring_va, 0, shader_va, size)
        status = wait_int(machine, hw.INT_CP_DONE)
        assert status & hw.INT_CP_DONE
        assert machine.gpu.regs.read("CP_RB_RPTR") == hw.RING_PKT.size
        result = np.frombuffer(space.read(out_va, len(a) * 4), np.float32)
        assert np.array_equal(result, a + b)

    def test_packets_retire_in_ring_order(self, machine, space):
        """Packet N+1 must see packet N's memory effects."""
        from repro.gpu.isa import (Instruction, Op, Program, TensorRef,
                                   encode_program)
        from repro.gpu import PERM_R, PERM_W, PERM_X
        ring_va = setup_ring(machine, space)
        buf = space.alloc(256)
        # pkt0: fill buf with 3.0 ; pkt1: buf = buf + buf (expects 6.0)
        p0 = encode_program(Program([Instruction(
            Op.FILL, (TensorRef(buf, (16,)),), (3.0,))]))
        p1 = encode_program(Program([Instruction(
            Op.ADD, (TensorRef(buf, (16,)), TensorRef(buf, (16,)),
                     TensorRef(buf, (16,))))]))
        s0 = space.alloc(len(p0), PERM_R | PERM_X)
        s1 = space.alloc(len(p1), PERM_R | PERM_X)
        space.write(s0, p0)
        space.write(s1, p1)
        wptr = ring_submit(machine, space, ring_va, 0, s0, len(p0))
        ring_submit(machine, space, ring_va, wptr, s1, len(p1))
        machine.clock.advance(100 * MS)
        result = np.frombuffer(space.read(buf, 64), np.float32)
        assert np.allclose(result, 6.0)
        assert machine.gpu.regs.peek("CP_RB_RPTR") == 2 * hw.RING_PKT.size

    def test_bad_packet_is_rbbm_error(self, machine, space):
        ring_va = setup_ring(machine, space)
        space.write(ring_va, b"\x11" * hw.RING_PKT.size)
        machine.gpu.regs.write("CP_RB_WPTR", hw.RING_PKT.size)
        assert machine.gpu.regs.peek("RBBM_INT_0_STATUS") \
            & hw.INT_RBBM_ERROR

    def test_unmapped_shader_is_smmu_fault(self, machine, space):
        ring_va = setup_ring(machine, space)
        packet = hw.RING_PKT.pack(hw.RING_PKT_MAGIC, 64, 0x0F00_0000)
        space.write(ring_va, packet)
        machine.gpu.regs.write("CP_RB_WPTR", hw.RING_PKT.size)
        regs = machine.gpu.regs
        assert regs.peek("RBBM_INT_0_STATUS") & hw.INT_SMMU_FAULT
        assert regs.read("SMMU_FSR") == 1
        assert regs.read("SMMU_FAR_LO") != 0

    def test_doorbell_without_power_is_error(self, space):
        machine = space.machine
        machine.gpu.regs.poke("GDSC_PWR_STATUS", 0)
        machine.gpu.regs.write("CP_RB_WPTR", hw.RING_PKT.size)
        assert machine.gpu.regs.peek("RBBM_INT_0_STATUS") \
            & hw.INT_RBBM_ERROR

    def test_base_rewrite_rewinds_pointers(self, machine, space):
        ring_va = setup_ring(machine, space)
        a, b, out_va, shader_va, size = hwutil.vec_add_job(space)
        ring_submit(machine, space, ring_va, 0, shader_va, size)
        wait_int(machine, hw.INT_CP_DONE)
        regs = machine.gpu.regs
        assert regs.peek("CP_RB_RPTR") != 0
        regs.write("CP_RB_BASE_LO", ring_va & 0xFFFFFFFF)
        assert regs.peek("CP_RB_RPTR") == 0
        assert regs.peek("CP_RB_WPTR") == 0


class TestResetAndFlush:
    def test_reset_drops_power_and_pointers(self, machine, space):
        regs = machine.gpu.regs
        regs.write("RBBM_SW_RESET_CMD", 1)
        assert regs.peek("GDSC_PWR_STATUS") == 0
        assert regs.peek("CP_RB_WPTR") == 0
        ok, _ = poll_until(machine.clock,
                           lambda: regs.read("RBBM_RESET_STATUS"),
                           10 * US, 5 * MS)
        assert ok

    def test_uche_flush_bit_clears(self, machine):
        regs = machine.gpu.regs
        regs.write("UCHE_CACHE_FLUSH", hw.UCHE_FLUSH)
        assert regs.read("UCHE_CACHE_FLUSH") & hw.UCHE_FLUSH
        ok, _ = poll_until(
            machine.clock,
            lambda: not regs.read("UCHE_CACHE_FLUSH") & hw.UCHE_FLUSH,
            10 * US, 5 * MS)
        assert ok

    def test_perfctr_is_volatile(self, machine):
        c1 = machine.gpu.regs.read("RBBM_PERFCTR_CP")
        machine.clock.advance(1 * MS)
        assert machine.gpu.regs.read("RBBM_PERFCTR_CP") != c1
