"""The v3d device model."""

import numpy as np
import pytest

from repro.gpu import (INT_CTERR, INT_FRDONE, INT_MMU_FAULT, L2T_FLUSH,
                       V3D_GPU_IDENT)
from repro.gpu import jobs as jobfmt
from repro.gpu.isa import (Instruction, Op, Program, TensorRef,
                           encode_program)
from repro.soc import Machine
from repro.units import MS, US
from tests.gpu import hwutil
from tests.gpu.hwutil import poll_until


@pytest.fixture
def machine():
    m = Machine.create("raspberrypi4", seed=31)
    hwutil.v3d_power_up(m)
    return m


@pytest.fixture
def space(machine):
    space = hwutil.AddressSpace(machine)
    space.activate_v3d()
    return space


def submit_cl(machine, space, shader_va, size):
    packets = jobfmt.encode_cl_exec(shader_va, size) \
        + jobfmt.encode_cl_halt()
    cl_va = space.alloc(len(packets))
    space.write(cl_va, packets)
    regs = machine.gpu.regs
    regs.write("CT0QBA", cl_va)
    regs.write("CT0QEA", cl_va + len(packets))
    return cl_va


def wait_int(machine, bits, timeout=50 * MS):
    regs = machine.gpu.regs
    ok, _ = poll_until(machine.clock,
                       lambda: regs.read("CTL_INT_STS") & bits,
                       10 * US, timeout)
    assert ok, "interrupt never arrived"
    status = regs.read("CTL_INT_STS")
    regs.write("CTL_INT_CLR", status)
    return status


class TestPowerGating:
    def test_unpowered_block_reads_dead(self):
        machine = Machine.create("raspberrypi4", seed=32)
        assert machine.gpu.regs.read("CTL_IDENT") == 0xFFFFFFFF

    def test_unpowered_writes_dropped(self):
        machine = Machine.create("raspberrypi4", seed=32)
        machine.gpu.regs.write("CT0QBA", 0x1234)
        hwutil.v3d_power_up(machine)
        assert machine.gpu.regs.read("CT0QBA") == 0

    def test_powered_ident(self, machine):
        assert machine.gpu.regs.read("CTL_IDENT") == V3D_GPU_IDENT


class TestControlListExecution:
    def test_vecadd_end_to_end(self, machine, space):
        a, b, out_va, shader_va, size = hwutil.vec_add_job(space)
        submit_cl(machine, space, shader_va, size)
        status = wait_int(machine, INT_FRDONE)
        assert status & INT_FRDONE
        result = np.frombuffer(space.read(out_va, len(a) * 4), np.float32)
        assert np.array_equal(result, a + b)

    def test_second_kick_while_busy_is_error(self, machine, space):
        _a, _b, _o, shader_va, size = hwutil.vec_add_job(space, n=4096)
        submit_cl(machine, space, shader_va, size)
        submit_cl(machine, space, shader_va, size)
        assert machine.gpu.regs.peek("CTL_INT_STS") & INT_CTERR

    def test_unmapped_shader_raises_mmu_fault(self, machine, space):
        packets = jobfmt.encode_cl_exec(0x0F00_0000, 64) \
            + jobfmt.encode_cl_halt()
        cl_va = space.alloc(len(packets))
        space.write(cl_va, packets)
        regs = machine.gpu.regs
        regs.write("CT0QBA", cl_va)
        regs.write("CT0QEA", cl_va + len(packets))
        assert regs.read("CTL_INT_STS") & INT_MMU_FAULT
        assert regs.read("MMU_VIO_STATUS") == 1

    def test_garbage_control_list_is_ct_error(self, machine, space):
        cl_va = space.alloc(64)
        space.write(cl_va, b"\x99" * 64)
        regs = machine.gpu.regs
        regs.write("CT0QBA", cl_va)
        regs.write("CT0QEA", cl_va + 64)
        assert regs.read("CTL_INT_STS") & INT_CTERR

    def test_firmware_clock_change_slows_jobs(self, machine, space):
        from repro.soc import firmware as fw

        def timed_run(seed):
            _a, _b, _o, shader_va, size = hwutil.vec_add_job(space,
                                                             n=4096,
                                                             seed=seed)
            t0 = machine.clock.now()
            submit_cl(machine, space, shader_va, size)
            wait_int(machine, INT_FRDONE)
            return machine.clock.now() - t0

        fast = timed_run(1)
        machine.firmware.request(fw.TAG_SET_CLOCK_RATE, 10, 100_000_000)
        slow = timed_run(2)
        assert slow > 3 * fast


class TestCacheFlush:
    def test_flush_bit_clears_after_delay(self, machine):
        regs = machine.gpu.regs
        regs.write("L2TCACTL", L2T_FLUSH)
        assert regs.read("L2TCACTL") & L2T_FLUSH
        ok, _ = poll_until(machine.clock,
                           lambda: not regs.read("L2TCACTL") & L2T_FLUSH,
                           10 * US, 5 * MS)
        assert ok


class TestReset:
    def test_reset_clears_interrupts_and_job(self, machine, space):
        _a, _b, _o, shader_va, size = hwutil.vec_add_job(space, n=4096)
        submit_cl(machine, space, shader_va, size)
        regs = machine.gpu.regs
        regs.write("CTL_RESET", 1)
        assert regs.peek("CTL_INT_STS") == 0
        ok, _ = poll_until(machine.clock,
                           lambda: regs.read("CTL_STATUS") & 1,
                           10 * US, 5 * MS)
        assert ok
        assert not machine.gpu.busy

    def test_offline_cores_kills_job(self, machine, space):
        from repro.gpu.faults import FaultInjector
        _a, _b, _o, shader_va, size = hwutil.vec_add_job(space, n=4096)
        submit_cl(machine, space, shader_va, size)
        FaultInjector(machine.gpu).offline_cores(0xF)
        assert machine.gpu.regs.peek("CTL_INT_STS") & INT_CTERR
