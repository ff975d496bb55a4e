"""The Mali device model, driven bare-handed through its registers."""

import numpy as np
import pytest

from repro.gpu import (FAULT_MEMATTR, JS_STATUS_DONE, JS_STATUS_FAULT,
                       MALI_SKUS)
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


class TestBringUp:
    def test_gpu_id_matches_sku(self):
        m = Machine.create("hikey960", seed=1)
        assert m.gpu.regs.read("GPU_ID") == MALI_SKUS["g71"].gpu_id

    def test_reset_drops_power_state(self, machine):
        regs = machine.gpu.regs
        assert regs.read("SHADER_READY") == 0xFF
        regs.write("GPU_COMMAND", 1)
        assert regs.read("SHADER_READY") == 0
        assert regs.read("L2_READY") == 0

    def test_cache_clean_sets_rawstat_after_delay(self, machine):
        regs = machine.gpu.regs
        regs.write("GPU_COMMAND", 4)
        assert not regs.read("GPU_IRQ_RAWSTAT") & 2
        machine.clock.advance(1_000_000)
        assert regs.read("GPU_IRQ_RAWSTAT") & 2

    def test_volatile_counters_change(self, machine):
        regs = machine.gpu.regs
        c1 = regs.read("CYCLE_COUNT")
        machine.clock.advance(1_000_000)
        assert regs.read("CYCLE_COUNT") != c1


class TestJobExecution:
    def test_vecadd_end_to_end(self, machine, space):
        a, b, out_va, shader_va, size = hwutil.vec_add_job(space)
        hwutil.submit_mali_job(machine, space, shader_va, size)
        status = hwutil.wait_mali_job(machine)
        assert status == 1  # done, not failed
        assert machine.gpu.regs.read("JS0_STATUS") == JS_STATUS_DONE
        result = np.frombuffer(space.read(out_va, len(a) * 4), np.float32)
        assert np.array_equal(result, a + b)

    def test_job_raises_irq_line(self, machine, space):
        fired = []
        machine.irq.connect(machine.board.gpu_irq, fired.append)
        machine.gpu.regs.write("JOB_IRQ_MASK", 0xFFFFFFFF)
        _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
        hwutil.submit_mali_job(machine, space, shader_va, size)
        machine.clock.advance(50_000_000)
        assert fired

    def test_wrong_memattr_faults(self, machine):
        """The cross-SKU MMU-config incompatibility (Section 6.4)."""
        space = hwutil.AddressSpace(machine)
        space.activate_mali(memattr=0x48)  # G71 expects 0x4C
        _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
        hwutil.submit_mali_job(machine, space, shader_va, size)
        regs = machine.gpu.regs
        assert regs.read("JOB_IRQ_RAWSTAT") & (1 << 16)
        assert regs.read("AS0_FAULTSTATUS") == FAULT_MEMATTR
        assert regs.read("JS0_STATUS") == JS_STATUS_FAULT

    def test_zero_affinity_fails_job(self, machine, space):
        _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
        hwutil.submit_mali_job(machine, space, shader_va, size,
                               affinity=0)
        assert machine.gpu.regs.read("JOB_IRQ_RAWSTAT") & (1 << 16)

    def test_unpowered_gpu_fails_job(self):
        machine = Machine.create("hikey960", seed=22)
        space = hwutil.AddressSpace(machine)
        space.activate_mali()
        _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
        hwutil.submit_mali_job(machine, space, shader_va, size)
        assert machine.gpu.regs.read("JOB_IRQ_RAWSTAT") & (1 << 16)

    def test_non_executable_shader_faults(self, machine, space):
        from repro.gpu import PERM_R, PERM_W
        from repro.gpu.isa import (Instruction, Op, Program, TensorRef,
                                   encode_program)
        va = space.alloc(256)  # data-only pages
        blob = encode_program(Program([Instruction(Op.FILL, (
            TensorRef(va, (4,)),), (1.0,))]))
        shader_va = space.alloc(len(blob), PERM_R | PERM_W)  # no X!
        space.write(shader_va, blob)
        hwutil.submit_mali_job(machine, space, shader_va, len(blob))
        regs = machine.gpu.regs
        assert regs.read("JOB_IRQ_RAWSTAT") & (1 << 16)
        assert regs.read("MMU_IRQ_RAWSTAT") & 1

    def test_garbage_shader_fails_job(self, machine, space):
        from repro.gpu import PERM_R, PERM_X
        shader_va = space.alloc(64, PERM_R | PERM_X)
        space.write(shader_va, b"\xDE\xAD" * 32)
        hwutil.submit_mali_job(machine, space, shader_va, 64)
        assert machine.gpu.regs.read("JOB_IRQ_RAWSTAT") & (1 << 16)

    def test_fewer_cores_run_slower(self):
        """Job time scales with the affinity mask (Figure 9's lever)."""

        def run(affinity):
            m = Machine.create("hikey960", seed=33)
            hwutil.mali_power_up(m)
            space = hwutil.AddressSpace(m)
            space.activate_mali()
            _a, _b, _o, shader_va, size = hwutil.vec_add_job(space,
                                                             n=4096)
            t0 = m.clock.now()
            hwutil.submit_mali_job(m, space, shader_va, size,
                                   affinity=affinity)
            hwutil.wait_mali_job(m)
            return m.clock.now() - t0

        one_core = run(0x01)
        all_cores = run(0xFF)
        assert one_core > 4 * all_cores

    def test_hardware_queues_second_job(self, machine, space):
        """Two outstanding jobs run back to back, never concurrently."""
        jobs = [hwutil.vec_add_job(space, seed=i) for i in range(2)]
        hwutil.submit_mali_job(machine, space, jobs[0][3], jobs[0][4],
                               slot=0)
        hwutil.submit_mali_job(machine, space, jobs[1][3], jobs[1][4],
                               slot=1)
        hwutil.wait_mali_job(machine, slot=0)
        hwutil.wait_mali_job(machine, slot=1)
        for a, b, out_va, _sva, _size in jobs:
            result = np.frombuffer(space.read(out_va, len(a) * 4),
                                   np.float32)
            assert np.array_equal(result, a + b)

    def test_hard_stop_cancels_job(self, machine, space):
        _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
        hwutil.submit_mali_job(machine, space, shader_va, size)
        machine.gpu.regs.write("JS0_COMMAND", 2)  # HARD_STOP
        assert machine.gpu.regs.read("JOB_IRQ_RAWSTAT") & (1 << 16)
        assert not machine.gpu.busy


class TestBusyTracking:
    def test_idle_throughout(self, machine, space):
        t0 = machine.clock.now()
        machine.clock.advance(1000)
        t1 = machine.clock.now()
        assert machine.gpu.idle_throughout(t0, t1)
        _a, _b, _out, shader_va, size = hwutil.vec_add_job(space)
        t2 = machine.clock.now()
        hwutil.submit_mali_job(machine, space, shader_va, size)
        hwutil.wait_mali_job(machine)
        assert not machine.gpu.idle_throughout(t2, machine.clock.now())

    def test_trim_busy_history(self, machine):
        machine.gpu.trim_busy_history()
        assert len(machine.gpu.busy_transitions) == 1


class TestFaultInjection:
    def test_offline_cores_fails_running_job(self, machine, space):
        from repro.gpu.faults import FaultInjector
        _a, _b, _out, shader_va, size = hwutil.vec_add_job(space, n=4096)
        hwutil.submit_mali_job(machine, space, shader_va, size)
        FaultInjector(machine.gpu).offline_cores(0xFF)
        assert machine.gpu.regs.read("JOB_IRQ_RAWSTAT") & (1 << 16)

    def test_offlined_cores_stay_down_until_restored(self, machine):
        from repro.gpu.faults import FaultInjector
        injector = FaultInjector(machine.gpu)
        injector.offline_cores(0xF0)
        regs = machine.gpu.regs
        regs.write("SHADER_PWRON", 0xFF)
        machine.clock.advance(1_000_000)
        assert regs.read("SHADER_READY") == 0x0F
        injector.restore_cores()
        regs.write("SHADER_PWRON", 0xFF)
        machine.clock.advance(1_000_000)
        assert regs.read("SHADER_READY") == 0xFF
