"""The Mali driver: lifecycle, ioctls, tracing, scheduling."""

import numpy as np
import pytest

from repro.errors import DriverError
from repro.gpu.isa import (Instruction, Op, Program, TensorRef,
                           encode_program)
from repro.gpu import jobs as jobfmt
from repro.soc import Machine
from repro.stack.driver import MaliDriver, MemFlags
from repro.stack.driver.ioctl import IoctlCode
from repro.stack.driver.trace import (IrqEvent, JobKickEvent, ListTracer,
                                      MemMapEvent, RegPollEvent,
                                      RegReadEvent, RegWriteEvent,
                                      WaitIrqEvent)


@pytest.fixture
def machine():
    return Machine.create("hikey960", seed=51)


@pytest.fixture
def driver(machine):
    driver = MaliDriver(machine)
    driver.open()
    driver.create_context()
    return driver


def submit_vecadd(driver, n=64, seed=0):
    """Allocate buffers, write a job binary, submit. Returns job id +
    the expected output and its VA."""
    ctx = driver.require_ctx()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n).astype(np.float32)
    b = rng.standard_normal(n).astype(np.float32)
    buf = driver.ioctl(IoctlCode.MEM_ALLOC, size=3 * n * 4,
                       flags=MemFlags.data_buffer(), tag="buf")
    ctx.cpu_write(buf, a.tobytes() + b.tobytes())
    program = Program([Instruction(Op.ADD, (
        TensorRef(buf, (n,)), TensorRef(buf + n * 4, (n,)),
        TensorRef(buf + 2 * n * 4, (n,))))])
    blob = encode_program(program)
    desc_size = jobfmt.MALI_JOB_DESC_SIZE
    binary = driver.ioctl(IoctlCode.MEM_ALLOC,
                          size=desc_size + 64 + len(blob),
                          flags=MemFlags.job_binary(), tag="binary")
    ctx.cpu_write(binary + 64, blob)
    ctx.cpu_write(binary, jobfmt.encode_mali_job(
        jobfmt.MaliJobDescriptor(1, 0, binary + 64, len(blob))))
    job_id = driver.ioctl(IoctlCode.JOB_SUBMIT, chain_va=binary,
                          affinity=0xFF)
    return job_id, a + b, buf + 2 * n * 4


class TestLifecycle:
    def test_open_powers_the_gpu(self, machine, driver):
        assert machine.gpu.regs.peek("SHADER_READY") == 0xFF
        assert driver.opened

    def test_close_resets(self, machine, driver):
        driver.close()
        assert not driver.opened
        assert driver.ctx is None

    def test_requires_mali_gpu(self):
        v3d_machine = Machine.create("raspberrypi4", seed=52)
        with pytest.raises(DriverError):
            MaliDriver(v3d_machine)

    def test_single_context_only(self, driver):
        with pytest.raises(DriverError):
            driver.create_context()

    def test_ioctl_before_context(self, machine):
        driver = MaliDriver(machine)
        driver.open()
        with pytest.raises(DriverError):
            driver.ioctl(IoctlCode.MEM_ALLOC, size=4096,
                         flags=MemFlags.data_buffer())

    def test_version_and_props_ioctls(self, driver):
        assert driver.ioctl(IoctlCode.VERSION_CHECK)["driver"] == \
            "mali_kbase"
        props = driver.ioctl(IoctlCode.GET_GPU_PROPS)
        assert props["cores"] == 8


class TestMemoryIoctls:
    def test_alloc_maps_with_flag_perms(self, machine, driver):
        va = driver.ioctl(IoctlCode.MEM_ALLOC, size=8192,
                          flags=MemFlags.job_binary(), tag="bin")
        _pa, perms = driver.ctx.page_table.lookup(va)
        from repro.gpu import PERM_R, PERM_X
        assert perms == PERM_R | PERM_X
        # GPU can translate through the live page tables.
        machine.gpu.mmu.translate(va, "x")

    def test_free_unmaps(self, machine, driver):
        va = driver.ioctl(IoctlCode.MEM_ALLOC, size=4096,
                          flags=MemFlags.data_buffer())
        driver.ioctl(IoctlCode.MEM_FREE, va=va)
        from repro.errors import GpuPageFault
        machine.gpu.mmu.flush_tlb()
        with pytest.raises(GpuPageFault):
            machine.gpu.mmu.translate(va, "r")

    def test_free_unknown_va(self, driver):
        with pytest.raises(DriverError):
            driver.ioctl(IoctlCode.MEM_FREE, va=0x0FFF_0000)


class TestJobs:
    def test_submit_and_wait(self, machine, driver):
        job_id, expected, out_va = submit_vecadd(driver)
        state = driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        assert state == "DONE"
        got = np.frombuffer(driver.ctx.cpu_read(out_va, expected.nbytes),
                            np.float32)
        assert np.array_equal(got, expected)

    def test_wait_unknown_job(self, driver):
        with pytest.raises(DriverError):
            driver.ioctl(IoctlCode.JOB_WAIT, job_id=999)

    def test_sync_mode_serializes(self, driver):
        driver.queue.set_depth(1)
        ids = [submit_vecadd(driver, seed=i)[0] for i in range(3)]
        for job_id in ids:
            assert driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id) == \
                "DONE"

    def test_cache_flush_ioctl(self, driver):
        driver.ioctl(IoctlCode.CACHE_FLUSH)  # must not raise

    def test_failed_job_raises_on_wait(self, machine, driver):
        ctx = driver.require_ctx()
        bad = driver.ioctl(IoctlCode.MEM_ALLOC, size=4096,
                           flags=MemFlags.job_binary())
        ctx.cpu_write(bad, b"\xFF" * 64)  # garbage descriptor
        job_id = driver.ioctl(IoctlCode.JOB_SUBMIT, chain_va=bad,
                              affinity=0xFF)
        with pytest.raises(DriverError):
            driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)


class TestTracing:
    def test_register_accesses_traced_with_src(self, machine):
        driver = MaliDriver(machine)
        tracer = ListTracer()
        driver.attach_tracer(tracer)
        driver.open()
        reads = tracer.of_type(RegReadEvent)
        writes = tracer.of_type(RegWriteEvent)
        polls = tracer.of_type(RegPollEvent)
        assert reads and writes and polls
        assert all(e.src for e in reads + writes + polls)

    def test_power_up_polls_are_summarized(self, machine):
        driver = MaliDriver(machine)
        tracer = ListTracer()
        driver.attach_tracer(tracer)
        driver.open()
        polls = tracer.of_type(RegPollEvent)
        names = {p.name for p in polls}
        assert {"GPU_IRQ_RAWSTAT", "L2_READY", "SHADER_READY"} <= names
        assert all(p.success for p in polls)
        # Multiple raw reads collapsed into each event.
        assert any(p.polls > 1 for p in polls)

    def test_job_kick_and_irq_traced(self, driver):
        tracer = ListTracer()
        driver.attach_tracer(tracer)
        job_id, _expected, _va = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        kicks = tracer.of_type(JobKickEvent)
        assert len(kicks) == 1
        irqs = tracer.of_type(IrqEvent)
        assert [e.phase for e in irqs] == ["enter", "exit"]
        assert tracer.of_type(WaitIrqEvent)

    def test_mem_map_traced_with_flags(self, driver):
        tracer = ListTracer()
        driver.attach_tracer(tracer)
        driver.ioctl(IoctlCode.MEM_ALLOC, size=4096,
                     flags=MemFlags.job_binary(), tag="bin")
        maps = tracer.of_type(MemMapEvent)
        assert len(maps) == 1
        assert MemFlags(maps[0].flags) & MemFlags.GPU_EXEC

    def test_detached_tracer_sees_nothing(self, driver):
        tracer = ListTracer()
        driver.attach_tracer(tracer)
        driver.detach_tracer(tracer)
        submit_vecadd(driver)
        assert tracer.events == []

    def test_gpu_busy_hint_tracks_outstanding_jobs(self, driver):
        tracer = ListTracer()
        driver.attach_tracer(tracer)
        job_id, _e, _v = submit_vecadd(driver)
        kick = tracer.of_type(JobKickEvent)[0]
        assert not kick.gpu_busy_after  # kick event precedes the writes
        last_write = tracer.of_type(RegWriteEvent)[-1]
        assert last_write.gpu_busy_after
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        assert not driver.gpu_busy_hint()
