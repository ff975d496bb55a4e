"""Job queue policies and the driver memory manager."""

import pytest

from repro.errors import DriverError
from repro.gpu import PERM_R, PERM_W, PERM_X, PTE_FORMATS
from repro.soc import Machine
from repro.soc.memory import PAGE_SIZE
from repro.stack.driver.memory import ContextMemory, MemFlags
from repro.stack.driver.sched import JobQueue


class FakeDriver:
    """Minimal driver double for queue unit tests."""

    def __init__(self):
        self.kicked = []
        self.waits = 0

    def kick_hardware(self, slot, record):
        self.kicked.append((slot, record.job_id))

    def wait_for_irq(self, predicate, timeout_ns, src):
        self.waits += 1
        return predicate()


class TestJobQueue:
    def test_depth_validation(self):
        driver = FakeDriver()
        with pytest.raises(DriverError):
            JobQueue(driver, num_slots=2, depth=3)
        queue = JobQueue(driver, num_slots=2, depth=2)
        with pytest.raises(DriverError):
            queue.set_depth(0)

    def test_kicks_up_to_depth(self):
        driver = FakeDriver()
        queue = JobQueue(driver, num_slots=2, depth=2)
        queue.submit(0x100, 1)
        queue.submit(0x200, 1)
        queue.submit(0x300, 1)
        assert len(driver.kicked) == 2

    def test_completion_kicks_next(self):
        driver = FakeDriver()
        queue = JobQueue(driver, num_slots=2, depth=2)
        for i in range(3):
            queue.submit(0x100 * (i + 1), 1)
        queue.on_slot_complete(0, failed=False)
        assert len(driver.kicked) == 3
        assert queue.completed_count == 1

    def test_failed_jobs_counted(self):
        driver = FakeDriver()
        queue = JobQueue(driver, num_slots=1, depth=1)
        queue.submit(0x100, 1)
        queue.on_slot_complete(0, failed=True)
        assert queue.failed_count == 1

    def test_abort_all(self):
        driver = FakeDriver()
        queue = JobQueue(driver, num_slots=2, depth=2)
        ids = [queue.submit(0x100 * (i + 1), 1) for i in range(3)]
        aborted = queue.abort_all()
        assert len(aborted) == 3
        from repro.stack.driver.sched import JobState
        assert all(queue.jobs[i].state is JobState.FAILED for i in ids)

    def test_spurious_completion_ignored(self):
        driver = FakeDriver()
        queue = JobQueue(driver, num_slots=2, depth=2)
        queue.on_slot_complete(0, failed=False)
        assert queue.completed_count == 0

    def test_wait_unknown_job(self):
        queue = JobQueue(FakeDriver(), num_slots=1, depth=1)
        with pytest.raises(DriverError):
            queue.wait(42)


class TestContextMemory:
    @pytest.fixture
    def ctx(self):
        machine = Machine.create("hikey960", seed=71)
        return ContextMemory(machine.memory, machine.gpu_allocator,
                             PTE_FORMATS["mali"])

    def test_alloc_rounds_to_pages(self, ctx):
        region = ctx.alloc(100, MemFlags.data_buffer())
        assert region.num_pages == 1
        region2 = ctx.alloc(PAGE_SIZE + 1, MemFlags.data_buffer())
        assert region2.num_pages == 2

    def test_regions_do_not_overlap(self, ctx):
        a = ctx.alloc(PAGE_SIZE, MemFlags.data_buffer())
        b = ctx.alloc(PAGE_SIZE, MemFlags.data_buffer())
        assert b.va >= a.end_va() + PAGE_SIZE  # guard gap

    def test_flags_to_perms(self):
        assert MemFlags.job_binary().to_perms() == PERM_R | PERM_X
        assert MemFlags.data_buffer().to_perms() == PERM_R | PERM_W
        assert MemFlags.gpu_scratch().to_perms() == PERM_R | PERM_W

    def test_cpu_rw_roundtrip(self, ctx):
        region = ctx.alloc(3 * PAGE_SIZE, MemFlags.data_buffer())
        data = bytes(range(256)) * 40
        ctx.cpu_write(region.va + 100, data)
        assert ctx.cpu_read(region.va + 100, len(data)) == data

    def test_cpu_touched_pages_recorded(self, ctx):
        region = ctx.alloc(3 * PAGE_SIZE, MemFlags.data_buffer())
        ctx.cpu_write(region.va + PAGE_SIZE, b"x")
        assert region.cpu_touched == {1}

    def test_scratch_not_cpu_accessible(self, ctx):
        region = ctx.alloc(PAGE_SIZE, MemFlags.gpu_scratch())
        with pytest.raises(DriverError):
            ctx.cpu_write(region.va, b"x")

    def test_access_past_region_end(self, ctx):
        region = ctx.alloc(PAGE_SIZE, MemFlags.data_buffer())
        with pytest.raises(DriverError):
            ctx.cpu_read(region.va + PAGE_SIZE - 2, 8)

    def test_region_at_interior_address(self, ctx):
        region = ctx.alloc(4 * PAGE_SIZE, MemFlags.data_buffer())
        assert ctx.region_at(region.va + 2 * PAGE_SIZE + 7) is region
        with pytest.raises(DriverError):
            ctx.region_at(0x0FFF_0000)

    def test_free_releases_pages(self, ctx):
        region = ctx.alloc(8 * PAGE_SIZE, MemFlags.data_buffer())
        before = ctx.allocator.pages_in_use
        ctx.free(region.va)
        assert ctx.allocator.pages_in_use == before - 8
        with pytest.raises(DriverError):
            ctx.free(region.va)

    def test_total_mapped_bytes(self, ctx):
        ctx.alloc(2 * PAGE_SIZE, MemFlags.data_buffer())
        ctx.alloc(3 * PAGE_SIZE, MemFlags.job_binary())
        assert ctx.total_mapped_bytes() == 5 * PAGE_SIZE

    def test_bad_size_rejected(self, ctx):
        with pytest.raises(DriverError):
            ctx.alloc(0, MemFlags.data_buffer())
