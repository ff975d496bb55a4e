"""The nano driver and the replay interpreter."""

import pytest

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.interpreter import (InterpreterOptions, ReplayInterpreter)
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recording import Recording, RecordingMeta
from repro.errors import (ReplayAborted, ReplayDivergence, ReplayError,
                          ReplayTimeout, VerificationError)
from repro.gpu import PERM_R, PERM_W
from repro.soc import Machine
from repro.soc.memory import PAGE_SIZE
from repro.units import MS


@pytest.fixture
def machine():
    return Machine.create("hikey960", seed=131)


@pytest.fixture
def nano(machine):
    nano = NanoGpuDriver(machine)
    nano.init_gpu()
    return nano


class TestNanoDriver:
    def test_register_map_resolution(self, nano, machine):
        addr = nano.resolve("GPU_ID")
        assert addr == machine.board.gpu_mmio_base  # GPU_ID at offset 0

    def test_unknown_register_is_verification_error(self, nano):
        with pytest.raises(VerificationError):
            nano.resolve("NOT_A_REGISTER")

    def test_init_powers_the_gpu(self, nano, machine):
        regs = machine.gpu.regs
        assert regs.peek("SHADER_READY") == 0xFF
        assert regs.peek("JOB_IRQ_MASK") == 0xFFFFFFFF

    def test_reg_write_with_mask(self, nano, machine):
        nano.reg_write("AS0_MEMATTR", 0xFF, mask=0x0F)
        assert machine.gpu.regs.peek("AS0_MEMATTR") == 0x0F

    def test_reg_poll_timeout(self, nano):
        assert not nano.reg_poll("GPU_IRQ_RAWSTAT", 0x80, 0x80,
                                 timeout_ns=100_000)

    def test_map_allocates_fresh_zeroed_pages(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        nano.map_gpu_mem(0x100000, 2, raw)
        assert nano.copy_from_gpu(0x100000, 64) == b"\x00" * 64

    def test_identical_remap_is_noop(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        nano.map_gpu_mem(0x100000, 2, raw)
        nano.upload(0x100000, b"hello")
        nano.map_gpu_mem(0x100000, 2, raw)  # session persistence
        assert nano.copy_from_gpu(0x100000, 5) == b"hello"

    def test_conflicting_remap_rejected(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        nano.map_gpu_mem(0x100000, 2, raw)
        with pytest.raises(ReplayError):
            nano.map_gpu_mem(0x100000, 3, raw)

    def test_unmap_frees_pages(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        # First mapping materializes the page tables themselves;
        # measure after that so only data pages are compared.
        nano.map_gpu_mem(0x500000, 1, raw)
        used = machine.gpu_allocator.pages_in_use
        # Same 2 MiB span as the first mapping: no new L1 table page.
        nano.map_gpu_mem(0x501000, 4, raw)
        nano.unmap_gpu_mem(0x501000, 4)
        assert machine.gpu_allocator.pages_in_use == used
        with pytest.raises(ReplayError):
            nano.unmap_gpu_mem(0x100000, 4)

    def test_upload_to_unmapped_rejected(self, nano):
        with pytest.raises(ReplayError):
            nano.upload(0x700000, b"data")

    def test_set_pgtable_programs_the_gpu_mmu(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        nano.map_gpu_mem(0x100000, 1, raw)
        nano.set_gpu_pgtable(memattr=0x4C)
        nano.upload(0x100000, b"\x42" * 8)
        # The *GPU* can now translate and read the same bytes.
        assert machine.gpu.mmu.read_va(0x100000, 8) == b"\x42" * 8

    def test_relocation_uses_different_physical_pages(self):
        """Record-time and replay-time PAs differ; VAs are stable."""
        pas = []
        for seed in (1, 2):
            machine = Machine.create("hikey960", seed=seed)
            nano = NanoGpuDriver(machine)
            nano.init_gpu()
            raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
            nano.map_gpu_mem(0x100000, 1, raw)
            nano.set_gpu_pgtable(0x4C)
            pas.append(machine.gpu.mmu.translate(0x100000, "r"))
        assert pas[0] != pas[1]

    def test_snapshot_restore_memory(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        nano.map_gpu_mem(0x100000, 1, raw)
        nano.upload(0x100000, b"before")
        snapshot = nano.snapshot_memory()
        nano.upload(0x100000, b"after!")
        nano.restore_memory(snapshot)
        assert nano.copy_from_gpu(0x100000, 6) == b"before"

    def test_release_frees_everything(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        before = machine.gpu_allocator.pages_in_use
        nano.map_gpu_mem(0x100000, 4, raw)
        nano.set_gpu_pgtable(0x4C)
        nano.release()
        assert machine.gpu_allocator.pages_in_use <= before

    def test_irq_stub_counts(self, nano, machine):
        assert nano.pending_irqs == 0
        machine.gpu._assert_irq("JOB", 1)
        assert nano.pending_irqs == 1
        nano.enter_irq_context()
        assert nano.pending_irqs == 0
        assert nano.in_irq_context
        nano.exit_irq_context()
        assert not nano.in_irq_context


def run_actions(nano, actions, dumps=(), meta=None, **opts):
    meta = meta or RecordingMeta(prologue_len=0)
    recording = Recording(meta, actions, list(dumps))
    interpreter = ReplayInterpreter(nano, recording,
                                    InterpreterOptions(**opts))
    return interpreter.execute()


class TestInterpreter:
    def test_regwrite_and_read_match(self, nano):
        stats = run_actions(nano, [
            act.RegWrite(reg="AS0_MEMATTR", val=0x4C),
            act.RegReadOnce(reg="AS0_MEMATTR", val=0x4C),
        ])
        assert stats.actions_executed == 2

    def test_divergent_read_detected_with_src(self, nano):
        with pytest.raises(ReplayDivergence) as info:
            run_actions(nano, [
                act.RegReadOnce(reg="AS0_MEMATTR", val=0x99,
                                src="kbase.c:check"),
            ])
        assert info.value.action_index == 0
        assert "kbase.c:check" in str(info.value)

    def test_volatile_read_not_checked(self, nano):
        run_actions(nano, [
            act.RegReadOnce(reg="CYCLE_COUNT", val=0x12345,
                            ignore=True)])

    def test_poll_timeout_is_replay_timeout(self, nano):
        with pytest.raises(ReplayTimeout):
            run_actions(nano, [
                act.RegReadWait(reg="GPU_IRQ_RAWSTAT", mask=0x80,
                                val=0x80, timeout_ns=50_000)])

    def test_waitirq_timeout(self, nano):
        with pytest.raises(ReplayTimeout):
            run_actions(nano, [act.WaitIrq(timeout_ns=100_000)])

    def test_upload_executes_dump(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        stats = run_actions(
            nano,
            [act.MapGpuMem(addr=0x100000, num_pages=1,
                           raw_pte_flags=raw),
             act.Upload(addr=0x100000, dump_index=0)],
            dumps=[MemoryDump(0x100000, b"payload!")])
        assert stats.upload_bytes == 8
        assert nano.copy_from_gpu(0x100000, 8) == b"payload!"

    def test_pacing_respects_min_intervals(self, nano, machine):
        t0 = machine.clock.now()
        run_actions(nano, [
            act.RegWrite(reg="AS0_MEMATTR", val=1,
                         min_interval_ns=2_000_000),
            act.RegWrite(reg="AS0_MEMATTR", val=2,
                         min_interval_ns=3_000_000),
        ])
        assert machine.clock.now() - t0 >= 5_000_000

    def test_skippable_intervals_not_paced(self, nano, machine):
        t0 = machine.clock.now()
        run_actions(nano, [
            act.RegWrite(reg="AS0_MEMATTR", val=1, min_interval_ns=0,
                         recorded_interval_ns=50_000_000)])
        assert machine.clock.now() - t0 < 1_000_000

    def test_recorded_interval_mode_replays_raw_gaps(self, nano,
                                                     machine):
        t0 = machine.clock.now()
        run_actions(nano, [
            act.RegWrite(reg="AS0_MEMATTR", val=1, min_interval_ns=0,
                         recorded_interval_ns=10_000_000)],
            use_recorded_intervals=True)
        assert machine.clock.now() - t0 >= 10_000_000

    def test_extra_delay_window(self, nano, machine):
        actions = [act.RegWrite(reg="AS0_MEMATTR", val=i)
                   for i in range(10)]
        t0 = machine.clock.now()
        recording = Recording(RecordingMeta(), actions, [])
        ReplayInterpreter(
            nano, recording,
            InterpreterOptions(extra_delay_ns=1_000_000,
                               extra_delay_range=(8, 10))).execute()
        elapsed = machine.clock.now() - t0
        assert 2_000_000 <= elapsed < 4_000_000

    def test_should_yield_aborts_with_index(self, nano):
        actions = [act.RegWrite(reg="AS0_MEMATTR", val=i)
                   for i in range(5)]
        calls = []

        def should_yield():
            calls.append(1)
            return len(calls) == 3

        recording = Recording(RecordingMeta(), actions, [])
        interpreter = ReplayInterpreter(nano, recording,
                                        should_yield=should_yield)
        with pytest.raises(ReplayAborted) as info:
            interpreter.execute()
        assert info.value.action_index == 2

    def test_copy_actions_rejected_in_stream(self, nano):
        with pytest.raises(ReplayError):
            run_actions(nano, [act.CopyToGpu(gaddr=0, size=4,
                                             buffer_name="x")])

    def test_deposit_hook_runs_after_prologue(self, nano, machine):
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        order = []
        meta = RecordingMeta(prologue_len=2)
        recording = Recording(meta, [
            act.SetGpuPgtable(memattr=0x4C),
            act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=raw),
            act.RegWrite(reg="AS0_MEMATTR", val=0x4C),
        ], [])
        interpreter = ReplayInterpreter(nano, recording)

        def deposit():
            order.append("deposit")
            nano.copy_to_gpu(0x100000, b"in")

        interpreter.execute(deposit_inputs=deposit)
        assert order == ["deposit"]
        assert nano.copy_from_gpu(0x100000, 2) == b"in"
