"""Interval analysis and checkpoint management."""

import pytest

from repro.core import actions as act
from repro.core.checkpoints import CheckpointManager, CheckpointPolicy
from repro.core.intervals import (IntervalStats, accumulate_by_job,
                                  recorded_vs_paced, summarize)
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recorder import IntervalSample
from repro.core.recording import Recording, RecordingMeta
from repro.gpu import PERM_R, PERM_W
from repro.soc import Machine


class TestIntervalAnalysis:
    def test_summarize(self):
        samples = [IntervalSample(0, 100, True),
                   IntervalSample(0, 200, False),
                   IntervalSample(1, 300, True)]
        stats = summarize(samples)
        assert stats.total_ns == 600
        assert stats.skippable_ns == 400
        assert stats.preserved_ns == 200
        assert stats.skippable_count == 2
        assert abs(stats.skippable_fraction - 400 / 600) < 1e-9

    def test_summarize_empty(self):
        stats = summarize([])
        assert stats.total_ns == 0
        assert stats.skippable_fraction == 0.0

    def test_accumulate_by_job(self):
        samples = [IntervalSample(0, 10, True), IntervalSample(0, 5, False),
                   IntervalSample(2, 7, True)]
        assert accumulate_by_job(samples) == {0: 15, 2: 7}

    def test_recorded_vs_paced(self):
        actions = [
            act.RegWrite(reg="A", recorded_interval_ns=100,
                         min_interval_ns=0),
            act.RegWrite(reg="A", recorded_interval_ns=50,
                         min_interval_ns=50),
        ]
        stats = recorded_vs_paced(
            Recording(RecordingMeta(), actions, []))
        assert stats.total_ns == 150
        assert stats.skippable_ns == 100
        assert stats.skippable_count == 1
        assert stats.preserved_count == 1


class TestCheckpointManager:
    @pytest.fixture
    def nano(self):
        machine = Machine.create("hikey960", seed=171)
        nano = NanoGpuDriver(machine)
        nano.init_gpu()
        raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
        nano.map_gpu_mem(0x100000, 2, raw)
        nano.set_gpu_pgtable(0x4C)
        return nano

    def test_disabled_policy_never_takes(self, nano):
        manager = CheckpointManager(nano, CheckpointPolicy())
        assert not manager.enabled
        assert not manager.maybe_take(10, jobs_done=100)

    def test_cadence(self, nano):
        manager = CheckpointManager(nano,
                                    CheckpointPolicy(every_n_jobs=4))
        assert not manager.maybe_take(1, jobs_done=3)
        assert manager.maybe_take(2, jobs_done=4)
        assert not manager.maybe_take(3, jobs_done=6)
        assert manager.maybe_take(4, jobs_done=8)
        assert manager.taken_count == 2

    def test_keep_last_bounds_storage(self, nano):
        manager = CheckpointManager(
            nano, CheckpointPolicy(every_n_jobs=1, keep_last=2))
        for i in range(5):
            manager.maybe_take(i, jobs_done=i + 1)
        assert len(manager.checkpoints) == 2
        assert manager.taken_count == 5
        assert manager.latest().action_index == 4

    def test_checkpoint_captures_memory(self, nano):
        nano.upload(0x100000, b"state!")
        manager = CheckpointManager(nano,
                                    CheckpointPolicy(every_n_jobs=1))
        manager.maybe_take(5, jobs_done=1)
        checkpoint = manager.latest()
        assert checkpoint.bytes_captured == 2 * 4096
        assert checkpoint.memory[0x100000][:6] == b"state!"

    def test_restore_resets_and_reloads(self, nano):
        nano.upload(0x100000, b"golden")
        manager = CheckpointManager(nano,
                                    CheckpointPolicy(every_n_jobs=1))
        manager.maybe_take(7, jobs_done=1)
        nano.upload(0x100000, b"dirty!")
        restored = manager.restore_latest(memattr=0x4C)
        assert restored.action_index == 7
        assert nano.copy_from_gpu(0x100000, 6) == b"golden"

    def test_restore_without_checkpoint(self, nano):
        manager = CheckpointManager(nano,
                                    CheckpointPolicy(every_n_jobs=1))
        assert manager.restore_latest(0x4C) is None

    def test_checkpoints_cost_virtual_time(self, nano):
        manager = CheckpointManager(nano,
                                    CheckpointPolicy(every_n_jobs=1))
        manager.maybe_take(0, jobs_done=1)
        assert manager.total_checkpoint_ns > 0

    def test_reset(self, nano):
        manager = CheckpointManager(nano,
                                    CheckpointPolicy(every_n_jobs=1))
        manager.maybe_take(0, jobs_done=1)
        manager.reset()
        assert manager.latest() is None
        assert manager.taken_count == 0
