"""The in-driver recorder: event capture, dumps, intervals, cuts."""

import numpy as np
import pytest

from repro.core import actions as act
from repro.core.recorder import (MaliRecorder, RecorderOptions,
                                 V3dRecorder, make_recorder)
from repro.errors import RecordingError
from repro.soc import Machine
from repro.stack.driver import MaliDriver, V3dDriver
from repro.stack.framework import MODEL_ZOO, AclNetwork, build_model
from repro.stack.runtime import OpenClRuntime
from tests.stack.test_driver_mali import submit_vecadd
from repro.stack.driver.ioctl import IoctlCode
from repro.stack.driver.memory import MemFlags


@pytest.fixture
def driver():
    machine = Machine.create("hikey960", seed=121)
    driver = MaliDriver(machine)
    driver.open()
    driver.create_context()
    return driver


@pytest.fixture
def recorder(driver):
    return make_recorder(driver)


class TestFamilySelection:
    def test_mali(self, driver):
        assert isinstance(make_recorder(driver), MaliRecorder)

    def test_v3d(self):
        machine = Machine.create("raspberrypi4", seed=122)
        v3d = V3dDriver(machine)
        assert isinstance(make_recorder(v3d), V3dRecorder)


class TestSessionLifecycle:
    def test_begin_enforces_sync_and_end_restores(self, driver,
                                                  recorder):
        assert driver.queue.depth == 2
        recorder.begin("w")
        assert driver.queue.depth == 1
        recorder.end()
        assert driver.queue.depth == 2

    def test_double_begin_rejected(self, recorder):
        recorder.begin("w")
        with pytest.raises(RecordingError):
            recorder.begin("w")

    def test_end_without_begin_rejected(self, recorder):
        with pytest.raises(RecordingError):
            recorder.end()

    def test_sync_not_enforced_when_disabled(self, driver):
        recorder = make_recorder(
            driver, RecorderOptions(sync_submission=False))
        recorder.begin("w")
        assert driver.queue.depth == 2
        recorder.end()


class TestActionCapture:
    def test_prologue_reconstructs_address_space(self, driver, recorder):
        recorder.begin("w")
        recordings = recorder.end()
        actions = recordings[0].actions
        assert isinstance(actions[0], act.SetGpuPgtable)
        assert actions[0].memattr == driver.gpu.spec.required_memattr
        maps = [a for a in actions if isinstance(a, act.MapGpuMem)]
        assert len(maps) == len(driver.ctx.regions)
        assert recordings[0].meta.prologue_len == len(actions)

    def test_job_records_full_interaction_pattern(self, driver, recorder):
        recorder.begin("w")
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        driver.flush_caches()
        recording = recorder.end()[0]
        kinds = [type(a).__name__ for a in recording.actions]
        for expected in ("Upload", "RegWrite", "WaitIrq", "IrqEnter",
                         "RegReadOnce", "IrqExit", "RegReadWait"):
            assert expected in kinds
        kicks = [a for a in recording.actions
                 if isinstance(a, act.RegWrite) and a.is_job_kick]
        assert len(kicks) == 1
        assert recording.meta.n_jobs == 1

    def test_volatile_reads_marked_ignorable(self, driver, recorder):
        recorder.begin("w")
        driver.reg_read("CYCLE_COUNT", "test:volatile")
        recording = recorder.end()[0]
        reads = [a for a in recording.actions
                 if isinstance(a, act.RegReadOnce)]
        assert reads[-1].ignore

    def test_poll_summarized_as_regreadwait(self, driver, recorder):
        recorder.begin("w")
        driver.flush_caches()
        recording = recorder.end()[0]
        waits = [a for a in recording.actions
                 if isinstance(a, act.RegReadWait)]
        assert waits
        assert waits[0].reg == "GPU_IRQ_RAWSTAT"
        assert waits[0].timeout_ns > 0
        # Recorded reg_io includes every raw poll read.
        assert recording.meta.reg_io > len(recording.actions) - \
            recording.meta.prologue_len

    def test_runtime_allocations_recorded(self, driver, recorder):
        from repro.stack.driver.memory import MemFlags
        recorder.begin("w")
        va = driver.ioctl(IoctlCode.MEM_ALLOC, size=8192,
                          flags=MemFlags.data_buffer(), tag="t")
        driver.ioctl(IoctlCode.MEM_FREE, va=va)
        recording = recorder.end()[0]
        maps = [a for a in recording.actions[recording.meta.prologue_len:]
                if isinstance(a, act.MapGpuMem)]
        unmaps = [a for a in recording.actions
                  if isinstance(a, act.UnmapGpuMem)]
        assert len(maps) == 1 and maps[0].addr == va
        assert len(unmaps) == 1 and unmaps[0].addr == va


class TestDumping:
    def test_mali_dumps_only_exec_and_annotated(self, driver, recorder):
        from repro.stack.driver.memory import MemFlags
        data_va = driver.ioctl(IoctlCode.MEM_ALLOC, size=4096,
                               flags=MemFlags.data_buffer(), tag="data")
        driver.ctx.cpu_write(data_va, b"\x55" * 4096)
        recorder.begin("w")
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recording = recorder.end()[0]
        dumped_vas = {d.va for d in recording.dumps}
        # The plain data buffer was not annotated: never dumped.
        assert not any(d.va <= data_va < d.end_va()
                       for d in recording.dumps)
        assert dumped_vas  # but job binaries were

    def test_by_value_annotation_forces_dump(self, driver):
        from repro.stack.driver.memory import MemFlags
        data_va = driver.ioctl(IoctlCode.MEM_ALLOC, size=4096,
                               flags=MemFlags.data_buffer(), tag="w")
        driver.ctx.cpu_write(data_va, b"\x77" * 4096)
        recorder = make_recorder(driver)
        recorder.annotate_by_value([(data_va, 4096)])
        recorder.begin("w")
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recording = recorder.end()[0]
        assert any(d.va <= data_va < d.end_va() for d in recording.dumps)

    def test_taint_spans_leave_out_by_value_ranges(self, driver):
        from repro.stack.driver.memory import MemFlags
        data_va = driver.ioctl(IoctlCode.MEM_ALLOC, size=3 * 4096,
                               flags=MemFlags.data_buffer(), tag="w")
        driver.ctx.cpu_write(data_va, bytes(range(256)) * 48)
        recorder = make_recorder(driver)
        recorder.annotate_by_value([(data_va + 100, 5000)])
        recorder.begin("w")
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recorder.end()
        spans = {va: data for va, data in recorder.first_kick_snapshot
                 if data_va <= va < data_va + 3 * 4096}
        assert spans == {
            data_va: (bytes(range(256)) * 48)[:100],
            data_va + 5100: (bytes(range(256)) * 48)[5100:]}
        assert dict(recorder.data_spans()).keys() >= spans.keys()

    def test_unchanged_pages_not_redumped(self, driver, recorder):
        recorder.begin("w")
        ids = [submit_vecadd(driver, seed=s) for s in range(2)]
        for job_id, _e, _v in ids:
            driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recording = recorder.end()[0]
        # Two jobs, but each job binary dumped once (different pool
        # regions) -- dump bytes stay bounded.
        uploads = [a for a in recording.actions
                   if isinstance(a, act.Upload)]
        assert recording.meta.n_jobs == 2
        assert len(uploads) <= 2 * 3

    def test_first_kick_snapshot_taken_once(self, driver, recorder):
        recorder.begin("w")
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        snap1 = recorder.first_kick_snapshot
        assert snap1
        job_id, _e, _v = submit_vecadd(driver, seed=9)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        assert recorder.first_kick_snapshot is snap1
        recorder.end()


class TestIntervals:
    def test_idle_intervals_marked_skippable(self, driver, recorder):
        recorder.begin("w")
        driver.machine.clock.advance(5_000_000)  # CPU dawdling, GPU idle
        driver.reg_read("GPU_ID", "test:late-read")
        recording = recorder.end()[0]
        read = [a for a in recording.actions
                if isinstance(a, act.RegReadOnce)][-1]
        assert read.recorded_interval_ns >= 5_000_000
        assert read.min_interval_ns == 0

    def test_skip_disabled_preserves_everything(self, driver):
        recorder = make_recorder(
            driver, RecorderOptions(skip_idle_intervals=False))
        recorder.begin("w")
        driver.machine.clock.advance(1_000_000)
        driver.reg_read("GPU_ID", "test:read")
        recording = recorder.end()[0]
        read = [a for a in recording.actions
                if isinstance(a, act.RegReadOnce)][-1]
        assert read.min_interval_ns == read.recorded_interval_ns


class TestCut:
    def test_cut_splits_recordings(self, driver, recorder):
        recorder.begin("w")
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recorder.cut()
        job_id, _e, _v = submit_vecadd(driver, seed=5)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recordings = recorder.end()
        assert len(recordings) == 2
        assert all(r.meta.n_jobs == 1 for r in recordings)
        # Each recording re-declares the full live address space.
        for r in recordings:
            assert r.meta.prologue_len > 0

    def test_cut_requires_active_session(self, recorder):
        with pytest.raises(RecordingError):
            recorder.cut()


class TestV3dRecorder:
    def test_control_list_pointer_chase_finds_binaries(self):
        machine = Machine.create("raspberrypi4", seed=123)
        driver = V3dDriver(machine)
        driver.open()
        driver.create_context()
        recorder = make_recorder(driver)
        recorder.begin("w")
        from tests.stack.test_driver_v3d import submit_vecadd as v3d_sub
        job_id, _e, _v = v3d_sub(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recording = recorder.end()[0]
        assert recording.dumps  # found the CL + shader region
        # Whole-region dumps: the dump covers the full binary region.
        binary_region = next(r for r in driver.ctx.regions.values()
                             if r.tag == "binary")
        assert any(d.va == binary_region.va and
                   d.size == binary_region.size
                   for d in recording.dumps)


class TestCaptureFootprint:
    """A dumped page is copied once, into its dump, and the taint
    snapshots leave out the by-value ranges the dumps already hold."""

    #: Traced peak of ``record_inference`` over the dump bytes it
    #: produces, on mali: alexnet measures 3.35-3.55 with pages hashed
    #: in place, weight-free taint spans and weight pages that reference
    #: the model's read-only arrays (3.74 while they held copies, 5.73
    #: when every page was read into a copy and the snapshots held the
    #: weights as well); dense-serve, whose weight dumps are views of
    #: those arrays, measures 0.13 with a CRC array per scanned region
    #: (0.15 with a dict entry per page; 1.84 with copies).
    PEAK_OVER_DUMP = {"alexnet": 3.6, "dense-serve": 0.14}

    def peak_over_dump(self, model):
        import tracemalloc
        from repro.bench.workloads import build_stack
        from repro.core.harness import record_inference
        stack = build_stack("mali", model)
        stack.net.run(np.zeros(stack.net.model.input_shape, np.float32))
        tracemalloc.start()
        try:
            workload = record_inference(stack.net)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dump_bytes = workload.recording.dump_bytes()
        assert dump_bytes > 0
        return peak / dump_bytes

    def test_recording_peak_is_a_small_multiple_of_its_dumps(self):
        ratio = self.peak_over_dump("alexnet")
        assert ratio < self.PEAK_OVER_DUMP["alexnet"], f"{ratio:.2f}x"

    def test_weight_dumps_are_views_of_the_weights(self):
        ratio = self.peak_over_dump("dense-serve")
        assert ratio < self.PEAK_OVER_DUMP["dense-serve"], f"{ratio:.2f}x"

    #: What the zoo records, per family: capture may change how bytes
    #: are copied, never which bytes land in a recording.
    DIGESTS = {
        ("mali", "mnist"): "b577552758b31d0fb544c650c31ac181"
                           "a1ce9a3e7c675e841fb314ccea25eb7b",
        ("mali", "alexnet"): "f429822fa4c9ca273e82752113498d0e"
                             "7395d0781e084f821cc8fdf3ef300ca3",
        ("v3d", "mnist"): "aa6eb8480d965a6219f6e218bf816fd2"
                          "4043f540b6a6e8e6830b3663db8c45c8",
        ("v3d", "alexnet"): "ec92d112211a1903be5445dfd7090df7"
                            "b2a291f6726de73af6331a8ec1ba173c",
        ("adreno", "mnist"): "5f7dffdc851f2dff0248a7d01bf7c535"
                             "ea1058c2a3cd6cc11071e8d4ee08ab36",
    }

    @pytest.mark.parametrize("family,model", sorted(DIGESTS))
    def test_zoo_recording_digests_are_pinned(self, family, model):
        from repro.bench.workloads import get_recorded
        recording = get_recorded(family, model)[0].recording
        assert recording.digest() == self.DIGESTS[family, model]


def record_zoo(family, model, granularity="monolithic", **options):
    """A zoo model recorded on a fresh stack with these recorder
    options, and how many pages its capture hashed."""
    import zlib
    from unittest import mock
    from repro.bench.workloads import build_stack
    from repro.core.harness import record_inference
    stack = build_stack(family, model)
    stack.net.run(np.zeros(stack.net.model.input_shape, np.float32))
    with mock.patch("repro.core.recorder.zlib.crc32",
                    side_effect=zlib.crc32) as crc32:
        workload = record_inference(stack.net, granularity,
                                    options=RecorderOptions(**options))
    assert stack.machine.memory.dirty is None   # kept while recording
    return workload.recordings, crc32.call_count


class TestDirtyCapture:
    """Capture hashes only the pages memory saw written, stored, scrubbed
    or freed since their region's last scan; a full rescan of every
    eligible page at every kick must give the same recordings, on every
    zoo model and family (and cut per layer, where later recordings
    carry only what changed since the earlier ones)."""

    @pytest.mark.parametrize("family", ("mali", "v3d", "adreno"))
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO))
    def test_same_recording_as_a_full_rescan(self, family, model):
        dirty, hashed = record_zoo(family, model)
        full, rescanned = record_zoo(family, model, full_rescan=True)
        assert [r.to_bytes() for r in dirty] == [r.to_bytes() for r in full]
        assert hashed < rescanned

    @pytest.mark.parametrize("family", ("mali", "v3d", "adreno"))
    def test_same_recordings_when_cut_per_layer(self, family):
        dirty, _hashed = record_zoo(family, "mnist", "layer")
        full, _rescanned = record_zoo(family, "mnist", "layer",
                                      full_rescan=True)
        assert len(dirty) > 1
        assert [r.digest() for r in dirty] == [r.digest() for r in full]

    @staticmethod
    def rewrite_between_kicks(full_rescan):
        """Three jobs; between them an executable region dumped at the
        first kick is changed by each write path of memory: a CPU
        write, a tagged store and a scrub, then a free."""
        from repro.soc import PageSource
        machine = Machine.create("hikey960", seed=121)
        driver = MaliDriver(machine)
        driver.open()
        ctx = driver.create_context()
        recorder = make_recorder(driver, RecorderOptions(
            full_rescan=full_rescan))
        recorder.begin("w")
        va = driver.ioctl(IoctlCode.MEM_ALLOC, size=4 * 4096,
                          flags=MemFlags.job_binary(), tag="extra")
        ctx.cpu_write(va, bytes(range(256)) * 32)   # pages 2, 3 unheld
        binary = ctx.regions[va]
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        ctx.cpu_write(binary.va + 4096 + 8, b"written")
        ctx.cpu_store(binary.va + 2 * 4096,
                      PageSource(b"\x5a" * 4096 + bytes(4096)))
        machine.memory.scrub_pages([binary.pas[0]])
        job_id, _e, _v = submit_vecadd(driver, seed=1)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        machine.memory.drop_pages([binary.pas[2]])
        job_id, _e, _v = submit_vecadd(driver, seed=2)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        return recorder.end()[0], va

    def test_every_write_path_between_kicks(self):
        dirty, va = self.rewrite_between_kicks(False)
        full, _va = self.rewrite_between_kicks(True)
        assert dirty.to_bytes() == full.to_bytes()
        # All four pages at first sight; then the three the write, the
        # scrub and the store changed (the fourth is stored zero, as it
        # was); then the one whose reference the free dropped.
        assert [(dump.va - va, dump.size) for dump in dirty.dumps
                if va <= dump.va < va + 4 * 4096] == \
            [(0, 4 * 4096), (0, 3 * 4096), (2 * 4096, 4096)]

    def test_the_set_is_kept_only_while_recording(self, driver, recorder):
        assert driver.machine.memory.dirty is None
        recorder.begin("w")
        assert driver.machine.memory.dirty == set()
        job_id, _e, _v = submit_vecadd(driver)
        driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        recorder.end()
        assert driver.machine.memory.dirty is None
