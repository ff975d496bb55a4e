"""The replayer facade: end-to-end replays, recovery, preemption."""

import numpy as np
import pytest

from repro.bench.workloads import fresh_replay_machine, model_input
from repro.core.checkpoints import CheckpointPolicy
from repro.core.conditional import replay_sequence
from repro.core.recording import Recording
from repro.core.replayer import Replayer
from repro.errors import ReplayError
from repro.gpu.faults import FaultInjector
from repro.stack.framework import build_model
from repro.stack.reference import run_reference


@pytest.fixture
def replayer(mali_mnist_recorded):
    workload, _stack = mali_mnist_recorded
    machine = fresh_replay_machine("mali", seed=141)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(workload.recording)
    return replayer


class TestApiGuards:
    def test_load_requires_init(self, mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        replayer = Replayer(fresh_replay_machine("mali", seed=142))
        with pytest.raises(ReplayError):
            replayer.load(workload.recording)

    def test_replay_requires_load(self):
        replayer = Replayer(fresh_replay_machine("mali", seed=143))
        replayer.init()
        with pytest.raises(ReplayError):
            replayer.replay()

    def test_missing_required_input(self, replayer):
        with pytest.raises(ReplayError):
            replayer.replay(inputs={})

    def test_unknown_input_name(self, replayer):
        with pytest.raises(ReplayError):
            replayer.replay(inputs={"input": model_input("mnist"),
                                    "bogus": model_input("mnist")})

    def test_wrong_input_size(self, replayer):
        with pytest.raises(ReplayError):
            replayer.replay(inputs={"input":
                                    np.zeros((2, 2), np.float32)})


class TestEndToEnd:
    def test_replay_matches_cpu_reference(self, replayer):
        model = build_model("mnist")
        x = model_input("mnist", seed=7)
        result = replayer.replay(inputs={"input": x})
        expected = run_reference(model, x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))
        assert result.attempts == 1
        assert result.stats.jobs_kicked > 0

    def test_new_inputs_give_new_outputs(self, replayer):
        model = build_model("mnist")
        outs = []
        for seed in (1, 2, 3):
            x = model_input("mnist", seed=seed)
            result = replayer.replay(inputs={"input": x})
            expected = run_reference(model, x, fuse=False)
            assert np.array_equal(
                result.output, expected.reshape(result.output.shape))
            outs.append(result.output)
        assert not np.array_equal(outs[0], outs[1])

    def test_load_bytes_roundtrip(self, mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        replayer = Replayer(fresh_replay_machine("mali", seed=144))
        replayer.init()
        replayer.load(Recording.from_bytes(workload.recording.to_bytes()))
        x = model_input("mnist", seed=9)
        result = replayer.replay(inputs={"input": x})
        expected = run_reference(build_model("mnist"), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))

    def test_startup_measured_before_first_kick(self, replayer):
        result = replayer.replay(
            inputs={"input": model_input("mnist")})
        assert 0 < result.startup_ns < result.duration_ns

    def test_cleanup_releases(self, replayer):
        replayer.cleanup()
        with pytest.raises(ReplayError):
            replayer.replay(inputs={"input": model_input("mnist")})


class TestFailureRecovery:
    def test_transient_core_offline_recovered(self, mali_alexnet_recorded):
        workload, _ = mali_alexnet_recorded
        machine = fresh_replay_machine("mali", seed=145)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        injector = FaultInjector(machine.gpu)

        def fault():
            injector.offline_cores(0xF0)
            machine.clock.schedule(1_000_000, injector.restore_cores)

        machine.clock.schedule(300_000, fault)
        x = model_input("alexnet", seed=3)
        result = replayer.replay(inputs={"input": x})
        assert result.attempts > 1
        expected = run_reference(build_model("alexnet"), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))

    def test_persistent_fault_reports_driver_source(
            self, mali_alexnet_recorded):
        workload, _ = mali_alexnet_recorded
        machine = fresh_replay_machine("mali", seed=146)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        FaultInjector(machine.gpu).offline_cores(0xFF)  # never restored
        with pytest.raises(ReplayError) as info:
            replayer.replay(inputs={"input": model_input("alexnet")},
                            max_attempts=2)
        assert "attempts" in str(info.value)

    def test_delay_window_and_resident_skips_on_retry(
            self, mali_mnist_recorded):
        """Section 5.4 end-to-end: two failed attempts, then a retry
        with delays injected in ``[k - 32, k + 1)`` around the failure
        site -- and the retry re-uses GPU-resident dumps instead of
        re-uploading them."""
        from repro.core.replayer import recovery_delay_window
        workload, _ = mali_mnist_recorded
        machine = fresh_replay_machine("mali", seed=149)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        injector = FaultInjector(machine.gpu)
        injector.offline_cores(0xFF)  # every job fails until restored

        # Heal the hardware right before the second recovery reset:
        # attempt 1 fails (reset 1 fails too -- the GPU is still sick),
        # attempt 2 fails, then reset 2 works and attempt 3 -- the
        # delay-injection attempt of §5.4 -- succeeds deterministically.
        resets = []
        original_reset = replayer.nano.soft_reset

        def healing_reset():
            resets.append(machine.clock.now())
            if len(resets) >= 2:
                injector.restore_cores()
            original_reset()

        replayer.nano.soft_reset = healing_reset
        x = model_input("mnist", seed=13)
        result = replayer.replay(inputs={"input": x})
        assert result.attempts == 3
        # The delay window bracketed the failing action per §5.4.
        assert replayer.last_delay_range is not None
        lo, hi = replayer.last_delay_range
        fail_at = hi - 1
        assert replayer.last_delay_range == recovery_delay_window(fail_at)
        assert 0 <= lo <= fail_at < len(workload.recording.actions)
        # The successful retry skipped dumps still GPU-resident from
        # the failed attempts instead of re-uploading everything.
        assert result.stats.upload_skipped_bytes > 0
        # And it still computes the right answer.
        expected = run_reference(build_model("mnist"), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))

    def test_pte_corruption_detected_and_recovered(
            self, mali_alexnet_recorded):
        workload, _ = mali_alexnet_recorded
        machine = fresh_replay_machine("mali", seed=147)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        injector = FaultInjector(machine.gpu)
        input_page = workload.recording.meta.inputs[0].gaddr & ~0xFFF

        def corrupt():
            try:
                injector.corrupt_pte(input_page)
            except Exception:
                return
            machine.clock.schedule(3_000_000, injector.repair_ptes)

        machine.clock.schedule(500_000, corrupt)
        x = model_input("alexnet", seed=5)
        result = replayer.replay(inputs={"input": x})
        expected = run_reference(build_model("alexnet"), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))


class TestSequencesAndPreemption:
    def test_per_layer_sequence_matches_reference(self):
        from repro.bench.workloads import get_recorded
        workload, _stack = get_recorded("mali", "mnist", fuse=True,
                                        granularity="layer")
        assert len(workload.recordings) > 1
        machine = fresh_replay_machine("mali", seed=148)
        replayer = Replayer(machine)
        replayer.init()
        x = model_input("mnist", seed=11)
        result = replay_sequence(replayer, workload.recordings,
                                 inputs={"input": x})
        expected = run_reference(build_model("mnist"), x, fuse=True)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))

    def test_empty_sequence_rejected(self, replayer):
        with pytest.raises(ReplayError):
            replay_sequence(replayer, [])

    def test_preempt_and_reexecute(self, mali_alexnet_recorded):
        workload, _ = mali_alexnet_recorded
        machine = fresh_replay_machine("mali", seed=149)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        replayer.nano.preempt_requested = True
        from repro.errors import ReplayAborted
        x = model_input("alexnet", seed=6)
        with pytest.raises(ReplayAborted):
            replayer.replay(inputs={"input": x})
        delay = replayer.handoff()
        assert 0 < delay < 1_000_000  # below 1 ms (Section 7.5)
        replayer.nano.soft_reset()
        result = replayer.resume_after_preemption()
        expected = run_reference(build_model("alexnet"), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))

    def test_checkpoint_resume(self, mali_alexnet_recorded):
        workload, _ = mali_alexnet_recorded
        machine = fresh_replay_machine("mali", seed=150)
        replayer = Replayer(machine,
                            checkpoint_policy=CheckpointPolicy(
                                every_n_jobs=8))
        replayer.init()
        replayer.load(workload.recording)
        x = model_input("alexnet", seed=8)
        replayer.replay(inputs={"input": x})
        assert replayer.checkpoints.taken_count > 0
        # Simulate a disruption, then resume from the checkpoint.
        replayer.nano.soft_reset()
        result = replayer.resume_after_preemption()
        expected = run_reference(build_model("alexnet"), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))
