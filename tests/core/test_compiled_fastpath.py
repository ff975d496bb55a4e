"""Differential tests: compiled fast path == reference interpreter.

The compiled executor is required to be a pure performance transform.
For every GPU family, with observability enabled or disabled, a replay
through the fast path must produce byte-identical outputs, identical
interpreter statistics, identical virtual timing, and (with obs on) an
identical timeline event stream -- including repeat replays, where the
fast path skips resident uploads that the reference interpreter skips
too (residency lives in the nano driver, not the executor).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.workloads import (fresh_replay_machine, get_recorded,
                                   model_input)
from repro.core.checkpoints import CheckpointPolicy
from repro.core.compiled import CompiledProgram
from repro.core.replayer import Replayer
from repro.errors import ReplayAborted, ReplayError
from repro.obs import enable_observability
from repro.stack.framework import build_model
from repro.stack.reference import run_reference

FAMILY_MODELS = [("mali", "mnist"), ("v3d", "mnist"), ("adreno", "mnist")]


def _loaded(family, model, obs_on=False, seed=900, **replayer_kwargs):
    workload, _stack = get_recorded(family, model)
    machine = fresh_replay_machine(family, seed=seed)
    if obs_on:
        enable_observability(machine)
    replayer = Replayer(machine, **replayer_kwargs)
    replayer.init()
    replayer.load(workload.recording)
    return machine, replayer


def run_arm(family, model, fast, obs_on, replays=3, seed=900):
    """One replay arm: a fresh machine replaying ``replays`` inputs."""
    machine, replayer = _loaded(family, model, obs_on, seed, fast_path=fast)
    results = []
    for i in range(replays):
        x = model_input(model, seed=10 + i)
        results.append(replayer.replay(inputs={"input": x}))
    return machine, replayer, results


class TestDifferential:
    @pytest.mark.parametrize("family,model", FAMILY_MODELS)
    @pytest.mark.parametrize("obs_on", [False, True],
                             ids=["obs-off", "obs-on"])
    def test_fast_path_equals_reference(self, family, model, obs_on):
        _m_ref, _r_ref, ref = run_arm(family, model, fast=False,
                                      obs_on=obs_on)
        _m_fast, r_fast, fast = run_arm(family, model, fast=True,
                                        obs_on=obs_on)
        # The fast arm really took the compiled path.
        assert isinstance(r_fast.program, CompiledProgram)
        assert r_fast._executor is not None
        for a, b in zip(ref, fast):
            assert a.outputs.keys() == b.outputs.keys()
            for name in a.outputs:
                assert np.array_equal(a.outputs[name], b.outputs[name])
            assert a.stats == b.stats
            assert a.duration_ns == b.duration_ns
            assert a.startup_ns == b.startup_ns
            assert a.attempts == b.attempts

    @pytest.mark.parametrize("family,model", FAMILY_MODELS)
    def test_timeline_event_streams_identical(self, family, model):
        m_ref, _r_ref, _ = run_arm(family, model, fast=False, obs_on=True)
        m_fast, _r_fast, _ = run_arm(family, model, fast=True, obs_on=True)
        ref_events = m_ref.obs.to_chrome_trace()["traceEvents"]
        fast_events = m_fast.obs.to_chrome_trace()["traceEvents"]
        assert ref_events == fast_events

    def test_obs_on_off_virtual_times_agree(self):
        """Observability must not perturb the fast path's virtual time."""
        _m_off, _r_off, off = run_arm("mali", "mnist", fast=True,
                                      obs_on=False)
        _m_on, _r_on, on = run_arm("mali", "mnist", fast=True, obs_on=True)
        for a, b in zip(off, on):
            assert a.duration_ns == b.duration_ns
            assert a.stats == b.stats

    def test_repeat_replays_skip_uploads_identically(self):
        """Upload skipping is driver state: both executors see it."""
        _m_ref, _r_ref, ref = run_arm("mali", "mnist", fast=False,
                                      obs_on=False)
        _m_fast, _r_fast, fast = run_arm("mali", "mnist", fast=True,
                                         obs_on=False)
        assert ref[0].stats.upload_skipped_bytes == 0
        assert ref[1].stats.upload_skipped_bytes > 0
        for a, b in zip(ref, fast):
            assert a.stats.upload_skipped_bytes == \
                b.stats.upload_skipped_bytes
            assert a.stats.upload_bytes == b.stats.upload_bytes


class TestOneLoopTwoWidths:
    """The executor's single loop at width 1 (``replay``) and with a
    batch overlay armed (``replay_mega``): superblocks move *when*
    register writes land, never what the chain does."""

    @pytest.mark.parametrize("family,model", FAMILY_MODELS)
    def test_fused_single_member_equals_replay_but_for_pacing(
            self, family, model):
        x = {"input": model_input(model, seed=10)}
        m_solo, r_solo = _loaded(family, model)
        solo_tape = m_solo.flight.start_capture()
        solo = r_solo.replay(inputs=x)
        m_mega, r_mega = _loaded(family, model)
        mega_tape = m_mega.flight.start_capture()
        mega = r_mega.replay_mega([x])

        assert mega.batch == 1 and mega.attempts == 1
        assert mega.superblocks > 0
        assert r_solo._executor.superblocks_run == 0
        for name, want in solo.outputs.items():
            assert np.asarray(mega.outputs[0][name]).tobytes() == \
                np.asarray(want).tobytes()
        # Counts and byte totals are the chain's; the pacing total and
        # the first-kick *timestamp* are what superblocks shorten.
        assert replace(mega.stats, pacing_wait_ns=0, first_kick_at_ns=0) \
            == replace(solo.stats, pacing_wait_ns=0, first_kick_at_ns=0)
        assert mega.stats.pacing_wait_ns <= solo.stats.pacing_wait_ns
        assert 0 <= mega.startup_ns <= solo.startup_ns
        assert mega.duration_ns <= solo.duration_ns

        def chain(tape):
            # Virtual timestamps are what superblock pacing is allowed
            # to move; kinds, action indices and payloads are not.
            return [(kind, index, detail)
                    for _seq, _t_ns, kind, index, detail in tape
                    if kind != "Pacing"]
        assert chain(mega_tape) == chain(solo_tape)

    def test_preempted_fused_pass_leaves_the_replayer_usable(self):
        machine, replayer = _loaded("mali", "mnist", obs_on=True)
        batch = [{"input": model_input("mnist", seed=20 + k)}
                 for k in range(3)]
        with pytest.raises(ReplayAborted):
            replayer.replay_mega(batch, should_yield=lambda: True)
        assert machine.gpu.mega_batch is None
        assert machine.obs.tracer.open_span_count() == 0
        result = replayer.replay(inputs=batch[1])
        want = run_reference(build_model("mnist"), batch[1]["input"])
        assert np.array_equal(result.output,
                              want.reshape(result.output.shape))

    @pytest.mark.parametrize("replayer_kwargs", [
        {"fast_path": False},
        {"checkpoint_policy": CheckpointPolicy(every_n_jobs=1)},
    ], ids=["reference-forced", "checkpointing"])
    def test_rejected_fused_call_keeps_last_inputs(self, replayer_kwargs):
        """``resume_after_preemption`` replays ``_last_inputs``; a fused
        call refused for want of a compiled executor must not change
        them."""
        _machine, replayer = _loaded("mali", "mnist", **replayer_kwargs)
        first = {"input": model_input("mnist", seed=30)}
        replayer.replay(inputs=first)
        before = replayer._last_inputs
        with pytest.raises(ReplayError, match="compiled fast path"):
            replayer.replay_mega([{"input": model_input("mnist", seed=31)}])
        assert replayer._last_inputs is before
        assert np.array_equal(before["input"], first["input"])
