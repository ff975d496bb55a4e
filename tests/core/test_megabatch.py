"""Mega-batch replay: superblock compilation and the fused differential.

Two contracts: (1) ``compile_superblocks`` only fuses what the pacing
rule can reproduce -- maximal register-write runs that never straddle
the input-deposit barrier; (2) ``Replayer.replay_mega`` answers every
member bitwise identically to N solo replays, on every GPU family,
with the machine's post-replay state equal to a solo head replay.
"""

import numpy as np
import pytest

from repro.bench.workloads import (fresh_replay_machine, get_recorded,
                                   model_input)
from repro.core.compiled import _REG_WRITE, compile_program
from repro.core.mega import Superblock, compile_superblocks
from repro.core.replayer import Replayer, clear_load_cache
from repro.errors import MegaBatchDivergence, ReplayError
from repro.obs import enable_observability

FAMILY_MODELS = [("mali", "mnist"), ("v3d", "mnist"), ("adreno", "mnist"),
                 ("mali", "dense-serve")]


def _loaded_replayer(family, model, seed=5, obs=False):
    workload, _stack = get_recorded(family, model)
    machine = fresh_replay_machine(family, seed=seed)
    if obs:
        enable_observability(machine)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(workload.recording)
    return workload, replayer


def _compiled(family, model):
    workload, replayer = _loaded_replayer(family, model)
    return workload, replayer, compile_program(workload.recording,
                                               replayer.nano)


class TestSuperblockCompilation:
    @pytest.mark.parametrize("family,model", FAMILY_MODELS)
    def test_blocks_are_maximal_reg_write_runs(self, family, model):
        clear_load_cache()
        _workload, _replayer, program = _compiled(family, model)
        blocks = compile_superblocks(program)
        kinds = [spec[0] for spec in program.specs]
        barrier = program.recording.meta.prologue_len - 1
        covered = set()
        for start, block in blocks.items():
            assert block.start == start
            assert block.length >= 2
            for i in range(block.start, block.end):
                assert kinds[i] == _REG_WRITE
                assert i != barrier, "deposit barrier fused into a block"
                covered.add(i)
            # maximality: the run cannot extend either way
            if block.start > 0 and block.start - 1 != barrier:
                assert kinds[block.start - 1] != _REG_WRITE
            if block.end < len(kinds) and block.end != barrier:
                assert kinds[block.end] != _REG_WRITE
            # pacing: exactly the recorded inter-action intervals
            assert block.pacing_ns == sum(
                program.intervals[block.start:block.end])
        # completeness: every reg-write in a >=2 run (barrier aside)
        # is inside some block
        for i, kind in enumerate(kinds):
            if kind != _REG_WRITE or i == barrier or i in covered:
                continue
            prev_run = (i > 0 and kinds[i - 1] == _REG_WRITE
                        and i - 1 != barrier and i - 1 in covered)
            next_run = (i + 1 < len(kinds) and kinds[i + 1] == _REG_WRITE
                        and i + 1 != barrier)
            assert not (prev_run or next_run), f"uncovered run member {i}"

    def test_superblocks_are_lazy_and_cached(self):
        clear_load_cache()
        _workload, _replayer, program = _compiled("mali", "mnist")
        assert program._superblocks is None
        first = program.superblocks()
        assert program.superblocks() is first
        assert first == compile_superblocks(program)

    def test_superblock_is_frozen(self):
        block = Superblock(3, 7, 1200)
        assert block.length == 4
        with pytest.raises(AttributeError):
            block.start = 0


class TestMegaReplayDifferential:
    @pytest.mark.parametrize("family,model", FAMILY_MODELS)
    def test_members_bitwise_equal_solo_replays(self, family, model):
        clear_load_cache()
        workload, replayer = _loaded_replayer(family, model)
        n = 4
        batch = [{"input": model_input(model, seed=60 + k)}
                 for k in range(n)]

        solo = []
        for inputs in batch:
            result = replayer.replay(inputs=inputs)
            solo.append({name: np.asarray(value).copy()
                         for name, value in result.outputs.items()})

        mega = replayer.replay_mega(batch)
        assert mega.batch == n
        assert len(mega.outputs) == n
        for k in range(n):
            assert set(mega.outputs[k]) == set(solo[k])
            for name, want in solo[k].items():
                got = np.asarray(mega.outputs[k][name])
                assert got.tobytes() == want.tobytes(), (
                    f"member {k} output {name} diverged")

        # machine state after the fused pass == a solo head replay's
        head = replayer.replay(inputs=batch[0])
        for name, value in head.outputs.items():
            assert np.asarray(value).tobytes() == \
                solo[0][name].tobytes()

    def test_superblocks_actually_fire(self):
        clear_load_cache()
        workload, replayer = _loaded_replayer("mali", "mnist", obs=True)
        batch = [{"input": model_input("mnist", seed=70 + k)}
                 for k in range(3)]
        mega = replayer.replay_mega(batch)
        assert mega.superblocks > 0
        counters = replayer.machine.obs.snapshot()["counters"]
        assert counters.get("replay.superblocks", 0) >= mega.superblocks

    def test_single_member_batch_matches_plain_replay(self):
        clear_load_cache()
        workload, replayer = _loaded_replayer("mali", "mnist")
        inputs = {"input": model_input("mnist", seed=80)}
        solo = replayer.replay(inputs=inputs)
        mega = replayer.replay_mega([inputs])
        for name, value in solo.outputs.items():
            assert np.asarray(mega.outputs[0][name]).tobytes() == \
                np.asarray(value).tobytes()


class TestMegaReplayGuards:
    def test_mismatched_input_sets_diverge(self):
        clear_load_cache()
        workload, replayer = _loaded_replayer("mali", "mnist", obs=True)
        good = {"input": model_input("mnist", seed=1)}
        with pytest.raises(MegaBatchDivergence):
            replayer.replay_mega([good, {"wrong_name": good["input"]}])
        counters = replayer.machine.obs.snapshot()["counters"]
        assert counters.get("replay.mega.diverged", 0) >= 1
        # the machine recovers: a plain replay still answers
        assert replayer.replay(inputs=good).outputs

    def test_requires_the_fast_path(self):
        clear_load_cache()
        workload, replayer = _loaded_replayer("mali", "mnist")
        replayer.fast_path = False
        with pytest.raises(ReplayError):
            replayer.replay_mega([{"input": model_input("mnist", seed=1)}])

    def test_empty_batch_rejected(self):
        clear_load_cache()
        workload, replayer = _loaded_replayer("mali", "mnist")
        with pytest.raises(ReplayError):
            replayer.replay_mega([])
