"""Cross-cutting integration tests: the paper's Section 7.2 validation,
scaled to test-suite budgets."""

import numpy as np
import pytest

from repro.bench.workloads import (build_stack, fresh_replay_machine,
                                   get_recorded, model_input)
from repro.core.replayer import Replayer
from repro.stack.framework import build_model
from repro.stack.reference import run_reference


class TestReplayCorrectnessUnderInterference:
    """'We create random input, inject interference, and compare the
    GPU's outcome with the reference answers computed by CPU. The
    replayer always gives the correct results.'"""

    @pytest.mark.parametrize("run", range(8))
    def test_mnist_replay_always_correct(self, run,
                                         mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        machine = fresh_replay_machine("mali", seed=3000 + run)
        machine.interference.mem_contention = 1.0 + (run % 4) * 0.5
        machine.interference.thermal_throttle = 1.0 + (run % 3) * 0.25
        gpu = machine.require_gpu()
        gpu.clock_domain.set_rate(
            int(gpu.clock_hz * (0.5, 1.0, 1.5)[run % 3]))
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        x = model_input("mnist", seed=run)
        result = replayer.replay(inputs={"input": x})
        expected = run_reference(build_model("mnist"), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))

    def test_state_changing_logs_match_across_runs(self,
                                                   mali_mnist_recorded):
        """Only poll counts and delays differ across replays; the
        state-changing event sequence is identical (Section 3.2)."""
        workload, _ = mali_mnist_recorded
        from repro.soc.mmio import RegAttr

        def state_changing_log(seed):
            machine = fresh_replay_machine("mali", seed=seed)
            base = machine.board.gpu_mmio_base
            names = {base + d.offset: d.name
                     for d in machine.gpu.regs.defs()}
            volatile = {
                d.name for d in machine.gpu.regs.defs()
                if RegAttr.VOLATILE in d.attrs}

            # Page-table base registers carry *physical* addresses,
            # which legitimately differ per machine (relocation).
            machine_specific = {"AS0_TRANSTAB_LO", "AS0_TRANSTAB_HI",
                                "MMU_PT_PA_BASE"}

            replayer = Replayer(machine)
            replayer.init()
            tape = machine.flight.start_capture()
            replayer.load(workload.recording)
            replayer.replay(inputs={"input": model_input("mnist")})
            machine.flight.stop_capture()
            # Register traffic as the flight recorder saw it: a write's
            # stored value, a read's value, a poll's last read (its
            # count of reads is timing, not state).
            log = []
            for _seq, _t, kind, _index, detail in tape:
                if kind not in ("RegWrite", "RegRead", "RegPoll"):
                    continue
                name = names[detail[0]]
                if name in machine_specific:
                    continue
                if kind == "RegWrite":
                    log.append(("w", name, detail[1]))
                elif name not in volatile:
                    log.append(("r", name, detail[-1]))
            return log

        log_a = state_changing_log(11)
        log_b = state_changing_log(99)
        assert len(log_a) > 100
        assert log_a == log_b


class TestCrossFamilyParity:
    @pytest.mark.parametrize("family,model_name", [
        ("mali", "mnist"), ("v3d", "mnist")])
    def test_record_replay_roundtrip(self, family, model_name):
        workload, _stack = get_recorded(family, model_name)
        machine = fresh_replay_machine(family, seed=3100)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        x = model_input(model_name, seed=77)
        result = replayer.replay(inputs={"input": x})
        expected = run_reference(build_model(model_name), x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape))

    def test_same_recording_replays_identically_twice(
            self, v3d_mnist_recorded):
        workload, _ = v3d_mnist_recorded
        machine = fresh_replay_machine("v3d", seed=3200)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        x = model_input("mnist", seed=13)
        first = replayer.replay(inputs={"input": x})
        second = replayer.replay(inputs={"input": x})
        assert np.array_equal(first.output, second.output)


class TestStackVsReplayConsistency:
    def test_stack_and_replay_agree_on_every_input(
            self, mali_mnist_recorded):
        workload, stack = mali_mnist_recorded
        machine = fresh_replay_machine("mali", seed=3300)
        replayer = Replayer(machine)
        replayer.init()
        replayer.load(workload.recording)
        for seed in range(3):
            x = model_input("mnist", seed=seed)
            stack_out = stack.net.run(x)
            replay_out = replayer.replay(inputs={"input": x}).output
            assert np.array_equal(stack_out,
                                  replay_out.reshape(stack_out.shape))

    def test_gpu_memory_footprint_comparable(self, mali_mnist_recorded):
        """§7.3: the replayer maps what the stack mapped -- footprints
        are comparable (replay side may be smaller: scratch excluded)."""
        workload, stack = mali_mnist_recorded
        stack_bytes = stack.driver.ctx.total_mapped_bytes()
        replay_bytes = workload.recording.peak_gpu_pages() * 4096
        assert 0.3 * stack_bytes < replay_bytes <= 1.1 * stack_bytes
