"""Observability end to end: timelines, replay metrics, determinism,
and the cross-family driver chokepoint contract."""

import json

import numpy as np
import pytest

from repro.bench.workloads import (build_stack, fresh_replay_machine,
                                   model_input, vecadd_ir)
from repro.core.harness import record_inference, record_kernel_workload
from repro.core.replayer import Replayer
from repro.obs import enable_observability, validate_chrome_trace
from repro.soc.machine import Machine
from repro.stack.driver import AdrenoDriver, MaliDriver, V3dDriver, trace
from repro.stack.framework import AclNetwork, NcnnNetwork, build_model
from repro.stack.runtime import OpenClRuntime, VulkanRuntime
from repro.tools import grr


@pytest.fixture(scope="module")
def recording_path(mali_mnist_recorded, tmp_path_factory):
    workload, _stack = mali_mnist_recorded
    path = tmp_path_factory.mktemp("obs") / "mnist.grr"
    workload.recording.save(str(path))
    return str(path)


def _replay_with_obs(workload, seed):
    """A fresh replay machine with obs enabled before stack bring-up."""
    machine = fresh_replay_machine("mali", seed=seed)
    enable_observability(machine)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(workload.recording)
    result = replayer.replay(inputs={"input": model_input("mnist", seed=7)})
    return machine, result


class TestGrrTrace:
    def test_timeline_is_valid_chrome_trace(self, recording_path, tmp_path):
        out = str(tmp_path / "timeline.json")
        assert grr.main(["trace", recording_path, "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            timeline = json.load(handle)
        assert validate_chrome_trace(timeline) == []
        events = timeline["traceEvents"]
        phases = {event["ph"] for event in events}
        assert {"M", "B", "E", "X"} <= phases
        # One track per simulated process: replay streams + the GPU.
        processes = {event["args"]["name"] for event in events
                     if event["ph"] == "M"
                     and event["name"] == "process_name"}
        assert "replay" in processes
        assert any(name.startswith("gpu:") for name in processes)

    def test_replay_rows_are_the_flight_view(self, mali_mnist_recorded,
                                             recording_path, tmp_path):
        """One slice per executed action, job kick and GPU job, all
        drawn from the flight tape; the span tracer keeps the session,
        nano and busy spans."""
        out = str(tmp_path / "timeline.json")
        assert grr.main(["trace", recording_path, "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        names = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        procs = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        rows = {}
        for event in events:
            if event["ph"] in ("X", "B"):
                row = (procs[event["pid"]],
                       names[event["pid"], event["tid"]], event["ph"])
                rows[row] = rows.get(row, 0) + 1
        recording = mali_mnist_recorded[0].recording
        kicks = sum(1 for action in recording.actions
                    if getattr(action, "is_job_kick", False))
        assert rows.pop(("replay", "actions", "X")) == \
            len(recording.actions)
        assert rows.pop(("replay", "jobs", "X")) == kicks
        assert rows.pop(("gpu:mali-g71", "slot0", "X")) == kicks
        assert set(rows) == {("replay", "session", "B"),
                             ("replay", "nano", "B"),
                             ("gpu:mali-g71", "busy", "B")}

    def test_stats_subcommand(self, recording_path, capsys):
        assert grr.main(["stats", recording_path, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["replay.actions"] > 0


class TestReplayMetrics:
    def test_acceptance_counters_nonzero(self, mali_mnist_recorded):
        workload, _stack = mali_mnist_recorded
        machine, _result = _replay_with_obs(workload, seed=2101)
        snapshot = machine.obs.snapshot()
        counters = snapshot["counters"]
        for name in ("replay.reg_writes", "replay.irq_waits",
                     "replay.upload_bytes", "replay.actions",
                     "replay.uploads", "replay.attempts", "nano.irqs"):
            assert counters.get(name, 0) > 0, (name, counters)
        irq_hist = snapshot["histograms"]["replay.irq_wait_ns"]
        assert irq_hist["count"] == counters["replay.irq_waits"]
        assert sum(irq_hist["bucket_counts"]) == irq_hist["count"]

    def test_per_chokepoint_counters_count_the_recording(
            self, mali_mnist_recorded):
        """Published from the flight tape once per pass, the counters
        still count what the replay did: each action of a kind once,
        every interrupt the GPU raised and every IRQ wait."""
        from collections import Counter
        workload, _stack = mali_mnist_recorded
        machine, result = _replay_with_obs(workload, seed=2103)
        counters = machine.obs.snapshot()["counters"]
        kinds = Counter(type(a).__name__ for a in workload.recording.actions)
        assert counters["replay.actions"] == sum(kinds.values())
        assert counters["replay.reg_writes"] == kinds["RegWrite"]
        assert counters["replay.reg_reads"] == kinds["RegReadOnce"]
        assert counters["replay.reg_polls"] == kinds["RegReadWait"]
        assert counters["replay.uploads"] == kinds["Upload"]
        assert counters["replay.upload_bytes"] == result.stats.upload_bytes
        assert counters["replay.pacing_wait_ns"] == \
            result.stats.pacing_wait_ns
        assert counters["nano.irqs"] == result.stats.jobs_kicked
        waits = [e for e in machine.obs.tape
                 if e[2] == "WaitIrq" and e[3] >= 0]
        assert counters["replay.irq_waits"] == len(waits)
        assert machine.obs.snapshot()["histograms"]["replay.irq_wait_ns"][
            "sum"] == result.stats.irq_wait_ns

    def test_replay_timeline_validates(self, mali_mnist_recorded):
        workload, _stack = mali_mnist_recorded
        machine, _result = _replay_with_obs(workload, seed=2102)
        assert validate_chrome_trace(machine.obs.to_chrome_trace()) == []


class TestDeterminism:
    """Enabling obs must change virtual-time results by exactly zero."""

    def test_replay_side(self, mali_mnist_recorded):
        workload, _stack = mali_mnist_recorded

        def run(with_obs):
            machine = fresh_replay_machine("mali", seed=314)
            if with_obs:
                enable_observability(machine)
            replayer = Replayer(machine)
            replayer.init()
            replayer.load(workload.recording)
            result = replayer.replay(
                inputs={"input": model_input("mnist", seed=7)})
            return machine, result

        machine_off, result_off = run(with_obs=False)
        machine_on, result_on = run(with_obs=True)
        assert result_on.duration_ns == result_off.duration_ns
        assert machine_on.clock.now() == machine_off.clock.now()
        assert np.array_equal(result_on.output, result_off.output)

    def test_record_side(self):
        def run(with_obs):
            machine = Machine.create("hikey960", seed=77)
            if with_obs:
                enable_observability(machine)
            driver = MaliDriver(machine)
            runtime = OpenClRuntime(driver)
            runtime.init_context()
            workload = record_kernel_workload(
                runtime, vecadd_ir(256), "vecadd")
            return machine, workload

        machine_off, workload_off = run(with_obs=False)
        machine_on, workload_on = run(with_obs=True)
        assert machine_on.clock.now() == machine_off.clock.now()
        assert (workload_on.recording.to_bytes()
                == workload_off.recording.to_bytes())


class TestChokepointContract:
    """Every driver family reports the same chokepoint event classes,
    so the recorder (and obs) stay family-agnostic."""

    @staticmethod
    def _stack_with_probe(family):
        """A probe attached right after driver construction, so it sees
        the memory maps done during network configure too."""
        from repro.bench.workloads import board_for_family
        machine = Machine.create(board_for_family(family), seed=5)
        probe = trace.ListTracer()
        if family == "mali":
            driver = MaliDriver(machine)
            runtime, net_cls = OpenClRuntime(driver), AclNetwork
        elif family == "adreno":
            driver = AdrenoDriver(machine)
            runtime, net_cls = OpenClRuntime(driver), AclNetwork
        else:
            driver = V3dDriver(machine)
            runtime, net_cls = VulkanRuntime(driver), NcnnNetwork
        driver.attach_tracer(probe)
        net = net_cls(runtime, build_model("mnist"), fuse=False)
        net.configure()
        return net, probe

    @pytest.mark.parametrize("family", ("mali", "v3d", "adreno"))
    def test_families_emit_same_event_classes(self, family):
        net, probe = self._stack_with_probe(family)
        warm = np.zeros(net.model.input_shape, np.float32)
        net.run(warm)
        record_inference(net)  # recorder + probe share the mux

        assert probe.of_type(trace.RegWriteEvent)
        assert probe.of_type(trace.RegPollEvent)
        assert probe.of_type(trace.JobKickEvent)
        mmaps = probe.of_type(trace.MemMapEvent)
        assert mmaps and any(event.flags for event in mmaps)
        irq_phases = {event.phase
                      for event in probe.of_type(trace.IrqEvent)}
        assert {"enter", "exit"} <= irq_phases
