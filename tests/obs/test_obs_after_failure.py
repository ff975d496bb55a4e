"""Observability hygiene when a replay fails.

A divergence must not leave the telemetry in a lying state: no span
may stay open (the job span, the replay span), counters stay monotone,
and the flight ring stays bounded -- otherwise the forensics the
doctor builds from them would be wrong exactly when they matter.
"""

import pytest

from repro.errors import ReplayAborted, ReplayError
from repro.gpu.faults import FaultInjector
from repro.obs import enable_observability
from repro.core.replay import boot_replayer as _build_replayer
from repro.core.replay import seeded_inputs as _inputs_for
from repro.obs.doctor import flip_dump_byte


def _counters(machine):
    return dict(machine.obs.snapshot()["counters"])


def _assert_monotone(before, after):
    for name, value in before.items():
        assert after.get(name, 0) >= value, \
            f"counter {name} went backwards: {value} -> {after.get(name)}"


@pytest.fixture
def failing_replay(mali_mnist_recorded):
    """(machine, replayer, corrupted recording) with obs enabled."""
    workload, _ = mali_mnist_recorded
    corrupted, _, _ = flip_dump_byte(workload.recording)
    machine, replayer = _build_replayer(corrupted, "hikey960", 17,
                                        fast_path=True)
    enable_observability(machine)
    return machine, replayer, corrupted


class TestCorruptedRecordingFailure:
    def test_no_leaked_spans_and_divergence_counted(self, failing_replay):
        machine, replayer, corrupted = failing_replay
        with pytest.raises(ReplayError):
            replayer.replay(inputs=_inputs_for(corrupted, 17))
        assert machine.obs.tracer.open_span_count() == 0
        counters = _counters(machine)
        assert counters["replay.divergence.detected"] >= 1
        assert counters["replay.divergence.unrecovered"] == 1
        gauges = machine.obs.snapshot()["gauges"]
        assert gauges["replay.divergence.last_index"] >= 0
        assert gauges["flight.events"] > 0
        assert gauges["flight.ring_size"] == machine.flight.ring_size

    def test_counters_monotone_across_retries(self, failing_replay):
        machine, replayer, corrupted = failing_replay
        before = _counters(machine)
        with pytest.raises(ReplayError):
            replayer.replay(inputs=_inputs_for(corrupted, 17))
        middle = _counters(machine)
        _assert_monotone(before, middle)
        # A second failing replay only ever moves counters forward.
        with pytest.raises(ReplayError):
            replayer.replay(inputs=_inputs_for(corrupted, 17))
        _assert_monotone(middle, _counters(machine))

    def test_flight_ring_stays_bounded(self, failing_replay):
        machine, replayer, corrupted = failing_replay
        with pytest.raises(ReplayError):
            replayer.replay(inputs=_inputs_for(corrupted, 17))
        flight = machine.flight
        assert len(flight) <= flight.ring_size
        assert flight.dropped == flight.seq - len(flight)
        assert any(e.kind == "Divergence" for e in flight.window())

    def test_exported_trace_still_validates(self, failing_replay):
        from repro.obs import validate_chrome_trace

        machine, replayer, corrupted = failing_replay
        with pytest.raises(ReplayError):
            replayer.replay(inputs=_inputs_for(corrupted, 17))
        machine.obs.tracer.finalize()
        assert validate_chrome_trace(machine.obs.to_chrome_trace()) == []


class TestInjectedHardwareFault:
    def test_offline_cores_recovery_keeps_obs_clean(self,
                                                    mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        recording = workload.recording
        machine, replayer = _build_replayer(recording, "hikey960", 23,
                                            fast_path=True)
        enable_observability(machine)
        injector = FaultInjector(machine.require_gpu())
        gpu = machine.require_gpu()
        injector.offline_cores((1 << gpu.core_count) - 1)

        # Attempt 1 fails on the dead cores; once the divergence is
        # counted, bring them back so the §5.4 retry can succeed.
        def restore_after_failure():
            detected = machine.obs.counter(
                "replay.divergence.detected").value
            if detected >= 1:
                injector.restore_cores()
            return False

        try:
            result = replayer.replay(
                inputs=_inputs_for(recording, 23),
                should_yield=restore_after_failure)
            assert result.attempts >= 2
        except ReplayError:
            pass  # Recovery is not guaranteed; hygiene below is.
        assert machine.obs.tracer.open_span_count() == 0
        counters = _counters(machine)
        assert counters["replay.divergence.detected"] >= 1
        assert len(machine.flight) <= machine.flight.ring_size

    def test_aborted_replay_closes_spans(self, mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        recording = workload.recording
        machine, replayer = _build_replayer(recording, "hikey960", 29,
                                            fast_path=True)
        enable_observability(machine)
        with pytest.raises(ReplayAborted):
            replayer.replay(inputs=_inputs_for(recording, 29),
                            should_yield=lambda: True)
        assert machine.obs.tracer.open_span_count() == 0
        # Aborts also publish the flight gauges on the way out.
        assert machine.obs.snapshot()["gauges"]["flight.events"] >= 0
