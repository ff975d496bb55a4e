"""The flight recorder: always-on bounded chokepoint history."""

import numpy as np
import pytest

from repro.obs.doctor import FLIGHT_FIELDS, event_to_dict
from repro.soc.flight import DEFAULT_RING_SIZE, FlightEvent, FlightRecorder
from repro.soc.machine import Machine


class TestRing:
    def test_bounded(self):
        flight = FlightRecorder(capacity=8)
        for i in range(100):
            flight.record(i, "RegRead", (0x10, i))
        assert len(flight) == 8
        assert flight.seq == 100
        assert flight.dropped == 92
        # Oldest-first window holds only the tail.
        window = flight.window()
        assert [e.t_ns for e in window] == list(range(92, 100))

    def test_window_last_n(self):
        flight = FlightRecorder(capacity=8)
        for i in range(5):
            flight.record(i, "Pacing", (i,))
        window = flight.window(last=2)
        assert len(window) == 2
        assert window[0].t_ns == 3
        assert isinstance(window[0], FlightEvent)

    def test_action_index_attribution(self):
        flight = FlightRecorder()
        flight.action_index = 7
        flight.record(0, "JobKick", (0,))
        assert flight.window()[0].action_index == 7

    def test_clear(self):
        flight = FlightRecorder()
        flight.record(0, "Reset", ("init",))
        flight.action_index = 3
        flight.clear()
        assert len(flight) == 0
        assert flight.seq == 0
        assert flight.action_index == -1

    def test_snapshot_gauges(self):
        flight = FlightRecorder(capacity=4)
        for i in range(6):
            flight.record(i, "RegWrite", (1, 2, 3))
        assert flight.snapshot() == {
            "flight.events": 6,
            "flight.dropped": 2,
            "flight.ring_size": 4,
        }


class TestCapture:
    def test_tape_outlives_ring(self):
        flight = FlightRecorder(capacity=4)
        tape = flight.start_capture()
        for i in range(10):
            flight.record(i, "RegRead", (0, i))
        assert len(flight) == 4
        assert len(tape) == 10
        stopped = flight.stop_capture()
        assert stopped is tape
        flight.record(99, "RegRead", (0, 99))
        assert len(tape) == 10  # detached


class TestEventDict:
    def test_known_kind_expands_fields(self):
        flight = FlightRecorder()
        flight.action_index = 2
        flight.record(123, "RegPoll", (0x40, 0xFF, 1, 6, True, 1))
        entry = event_to_dict(flight.ring[0])
        assert entry == {
            "seq": 0, "t_ns": 123, "kind": "RegPoll",
            "action_index": 2, "addr": 0x40, "mask": 0xFF,
            "want": 1, "polls": 6, "ok": True, "last": 1,
        }

    def test_unknown_kind_keeps_raw_detail(self):
        entry = event_to_dict((0, 1, "Mystery", -1, (9, 8)))
        assert entry["detail"] == [9, 8]

    def test_field_table_matches_recorded_arity(self):
        # Any kind we record must have a names tuple; empty is fine.
        for kind, fields in FLIGHT_FIELDS.items():
            assert isinstance(kind, str)
            assert all(isinstance(f, str) for f in fields)


class TestMachineIntegration:
    def test_every_machine_has_a_flight_recorder(self):
        machine = Machine.create("hikey960", seed=1)
        assert machine.flight.ring_size == DEFAULT_RING_SIZE
        assert len(machine.flight) == 0

    def test_replay_populates_the_ring(self, mali_mnist_recorded):
        from repro.core.replay import (boot_replayer as _build_replayer,
                                       seeded_inputs as _inputs_for)

        workload, _ = mali_mnist_recorded
        recording = workload.recording
        machine, replayer = _build_replayer(recording, "hikey960", 31,
                                            fast_path=True)
        replayer.replay(inputs=_inputs_for(recording, 31))
        assert machine.flight.seq > 0
        kinds = {e.kind for e in machine.flight.window()}
        # The chokepoints of one successful replay's tail.
        assert kinds & {"RegWrite", "RegRead", "RegPoll"}
        assert "CopyFromGpu" in kinds  # output extraction is last
        replayer.cleanup()

    def test_recording_never_advances_the_clock(self):
        machine = Machine.create("hikey960", seed=1)
        before = machine.clock.now()
        for i in range(1000):
            machine.flight.record(machine.clock.now(), "RegRead", (0, i))
        assert machine.clock.now() == before


class TestDifferentialTapes:
    """The lockstep doctor's load-bearing invariant: same recording,
    same seed => the fast path and the reference interpreter record
    byte-identical flight tapes (modulo the global sequence number)."""

    @pytest.mark.parametrize("family,board", [
        ("mali", "hikey960"), ("v3d", "raspberrypi4")])
    def test_fast_and_reference_tapes_identical(self, family, board):
        from repro.bench.workloads import get_recorded
        from repro.core.replay import (boot_replayer as _build_replayer,
                                       seeded_inputs as _inputs_for)

        workload, _ = get_recorded(family, "mnist")
        recording = workload.recording
        tapes = []
        for fast in (True, False):
            machine, replayer = _build_replayer(recording, board, 444,
                                                fast_path=fast)
            tape = machine.flight.start_capture()
            replayer.replay(inputs=_inputs_for(recording, 444))
            machine.flight.stop_capture()
            replayer.cleanup()
            tapes.append(tape)
        fast_tape, ref_tape = tapes
        assert len(fast_tape) == len(ref_tape)
        for fast_event, ref_event in zip(fast_tape, ref_tape):
            # Everything but the global seq must match: time, kind,
            # action attribution, and the full detail payload.
            assert fast_event[1:] == ref_event[1:]
