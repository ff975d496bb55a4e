"""The flight recorder: always-on bounded chokepoint history."""

import numpy as np
import pytest

from repro.obs.chrome_trace import FLIGHT_FIELDS, event_to_dict
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


#: Replay action type -> the flight kinds its execution may record
#: itself. Any action may also carry its pacing decision and GPU
#: activity that fires while it runs.
OWN_KINDS = {
    "RegWrite": {"RegWrite", "JobKick"},
    "RegReadOnce": {"RegRead"},
    "RegReadWait": {"RegPoll"},
    "SetGpuPgtable": {"SetPgtable", "RegWrite"},
    "MapGpuMem": {"MemMap"},
    "UnmapGpuMem": {"MemUnmap"},
    "Upload": {"Upload"},
    "WaitIrq": {"WaitIrq"},
    "IrqEnter": {"WaitIrq", "IrqEnter"},
    "IrqExit": {"IrqExit"},
}
ANY_ACTION = {"Pacing", "GpuIrqRaise", "GpuJobStart", "GpuJobRetire"}


class TestActionAttribution:
    """Outside an action the flight index is -1: input deposit, output
    copy, recovery resets and cleanup are no action's events."""

    @staticmethod
    def _strays(recording, tape):
        """Events charged to an action that did not record them."""
        strays = []
        for event in tape:
            kind, index = event[2], event[3]
            if index < 0 or kind in ANY_ACTION:
                continue
            action = type(recording.actions[index]).__name__
            if kind not in OWN_KINDS[action] and kind != "Divergence":
                strays.append((index, action, kind))
        return strays

    @pytest.mark.parametrize("fast_path", [True, False],
                             ids=["compiled", "reference"])
    def test_replay_and_cleanup_events_stay_outside_actions(
            self, mali_mnist_recorded, fast_path):
        from repro.core.replay import boot_replayer, seeded_inputs

        recording = mali_mnist_recorded[0].recording
        machine, replayer = boot_replayer(recording, "hikey960", 52,
                                          fast_path=fast_path)
        tape = machine.flight.start_capture()
        replayer.replay(inputs=seeded_inputs(recording, 52))
        assert machine.flight.action_index == -1
        replayer.cleanup()
        assert self._strays(recording, tape) == []
        outside = {event[2] for event in tape if event[3] < 0}
        assert {"CopyToGpu", "CopyFromGpu", "Reset"} <= outside
        assert {event[3] for event in tape if event[3] >= 0} == \
            set(range(len(recording.actions)))

    @pytest.mark.parametrize("fast_path", [True, False],
                             ids=["compiled", "reference"])
    def test_recovery_resets_are_no_actions_events(
            self, mali_mnist_recorded, fast_path):
        from repro.core.replay import boot_replayer, seeded_inputs
        from repro.errors import ReplayError
        from repro.obs.doctor import flip_dump_byte

        corrupted, _dump, _offset = flip_dump_byte(
            mali_mnist_recorded[0].recording)
        machine, replayer = boot_replayer(corrupted, "hikey960", 2026,
                                          fast_path=fast_path)
        tape = machine.flight.start_capture()
        with pytest.raises(ReplayError) as info:
            replayer.replay(inputs=seeded_inputs(corrupted, 2026),
                            max_attempts=3)
        assert machine.flight.action_index == -1
        assert self._strays(corrupted, tape) == []
        failed = info.value.action_index
        marks = [event for event in tape if event[2] == "Divergence"]
        assert len(marks) == 3
        assert {event[3] for event in marks} == {failed}
        resets = [event for event in tape if event[2] == "Reset"]
        assert len(resets) == 2
        assert {event[3] for event in resets} == {-1}
