"""The replay doctor: divergence localization and report schema."""

import json

import pytest

from repro.core.replay import boot_replayer as _build_replayer
from repro.core.replay import seeded_inputs as _inputs_for
from repro.errors import ObsError, ReplayError
from repro.obs.doctor import (SCHEMA_VERSION, DivergenceReport,
                              environment_fingerprint, first_kick_chain_va,
                              flip_dump_byte, lockstep_compare,
                              patch_reg_read, run_doctor)


def _ground_truth_index(recording, board, seed):
    """Action index of the first failure under the reference
    interpreter with retries disabled."""
    machine, replayer = _build_replayer(recording, board, seed,
                                        fast_path=False)
    try:
        replayer.replay(inputs=_inputs_for(recording, seed),
                        max_attempts=1)
    except ReplayError as error:
        return error.action_index
    finally:
        try:
            replayer.cleanup()
        except ReplayError:
            pass
    pytest.fail("corrupted recording replayed without error")


CASES = [("mali", "hikey960", "mali_mnist_recorded"),
         ("v3d", "raspberrypi4", "v3d_mnist_recorded")]


@pytest.fixture(params=CASES, ids=[c[0] for c in CASES])
def family_case(request):
    workload, _ = request.getfixturevalue(request.param[2])
    return request.param[0], request.param[1], workload.recording


class TestLocalization:
    def test_healthy_recording_no_report(self, family_case):
        _family, board, recording = family_case
        assert run_doctor(recording, board, seed=91) is None

    def test_flipped_dump_byte_localized_exactly(self, family_case):
        _family, board, recording = family_case
        corrupted, dump_index, offset = flip_dump_byte(recording)
        assert corrupted.dumps[dump_index].data != \
            recording.dumps[dump_index].data
        truth = _ground_truth_index(corrupted, board, 91)
        report = run_doctor(corrupted, board, seed=91)
        assert report is not None
        assert report.kind == "replay-error"
        assert report.action_index == truth
        assert report.action != ""
        assert report.event_index >= 0
        assert report.flight_window

    def test_patched_register_value_localized_exactly(self, family_case):
        _family, board, recording = family_case
        patched, index = patch_reg_read(recording, after_index=1)
        report = run_doctor(patched, board, seed=91)
        assert report is not None
        assert report.action_index == index
        assert report.action == "RegReadOnce"
        # The expectation names the action's recorded fields.
        assert report.expected["type"] == "RegReadOnce"

    def test_report_carries_environment_fingerprint(self, family_case):
        _family, board, recording = family_case
        corrupted, _, _ = flip_dump_byte(recording)
        report = run_doctor(corrupted, board, seed=91)
        env = report.environment
        assert env["board"] == board
        assert env["seed"] == 91
        assert env["clock_hz"] > 0
        assert "pte_format" in env and "coherent_tlb" in env
        assert report.recording["digest"] == corrupted.digest()

    def test_chain_va_resolution(self, family_case):
        _family, _board, recording = family_case
        chain_va = first_kick_chain_va(recording)
        assert chain_va != 0
        assert any(d.va <= chain_va < d.end_va()
                   for d in recording.dumps)


class TestVsReference:
    def test_same_seed_agrees(self, mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        assert lockstep_compare(workload.recording, "hikey960",
                                seed=91) is None

    def test_wrong_seed_localizes_first_divergence(self,
                                                   mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        report = lockstep_compare(workload.recording, "hikey960",
                                  seed=91, ref_seed=92)
        assert report is not None
        assert report.kind == "fast-vs-reference"
        assert report.event_index >= 0
        assert report.expected != report.observed

    def test_run_doctor_vs_reference_entry_point(self,
                                                 mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        report = run_doctor(workload.recording, "hikey960", seed=91,
                            vs_reference=True, ref_seed=123)
        assert report is not None
        assert report.kind == "fast-vs-reference"


class TestReportSchema:
    def _sample(self, mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        corrupted, _, _ = flip_dump_byte(workload.recording)
        return run_doctor(corrupted, "hikey960", seed=91)

    def test_json_round_trip(self, mali_mnist_recorded):
        report = self._sample(mali_mnist_recorded)
        restored = DivergenceReport.from_json(report.to_json())
        assert restored == report

    def test_save_and_load(self, mali_mnist_recorded, tmp_path):
        report = self._sample(mali_mnist_recorded)
        path = str(tmp_path / "report.json")
        report.save(path)
        assert DivergenceReport.load(path) == report
        # And the file is plain JSON a non-Python consumer can read.
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["action_index"] == report.action_index

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(ObsError):
            DivergenceReport.from_json(
                json.dumps({"schema_version": SCHEMA_VERSION + 1}))
        with pytest.raises(ObsError):
            DivergenceReport.from_json("{}")
        with pytest.raises(ObsError):
            DivergenceReport.from_json("[1, 2]")

    def test_render_names_the_divergence(self, mali_mnist_recorded):
        report = self._sample(mali_mnist_recorded)
        text = report.render()
        assert f"action #{report.action_index}" in text
        assert f"event: #{report.event_index}" in text
        assert "environment:" in text

    def test_flight_chrome_trace_is_valid(self, mali_mnist_recorded):
        from repro.obs import validate_chrome_trace

        report = self._sample(mali_mnist_recorded)
        trace = report.flight_chrome_trace()
        assert validate_chrome_trace(trace) == []
        names = [e["name"] for e in trace["traceEvents"]]
        assert any(n.startswith("DIVERGENCE:") for n in names)


class TestCorruptionHelpers:
    def test_flip_does_not_mutate_original(self, mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        recording = workload.recording
        before = recording.digest()
        corrupted, _, _ = flip_dump_byte(recording)
        assert recording.digest() == before
        assert corrupted.digest() != before

    def test_patch_requires_a_checked_read(self, mali_mnist_recorded):
        workload, _ = mali_mnist_recorded
        with pytest.raises(ObsError):
            patch_reg_read(workload.recording,
                           after_index=10 ** 9)

    def test_fingerprint_stands_alone(self):
        from repro.soc.machine import Machine

        machine = Machine.create("odroid-n2", seed=5)
        env = environment_fingerprint(machine)
        assert env["board"] == "odroid-n2"
        assert env["gpu_model"] == "mali-g52"
        assert env["flight_ring_size"] == machine.flight.ring_size
