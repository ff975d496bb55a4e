"""Determinism contracts of the deep-observability layer.

Two families of invariants:

- *byte identity*: same-seed serve runs export byte-identical folded
  profiles and time-series JSONL;
- *zero interference*: toggling observability (trace + counters +
  time series) or mega-batching changes no replayed output and no
  virtual-time result.
"""

import numpy as np
import pytest

from repro.obs.prof import (folded_stacks, request_total_ns,
                            to_folded_text, total_ns, validate_folded)
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, generate_requests)

MIX = (("mali", "mnist"), ("mali", "kws"))


def _serve(seed=9, requests=24, **config):
    stream = generate_requests(LoadgenConfig(
        requests=requests, seed=seed, mix=MIX, fault_rate=0.0))
    store = RecordingStore.from_zoo(MIX)
    server = ReplayServer(store, ServerConfig(
        families=("mali", "mali"), seed=seed, max_batch=4,
        queue_depth=requests, **config))
    report = server.serve(stream)
    server.close()
    return report


@pytest.fixture(scope="module")
def traced_report():
    return _serve(mega_batch=True)


class TestByteIdentity:
    def test_same_seed_folded_profiles_identical(self, traced_report):
        again = _serve(mega_batch=True)
        text_a = to_folded_text(folded_stacks(
            traced_report.trace_events))
        text_b = to_folded_text(folded_stacks(again.trace_events))
        assert text_a
        assert validate_folded(text_a) == []
        assert text_a == text_b

    def test_same_seed_timeseries_jsonl_identical(self,
                                                  traced_report):
        again = _serve(mega_batch=True)
        jsonl_a = traced_report.timeseries.to_jsonl()
        jsonl_b = again.timeseries.to_jsonl()
        assert jsonl_a
        assert jsonl_a == jsonl_b

    def test_same_seed_counter_tapes_identical(self, traced_report):
        again = _serve(mega_batch=True)
        assert traced_report.gpu_counters == again.gpu_counters
        assert traced_report.gpu_counters["totals"]["kernels"] > 0


class TestProfileConservation:
    def test_exclusive_times_sum_to_end_to_end(self, traced_report):
        stacks = folded_stacks(traced_report.trace_events)
        assert stacks
        assert total_ns(stacks) == \
            request_total_ns(traced_report.trace_events)

    def test_kernel_frames_present(self, traced_report):
        stacks = folded_stacks(traced_report.trace_events)
        kernel_frames = [s for s in stacks if ";exec;kernel:" in s]
        assert kernel_frames, sorted(stacks)


class TestZeroInterference:
    def test_obs_off_changes_no_result(self, traced_report):
        dark = _serve(mega_batch=True, trace=False, timeseries=False,
                      gpu_counters=False)
        assert dark.summary() == traced_report.summary()
        assert dark.trace_events == []
        assert dark.timeseries is None
        assert not any(dark.gpu_counters["totals"].values()), \
            dark.gpu_counters["totals"]
        by_rid = {r.rid: r for r in traced_report.responses}
        for response in dark.responses:
            twin = by_rid[response.rid]
            assert response.status == twin.status
            assert set(response.outputs) == set(twin.outputs)
            for name, value in response.outputs.items():
                assert np.array_equal(value, twin.outputs[name])

    def test_mega_toggle_preserves_outputs(self, traced_report):
        plain = _serve(mega_batch=False)
        by_rid = {r.rid: r for r in traced_report.responses}
        assert plain.gpu_counters["totals"]["mega_fanout"] == 0
        assert traced_report.gpu_counters["totals"]["mega_fanout"] > 0
        for response in plain.responses:
            twin = by_rid[response.rid]
            assert set(response.outputs) == set(twin.outputs)
            for name, value in response.outputs.items():
                assert np.allclose(value, twin.outputs[name],
                                   rtol=1e-5, atol=1e-6)


class TestFleetZeroInterference:
    """The same read-only contract, one level up: fleet-wide obs
    toggles change no fleet output (the full-size fleet determinism
    suite lives in tests/fleet/test_determinism.py)."""

    def _fleet(self, **overrides):
        from repro.fleet import Fleet, FleetConfig
        stream = generate_requests(LoadgenConfig(
            requests=24, seed=9, mix=MIX, fault_rate=0.1,
            deadline_ns=0))
        store = RecordingStore.from_zoo(MIX)
        knobs = dict(nodes=2, node_families=("mali",), seed=9,
                     queue_depth=64)
        knobs.update(overrides)
        fleet = Fleet(store, FleetConfig(**knobs))
        report = fleet.serve(stream)
        fleet.close()
        return report

    def test_fleet_obs_off_changes_no_result(self):
        lit = self._fleet()
        dark = self._fleet(trace=False)
        assert dark.summary() == lit.summary()
        assert dark.trace_events == []
        assert lit.trace_events
        by_rid = {r.rid: r for r in lit.responses}
        for response in dark.responses:
            twin = by_rid[response.rid]
            assert response.status == twin.status
            assert response.completed_ns == twin.completed_ns
            for name, value in response.outputs.items():
                assert np.array_equal(value, twin.outputs[name])


class TestCounterMarks:
    def test_gpu_counter_marks_ride_the_trace(self, traced_report):
        marks = [e for e in traced_report.trace_events
                 if e["ev"] == "mark" and e["name"] == "gpu.counters"]
        assert marks
        for mark in marks:
            assert mark["args"], mark
            for key, value in mark["args"].items():
                assert isinstance(value, (int, float)), (key, value)

    def test_fused_batches_mark_only_the_head(self, traced_report):
        fused = [e for e in traced_report.trace_events
                 if e["ev"] == "mark" and e["name"] == "mega.fused"]
        assert fused, "mega path never engaged"
        counter_marks = [
            e for e in traced_report.trace_events
            if e["ev"] == "mark" and e["name"] == "gpu.counters"
            and "batch" in e["args"]]
        fused_heads = {e["rid"] for e in fused
                       if e["args"].get("slot") == 0}
        assert {e["rid"] for e in counter_marks} <= fused_heads
