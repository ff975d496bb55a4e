"""Mega-batch serving: fusion changes throughput, never answers.

The engine may fuse a same-digest batch into one ``replay_mega`` pass;
these tests pin the contract from the outside: every fused answer is
byte-identical to the unbatched run and to the CPU reference, a
poisoned request degrades alone while its stream-mates stay
byte-identical, a mid-batch divergence falls back to per-request
replay without losing an answer, and the request traces of fused runs
stay complete with exactly-summing attribution.
"""

import numpy as np
import pytest

from repro.core.replayer import Replayer, clear_load_cache
from repro.errors import MegaBatchDivergence
from repro.obs.attribution import attribute
from repro.obs.rtrace import span_trees, validate_events
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, expected_outputs,
                         generate_requests)

MIX = (("mali", "mnist"), ("mali", "dense-serve"))

_STORE = None


def _store() -> RecordingStore:
    global _STORE
    if _STORE is None:
        _STORE = RecordingStore.from_zoo(MIX)
    return _STORE


def _closed_load(requests=24, seed=404, fault_rate=0.0):
    """A closed batch (everything at t=0, no deadlines) so same-digest
    requests pile up and the scheduler actually fuses."""
    return LoadgenConfig(
        requests=requests, seed=seed, mix=MIX,
        mean_interarrival_ns=0, deadline_ns=0, fault_rate=fault_rate)


def _serve(load, mega, seed=9, workers=2, max_batch=8):
    clear_load_cache()
    server = ReplayServer(_store(), ServerConfig(
        families=("mali",) * workers, seed=seed,
        queue_depth=load.requests, max_batch=max_batch,
        mega_batch=mega))
    report = server.serve(generate_requests(load))
    server.close()
    assert report.lost == []
    return report


def _outputs_by_rid(report):
    return {r.rid: {name: np.asarray(value).reshape(-1).copy()
                    for name, value in r.outputs.items()}
            for r in report.responses}


class TestFusedEqualsUnbatched:
    def test_mega_run_actually_fuses(self):
        report = _serve(_closed_load(), mega=True)
        counters = report.snapshot["counters"]
        assert counters.get("serve.mega.batches", 0) > 0
        assert counters.get("serve.mega.requests", 0) > 1
        assert counters.get("serve.mega.fallbacks", 0) == 0

    @pytest.mark.parametrize("seed", [404, 405, 406])
    def test_outputs_byte_identical_to_unbatched_run(self, seed):
        load = _closed_load(seed=seed)
        fused = _serve(load, mega=True)
        plain = _serve(load, mega=False)
        assert fused.snapshot["counters"].get(
            "serve.mega.batches", 0) > 0
        fused_out = _outputs_by_rid(fused)
        plain_out = _outputs_by_rid(plain)
        assert set(fused_out) == set(plain_out)
        status = {r.rid: r.status for r in plain.responses}
        for response in fused.responses:
            assert response.status == status[response.rid]
            for name, want in plain_out[response.rid].items():
                got = fused_out[response.rid][name]
                assert got.tobytes() == want.tobytes(), (
                    f"rid {response.rid} output {name}: fused replay "
                    f"changed the answer")

    def test_every_fused_answer_matches_cpu_reference(self):
        report = _serve(_closed_load(), mega=True)
        for response in report.responses:
            cpu = expected_outputs(_store(), response.family,
                                   response.model, response.input_seed)
            for name, want in cpu.items():
                assert np.array_equal(
                    response.outputs[name].reshape(-1),
                    want.reshape(-1))


class TestPoisonedRequestFuzz:
    """Satellite: a poisoned request mid-stream degrades alone; its
    stream-mates answer byte-identically to the unbatched run."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_poison_degrades_alone(self, seed):
        load = LoadgenConfig(
            requests=20, seed=seed, mix=MIX,
            mean_interarrival_ns=0, deadline_ns=0,
            fault_rate=0.3, fault_kinds=("poison",))
        requests = generate_requests(load)
        poisoned = {r.rid for r in requests if r.fault is not None}
        assert poisoned and len(poisoned) < len(requests), \
            "fuzz case needs both poisoned and healthy requests"

        fused = _serve(load, mega=True)
        plain = _serve(load, mega=False)
        assert fused.snapshot["counters"].get(
            "serve.mega.batches", 0) > 0, \
            "poison stream stopped the scheduler fusing healthy batches"

        fused_out = _outputs_by_rid(fused)
        plain_out = _outputs_by_rid(plain)
        for response in fused.responses:
            if response.rid in poisoned:
                # the poisoned recording degrades -- on its own
                assert response.status == "degraded"
            else:
                assert response.status == "ok", (
                    f"healthy rid {response.rid} caught a neighbour's "
                    f"poison")
            # either way the answer is the unbatched run's, byte for
            # byte (and transitively the CPU reference's -- the fuzz
            # differential suite pins that side)
            for name, want in plain_out[response.rid].items():
                assert fused_out[response.rid][name].tobytes() \
                    == want.tobytes()


class TestDivergenceFallback:
    def test_divergence_mid_batch_falls_back_per_request(self, monkeypatch):
        def explode(self, inputs_list, should_yield=None):
            raise MegaBatchDivergence("synthetic mid-batch divergence")

        monkeypatch.setattr(Replayer, "replay_mega", explode)
        load = _closed_load()
        report = _serve(load, mega=True)
        counters = report.snapshot["counters"]
        assert counters.get("serve.mega.fallbacks", 0) > 0
        assert counters.get("serve.mega.batches", 0) == 0
        # every member still answers, correctly and un-degraded
        for response in report.responses:
            assert response.status == "ok"
            cpu = expected_outputs(_store(), response.family,
                                   response.model, response.input_seed)
            for name, want in cpu.items():
                assert np.array_equal(
                    response.outputs[name].reshape(-1),
                    want.reshape(-1))

        # ...exactly once: the fallback re-serves members, it must not
        # answer any of them twice
        rids = [r.rid for r in report.responses]
        assert len(rids) == len(set(rids)) == load.requests
        events = report.trace_events
        assert validate_events(events, expected_rids=set(rids)) == []
        latency = {r.rid: r.latency_ns for r in report.responses}
        for rid, root in span_trees(events).items():
            assert root.duration_ns == latency[rid]
            assert sum(n.exclusive_ns for n in root.walk()) \
                == root.duration_ns
        # one mark per failed fused attempt, on that attempt's head
        marks = [e for e in events
                 if e["ev"] == "mark" and e["name"] == "mega.fallback"]
        assert len(marks) == counters["serve.mega.fallbacks"]
        attempts = {(e["rid"], e["sid"]): e["args"] for e in events
                    if e["ev"] == "begin" and e["name"] == "attempt"}
        for mark in marks:
            attempt = attempts[(mark["rid"], mark["psid"])]
            assert attempt["slot"] == 0 and attempt["batch"] > 1
            assert mark["args"] == {"error": "MegaBatchDivergence"}
        assert len({(m["rid"], m["psid"]) for m in marks}) == len(marks)


MULTI_MIX = (("mali", "mnist"), ("v3d", "mnist"), ("adreno", "mnist"))


class TestMultiFamilyFaultedMega:
    """Acceptance: the fused differential spans mali+v3d+adreno with
    faulted/degraded requests in the same stream."""

    @pytest.fixture(scope="class")
    def multi_store(self):
        return RecordingStore.from_zoo(MULTI_MIX)

    @staticmethod
    def _serve_multi(store, load, mega):
        clear_load_cache()
        server = ReplayServer(store, ServerConfig(
            families=("mali", "v3d", "adreno"), seed=9,
            queue_depth=load.requests, max_batch=8, mega_batch=mega))
        report = server.serve(generate_requests(load))
        server.close()
        assert report.lost == []
        return report

    def test_faulted_fused_run_matches_unbatched_and_reference(
            self, multi_store):
        load = LoadgenConfig(
            requests=36, seed=2202, mix=MULTI_MIX,
            mean_interarrival_ns=0, deadline_ns=0,
            fault_rate=0.2, fault_kinds=("poison",))
        requests = generate_requests(load)
        poisoned = {r.rid for r in requests if r.fault is not None}
        assert poisoned and len(poisoned) < len(requests)

        fused = self._serve_multi(multi_store, load, mega=True)
        plain = self._serve_multi(multi_store, load, mega=False)
        counters = fused.snapshot["counters"]
        assert counters.get("serve.mega.batches", 0) > 0
        assert {r.family for r in fused.responses} \
            == {"mali", "v3d", "adreno"}

        fused_out = _outputs_by_rid(fused)
        plain_out = _outputs_by_rid(plain)
        for response in fused.responses:
            expect = "degraded" if response.rid in poisoned else "ok"
            assert response.status == expect
            # byte-identical to the unbatched run...
            for name, want in plain_out[response.rid].items():
                assert fused_out[response.rid][name].tobytes() \
                    == want.tobytes()
            # ...and exactly the CPU reference, faulted or not
            cpu = expected_outputs(multi_store, response.family,
                                   response.model, response.input_seed)
            for name, want in cpu.items():
                assert np.array_equal(
                    response.outputs[name].reshape(-1),
                    want.reshape(-1))


class TestFusedTraceCompleteness:
    @pytest.fixture(scope="class")
    def fused_report(self):
        return _serve(_closed_load(requests=32, seed=77), mega=True)

    def test_trace_validates_and_marks_fusion(self, fused_report):
        rids = {r.rid for r in fused_report.responses}
        assert validate_events(fused_report.trace_events,
                               expected_rids=rids) == []
        fused_marks = [e for e in fused_report.trace_events
                       if e["ev"] == "mark" and e["name"] == "mega.fused"]
        assert fused_marks, "no mega.fused marks despite fused batches"
        assert {e["args"]["batch"] for e in fused_marks} != {1}

    def test_exclusive_times_still_sum_exactly(self, fused_report):
        roots = span_trees(fused_report.trace_events)
        assert set(roots) == {r.rid for r in fused_report.responses}
        for root in roots.values():
            assert sum(n.exclusive_ns for n in root.walk()) \
                == root.duration_ns

    def test_attribution_runs_over_fused_traces(self, fused_report):
        decomposition = attribute(fused_report.trace_events, p_lo=50.0)
        assert decomposition.requests
        assert sum(s.total_ns for s in decomposition.stages) \
            == decomposition.total_ns
