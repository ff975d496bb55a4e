"""Fleet determinism contracts.

One shared VirtualClock totally orders every event on every node, so
a same-seed fleet run must reproduce *everything* byte-for-byte:
metric snapshots (fleet registry, per-node registries, the merged
aggregate), routing decisions, autoscale events, and the rtrace
profile export. And the observability layer must be read-only:
toggling tracing / time series / GPU counters changes zero fleet
outputs.
"""

import json

import numpy as np
import pytest

from repro.obs.prof import folded_stacks, to_folded_text

from tests.fleet.conftest import build_fleet, fuzz_stream

REQUESTS = 80
SEED = 4242


def _run(store, *, stream_seed=SEED, **overrides):
    fleet = build_fleet(store, **overrides)
    report = fleet.serve(fuzz_stream(requests=REQUESTS,
                                     seed=stream_seed))
    fleet.close()
    return report


@pytest.fixture(scope="module")
def run_a(fleet_store):
    return _run(fleet_store)


@pytest.fixture(scope="module")
def run_b(fleet_store):
    return _run(fleet_store)


class TestByteIdentity:
    def test_same_seed_summaries_identical(self, run_a, run_b):
        assert json.dumps(run_a.summary(), sort_keys=True) == \
            json.dumps(run_b.summary(), sort_keys=True)

    def test_same_seed_routing_identical(self, run_a, run_b):
        assert run_a.routing == run_b.routing
        assert run_a.autoscale == run_b.autoscale

    def test_same_seed_rtrace_export_identical(self, run_a, run_b):
        # The folded-profile export is the rtrace comparison contract
        # (span names + exclusive virtual times); raw event args also
        # carry process-global load-cache hit/miss, which is state
        # shared across in-process runs by design.
        text_a = to_folded_text(folded_stacks(run_a.trace_events))
        text_b = to_folded_text(folded_stacks(run_b.trace_events))
        assert text_a
        assert text_a == text_b

    def test_different_seed_routes_differently(self, fleet_store,
                                               run_a):
        other = _run(fleet_store, stream_seed=SEED + 1)
        assert other.routing != run_a.routing


class TestZeroInterference:
    def test_obs_toggles_change_no_fleet_output(self, fleet_store,
                                                run_a):
        dark = _run(fleet_store, trace=False)
        assert json.dumps(dark.summary(), sort_keys=True) == \
            json.dumps(run_a.summary(), sort_keys=True)
        assert dark.trace_events == []
        by_rid = {r.rid: r for r in run_a.responses}
        for response in dark.responses:
            twin = by_rid[response.rid]
            assert response.status == twin.status
            assert response.completed_ns == twin.completed_ns
            for name, value in response.outputs.items():
                assert np.array_equal(value, twin.outputs[name])


class TestAggregation:
    def test_aggregate_is_nodewise_sum(self, run_a):
        for name, value in run_a.aggregate["counters"].items():
            total = sum(r.snapshot["counters"].get(name, 0)
                        for r in run_a.node_reports)
            assert value == total, name

    def test_node_namespaces_prefix_every_name(self, run_a):
        for i, snapshot in enumerate(run_a.node_snapshots):
            for section in ("counters", "gauges", "histograms"):
                for name in snapshot[section]:
                    assert name.startswith(f"node{i}."), name
