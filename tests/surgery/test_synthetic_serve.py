"""The synthetic workload source: composed surgery sessions served
through the unmodified serving engine, verified against the ground
truth their manifests captured.
"""

import numpy as np
import pytest

from repro.bench.workloads import get_recorded
from repro.errors import SurgeryError
from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                         generate_requests, verify_report)
from repro.surgery import SyntheticRecordingStore


@pytest.fixture(scope="module")
def store():
    store = SyntheticRecordingStore()
    store.populate("mali", {"mnist": get_recorded("mali", "mnist")[0]
                            .recording}, sessions=2, seed=42)
    return store


def test_sessions_appear_as_models(store):
    assert store.mix() == [("mali", "syn0"), ("mali", "syn1")]
    for _family, model in store.mix():
        recording = store.interface("mali", model)
        assert recording.meta.workload.startswith("synthetic/")
        assert not recording.meta.inputs
        assert recording.meta.outputs


def test_reference_outputs_ignore_input_seed(store):
    a = store.reference_outputs("mali", "syn0", 0)
    b = store.reference_outputs("mali", "syn0", 999)
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_serve_and_verify_clean(store):
    server = ReplayServer(store, ServerConfig(
        families=("mali",), seed=2026))
    requests = generate_requests(LoadgenConfig(
        mix=store.mix(), requests=12, seed=2026))
    report = server.serve(requests)
    server.close()
    counts = report.counts()
    assert counts["ok"] == 12
    assert not report.lost
    assert verify_report(report, store) == []


def test_rejects_sessions_without_ground_truth():
    from repro.bench.workloads import (board_for_family,
                                       record_math_kernel, vecadd_ir)
    from repro.surgery import repeat, slice_job

    parent = record_math_kernel(
        "mali", vecadd_ir(64), board_for_family("mali")).recording
    bare = slice_job(parent, 0, expect_outputs=False)
    composed = repeat(bare, 2)
    store = SyntheticRecordingStore()
    with pytest.raises(SurgeryError):
        store.add_composed("mali", "syn0", composed)
