"""The slice-equivalence contract: an unmutated micro-recording
replays byte-identical to the same job inside its parent session.

The fuzz leg draws one seeded-random job per (family, board) from the
zoo parents and replays both sides; the rest checks the closure walk
against what the analyzer promised, kernel-level slicing, and that
slicing is deterministic (same job, same bytes, same digest).
"""

import copy
import random

import numpy as np
import pytest

from repro.bench.workloads import (board_for_family, get_recorded,
                                   record_math_kernel, vecadd_ir)
from repro.errors import SurgeryError
from repro.surgery import (analyze_recording, slice_job, verify_slice)
from repro.surgery.analyze import ranges_bytes

FAMILIES = ("mali", "v3d", "adreno")


@pytest.fixture(scope="module", params=FAMILIES)
def parent(request):
    workload, _stack = get_recorded(request.param, "mnist")
    return workload.recording


@pytest.fixture(scope="module")
def analysis(parent):
    return analyze_recording(parent)


def test_analyzer_finds_every_job(parent, analysis):
    assert len(analysis.jobs) == parent.meta.n_jobs
    for expected, info in enumerate(analysis.jobs):
        assert info.job_index == expected
        assert info.kernels, f"job {expected} has no kernels"
        assert info.closure_bytes > 0


def test_random_job_slices_byte_identical(parent, analysis):
    """The fuzz leg: one seeded-random job per family x board."""
    rng = random.Random(parent.meta.family + parent.meta.board)
    job = rng.randrange(len(analysis.jobs))
    slice_ = slice_job(parent, job, analysis=analysis)
    assert slice_.recording.meta.n_jobs == 1
    assert slice_.recording.meta.family == parent.meta.family
    assert verify_slice(parent, slice_, analysis=analysis), (
        f"slice of {parent.meta.family} job {job} diverges from its "
        f"parent session")


def test_slice_carries_only_the_closure(parent, analysis):
    info = analysis.jobs[len(analysis.jobs) // 2]
    slice_ = slice_job(parent, info.job_index, analysis=analysis,
                       expect_outputs=False)
    closure = [tuple(r) for r in slice_.manifest.closure]
    assert slice_.recording.dump_bytes() == ranges_bytes(closure)
    assert slice_.recording.dump_bytes() < parent.dump_bytes()


def test_slicing_is_deterministic(parent, analysis):
    job = len(analysis.jobs) // 2
    first = slice_job(parent, job, analysis=analysis)
    second = slice_job(parent, job, analysis=analysis)
    assert first.recording.digest() == second.recording.digest()
    assert first.recording.to_bytes() == second.recording.to_bytes()
    assert first.manifest.to_json() == second.manifest.to_json()


def test_out_of_range_job_raises(parent, analysis):
    with pytest.raises(SurgeryError):
        slice_job(parent, len(analysis.jobs) + 3, analysis=analysis)


class TestKernelSlices:
    @pytest.fixture(scope="class")
    def mali_parent(self):
        workload, _stack = get_recorded("mali", "mnist")
        return workload.recording

    def test_kernel_slice_equivalent(self, mali_parent):
        analysis = analyze_recording(mali_parent)
        info = analysis.jobs[3]
        slice_ = slice_job(mali_parent, info.job_index, kernel_index=0,
                           analysis=analysis)
        assert slice_.manifest.kernel_index == 0
        assert slice_.workload.endswith(f"#job{info.job_index}.k0")
        assert verify_slice(mali_parent, slice_, analysis=analysis)

    def test_bad_kernel_index_raises(self, mali_parent):
        with pytest.raises(SurgeryError):
            slice_job(mali_parent, 0, kernel_index=7)


def test_math_kernel_parent_slices_too():
    """Non-zoo parents (raw recorded kernels) slice the same way."""
    board = board_for_family("mali")
    workload = record_math_kernel("mali", vecadd_ir(64), board)
    parent = workload.recording
    slice_ = slice_job(parent, 0)
    assert verify_slice(parent, slice_)
    # vecadd writes one output range; the manifest captured its bytes.
    expected = slice_.manifest.expected_output_arrays()
    assert expected and all(np.isfinite(a).all()
                            for a in expected.values())


def test_adreno_analyzer_applies_the_doorbell_rule():
    """A doorbell that ends mid-packet submits nothing on the device
    (``AdrenoGpu._on_doorbell``), so the analyzer must refuse it too
    rather than read the partial packet as a whole kernel."""
    from repro.core.replay import boot_replayer
    from repro.errors import ReplayError

    parent = record_math_kernel("adreno", vecadd_ir(64),
                                board_for_family("adreno")).recording
    torn = copy.deepcopy(parent)
    kick = next(a for a in torn.actions
                if getattr(a, "is_job_kick", False))
    kick.val -= 8
    with pytest.raises(SurgeryError, match="whole number of packets"):
        analyze_recording(torn)
    replayer = boot_replayer(torn, None, 7)[1]
    with pytest.raises(ReplayError):
        replayer.replay(max_attempts=1)
