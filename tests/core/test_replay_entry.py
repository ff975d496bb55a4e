"""``python -m repro.core.replay`` and the names that moved to make its
closure small: every old name still resolves, to the same object."""

from __future__ import annotations

import hashlib
import importlib
import os
import subprocess
import sys

import pytest

import repro.core
import repro.environments
import repro.obs
from repro.analysis.codebase import PACKAGE_ROOT
from repro.bench.workloads import get_recorded
from repro.core.replay import seeded_inputs
from repro.obs.doctor import flip_dump_byte

#: The two packages' ``__all__`` at the commit before they went lazy,
#: in order, with the submodule that defines each name.
CORE = {
    "GpuRecorder": "recorder", "RecordedWorkload": "harness",
    "Recording": "recording", "RecordingMeta": "recording",
    "RecorderOptions": "recorder", "ReplayResult": "replayer",
    "Replayer": "replayer", "record_inference": "harness",
    "record_training_iteration": "harness",
    "verify_recording": "verifier"}
ENVIRONMENTS = {
    "BaremetalEnvironment": "baremetal", "DeploymentEnvironment": "base",
    "GpuHandoffScheduler": "scheduler", "InteractiveApp": "scheduler",
    "KernelEnvironment": "kernelspace", "SecureMonitor": "tee",
    "TeeEnvironment": "tee", "UserspaceEnvironment": "userspace"}


@pytest.mark.parametrize("package, homes", [
    (repro.core, CORE), (repro.environments, ENVIRONMENTS)])
def test_lazy_packages_export_what_they_always_did(package, homes):
    assert package.__all__ == list(homes)
    for name, home in homes.items():
        module = importlib.import_module(f"{package.__name__}.{home}")
        assert getattr(package, name) is getattr(module, name)
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(homes) <= set(namespace)
    with pytest.raises(AttributeError, match="nope"):
        getattr(package, "nope")


def test_moved_names_are_one_object_under_both_paths():
    import repro.obs.metrics
    import repro.obs.session
    import repro.obs.tracer
    import repro.soc.nullobs
    import repro.units

    for old in (repro.obs.session, repro.obs):
        assert old.NULL_OBS is repro.soc.nullobs.NULL_OBS
        assert old.NullObservability \
            is repro.soc.nullobs.NullObservability
    for old in (repro.obs.tracer, repro.obs):
        assert old.Track is repro.soc.nullobs.Track
    for old in (repro.obs.metrics, repro.obs):
        assert old.LATENCY_BUCKETS_NS is repro.units.LATENCY_BUCKETS_NS
        assert old.SIZE_BUCKETS_BYTES is repro.units.SIZE_BUCKETS_BYTES

    import repro.bench.workloads as zoo
    import repro.environments.base
    import repro.serve
    import repro.soc.boards
    import repro.soc.machine

    assert zoo.fresh_replay_machine \
        is repro.soc.machine.fresh_replay_machine
    assert zoo.board_for_family is repro.soc.boards.board_for_family
    assert repro.environments.base.host_kernel_configures_gpu \
        is repro.soc.machine.host_kernel_configures_gpu
    assert repro.serve.request_inputs is seeded_inputs


#: sha256 over name + tensor bytes of the inputs HEAD's
#: ``serve.engine.request_inputs``, ``obs.doctor._inputs_for`` and
#: ``grr replay``'s inline loop produced for mnist, computed at the
#: commit before the three became :func:`seeded_inputs`.
SEEDED_INPUT_PINS = {
    ("mali", 2026):
        "e35c05ad18a10ee6553a7f11d82fe0ffdbc54438258dff4bc417e196575cebec",
    ("v3d", 7):
        "6e7a02e01e65a545318bca5e3bf1bca056e3b407a34ecc390a0f97e63dae6622",
    ("adreno", 31):
        "4dd255e25c8f0ac2403217d4d73624697d291e65da94a886ea79b88fd07aef2c",
}


@pytest.mark.parametrize("family, seed", SEEDED_INPUT_PINS)
def test_seeded_inputs_are_byte_identical_to_the_three_old_copies(
        family, seed):
    recording = get_recorded(family, "mnist")[0].recording
    inputs = seeded_inputs(recording, seed)
    digest = hashlib.sha256()
    for name in sorted(inputs):
        digest.update(name.encode())
        digest.update(inputs[name].tobytes())
    assert digest.hexdigest() == SEEDED_INPUT_PINS[family, seed]


def _entry(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    return subprocess.run(
        [sys.executable, "-m", "repro.core.replay", *argv], env=env,
        capture_output=True, text=True)


def test_entry_exit_codes_and_repeat(tmp_path, mali_mnist_recorded):
    recording = mali_mnist_recorded[0].recording
    good = str(tmp_path / "mnist.grr")
    recording.save(good)

    proc = _entry(good, "--repeat", "3")
    assert proc.returncode == 0, proc.stderr
    digests = [line.split()[-1] for line in proc.stdout.splitlines()
               if " sha256 " in line]
    assert len(digests) == 3 and len(set(digests)) == 1
    assert proc.stdout.count("attempt 1") == 3

    truncated = tmp_path / "truncated.grr"
    truncated.write_bytes(recording.to_bytes()[:500])
    assert _entry(str(truncated)).returncode == 2
    assert _entry(str(tmp_path / "missing.grr")).returncode == 2
    unknown = _entry(good, "--board", "nope")
    assert unknown.returncode == 2 and "nope" in unknown.stderr

    flipped = str(tmp_path / "flipped.grr")
    flip_dump_byte(recording)[0].save(flipped)
    failed = _entry(flipped)
    assert failed.returncode == 1 and failed.stderr.startswith("error:")
