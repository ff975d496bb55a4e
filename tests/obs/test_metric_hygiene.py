"""Metric-name hygiene: scheme conformance + documentation coverage.

Metric names are a stable interface (BENCH pins, the time-series
exporters and ``grr stats --diff`` key on them), so two invariants are
enforced here against *runtime-registered* names, not source greps:

- every name follows the dotted-lowercase scheme
  ``segment(.segment)+`` with segments of ``[a-z0-9_-]``;
- every name is listed in the reference, ``docs/METRICS.md``.
"""

import pathlib
import re

import pytest

METRICS_DOC = pathlib.Path(__file__).resolve().parents[2] / \
    "docs" / "METRICS.md"

#: The naming scheme: at least two dot-separated lowercase segments.
NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*(\.[a-z0-9_-]+)+$")


def _snapshot_names(snapshot):
    names = set()
    for kind in ("counters", "gauges", "histograms"):
        names |= set(snapshot.get(kind) or {})
    return names


@pytest.fixture(scope="module")
def registered_names():
    """Union of names a faulty mega-batched serve run and an observed
    replay actually register (the two paths that together exercise
    every metric-emitting layer)."""
    from repro.bench.workloads import (fresh_replay_machine,
                                      get_recorded, model_input)
    from repro.core.replayer import Replayer
    from repro.obs import enable_observability
    from repro.serve import (LoadgenConfig, RecordingStore,
                             ReplayServer, ServerConfig,
                             generate_requests)

    mix = (("mali", "mnist"), ("v3d", "kws"))
    requests = generate_requests(LoadgenConfig(
        requests=32, seed=5, mix=mix, fault_rate=0.15))
    store = RecordingStore.from_zoo(mix)
    server = ReplayServer(store, ServerConfig(
        families=("mali", "v3d"), seed=5, mega_batch=True,
        max_batch=4, queue_depth=8))
    report = server.serve(requests)
    server.close()
    names = _snapshot_names(report.snapshot)
    names |= set(report.timeseries.series)

    recorded, _ = get_recorded("mali", "mnist")
    machine = fresh_replay_machine("mali")
    enable_observability(machine)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(recorded.recording)
    replayer.replay(inputs={
        io.name: model_input("mnist")
        for io in recorded.recording.meta.inputs if not io.optional})
    replayer.cleanup()
    names |= _snapshot_names(machine.obs.snapshot())

    from repro.fleet import Fleet, FleetConfig
    # Queues of 4 shed best-effort traffic at 2 pending: this stream
    # reaches the quota shed, the priority shed and the autoscaler.
    fleet = Fleet(store, FleetConfig(
        nodes=2, node_families=("mali", "v3d"), queue_depth=4,
        quotas=(("acme", 2),)))
    fleet_report = fleet.serve(generate_requests(LoadgenConfig(
        requests=48, seed=6, mix=mix, fault_rate=0.1,
        tenants=("acme", "globex"), priorities=(0, 1, 2))))
    fleet.close()
    names |= _snapshot_names(fleet_report.snapshot)
    return names


def test_run_registers_a_representative_set(registered_names):
    assert len(registered_names) > 30
    for expected in ("serve.latency_ns", "serve.cache.warm",
                     "serve.cache.hit_ratio", "replay.attempts",
                     "serve.mega.batches", "fleet.latency_ns",
                     "fleet.router.affinity_hits",
                     "fleet.requests.submitted",
                     "fleet.admission.priority_shed"):
        assert expected in registered_names


def test_names_follow_dotted_lowercase_scheme(registered_names):
    # Time-series names may carry derived histogram suffixes; the
    # scheme applies to those too.
    bad = sorted(name for name in registered_names
                 if not NAME_RE.match(name))
    assert not bad, f"non-conforming metric names: {bad}"


def test_every_registered_name_is_documented(registered_names):
    doc = METRICS_DOC.read_text()
    documented = set(re.findall(r"`([a-z][a-z0-9_.-]+)`", doc))
    base_names = {name[:-len(suffix)] if name.endswith(suffix) else
                  name
                  for name in registered_names
                  for suffix in (".count", ".p95")
                  if name.endswith(suffix)} | {
        name for name in registered_names
        if not name.endswith((".count", ".p95"))}
    missing = sorted(base_names - documented)
    assert not missing, (
        f"metrics registered at runtime but absent from "
        f"docs/METRICS.md: {missing}")


def test_documented_names_follow_the_scheme_too():
    doc = METRICS_DOC.read_text()
    rows = re.findall(r"^\| `([^`]+)` \|", doc, flags=re.M)
    assert rows, "docs/METRICS.md tables look empty"
    bad = sorted(name for name in rows if not NAME_RE.match(name))
    assert not bad, f"documented names break the scheme: {bad}"
