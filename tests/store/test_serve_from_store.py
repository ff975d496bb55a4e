"""Serving out of the vault must be invisible.

The differential contract: a ``ReplayServer`` backed by a
``VaultRecordingStore`` produces byte-identical answers *and* the same
same-seed metric snapshot as one backed by loose in-memory recordings
-- the storage layer may not perturb a single virtual-time event. On
top of that, the store-miss and corrupt-store paths must land on the
failure ladder's bottom rungs (CPU degrade / shed), never lose a
request.
"""

import json

import pytest

from repro.bench.workloads import zoo_store
from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                         VaultRecordingStore,
                         generate_requests, verify_report)
from repro.store import Vault
from repro.tools.smoke import flip_object_byte

MIX = (("mali", "mnist"), ("mali", "kws"), ("v3d", "mnist"))


def _serve(store, seed=7, requests=24, mix=None):
    server = ReplayServer(store, ServerConfig(
        families=("mali", "mali", "v3d"), seed=seed))
    stream = generate_requests(LoadgenConfig(
        mix=list(mix or MIX), requests=requests, seed=seed))
    report = server.serve(stream)
    server.close()
    return report


def _summary(report) -> str:
    return json.dumps(report.summary(), sort_keys=True)


@pytest.fixture(scope="module")
def packed_vault(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve") / "vault")
    zoo_store(list(MIX), Vault(root))
    return root


class TestDifferential:
    def test_vault_serve_matches_loose_serve(self, packed_vault):
        loose = _serve(zoo_store(list(MIX)))
        vaulted = _serve(VaultRecordingStore(Vault(packed_vault),
                                             list(MIX)))
        assert _summary(vaulted) == _summary(loose)

    def test_vault_outputs_verify_against_reference(self, packed_vault):
        store = VaultRecordingStore(Vault(packed_vault), list(MIX))
        report = _serve(store)
        assert verify_report(report, store) == []


class TestStoreFailureRungs:
    def test_store_miss_degrades_to_cpu(self, packed_vault):
        # v3d/kws was never packed: every request for it must still be
        # answered, on the CPU, flagged store-miss.
        mix = list(MIX) + [("v3d", "kws")]
        store = VaultRecordingStore(Vault(packed_vault), mix)
        report = _serve(store, requests=32, mix=mix)
        assert not report.lost
        missed = [r for r in report.responses
                  if r.model == "kws" and r.family == "v3d"]
        assert missed
        assert all(r.status == "shed" and r.shed_reason == "store-lost"
                   for r in missed)

    def test_corrupt_store_still_answers_on_cpu(self, tmp_path):
        # Pack, then flip a byte in every chunk object of one
        # recording: the skeleton survives, so the interface is known
        # and the ladder lands on CPU-degraded, not shed.
        root = str(tmp_path / "vault")
        vault = Vault(root)
        mix = [("mali", "mnist")]
        zoo_store(mix, vault)
        digest = vault.digests()[0]
        manifest = vault.load_manifest(digest)
        for chunk_digest in set(manifest.chunk_refs()):
            flip_object_byte(vault, chunk_digest)

        store = VaultRecordingStore(Vault(root), mix)
        report = _serve(store, requests=8, mix=mix)
        assert not report.lost
        assert all(r.status == "degraded" and r.path == "cpu"
                   and r.shed_reason == "store-miss"
                   for r in report.responses)
        assert report.snapshot["counters"]["serve.store.miss"] > 0
        # the damaged digest is queued for the doctor
        assert store.corrupt[("mali", "mnist")] == digest
        assert vault.verify(digest)

    def test_vault_store_verifies_on_fetch(self, tmp_path,
                                            mali_mnist_recorded):
        """recording_for never returns silently-corrupt content."""
        root = str(tmp_path / "vault")
        vault = Vault(root)
        recording = mali_mnist_recorded[0].recording
        manifest = vault.pack(recording)
        store = VaultRecordingStore(Vault(root), [("mali", "mnist")])
        assert store.available("mali", "mnist")
        assert store.interface("mali", "mnist").digest() == \
            manifest.digest
