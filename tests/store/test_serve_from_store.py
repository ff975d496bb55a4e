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

from repro.core.replayer import clear_load_cache
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, VaultRecordingStore,
                         generate_requests, verify_report)
from repro.store import Vault
from repro.store.smoke import flip_object_byte

MIX = (("mali", "mnist"), ("mali", "kws"), ("v3d", "mnist"))


def _serve(store, seed=7, requests=24, prefetch=False, mix=None):
    server = ReplayServer(store, ServerConfig(
        families=("mali", "mali", "v3d"), seed=seed,
        prefetch=prefetch))
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
    VaultRecordingStore.pack_zoo(Vault(root), list(MIX))
    return root


class TestDifferential:
    def test_vault_serve_matches_loose_serve(self, packed_vault):
        loose = _serve(RecordingStore.from_zoo(list(MIX)))
        vaulted = _serve(VaultRecordingStore(Vault(packed_vault),
                                             list(MIX)))
        assert _summary(vaulted) == _summary(loose)

    def test_vault_outputs_verify_against_reference(self, packed_vault):
        store = VaultRecordingStore(Vault(packed_vault), list(MIX))
        report = _serve(store)
        assert verify_report(report, store) == []

    def test_prefetch_run_is_same_seed_deterministic(self,
                                                     packed_vault):
        clear_load_cache()
        first = _serve(VaultRecordingStore(Vault(packed_vault),
                                           list(MIX)), prefetch=True)
        clear_load_cache()
        second = _serve(VaultRecordingStore(Vault(packed_vault),
                                            list(MIX)), prefetch=True)
        assert _summary(first) == _summary(second)
        counters = first.snapshot["counters"]
        assert counters["serve.store.prefetched"] > 0
        assert all(r.status == "ok" for r in first.responses)


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
        VaultRecordingStore.pack_zoo(vault, mix)
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
        assert store.healthy("mali", "mnist").digest() == \
            manifest.digest
