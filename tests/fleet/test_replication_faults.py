"""Fault injection on the replication path.

The three-link integrity chain (chunk hash -> manifest -> recording
digest) must hold across node boundaries: a corrupt peer chunk is
flagged *mid-fetch* before anything damaged lands locally, the fetch
falls back to the next peer, and the damaged peer still hands its
recording to ``vault.diagnose`` for localization. Replication also
doubles as repair: a locally-damaged object is replaced from the peer
instead of being trusted.
"""

import os

import pytest

from repro.errors import StoreCorruptionError
from repro.fleet.replication import ReplicatedVaultStore
from repro.obs.session import Observability
from repro.soc.clock import VirtualClock
from repro.store import Vault
from repro.store.smoke import flip_object_byte

MIX = [("mali", "mnist")]


_corrupt_object = flip_object_byte


@pytest.fixture
def recording(mali_mnist_recorded):
    return mali_mnist_recorded[0].recording


@pytest.fixture
def obs():
    return Observability(VirtualClock())


def _vault(tmp_path, name, obs=None):
    if obs is None:
        return Vault(str(tmp_path / name))
    return Vault(str(tmp_path / name), obs=obs)


class TestPeerFetch:
    def test_local_miss_replicates_from_peer(self, tmp_path,
                                             recording, obs):
        peer = _vault(tmp_path, "peer")
        peer.pack(recording)
        local = _vault(tmp_path, "local")
        store = ReplicatedVaultStore(local, MIX, peers=[peer],
                                     obs=obs)
        assert store.available("mali", "mnist")
        fetched = store.healthy("mali", "mnist")
        assert fetched.to_bytes() == recording.to_bytes()
        assert [e["outcome"] for e in store.replication_log] == \
            ["replicated"]
        counters = obs.snapshot()["counters"]
        assert counters["fleet.replication.peer_fetches"] == 1
        # The recording now lives locally: a fresh store over the same
        # vault needs no peers at all.
        again = ReplicatedVaultStore(_vault(tmp_path, "local"), MIX)
        assert again.available("mali", "mnist")

    def test_corrupt_peer_flagged_then_next_peer_serves(
            self, tmp_path, recording, obs):
        bad = _vault(tmp_path, "bad")
        good = _vault(tmp_path, "good")
        bad_manifest = bad.pack(recording)
        good.pack(recording)
        chunk = bad_manifest.dumps[0][2][0][0]
        _corrupt_object(bad, chunk)
        local = _vault(tmp_path, "local")
        store = ReplicatedVaultStore(local, MIX, peers=[bad, good],
                                     obs=obs)
        assert store.available("mali", "mnist")
        outcomes = [e["outcome"] for e in store.replication_log]
        assert outcomes == ["corrupt-peer", "replicated"]
        # The integrity chain named the exact damaged chunk.
        assert store.replication_log[0]["chunk"] == chunk[:12]
        counters = obs.snapshot()["counters"]
        assert counters["fleet.replication.corrupt_chunks"] == 1
        assert counters["fleet.replication.peer_fetches"] == 1
        fetched = store.healthy("mali", "mnist")
        assert fetched.to_bytes() == recording.to_bytes()

    def test_all_peers_corrupt_is_exhausted_once(self, tmp_path,
                                                 recording, obs):
        peers = []
        for name in ("p1", "p2"):
            peer = _vault(tmp_path, name)
            manifest = peer.pack(recording)
            _corrupt_object(peer, manifest.dumps[0][2][0][0])
            peers.append(peer)
        store = ReplicatedVaultStore(_vault(tmp_path, "local"), MIX,
                                     peers=peers, obs=obs)
        assert not store.available("mali", "mnist")
        # Probed once, remembered: the second ask walks no peers.
        assert not store.available("mali", "mnist")
        outcomes = [e["outcome"] for e in store.replication_log]
        assert outcomes == ["corrupt-peer", "corrupt-peer",
                            "exhausted"]
        counters = obs.snapshot()["counters"]
        assert counters["fleet.replication.exhausted"] == 1

    def test_replication_repairs_local_damage(self, tmp_path,
                                              recording, obs):
        peer = _vault(tmp_path, "peer")
        peer.pack(recording)
        vault_obs = Observability(VirtualClock())
        local = _vault(tmp_path, "local", obs=vault_obs)
        manifest = local.pack(recording)
        _corrupt_object(local, manifest.dumps[0][2][0][0])
        store = ReplicatedVaultStore(local, MIX, peers=[peer],
                                     obs=obs)
        assert store.available("mali", "mnist")
        fetched = store.healthy("mali", "mnist")
        assert fetched.to_bytes() == recording.to_bytes()
        counters = vault_obs.snapshot()["counters"]
        assert counters["store.replicate.healed"] == 1
        assert local.verify(manifest.digest) == []


class TestDoctorHandoff:
    def test_corrupt_peer_still_diagnoses(self, tmp_path, recording):
        """The damaged peer keeps enough to localize: verify names the
        chunk, diagnose names the diverging action."""
        from repro.obs.doctor import first_kick_chain_va
        peer = _vault(tmp_path, "peer")
        manifest = peer.pack(recording)
        chain_va = first_kick_chain_va(recording)
        target = None
        for va, size, chunk_list in manifest.dumps:
            if va <= chain_va < va + size:
                offset = chain_va - va
                acc = 0
                for digest, csize in chunk_list:
                    if acc <= offset < acc + csize:
                        target = digest
                        break
                    acc += csize
        assert target is not None
        _corrupt_object(peer, target)
        local = _vault(tmp_path, "local")
        store = ReplicatedVaultStore(local, MIX, peers=[peer])
        assert not store.available("mali", "mnist")
        with pytest.raises(StoreCorruptionError):
            local.replicate_from(peer, manifest.digest)
        problems = peer.verify(manifest.digest)
        assert len(problems) == 1
        assert problems[0].chunk_digest == target
        report = peer.diagnose(manifest.digest)
        assert report is not None
        assert report.action_index >= 0
