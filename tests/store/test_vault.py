"""The vault itself: pack/fetch/verify/gc, the integrity chain, the
compatibility index, and the doctor handoff on corruption."""

import json
import os

import pytest

from repro.core.dumps import MemoryDump
from repro.core.recording import Recording
from repro.errors import (StoreCorruptionError, StoreError,
                          StoreNotFoundError)
from repro.obs.session import Observability
from repro.soc.clock import VirtualClock
from repro.store import CompatEntry, CompatIndex, Vault, gpu_clock_hz
from repro.store.smoke import flip_object_byte
from tests.serve.test_recording_fuzz import synthetic_recording


@pytest.fixture
def vault(tmp_path):
    return Vault(str(tmp_path / "vault"))


@pytest.fixture(scope="module")
def mnist_recording(mali_mnist_recorded):
    return mali_mnist_recorded[0].recording


_corrupt_object = flip_object_byte


class TestPackFetch:
    def test_round_trip_is_byte_identical(self, vault, mnist_recording):
        manifest = vault.pack(mnist_recording)
        fetched = vault.fetch(manifest.digest)
        assert fetched.to_bytes() == mnist_recording.to_bytes()

    def test_pack_is_idempotent(self, vault, mnist_recording):
        first = vault.pack(mnist_recording)
        stats_before = vault.stats()
        second = vault.pack(mnist_recording)
        assert second.digest == first.digest
        assert vault.stats().disk_bytes == stats_before.disk_bytes

    def test_fetch_unknown_digest_is_not_found(self, vault):
        with pytest.raises(StoreNotFoundError):
            vault.fetch("f" * 64)

    def test_resolve_prefix(self, vault, mnist_recording):
        manifest = vault.pack(mnist_recording)
        assert vault.resolve(manifest.digest[:8]) == manifest.digest
        with pytest.raises(StoreNotFoundError):
            vault.resolve("zzzz")

    def test_open_requires_existing_vault(self, tmp_path, vault):
        with pytest.raises(StoreNotFoundError):
            Vault.open(str(tmp_path / "nowhere"))
        assert Vault.open(vault.root).digests() == vault.digests()

    def test_fetch_interface_carries_io_shapes(self, vault,
                                               mnist_recording):
        manifest = vault.pack(mnist_recording)
        skeleton = vault.fetch_interface(manifest.digest)
        assert [io.name for io in skeleton.meta.inputs] == \
            [io.name for io in mnist_recording.meta.inputs]
        assert [io.shape for io in skeleton.meta.outputs] == \
            [io.shape for io in mnist_recording.meta.outputs]

    def test_manifest_persisted_as_json(self, vault, mnist_recording):
        manifest = vault.pack(mnist_recording)
        on_disk = json.load(open(vault._manifest_path(manifest.digest)))
        assert on_disk["digest"] == manifest.digest
        assert len(on_disk["dumps"]) == len(mnist_recording.dumps)


class TestIntegrityChain:
    def test_corrupt_chunk_fails_fetch_with_location(
            self, vault, mnist_recording):
        manifest = vault.pack(mnist_recording)
        va, _size, chunk_list = manifest.dumps[0]
        _corrupt_object(vault, chunk_list[0][0])
        with pytest.raises(StoreCorruptionError) as info:
            vault.fetch(manifest.digest)
        error = info.value
        assert error.chunk_digest == chunk_list[0][0]
        assert error.recording_digest == manifest.digest
        assert error.dump_index == 0
        assert error.dump_va == va

    def test_valid_zlib_wrong_content_detected(self, vault,
                                               mnist_recording):
        """Damage no zlib check can see -- a flipped byte in a chunk
        that is stored raw -- must still be caught by the content
        address."""
        manifest = vault.pack(mnist_recording)
        raw = next(digest for _va, _size, chunk_list in manifest.dumps
                   for digest, size in chunk_list
                   if vault.object_location(digest)[2] == size)
        _corrupt_object(vault, raw)
        with pytest.raises(StoreCorruptionError,
                           match="does not match its address") as info:
            vault.fetch(manifest.digest)
        assert info.value.chunk_digest == raw

    def test_corrupt_skeleton_detected(self, vault, mnist_recording):
        manifest = vault.pack(mnist_recording)
        _corrupt_object(vault, manifest.skeleton_digest)
        with pytest.raises(StoreCorruptionError):
            vault.fetch(manifest.digest)

    def test_verify_scrubs_whole_vault(self, vault):
        recs = [synthetic_recording(s) for s in (1, 2, 4)]
        manifests = [vault.pack(r) for r in recs]
        assert vault.verify() == []
        victim = next(m for m in manifests if m.chunk_refs())
        _corrupt_object(vault, victim.chunk_refs()[0])
        problems = vault.verify()
        assert len(problems) == \
            sum(1 for m in manifests
                if victim.chunk_refs()[0] in m.chunk_refs())
        assert all(p.recording_digest for p in problems)

    def test_unverified_fetch_returns_damaged_bytes(
            self, vault, mnist_recording):
        manifest = vault.pack(mnist_recording)
        _corrupt_object(vault, manifest.dumps[0][2][0][0])
        recording = vault.fetch(manifest.digest, verify=False)
        assert recording.digest() != manifest.digest
        assert len(recording.dumps) == len(mnist_recording.dumps)

    def test_diagnose_localizes_descriptor_damage(
            self, vault, mnist_recording):
        """Corrupt the chunk holding the first job's descriptor chain:
        verify names the chunk, the doctor names the action."""
        from repro.obs.doctor import first_kick_chain_va
        manifest = vault.pack(mnist_recording)
        chain_va = first_kick_chain_va(mnist_recording)
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
        _corrupt_object(vault, target)
        problems = vault.verify(manifest.digest)
        assert len(problems) == 1
        assert problems[0].chunk_digest == target
        report = vault.diagnose(manifest.digest)
        assert report is not None
        assert report.action_index >= 0


class TestRepeatedChunks:
    """A fetch reads, inflates and hashes each distinct chunk once,
    whatever the number of dumps that reference it."""

    SHARED = bytes(range(200))

    @pytest.fixture
    def packed(self, vault):
        base = synthetic_recording(3)
        recording = Recording(base.meta, base.actions, [
            MemoryDump(0x10000, self.SHARED),
            MemoryDump(0x20000, bytes(reversed(self.SHARED))),
            MemoryDump(0x30000, self.SHARED),
            MemoryDump(0x40000, self.SHARED)])
        manifest = vault.pack(recording)
        refs = manifest.chunk_refs()
        assert len(refs) == 4 and len(set(refs)) == 2
        return recording, manifest

    def test_each_unique_object_read_once(self, vault, packed,
                                          hashed_lengths):
        recording, manifest = packed
        del hashed_lengths[:]   # what packing hashed
        fetched = vault.fetch(manifest.digest, verify=True)
        # Four references, two distinct payloads: two chunk hashes.
        assert hashed_lengths.count(len(self.SHARED)) == 2
        assert hashed_lengths.count(manifest.skeleton_size) == 1
        assert fetched.to_bytes() == recording.to_bytes()
        assert vault.last_fetch_info["chunks"] == 4

    def test_shared_chunk_damage_names_first_referencing_dump(
            self, vault, packed):
        _recording, manifest = packed
        shared = manifest.dumps[0][2][0][0]
        assert shared == manifest.dumps[2][2][0][0]
        _corrupt_object(vault, shared)
        with pytest.raises(StoreCorruptionError) as info:
            vault.fetch(manifest.digest)
        assert info.value.chunk_digest == shared
        assert info.value.dump_index == 0
        assert info.value.dump_va == 0x10000
        assert [p.chunk_digest for p in vault.verify()] == [shared]

    def test_later_ref_with_a_lying_size_still_raises(self, vault,
                                                      packed):
        _recording, manifest = packed
        path = vault._manifest_path(manifest.digest)
        data = json.load(open(path))
        data["dumps"][2]["chunks"][0][1] -= 1  # first ref stays honest
        json.dump(data, open(path, "w"))
        with pytest.raises(StoreCorruptionError,
                           match="manifest says 199") as info:
            vault.fetch(manifest.digest)
        assert info.value.dump_index == 2
        assert info.value.dump_va == 0x30000

    def test_unverified_fetch_repeats_the_damage(self, vault, packed):
        recording, manifest = packed
        _corrupt_object(vault, manifest.dumps[0][2][0][0])
        damaged = vault.fetch(manifest.digest, verify=False)
        assert [d.size for d in damaged.dumps] == \
            [d.size for d in recording.dumps]
        assert bytes(damaged.dumps[0].data) != self.SHARED
        assert bytes(damaged.dumps[0].data) == \
            bytes(damaged.dumps[2].data) == bytes(damaged.dumps[3].data)
        assert bytes(damaged.dumps[1].data) == \
            bytes(recording.dumps[1].data)

    def test_replication_copies_each_object_once(self, tmp_path, vault,
                                                 packed):
        recording, manifest = packed
        local = Vault(str(tmp_path / "local"))
        local.replicate_from(vault, manifest.digest)
        assert local.stats().unique_chunks == 2
        assert local.fetch(manifest.digest).to_bytes() == \
            recording.to_bytes()


class TestGcRefcounts:
    def test_gc_keeps_every_referenced_chunk(self, vault):
        for seed in (1, 2, 4):
            vault.pack(synthetic_recording(seed))
        before = vault.stats()
        removed, freed = vault.gc()
        assert (removed, freed) == (0, 0)
        assert vault.verify() == []
        assert vault.stats().disk_bytes == before.disk_bytes

    def test_remove_then_gc_frees_unshared_chunks_only(self, vault):
        a = vault.pack(synthetic_recording(1))
        b = vault.pack(synthetic_recording(2))
        shared = set(a.objects()) & set(b.objects())
        assert vault.remove(a.digest)
        assert not vault.remove(a.digest)  # already gone
        removed, freed = vault.gc()
        only_a = set(a.objects()) - set(b.objects())
        assert removed == len(only_a)
        assert freed > 0 or not only_a
        # b must still fetch clean, shared chunks intact
        assert vault.verify() == []
        for digest in shared:
            assert os.path.exists(vault.object_location(digest)[0])

    def test_refcounts_count_manifests_not_refs(self, vault,
                                                mnist_recording):
        manifest = vault.pack(mnist_recording)
        counts = vault.chunk_refcounts()
        assert counts[manifest.skeleton_digest] == 1
        # a chunk repeated inside one recording still counts once
        assert all(c == 1 for c in counts.values())

    def test_recording_stats_report_sharing(self, vault):
        from repro.core.patching import patch_recording_for_sku
        from repro.bench.workloads import get_recorded
        workload, _stack = get_recorded("mali", "mnist", True,
                                        "monolithic", "odroid-c4")
        base = workload.recording
        patched, _report = patch_recording_for_sku(base, "g71")
        m_base = vault.pack(base)
        m_patched = vault.pack(patched)
        stats = vault.recording_stats(m_patched.digest)
        assert stats["shared_chunks"] > 0
        assert m_base.digest in stats["shared_with"]
        assert 0.0 < stats["dedup_ratio"] <= 1.0


class TestCompatIndex:
    def test_clock_resolution(self):
        assert gpu_clock_hz("mali-g31") == 650_000_000
        assert gpu_clock_hz("v3d") > 0
        assert gpu_clock_hz("adreno-640") > 0
        assert gpu_clock_hz("unknown-gpu") == 0

    def test_best_for_prefers_exact_board(self, vault):
        from repro.core.patching import patch_recording_for_sku
        from repro.bench.workloads import get_recorded
        workload, _stack = get_recorded("mali", "mnist", True,
                                        "monolithic", "odroid-c4")
        base = workload.recording
        patched, _report = patch_recording_for_sku(base, "g71")
        m_base = vault.pack(base)
        m_patched = vault.pack(patched)
        assert vault.best_for("mali", board="odroid-c4",
                              workload="mnist") == m_base.digest
        # no board: earliest pack wins deterministically
        assert vault.best_for("mali", workload="mnist") == m_base.digest
        assert vault.best_for("v3d") is None
        assert m_patched.digest in vault.index.entries

    def test_index_survives_reload(self, vault, mnist_recording):
        manifest = vault.pack(mnist_recording)
        reopened = Vault(vault.root)
        entry = reopened.index.entries[manifest.digest]
        assert entry.family == "mali"
        assert entry.workload == "mnist"
        assert entry.clock_hz == gpu_clock_hz(entry.gpu_model)

    def test_schema_mismatch_filtered(self):
        index = CompatIndex()
        index.add(CompatEntry(digest="a" * 64, family="mali",
                              board="b", gpu_model="mali-g31",
                              clock_hz=1, workload="w", schema=999))
        assert index.best_for("mali") is None

    def test_corrupt_index_is_store_error(self, tmp_path):
        root = tmp_path / "vault"
        Vault(str(root)).pack(synthetic_recording(1))
        (root / "index.json").write_text("{not json")
        with pytest.raises(StoreError):
            Vault(str(root))


class TestObsIntegration:
    def test_store_metrics_and_spans(self, tmp_path, mnist_recording):
        obs = Observability(VirtualClock())
        vault = Vault(str(tmp_path / "vault"), obs=obs)
        manifest = vault.pack(mnist_recording)
        vault.fetch(manifest.digest)
        vault.verify()
        vault.gc()
        snapshot = obs.snapshot()
        counters = snapshot["counters"]
        assert counters["store.pack.recordings"] == 1
        assert counters["store.pack.chunks_new"] > 0
        assert counters["store.fetch.recordings"] == 1
        assert counters["store.verify.recordings"] == 1
        assert "store.verify.corrupt" not in counters
        names = {e.get("name") for e in
                 obs.to_chrome_trace()["traceEvents"]}
        assert {"store:pack", "store:fetch", "store:verify",
                "store:gc"} <= names
