"""Pack files keep every contract the loose object files had.

The vault stores the objects of one ``pack()`` / ``replicate_from()``
call in one pack file, located through a per-recording index. These
tests pin what that layout must not change: damage is still caught
and located, replication still repairs, gc still frees exactly the
unreferenced objects, a crash still leaves garbage rather than a
dangling manifest -- and what it adds: equal content gives equal
vaults, and a fetch reads only its own recording's index.
"""

import os
import random
import zlib

import pytest

from repro.core.dumps import MemoryDump
from repro.core.recording import Recording, RecordingMeta
from repro.errors import (StoreCorruptionError, StoreError,
                          StoreLayoutError, StoreNotFoundError)
from repro.obs.session import Observability
from repro.soc.clock import VirtualClock
from repro.store import Vault
from repro.store import vault as vault_module
from repro.tools.grr import main
from repro.tools.smoke import flip_object_byte

#: Incompressible (stored raw) and compressible (stored deflated)
#: dump payloads; SHARED turns up in several recordings.
NOISE = random.Random(1).randbytes(3000)
SHARED = random.Random(2).randbytes(2500)
SOFT = b"weights " * 300


def _recording(name: str, *payloads: bytes) -> Recording:
    return Recording(
        RecordingMeta(workload=name, family="mali", board="b"), [],
        [MemoryDump(0x10000 * (i + 1), data)
         for i, data in enumerate(payloads)])


@pytest.fixture
def vault(tmp_path):
    return Vault(str(tmp_path / "vault"))


def _tree(root: str):
    """{relative path: bytes} of everything under ``root``."""
    out = {}
    for folder, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _packs(vault: Vault, ext: str):
    return sorted(name for name in os.listdir(vault._packs_dir)
                  if name.endswith(ext))


class TestLayout:
    def test_one_pack_and_one_index_per_pack_call(self, vault):
        a = vault.pack(_recording("a", NOISE, SHARED))
        vault.pack(_recording("b", SHARED, SOFT))
        assert len(_packs(vault, ".pack")) == 2
        assert _packs(vault, ".idx") == sorted(
            digest + ".idx" for digest in vault.digests())
        assert not os.path.exists(os.path.join(vault.root, "objects"))
        before = _tree(vault.root)
        assert vault.pack(_recording("a", NOISE, SHARED)).digest == \
            a.digest
        assert _tree(vault.root) == before

    def test_only_chunks_zlib_shrinks_are_deflated(self, vault):
        """Deflated only when that saves at least a tenth: a chunk
        zlib shrinks by ~5% is stored raw, one it halves is not."""
        slight = random.Random(3).randbytes(2850) + bytes(150)
        half = random.Random(4).randbytes(1500) + bytes(1500)
        payloads = (NOISE, slight, half, SOFT)
        manifest = vault.pack(_recording("a", *payloads))
        saved = []
        for payload, (_va, _size, chunk_list) in zip(payloads,
                                                     manifest.dumps):
            offset = 0
            shares = []
            for digest, size in chunk_list:
                packed = len(zlib.compress(payload[offset:offset + size],
                                           vault_module.OBJECT_ZLIB_LEVEL))
                offset += size
                deflated = packed * 10 <= size * 9
                assert vault.object_location(digest)[2] == \
                    (packed if deflated else size)
                shares.append((1 - packed / size, deflated))
            saved.append(shares)
        noise, slight_saved, half_saved, soft = saved
        assert all(share <= 0 and not deflated
                   for share, deflated in noise)
        assert all(0.03 < share < 0.1 and not deflated
                   for share, deflated in slight_saved)
        assert all(share > 0.4 and deflated
                   for share, deflated in half_saved + soft)
        fetched = vault.fetch(manifest.digest)
        assert [bytes(d.data) for d in fetched.dumps] == list(payloads)

    def test_same_content_gives_byte_identical_vaults(self, tmp_path):
        trees = []
        for name in ("one", "two"):
            vault = Vault(str(tmp_path / name))
            vault.pack(_recording("a", NOISE, SHARED))
            vault.pack(_recording("b", SHARED, SOFT))
            trees.append(_tree(vault.root))
        assert trees[0] == trees[1]

    def test_object_bytes_count_packs_and_indexes(self, vault):
        vault.pack(_recording("a", NOISE, SHARED))
        vault.pack(_recording("b", SHARED, SOFT))
        on_disk = sum(len(blob) for path, blob
                      in _tree(vault.root).items()
                      if path.startswith("packs"))
        assert vault.stats().object_bytes == on_disk
        assert any(path.endswith(".idx") for path in _tree(vault.root))

    def test_object_location_of_unknown_digest(self, vault):
        with pytest.raises(StoreNotFoundError):
            vault.object_location("0" * 64)


class TestDamage:
    def test_flipped_byte_names_chunk_dump_va_and_offset(self, vault):
        manifest = vault.pack(_recording(
            "a", SOFT, random.Random(5).randbytes(12_000)))
        va, _size, chunk_list = manifest.dumps[1]
        assert len(chunk_list) >= 3
        flip_object_byte(vault, chunk_list[2][0])
        with pytest.raises(StoreCorruptionError) as info:
            vault.fetch(manifest.digest)
        error = info.value
        assert error.chunk_digest == chunk_list[2][0]
        assert error.recording_digest == manifest.digest
        assert (error.dump_index, error.dump_va) == (1, va)
        assert error.dump_offset == chunk_list[0][1] + chunk_list[1][1]

    def test_truncated_pack_is_a_typed_error(self, vault):
        manifest = vault.pack(_recording("a", NOISE, SHARED, SOFT))
        path = vault.object_location(manifest.skeleton_digest)[0]
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(StoreCorruptionError, match="cut short"):
            vault.fetch(manifest.digest)
        assert [p.recording_digest for p in vault.verify()] == \
            [manifest.digest]
        # the forensics path still gets something of the right shape
        damaged = vault.fetch(manifest.digest, verify=False)
        assert [d.size for d in damaged.dumps] == [3000, 2500, 2400]
        with pytest.raises(StoreError, match="truncated pack"):
            vault.gc()

    def test_missing_pack_is_not_found(self, vault):
        manifest = vault.pack(_recording("a", NOISE))
        os.remove(vault.object_location(manifest.skeleton_digest)[0])
        with pytest.raises(StoreNotFoundError):
            vault.fetch(manifest.digest)

    @pytest.mark.parametrize("damage", ["missing", "flipped", "cut"])
    def test_bad_index_is_typed_and_rebuildable(self, vault, damage):
        a = vault.pack(_recording("a", NOISE, SHARED))
        b = vault.pack(_recording("b", SHARED, SOFT))
        path = os.path.join(vault._packs_dir, b.digest + ".idx")
        pristine = open(path, "rb").read()
        if damage == "missing":
            os.remove(path)
        elif damage == "flipped":
            raw = bytearray(pristine)
            raw[len(raw) // 2] ^= 0x01
            open(path, "wb").write(bytes(raw))
        else:
            open(path, "wb").write(pristine[:40])
        with pytest.raises(StoreError, match="object index") as info:
            vault.fetch(b.digest)
        assert not isinstance(info.value, (StoreCorruptionError,
                                           StoreNotFoundError))
        # the neighbour never looks at that file
        assert vault.fetch(a.digest).digest() == a.digest
        with pytest.raises(StoreError, match="grr store reindex"):
            vault.verify()
        assert main(["store", "reindex", vault.root]) == 0
        assert open(path, "rb").read() == pristine
        assert vault.fetch(b.digest).digest() == b.digest


class TestReplication:
    def test_skips_present_objects_and_adds_one_pack(self, tmp_path):
        peer = Vault(str(tmp_path / "peer"))
        peer.pack(_recording("a", NOISE, SHARED))
        b = peer.pack(_recording("b", SHARED, SOFT))
        obs = Observability(VirtualClock())
        local = Vault(str(tmp_path / "local"), obs=obs)
        local.pack(_recording("a", NOISE, SHARED))
        local.replicate_from(peer, b.digest)
        assert len(_packs(local, ".pack")) == 2
        counters = obs.snapshot()["counters"]
        # b's skeleton and its SOFT chunks cross; SHARED's do not
        shared_chunks = {d for d, _s in b.dumps[0][2]}
        assert counters["store.replicate.objects"] == \
            len(set(b.objects()) - shared_chunks)
        assert "store.replicate.healed" not in counters
        assert local.fetch(b.digest).digest() == b.digest
        assert _tree(local.root) == _tree(peer.root)

    def test_healing_a_shared_chunk_heals_every_recording(
            self, tmp_path):
        peer = Vault(str(tmp_path / "peer"))
        obs = Observability(VirtualClock())
        local = Vault(str(tmp_path / "local"), obs=obs)
        for vault in (peer, local):
            a = vault.pack(_recording("a", NOISE, SHARED))
            b = vault.pack(_recording("b", SHARED, SOFT))
        pristine = _tree(local.root)
        flip_object_byte(local, b.dumps[0][2][0][0])
        assert len(local.verify()) == 2
        local.replicate_from(peer, b.digest)
        assert obs.snapshot()["counters"]["store.replicate.healed"] == 1
        assert local.verify() == []
        assert local.fetch(a.digest).digest() == a.digest
        assert _tree(local.root) == pristine


class TestGc:
    def test_partially_live_pack_is_rewritten(self, vault):
        a = vault.pack(_recording("a", NOISE, SHARED))
        b_recording = _recording("b", SHARED, SOFT)
        b = vault.pack(b_recording)
        shared_pack = vault.object_location(b.dumps[0][2][0][0])[0]
        assert shared_pack == vault.object_location(a.skeleton_digest)[0]
        before = vault.stats().disk_bytes
        assert vault.remove(a.digest)
        removed, freed = vault.gc()
        assert removed == len(set(a.objects()) - set(b.objects()))
        assert freed > len(NOISE)
        assert vault.stats().disk_bytes < before - len(NOISE)
        assert not os.path.exists(shared_pack)
        assert _packs(vault, ".idx") == [b.digest + ".idx"]
        assert vault.verify() == []
        assert vault.fetch(b.digest).to_bytes() == b_recording.to_bytes()
        assert vault.gc() == (0, 0)
        # what survives is what a vault that only ever saw b holds,
        # apart from the name and order of the rewritten pack
        assert vault.stats().unique_chunks == len(set(b.chunk_refs()))

    def test_dead_pack_is_deleted_and_live_ones_untouched(self, vault):
        a = vault.pack(_recording("a", NOISE))
        vault.pack(_recording("b", SOFT))
        dead_pack = vault.object_location(a.skeleton_digest)[0]
        dead_bytes = os.path.getsize(dead_pack)
        survivors = {
            name: blob for name, blob in _tree(vault.root).items()
            if a.digest not in name
            and os.path.basename(dead_pack) not in name}
        vault.remove(a.digest)
        assert vault.gc() == (len(set(a.objects())), dead_bytes)
        after = _tree(vault.root)
        after.pop("index.json"), survivors.pop("index.json")
        assert after == survivors

    def test_crash_before_the_manifest_leaves_only_garbage(
            self, vault, monkeypatch):
        recording = _recording("a", NOISE, SHARED)

        def crash(_manifest):
            raise OSError("power cut")
        monkeypatch.setattr(vault, "_write_manifest", crash)
        with pytest.raises(OSError):
            vault.pack(recording)
        monkeypatch.undo()
        assert vault.digests() == []
        assert vault.verify() == []
        assert _packs(vault, ".pack") and _packs(vault, ".idx")
        removed, freed = vault.gc()
        assert removed == 1 + len(vault.pack(recording).chunk_refs()) \
            and freed > 0
        assert vault.fetch(recording.digest()).digest() == \
            recording.digest()
        assert len(_packs(vault, ".pack")) == 1


class TestLookupCost:
    def test_small_fetch_reads_only_its_own_index(self, vault,
                                                  monkeypatch):
        rng = random.Random(9)
        big = vault.pack(_recording(
            "big", SHARED, *(rng.randbytes(4000) for _ in range(60))))
        small = vault.pack(_recording("small", SHARED, SOFT))
        idx = {d: os.path.getsize(os.path.join(vault._packs_dir,
                                               d + ".idx"))
               for d in (big.digest, small.digest)}
        assert idx[big.digest] > 10 * idx[small.digest]
        # small's SHARED chunks live in big's pack all the same
        assert vault.object_location(small.dumps[0][2][0][0])[0] == \
            vault.object_location(big.skeleton_digest)[0]

        index_bytes = []
        real = vault_module._load_index

        def counting(path):
            index_bytes.append(os.path.getsize(path))
            return real(path)
        monkeypatch.setattr(vault_module, "_load_index", counting)
        reopened = Vault.open(vault.root)
        assert index_bytes == []  # opening a vault loads no index
        assert reopened.fetch(small.digest).digest() == small.digest
        assert index_bytes == [idx[small.digest]]


class TestRetiredLayout:
    @pytest.fixture
    def loose(self, tmp_path):
        root = tmp_path / "old"
        (root / "objects" / "ab").mkdir(parents=True)
        (root / "manifests").mkdir()
        (root / "objects" / "ab" / ("ab" + "0" * 62 + ".z")).write_bytes(
            b"x")
        return str(root)

    def test_loose_objects_directory_is_refused(self, loose):
        for opener in (Vault, Vault.open):
            with pytest.raises(StoreLayoutError, match="objects/"):
                opener(loose)
        assert issubclass(StoreLayoutError, StoreError)
        assert not os.path.exists(os.path.join(loose, "packs"))

    def test_grr_exits_2(self, loose, capsys):
        assert main(["store", "ls", loose]) == 2
        assert main(["store", "verify", loose]) == 2
        assert "objects/" in capsys.readouterr().err


class TestSharingStats:
    def test_each_manifest_is_loaded_once(self, vault, monkeypatch):
        rng = random.Random(4)
        for job in range(12):
            vault.pack(_recording(f"mnist#job{job}", SHARED,
                                  rng.randbytes(600)))
        loads = []
        real = vault.load_manifest

        def counting(digest, *args, **kwargs):
            loads.append(digest)
            return real(digest, *args, **kwargs)
        monkeypatch.setattr(vault, "load_manifest", counting)
        stats = vault.job_sharing_stats()
        assert stats["micro_recordings"] == 12
        assert sorted(loads) == vault.digests()
        assert stats["shared_chunk_refs"] == \
            12 * len(vault_module.cdc.split(SHARED))
        one = vault.recording_stats(vault.digests()[0])
        assert one == next(p for p in stats["per_recording"]
                           if p["digest"] == one["digest"])
