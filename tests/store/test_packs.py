"""Pack files keep every contract the loose object files had.

The vault stores the objects of one ``pack()`` / ``replicate_from()``
call in one pack file, located through a per-recording index. These
tests pin what that layout must not change: damage is still caught
and located, replication still repairs, gc still frees exactly the
unreferenced objects, a crash still leaves garbage rather than a
dangling manifest -- and what it adds: equal content gives equal
vaults, a fetch reads only its own recording's index, and the deflate
trial is skipped only for chunks that look random and hold no long
repeat.
"""

import math
import os
import random
import zlib
from collections import Counter

import numpy as np
import pytest

from repro.core.dumps import MemoryDump
from repro.core.encoder import encode_skeleton
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
#: Float32 weights, as a model's dumps mostly hold them.
WEIGHTS = np.random.default_rng(6).standard_normal(6000) \
    .astype(np.float32).tobytes()


def _recording(name: str, *payloads: bytes) -> Recording:
    return Recording(
        RecordingMeta(workload=name, family="mali", board="b"), [],
        [MemoryDump(0x10000 * (i + 1), data)
         for i, data in enumerate(payloads)])


@pytest.fixture
def vault(tmp_path):
    return Vault(str(tmp_path / "vault"))


@pytest.fixture
def deflated(monkeypatch):
    """Every payload handed to ``zlib.compress`` from here on."""
    tried = []
    compress = zlib.compress

    def counting(data, *args):
        tried.append(bytes(data))
        return compress(data, *args)
    monkeypatch.setattr(zlib, "compress", counting)
    return tried


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


def _words(vault: Vault, digest: str):
    """{object digest: record word} of one packed recording."""
    return {obj: word for obj, (_pack, _offset, word)
            in vault._source(digest).where.items()}


def trial_word(payload: bytes) -> int:
    """The record word of the plain rule: deflate, keep it if it
    saves a tenth, else store raw."""
    packed = len(zlib.compress(payload, vault_module.OBJECT_ZLIB_LEVEL))
    return packed if packed * 10 <= len(payload) * 9 \
        else len(payload) | vault_module._RAW


def assert_trial_rule(vault: Vault, recordings) -> int:
    """Pack ``recordings``; every object (skeleton and chunks) must be
    stored with the length and raw flag the plain rule gives. Returns
    the number of objects checked."""
    checked = 0
    for recording in recordings:
        manifest = vault.pack(recording)
        words = _words(vault, manifest.digest)
        objects = [(manifest.skeleton_digest, encode_skeleton(recording))]
        for dump, (_va, _size, chunk_list) in zip(recording.dumps,
                                                  manifest.dumps):
            offset = 0
            for digest, size in chunk_list:
                objects.append(
                    (digest, bytes(dump.data[offset:offset + size])))
                offset += size
        for digest, payload in objects:
            assert words[digest] == trial_word(payload), (
                f"{recording.meta.family}/{recording.meta.workload} "
                f"object {digest[:12]}: word {words[digest]:#x}, the "
                f"trial gives {trial_word(payload):#x}")
        checked += len(objects)
    return checked


def _entropy(payload: bytes) -> float:
    """Order-0 byte entropy in bits per bit."""
    n = len(payload)
    return (n * math.log2(n) - sum(c * math.log2(c) for c
                                   in Counter(payload).values())) / (8 * n)


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


class TestTrialGate:
    """Chunks that look random and hold no long repeat are stored raw
    without a deflate trial; everything else is tried as before."""

    def test_float_weights_are_stored_raw_untried(self, vault,
                                                  deflated):
        recording = _recording("w", WEIGHTS)
        manifest = vault.pack(recording)
        chunk_list = manifest.dumps[0][2]
        assert len(chunk_list) >= 4
        words = _words(vault, manifest.digest)
        assert all(words[digest] == size | vault_module._RAW
                   for digest, size in chunk_list)
        assert deflated == [encode_skeleton(recording)]
        assert vault.fetch(manifest.digest).dumps[0].data == WEIGHTS

    @pytest.mark.parametrize("payload", [
        random.Random(5).randbytes(300) * 12, bytes(range(256)) * 16],
        ids=["random-period-300", "byte-ramp"])
    def test_high_entropy_repeats_are_still_deflated(self, payload):
        # Entropy alone would keep these raw; the probes see the repeat.
        assert _entropy(payload) > vault_module.RAW_ENTROPY
        word, stored = vault_module.stored_form(payload)
        assert word == len(stored) < len(payload) // 2
        assert zlib.decompress(stored) == payload

    @pytest.mark.parametrize("symbols", [16, 48], ids=["hex", "48-ary"])
    def test_low_entropy_text_without_repeats_is_deflated(
            self, symbols, monkeypatch):
        rng = random.Random(symbols)
        payload = bytes(rng.choice(range(33, 33 + symbols))
                        for _ in range(4096))
        assert _entropy(payload) < vault_module.RAW_ENTROPY
        word, stored = vault_module.stored_form(payload)
        assert word == trial_word(payload) == len(stored)
        assert zlib.decompress(stored) == payload
        # No probe repeats: entropy alone sends it to the trial.
        monkeypatch.setattr(vault_module, "_ENTROPY_FLOOR", 0)
        assert vault_module._cannot_shrink(payload)

    def test_a_repeat_of_an_eighth_plus_a_probe_is_always_tried(self):
        rng = random.Random(7)
        for n in (256, 257, 1000, 2049, 4096):
            run = math.ceil(n / 8 + 16)
            for _ in range(40):
                chunk = bytearray(rng.randbytes(n))
                assert vault_module._cannot_shrink(bytes(chunk))
                first = rng.randrange(n - run)
                second = rng.randrange(first + 1, n - run + 1)
                for i in range(run):  # forward, as LZ77 copies
                    chunk[second + i] = chunk[first + i]
                assert chunk[first:first + run] == \
                    chunk[second:second + run]
                assert not vault_module._cannot_shrink(bytes(chunk)), \
                    (n, first, second)

    def test_chunks_outside_the_chunker_bounds_are_tried(self):
        noise = random.Random(8).randbytes(5000)
        for size in (255, 4097):
            assert not vault_module._cannot_shrink(noise[:size])
        assert vault_module._cannot_shrink(noise[:256])
        assert vault_module._cannot_shrink(memoryview(noise)[:4096])

    def test_ledger_recordings_are_stored_as_the_trial_would(
            self, tmp_path):
        """cold_start's five recordings and record_pack's three (with
        its two SKU patches): every object's stored length and raw
        flag are what the plain deflate trial gives."""
        from repro.bench.workloads import get_recorded
        from repro.core.patching import patch_recording_for_sku

        pairs = (("mali", "dense-serve"), ("mali", "alexnet"),
                 ("mali", "mnist"), ("v3d", "mnist"), ("adreno", "mnist"))
        recordings = [get_recorded(*pair)[0].recording for pair in pairs]
        g31 = get_recorded("mali", "mnist",
                           board="odroid-c4")[0].recording
        recordings += [g31] + [patch_recording_for_sku(g31, sku)[0]
                               for sku in ("g52", "g71")]
        assert assert_trial_rule(Vault(str(tmp_path / "v")),
                                 recordings) > 5000


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

    def test_replica_records_equal_the_origins(self, tmp_path,
                                               deflated):
        """Verified records cross verbatim: no deflate on the way."""
        peer = Vault(str(tmp_path / "peer"))
        a = peer.pack(_recording("a", NOISE, SOFT, WEIGHTS))
        deflated.clear()
        local = Vault(str(tmp_path / "local"))
        local.replicate_from(peer, a.digest)
        assert deflated == []
        mine, theirs = local._source(a.digest), peer._source(a.digest)
        records = {obj: theirs.stored(obj) for obj in a.objects()}
        assert {word & vault_module._RAW
                for _stored, word in records.values()} == \
            {0, vault_module._RAW}
        for obj, (stored, word) in records.items():
            assert mine.stored(obj)[1] == word
            assert mine.stored(obj)[0] == stored
        assert local.fetch(a.digest).digest() == a.digest

    @pytest.mark.parametrize("dump", [0, 1], ids=["raw", "deflated"])
    def test_a_corrupt_peer_record_is_refused_mid_fetch(self, tmp_path,
                                                        dump):
        peer = Vault(str(tmp_path / "peer"))
        a = peer.pack(_recording("a", NOISE, SOFT))
        victim = a.dumps[dump][2][-1][0]
        raw = _words(peer, a.digest)[victim] & vault_module._RAW
        assert bool(raw) == (dump == 0)
        flip_object_byte(peer, victim)
        local = Vault(str(tmp_path / "local"))
        with pytest.raises(StoreCorruptionError) as info:
            local.replicate_from(peer, a.digest)
        assert info.value.chunk_digest == victim
        assert (info.value.recording_digest, info.value.dump_index) == \
            (a.digest, dump)
        assert local.digests() == [] and _packs(local, ".pack") == []

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
