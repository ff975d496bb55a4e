"""The content-addressed recording vault.

On-disk layout under one root directory::

    packs/<sha256>.pack       the objects one ``pack()`` /
                              ``replicate_from()`` call added -- dump
                              chunks and recording skeletons -- back to
                              back, each behind a 4-byte record word
                              (stored length; top bit set when the bytes
                              are stored raw: ``stored_form`` keeps an
                              object raw when zlib would not shrink it
                              by a tenth, or -- with no deflate trial --
                              when it is a chunk whose bytes look
                              random and hold no long repeat). Named by
                              the SHA-256 of the file, so equal content
                              gives equal vaults.
    packs/<digest>.idx        one per packed recording: where every
                              object *that recording* needs lives --
                              fixed-width entries (object digest ->
                              pack, offset, record word), sorted by
                              digest, sealed with a SHA-256. Derived
                              data: ``reindex()`` rebuilds it from the
                              packs.
    manifests/<digest>.json   one per packed recording: the skeleton
                              object, the per-dump chunk lists, and the
                              recording digest the reassembly must hash
                              back to
    index.json                the compatibility index (repro.store.index)

Objects are still addressed by the SHA-256 of their *uncompressed*
bytes; packs only change how many files hold them. A fetch reads the
recording's own ``.idx`` (objects it shares with earlier recordings are
listed there too, pointing into the earlier packs -- so the cost is
O(objects of this recording), whatever else the vault holds), then one
contiguous span per pack touched. A chunk stored raw is handed on as
a view into that span, with no inflate and no copy.

Integrity is a chain with the recording digest at the root: the
manifest names every chunk by content hash, and the recording a fetch
reassembles must hash back to the manifest's ``digest`` -- the same
value ``Recording.digest()`` computes and the replay load cache keys
on. A verified fetch checks it there, at the root: it takes each chunk
as it finds it (located, whole, inflated, of its manifest size) and
hashes the dump bytes once, for the recording digest. A chunk is
hashed only to name damage: on any failure the fetch walks the chunks
through the per-object check in manifest order, so a mismatch raises
:class:`StoreCorruptionError` carrying the chunk and the dump location,
and the damaged recording can be handed straight to the replay doctor
(:meth:`Vault.diagnose`). Nothing is trusted for being in the index: a
wrong offset only ever yields bytes that fail the root, then their
address.

Garbage collection is refcount-shaped: a chunk is live while any
manifest references it, and ``gc()`` deletes packs no index reaches
and rewrites partially-live ones. Writes go pack, index, manifest and
removal goes manifest, index, so a crash in between leaves garbage,
never a dangling manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.recording import Recording
from repro.errors import (SerializationError, StoreCorruptionError,
                          StoreError, StoreLayoutError, StoreNotFoundError)
from repro.gpu import gpu_clock_hz
from repro.obs.session import NULL_OBS
from repro.store import chunks as cdc
from repro.store.index import CompatEntry, CompatIndex

#: zlib level for stored objects; fixed so two packs of the same
#: content produce byte-identical vaults.
OBJECT_ZLIB_LEVEL = 6

MANIFEST_SCHEMA = 1

#: The word in front of every pack record (and in every index entry):
#: stored length, ``_RAW`` set when the bytes are not zlib-compressed.
_RECORD = struct.Struct("<I")
_RAW = 1 << 31
_LENGTH = _RAW - 1

#: Order-0 byte entropy, in bits per bit, above which a chunk with no
#: long repeat is stored raw untried (``_cannot_shrink``). Over every
#: chunk of the 14 zoo models on mali, v3d and adreno, none that zlib
#: shrinks by a tenth scores above 0.700; the weight chunks it keeps
#: raw score at least 0.800.
RAW_ENTROPY = 0.75
_PROBES = 8
_PROBE = 16
#: c * log2(c) for every byte count a gated chunk can hold, in units
#: of 2**-16 bits, so the entropy test is exact integer arithmetic.
_COUNT = np.arange(cdc.CHUNK_MAX + 1)
_CLOGC = np.rint(_COUNT * np.log2(_COUNT.clip(1)) * (1 << 16)) \
    .astype(np.int64)
_ENTROPY_FLOOR = round(8 * RAW_ENTROPY * (1 << 16))

_INDEX_MAGIC = b"GRIX"
_INDEX_HEADER = struct.Struct("<4sI")       # magic, number of packs
_INDEX_ENTRY = struct.Struct("<32sHQI")     # digest, pack no, offset, word
_SEAL = hashlib.sha256().digest_size

#: Where an object's stored bytes are: (pack id, offset, record word).
Location = Tuple[str, int, int]


def _encode_index(where: Dict[str, Location]) -> bytes:
    packs = sorted({pack for pack, _offset, _word in where.values()})
    number = {pack: no for no, pack in enumerate(packs)}
    body = b"".join(
        [_INDEX_HEADER.pack(_INDEX_MAGIC, len(packs))]
        + [bytes.fromhex(pack) for pack in packs]
        + [_INDEX_ENTRY.pack(bytes.fromhex(digest), number[pack],
                             offset, word)
           for digest, (pack, offset, word) in sorted(where.items())])
    return body + hashlib.sha256(body).digest()


#: One index entry as numpy reads it: ``_INDEX_ENTRY``'s layout, and
#: the digest's first 8 bytes again as a big-endian ``prefix``, which
#: sorts as the digests do.
_INDEX_ROW = np.dtype({
    "names": ["digest", "prefix", "pack", "offset", "word"],
    "formats": ["S32", ">u8", "<u2", "<u8", "<u4"],
    "offsets": [0, 0, 32, 34, 42], "itemsize": _INDEX_ENTRY.size})
#: A digest as the manifest names it, with its ``prefix``.
_DIGEST = np.dtype({"names": ["digest", "prefix"],
                    "formats": ["S32", ">u8"], "offsets": [0, 0],
                    "itemsize": _SEAL})


class _Index:
    """One recording's object index: its packs and its entries, sorted
    by digest, as one structured array (no dict or hex string per
    object until :meth:`where` asks for them)."""

    def __init__(self, packs: List[str], rows: np.ndarray):
        self.packs = packs
        self.rows = rows

    def where(self) -> Dict[str, Location]:
        """object digest -> Location of every entry."""
        packs = self.packs
        return {digest.hex(): (packs[no], offset, word)
                for digest, no, offset, word in _INDEX_ENTRY.iter_unpack(
                    self.rows.tobytes())}

    def find(self, digests: List[str]) -> np.ndarray:
        """The row of each hex digest, -1 where the index has none."""
        joined = "".join(digests)
        try:   # 64 lowercase hex digits each: no space, no A-F
            wanted = np.frombuffer(bytes.fromhex(joined), _DIGEST)
            exact = len(wanted) == len(digests) and \
                set(map(len, digests)) <= {2 * _SEAL} and \
                not any(map(joined.__contains__, "ABCDEF"))
        except ValueError:
            exact = False
        del joined
        if not exact:
            if len(digests) == 1:
                return np.array([-1])
            return np.concatenate([self.find([digest])
                                   for digest in digests])
        keys, names = self.rows["digest"], wanted["digest"]
        if not len(keys):
            return np.full(len(names), -1, np.int64)
        # Searched by prefix, confirmed whole; a digest that shares its
        # prefix with another may land on that one, and is searched
        # whole.
        rows = np.searchsorted(self.rows["prefix"], wanted["prefix"]) \
            .clip(0, len(keys) - 1)
        hit = keys[rows] == names
        if not hit.all():
            rows[~hit] = np.searchsorted(keys, names[~hit]) \
                .clip(0, len(keys) - 1)
            hit = keys[rows] == names
        return np.where(hit, rows, -1)

    def source(self, packs_dir: str, digests: List[str]) -> "_Source":
        """A :class:`_Source` of the named objects the index has."""
        rows = self.find(digests)
        return _Source(packs_dir, {
            digest: (self.packs[self.rows["pack"][row]],
                     int(self.rows["offset"][row]),
                     int(self.rows["word"][row]))
            for digest, row in zip(digests, rows.tolist()) if row >= 0})


def _load_index(path: str) -> _Index:
    """Parse one recording's object index, whole (it is as long as
    the recording has objects, not as the vault has)."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise StoreError(f"missing object index {path} "
                         f"(`grr store reindex` rebuilds it)")
    body = blob[:-_SEAL]
    if (len(body) < _INDEX_HEADER.size
            or hashlib.sha256(body).digest() != blob[-_SEAL:]
            or body[:4] != _INDEX_MAGIC):
        raise StoreError(f"corrupt object index {path} "
                         f"(`grr store reindex` rebuilds it)")
    _magic, n_packs = _INDEX_HEADER.unpack_from(body)
    entries = _INDEX_HEADER.size + n_packs * _SEAL
    packs = [body[at:at + _SEAL].hex()
             for at in range(_INDEX_HEADER.size, entries, _SEAL)]
    return _Index(packs, np.frombuffer(body, _INDEX_ROW, offset=entries))


def _scan_pack(path: str) -> Tuple[bytes, List[Tuple[int, int]]]:
    """A pack's bytes and the (offset, word) of every record in it."""
    with open(path, "rb") as handle:
        blob = handle.read()
    records = []
    pos = 0
    while pos < len(blob):
        end = pos + _RECORD.size
        if end <= len(blob):
            word, = _RECORD.unpack_from(blob, pos)
            end += word & _LENGTH
        if end > len(blob):
            raise StoreError(f"truncated pack {path}")
        records.append((pos + _RECORD.size, word))
        pos = end
    return blob, records


def _cannot_shrink(payload: bytes) -> bool:
    """Whether a chunk is random-looking enough to store raw without
    a deflate trial: ``CHUNK_MIN`` to ``CHUNK_MAX`` bytes, none of
    eight evenly spaced 16-byte probes found earlier in it, and an
    order-0 entropy above ``RAW_ENTROPY``. The probes stand from
    ``(n-16)/8`` to ``n-16`` no more than ``n/8`` apart, so any run of
    ``n/8 + 16`` bytes that occurs twice covers one probe of its second
    copy, and such a chunk always goes to the trial."""
    n = len(payload)
    if not cdc.CHUNK_MIN <= n <= cdc.CHUNK_MAX:
        return False
    payload = bytes(payload)  # a no-op on bytes; views have no find()
    for k in range(1, _PROBES + 1):
        at = k * (n - _PROBE) // _PROBES
        if payload.find(payload[at:at + _PROBE], 0, at + _PROBE - 1) >= 0:
            return False
    counts = np.bincount(np.frombuffer(payload, np.uint8), minlength=256)
    return int(_CLOGC[n] - _CLOGC[counts].sum()) > _ENTROPY_FLOOR * n


def stored_form(payload: bytes) -> Tuple[int, bytes]:
    """The vault's storage rule: (record word, stored bytes) of one
    object. Deflated only when that saves a tenth -- a read inflates
    every deflated object it touches, a raw one is a view of the span
    -- and chunks that ``_cannot_shrink`` skip the trial. A pure
    function of the bytes, so equal content gives equal packs."""
    if not _cannot_shrink(payload):
        packed = zlib.compress(payload, OBJECT_ZLIB_LEVEL)
        if len(packed) * 10 <= len(payload) * 9:
            return len(packed), packed
    return len(payload) | _RAW, payload


class _Unsound(Exception):
    """A chunk a verified fetch cannot take as found: the fetch walks
    the chunks to name the damage (``Vault._name_damage``)."""


def _dump_size_error(manifest: "Manifest", dump_index: int, va: int,
                     got: int, size: int) -> StoreCorruptionError:
    return StoreCorruptionError(
        f"dump reassembled to {got} bytes, manifest says {size}",
        recording_digest=manifest.digest, dump_index=dump_index,
        dump_va=va)


class _PackWriter:
    """Streams added objects into a fresh pack file, renamed to the
    SHA-256 of its bytes when the ``with`` block completes; no file
    when nothing was added, and none is kept when the block raises."""

    def __init__(self, packs_dir: str):
        self._packs_dir = packs_dir
        self._tmp = os.path.join(packs_dir, f"incoming-{os.getpid()}.tmp")
        self._handle = None
        self._sha = hashlib.sha256()
        self._size = 0
        self._added: Dict[Hashable, Tuple[int, int]] = {}
        #: key -> Location of everything added, once the block is done.
        self.located: Dict[Hashable, Location] = {}

    def __enter__(self) -> "_PackWriter":
        return self

    def put(self, payload: bytes, present) -> Tuple[str, bool]:
        """Add ``payload`` unless ``present`` or this pack already has
        it; returns (its address, whether it was added)."""
        digest = hashlib.sha256(payload).hexdigest()
        new = digest not in present and digest not in self._added
        if new:
            self.add_stored(digest, *stored_form(payload))
        return digest, new

    def add_stored(self, key: Hashable, word: int, stored: bytes) -> None:
        if self._handle is None:
            self._handle = open(self._tmp, "wb")
        for part in (_RECORD.pack(word), stored):
            self._handle.write(part)
            self._sha.update(part)
        self._added[key] = (self._size + _RECORD.size, word)
        self._size += _RECORD.size + len(stored)

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if self._handle is None:
            return
        self._handle.close()
        if exc_type is not None:
            os.remove(self._tmp)
            return
        pack = self._sha.hexdigest()
        os.replace(self._tmp,
                   os.path.join(self._packs_dir, pack + ".pack"))
        self.located = {key: (pack, offset, word)
                        for key, (offset, word) in self._added.items()}


class _Source:
    """Stored bytes of a set of located objects, at one read per pack
    touched: the span from the first to the last of *these* objects."""

    def __init__(self, packs_dir: str, where: Dict[str, Location]):
        self._packs_dir = packs_dir
        self.where = where
        self._spans: Optional[Dict[str, Tuple[int, memoryview]]] = None

    def stored(self, digest: str) -> Optional[Tuple[memoryview, int]]:
        """(stored bytes, record word), or None when the object is not
        located or its pack is gone; the bytes come up short when the
        pack is truncated."""
        location = self.where.get(digest)
        if location is None:
            return None
        pack, offset, word = location
        span = self.spans().get(pack)
        if span is None:
            return None
        start = offset - span[0]
        return span[1][start:start + (word & _LENGTH)], word

    def spans(self) -> Dict[str, Tuple[int, memoryview]]:
        """pack -> (offset of the first byte read, the bytes), read on
        first use; a pack that is gone has no entry."""
        if self._spans is not None:
            return self._spans
        # Records never overlap, so one that starts below the span
        # cannot also end above it: one comparison settles most.
        bounds: Dict[str, List[int]] = {}
        for pack, offset, word in self.where.values():
            bound = bounds.get(pack)
            if bound is None:
                bounds[pack] = [offset, offset + (word & _LENGTH)]
            elif offset < bound[0]:
                bound[0] = offset
            elif offset + (word & _LENGTH) > bound[1]:
                bound[1] = offset + (word & _LENGTH)
        self._spans = {}
        for pack, (low, high) in bounds.items():
            try:
                with open(os.path.join(self._packs_dir, pack + ".pack"),
                          "rb") as handle:
                    handle.seek(low)
                    self._spans[pack] = (
                        low, memoryview(handle.read(high - low)))
            except FileNotFoundError:
                pass
        return self._spans


@dataclass
class Manifest:
    """Everything needed to reassemble (and trust) one recording."""

    digest: str
    skeleton_digest: str
    skeleton_size: int
    #: Per dump: (va, size, [(chunk_digest, size), ...]).
    dumps: List[Tuple[int, int, List[Tuple[str, int]]]]
    workload: str = ""
    family: str = ""
    board: str = ""
    gpu_model: str = ""
    chunk_scheme: str = cdc.CHUNK_SCHEME
    schema: int = MANIFEST_SCHEMA

    def chunk_refs(self) -> List[str]:
        """Every chunk digest this recording references, with repeats."""
        return [digest for _va, _size, chunk_list in self.dumps
                for digest, _csize in chunk_list]

    def objects(self) -> List[str]:
        """Every object digest the recording needs (skeleton first)."""
        return [self.skeleton_digest] + self.chunk_refs()

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "digest": self.digest,
            "workload": self.workload,
            "family": self.family,
            "board": self.board,
            "gpu_model": self.gpu_model,
            "chunk_scheme": self.chunk_scheme,
            "skeleton": {"digest": self.skeleton_digest,
                         "size": self.skeleton_size},
            "dumps": [{"va": va, "size": size,
                       "chunks": [[digest, csize]
                                  for digest, csize in chunk_list]}
                      for va, size, chunk_list in self.dumps],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Manifest":
        if data.get("schema") != MANIFEST_SCHEMA:
            raise StoreError(
                f"unsupported manifest schema {data.get('schema')!r}")
        return cls(
            digest=data["digest"],
            skeleton_digest=data["skeleton"]["digest"],
            skeleton_size=data["skeleton"]["size"],
            dumps=[(d["va"], d["size"], list(map(tuple, d["chunks"])))
                   for d in data["dumps"]],
            workload=data.get("workload", ""),
            family=data.get("family", ""),
            board=data.get("board", ""),
            gpu_model=data.get("gpu_model", ""),
            chunk_scheme=data.get("chunk_scheme", cdc.CHUNK_SCHEME))


@dataclass
class VaultStats:
    """Aggregate accounting for one vault."""

    recordings: int = 0
    chunk_refs: int = 0
    unique_chunks: int = 0
    #: Dump + skeleton bytes as the recordings see them (uncompressed,
    #: with duplicates counted once per recording).
    logical_bytes: int = 0
    #: Everything under ``packs/``: pack files and object indexes.
    object_bytes: int = 0
    manifest_bytes: int = 0
    index_bytes: int = 0

    @property
    def disk_bytes(self) -> int:
        return self.object_bytes + self.manifest_bytes + self.index_bytes

    @property
    def shared_chunk_ratio(self) -> float:
        """Fraction of chunk references resolved by dedup."""
        if not self.chunk_refs:
            return 0.0
        return 1.0 - self.unique_chunks / self.chunk_refs


class Vault:
    """A content-addressed recording store rooted at one directory."""

    def __init__(self, root: str, obs=NULL_OBS):
        self.root = root
        self.obs = obs
        self._packs_dir = os.path.join(root, "packs")
        self._manifests_dir = os.path.join(root, "manifests")
        self._index_path = os.path.join(root, "index.json")
        if os.path.isdir(os.path.join(root, "objects")):
            raise StoreLayoutError(
                f"{root} holds the retired loose objects/ layout; this "
                f"version reads pack files only -- re-pack the "
                f"recordings into a fresh vault")
        os.makedirs(self._packs_dir, exist_ok=True)
        os.makedirs(self._manifests_dir, exist_ok=True)
        self.index = CompatIndex.load(self._index_path)
        #: What the most recent :meth:`fetch` moved -- chunk and byte
        #: counts plus the digest prefix. Read by the serving engine's
        #: request tracer; purely informational.
        self.last_fetch_info: Dict[str, object] = {}

    @classmethod
    def open(cls, root: str, obs=NULL_OBS) -> "Vault":
        """Open an existing vault; unlike the constructor, a missing
        directory is a usage error, not a fresh vault."""
        if not os.path.isdir(os.path.join(root, "manifests")):
            raise StoreNotFoundError(f"no vault at {root}")
        return cls(root, obs=obs)

    # -- object plumbing -----------------------------------------------------

    def _packs_file(self, stem: str, ext: str) -> str:
        return os.path.join(self._packs_dir, stem + ext)

    def _manifest_path(self, digest: str) -> str:
        return os.path.join(self._manifests_dir, digest + ".json")

    def _source(self, recording_digest: str,
                only: Optional[str] = None) -> _Source:
        """The objects of one packed recording -- or just ``only`` --
        via the recording's own index."""
        index = _load_index(self._packs_file(recording_digest, ".idx"))
        if only is not None:
            return index.source(self._packs_dir, [only])
        return _Source(self._packs_dir, index.where())

    def _all_locations(self) -> Dict[str, Location]:
        """Every indexed object of the vault: what a write dedups
        against. O(vault), so the read path never calls it."""
        where: Dict[str, Location] = {}
        for name in sorted(os.listdir(self._packs_dir)):
            if name.endswith(".idx"):
                where.update(
                    _load_index(os.path.join(self._packs_dir, name)).where())
        return where

    @staticmethod
    def _replace_file(path: str, data: bytes) -> None:
        with open(path + ".tmp", "wb") as handle:
            handle.write(data)
        os.replace(path + ".tmp", path)

    def _write_index(self, recording_digest: str,
                     where: Dict[str, Location]) -> None:
        self._replace_file(self._packs_file(recording_digest, ".idx"),
                           _encode_index(where))

    def object_location(self, digest: str) -> Tuple[str, int, int]:
        """(pack path, offset, length) of an object's stored bytes --
        what a fault-injection test or a forensics tool pokes at."""
        location = self._all_locations().get(digest)
        if location is None:
            raise StoreNotFoundError(f"no object {digest[:12]} in "
                                     f"{self.root}")
        pack, offset, word = location
        return self._packs_file(pack, ".pack"), offset, word & _LENGTH

    def _get_object(self, digest: str, source: _Source,
                    expect_size: int = -1,
                    context: Optional[dict] = None) -> bytes:
        """Take one object out of ``source`` and integrity-check it.

        ``context`` (recording digest / dump location) flows into the
        corruption error so the caller can hand off to the doctor.
        """
        ctx = context or {}
        found = source.stored(digest)
        if found is None:
            raise StoreNotFoundError(
                f"missing object {digest[:12]} (not in the index, or "
                f"its pack is gone from {self._packs_dir})")
        payload, word = found
        if len(payload) != word & _LENGTH:
            raise StoreCorruptionError(
                f"object {digest[:12]} is cut short: truncated pack",
                chunk_digest=digest, **ctx)
        if not word & _RAW:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise StoreCorruptionError(
                    f"object {digest[:12]} is not valid zlib: {exc}",
                    chunk_digest=digest, **ctx)
        if hashlib.sha256(payload).hexdigest() != digest:
            raise StoreCorruptionError(
                "object content does not match its address",
                chunk_digest=digest, **ctx)
        if expect_size >= 0 and len(payload) != expect_size:
            raise StoreCorruptionError(
                f"object {digest[:12]} has {len(payload)} bytes, "
                f"manifest says {expect_size}",
                chunk_digest=digest, **ctx)
        return payload

    # -- pack ----------------------------------------------------------------

    def pack(self, recording: Recording) -> Manifest:
        """Add one recording; idempotent on content.

        Splits every dump with the content-defined chunker, appends
        the new chunks and the skeleton to one fresh pack, writes the
        recording's object index and manifest, and registers the
        recording in the compatibility index. Returns the manifest (the existing one when the same
        content was already packed).
        """
        obs = self.obs
        digest = recording.digest()
        with obs.span("store:pack", obs.track("store", "vault"),
                      cat="store",
                      args={"digest": digest[:12],
                            "workload": recording.meta.workload}):
            existing = self.load_manifest(digest, missing_ok=True)
            if existing is not None:
                obs.counter("store.pack.duplicate_recordings").inc()
                return existing
            from repro.core.encoder import encode_skeleton
            where = self._all_locations()
            skeleton = encode_skeleton(recording)
            new_chunks = shared_chunks = stored_bytes = 0
            dumps: List[Tuple[int, int, List[Tuple[str, int]]]] = []
            with _PackWriter(self._packs_dir) as writer:
                skeleton_digest, new = writer.put(skeleton, where)
                new_chunks += new
                shared_chunks += not new
                for dump in recording.dumps:
                    chunk_list: List[Tuple[str, int]] = []
                    view, start = memoryview(dump.data).cast("B"), 0
                    for end in cdc.chunk_ends(dump):
                        piece_digest, new = writer.put(view[start:end],
                                                       where)
                        if new:
                            new_chunks += 1
                            stored_bytes += end - start
                        else:
                            shared_chunks += 1
                        chunk_list.append((piece_digest, end - start))
                        start = end
                    dumps.append((dump.va, dump.size, chunk_list))
            where.update(writer.located)
            manifest = Manifest(
                digest=digest,
                skeleton_digest=skeleton_digest,
                skeleton_size=len(skeleton),
                dumps=dumps,
                workload=recording.meta.workload,
                family=recording.meta.family,
                board=recording.meta.board,
                gpu_model=recording.meta.gpu_model)
            self._write_index(digest, {obj: where[obj]
                                       for obj in manifest.objects()})
            self._write_manifest(manifest)
            self.index.add(CompatEntry(
                digest=digest,
                family=recording.meta.family,
                board=recording.meta.board,
                gpu_model=recording.meta.gpu_model,
                clock_hz=gpu_clock_hz(recording.meta.gpu_model),
                workload=recording.meta.workload,
                body_bytes=len(skeleton) + recording.dump_bytes()))
            self.index.save(self._index_path)
            obs.counter("store.pack.recordings").inc()
            obs.counter("store.pack.chunks_new").inc(new_chunks)
            obs.counter("store.pack.chunks_shared").inc(shared_chunks)
            obs.counter("store.pack.bytes_logical").inc(
                recording.dump_bytes())
            obs.counter("store.pack.bytes_stored").inc(stored_bytes)
            return manifest

    def _write_manifest(self, manifest: Manifest) -> None:
        self._replace_file(
            self._manifest_path(manifest.digest),
            json.dumps(manifest.to_dict(), separators=(",", ":"),
                       sort_keys=True).encode("utf-8"))

    # -- manifest access -----------------------------------------------------

    def load_manifest(self, digest: str,
                      missing_ok: bool = False) -> Optional[Manifest]:
        try:
            with open(self._manifest_path(digest),
                      encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            if missing_ok:
                return None
            raise StoreNotFoundError(
                f"no recording {digest[:12]} in vault {self.root}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                f"manifest unreadable: {exc}", recording_digest=digest)
        manifest = Manifest.from_dict(data)
        if manifest.digest != digest:
            raise StoreCorruptionError(
                f"manifest claims digest {manifest.digest[:12]}",
                recording_digest=digest)
        return manifest

    def digests(self) -> List[str]:
        return sorted(
            name[:-len(".json")]
            for name in os.listdir(self._manifests_dir)
            if name.endswith(".json"))

    def __contains__(self, digest: str) -> bool:
        return os.path.exists(self._manifest_path(digest))

    def resolve(self, prefix: str) -> str:
        """Expand a digest prefix against the packed recordings."""
        matches = [d for d in self.digests() if d.startswith(prefix)]
        if not matches:
            raise StoreNotFoundError(
                f"no recording matching {prefix!r} in {self.root}")
        if len(matches) > 1:
            raise StoreError(
                f"ambiguous digest prefix {prefix!r}: "
                f"{', '.join(m[:12] for m in matches)}")
        return matches[0]

    # -- fetch ---------------------------------------------------------------

    def fetch(self, digest: str, verify: bool = True) -> Recording:
        """Reassemble one recording, verifying the integrity chain.

        The reassembled recording must hash back to the manifest
        digest; a chunk is hashed only to name the damage when it does
        not. With ``verify=False`` only structural checks run (sizes
        must still line up for decoding to succeed).
        """
        obs = self.obs
        with obs.span("store:fetch", obs.track("store", "vault"),
                      cat="store", args={"digest": digest[:12]}):
            manifest, recording = self._fetch_checked(digest, verify)
            chunks = sum(len(refs) for _va, _size, refs in manifest.dumps)
            nbytes = sum(size for _va, size, _c in manifest.dumps)
            obs.counter("store.fetch.recordings").inc()
            obs.counter("store.fetch.chunks").inc(chunks)
            obs.counter("store.fetch.bytes").inc(nbytes)
            self.last_fetch_info = {
                "digest": digest[:12], "chunks": chunks,
                "bytes": nbytes}
            return recording

    def _fetch_checked(self, digest: str,
                       verify: bool) -> Tuple[Manifest, Recording]:
        """Reassembly + integrity check, no demand-fetch accounting
        (``verify()`` scrubs through here without looking like
        traffic)."""
        manifest = self.load_manifest(digest)
        recording = self._reassemble(manifest, verify=verify)
        if verify and recording.digest() != manifest.digest:
            raise StoreCorruptionError(
                "reassembled recording does not hash back to the "
                "manifest digest", recording_digest=digest)
        return manifest, recording

    def fetch_interface(self, digest: str) -> Recording:
        """The recording's skeleton with zero-filled dumps.

        Enough for interface questions -- metadata, input/output
        buffers, action stream -- and it stays answerable while the
        recording's chunks are damaged, which is what lets a serve
        fleet degrade to the CPU reference on store corruption instead
        of losing the request.
        """
        manifest = self.load_manifest(digest)
        skeleton = self._get_object(
            manifest.skeleton_digest,
            self._source(digest, only=manifest.skeleton_digest),
            manifest.skeleton_size, context={"recording_digest": digest})
        payloads = [b"\x00" * size for _va, size, _c in manifest.dumps]
        from repro.core.encoder import decode_skeleton
        return decode_skeleton(bytes(skeleton), payloads)

    def _reassemble(self, manifest: Manifest,
                    verify: bool) -> Recording:
        """Rebuild a Recording, handing dump payloads out as read-only
        ``memoryview``s instead of reassembled ``bytes``.

        A single-chunk dump (the common case under content-defined
        chunking) is a zero-copy view straight into the fetched chunk
        buffer -- for a chunk stored raw, into the span read from its
        pack; a multi-chunk dump is one ``join`` of its chunks, viewed.
        Downstream -- the body digest, the compiled program, the nano
        driver's page stores -- operates on the views without
        materializing ``bytes``, so the chunk buffer is the *only*
        copy of the payload in memory. Views are read-only: the vault
        owns the underlying buffers and nothing downstream may mutate
        them.

        With ``verify`` the check is at the root: the chunks are taken
        as they are found (located, whole, inflated, of the manifest's
        size) and the recording they make must hash back to the
        manifest digest. Any failure walks the chunks through
        :meth:`_get_object` in manifest order (:meth:`_name_damage`),
        so a damaged vault says what a check of every chunk says.
        """
        index = _load_index(self._packs_file(manifest.digest, ".idx"))
        skeleton = bytes(self._get_object(
            manifest.skeleton_digest,
            index.source(self._packs_dir, [manifest.skeleton_digest]),
            manifest.skeleton_size,
            context={"recording_digest": manifest.digest}))
        from repro.core.encoder import decode_skeleton
        failure = None
        try:
            recording = decode_skeleton(
                skeleton, self._payloads(manifest, index, strict=verify))
            if not verify or recording.digest() == manifest.digest:
                return recording
        except _Unsound:
            pass
        except SerializationError as error:
            if not verify:
                raise
            failure = error
        self._name_damage(manifest, _Source(self._packs_dir, index.where()))
        raise failure or StoreCorruptionError(
            "reassembled recording does not hash back to the manifest "
            "digest", recording_digest=manifest.digest)

    def _payloads(self, manifest: Manifest, index: _Index,
                  strict: bool) -> List[memoryview]:
        """Every dump's bytes, from one read per pack touched: each
        chunk reference a view of its span, each deflated chunk
        inflated once. ``strict`` raises :class:`_Unsound` at anything that is not
        located, whole, valid zlib and of its manifest size; otherwise
        a chunk is taken as it is found -- zeros when it is gone, its
        stored bytes when they do not inflate -- cut or padded to its
        manifest size, the forensics path: the doctor wants to replay
        the damage, not be stopped by it."""
        refs = list(chain.from_iterable(
            chunk_list for _va, _size, chunk_list in manifest.dumps))
        found = index.find(list(map(itemgetter(0), refs)))
        at = np.flatnonzero(found >= 0)     # the refs the index locates
        if strict and len(at) < len(refs):
            raise _Unsound
        packs, offsets, words = (index.rows[field][found[at]]
                                 for field in ("pack", "offset", "word"))
        lengths = (words & _LENGTH).astype(np.int64)
        parts: List[Optional[bytes]] = [None] * len(refs)
        for no in sorted(set(packs.tolist())):
            mine = np.flatnonzero(packs == no)
            starts = offsets[mine].astype(np.int64)
            ends = starts + lengths[mine]
            low = int(starts.min())
            try:
                with open(self._packs_file(index.packs[no], ".pack"),
                          "rb") as handle:
                    handle.seek(low)
                    span = memoryview(handle.read(int(ends.max()) - low))
            except FileNotFoundError:
                if strict:
                    raise _Unsound
                continue
            if strict and int(ends.max()) - low > len(span):
                raise _Unsound   # a truncated pack
            pieces = map(span.__getitem__, map(
                slice, (starts - low).tolist(), (ends - low).tolist()))
            if len(mine) == len(refs):
                parts[:] = pieces
            else:
                for ref, piece in zip(at[mine].tolist(), pieces):
                    parts[ref] = piece
        sizes = np.zeros(len(refs), np.int64)
        sizes[at] = lengths
        inflated: Dict[int, bytes] = {}     # each deflated chunk once
        rows = found.tolist()
        for ref in at[(words & _RAW) == 0].tolist():
            if parts[ref] is None:
                continue
            if rows[ref] not in inflated:
                try:
                    inflated[rows[ref]] = zlib.decompress(parts[ref])
                except zlib.error:
                    if strict:
                        raise _Unsound
                    inflated[rows[ref]] = parts[ref]
            parts[ref] = inflated[rows[ref]]
            sizes[ref] = len(parts[ref])
        if not strict:
            parts = [b"" if part is None else part for part in parts]
            sizes[:] = list(map(len, parts))
        want = list(map(itemgetter(1), refs))
        wrong = np.flatnonzero(sizes != np.array(want, np.int64))
        if strict and len(wrong):
            raise _Unsound
        for ref in wrong.tolist():
            parts[ref] = bytes(parts[ref][:want[ref]]).ljust(want[ref],
                                                             b"\x00")
        payloads: List[memoryview] = []
        #: Dumps with equal chunk lists get one payload object, so an
        #: upload knows them equal without hashing them (looked up by
        #: size, length and end chunks; the lists compared on a hit).
        joined: Dict[tuple, Tuple[list, memoryview]] = {}
        start = 0
        for dump_index, (va, size, chunk_list) in \
                enumerate(manifest.dumps):
            mine = parts[start:start + len(chunk_list)]
            start += len(chunk_list)
            key = (size, len(chunk_list), *chunk_list[:1], *chunk_list[-1:])
            refs, payload = joined.get(key, (None, None))
            if refs != chunk_list:
                payload = memoryview(mine[0] if len(mine) == 1
                                     else b"".join(mine))
                joined.setdefault(key, (chunk_list, payload))
            if len(payload) != size:
                if strict:
                    raise _Unsound
                raise _dump_size_error(manifest, dump_index, va,
                                       len(payload), size)
            payloads.append(payload)
        return payloads

    def _name_damage(self, manifest: Manifest, source: _Source) -> None:
        """Raise what a check of every chunk finds first, in manifest
        order: :meth:`_get_object` on each distinct (chunk, size)
        reference at its first use, and after each dump, its size."""
        checked = set()
        for dump_index, (va, size, chunk_list) in \
                enumerate(manifest.dumps):
            offset = 0
            for ref in chunk_list:
                if ref not in checked:
                    checked.add(ref)
                    self._get_object(
                        ref[0], source, ref[1],
                        context={"recording_digest": manifest.digest,
                                 "dump_index": dump_index, "dump_va": va,
                                 "dump_offset": offset})
                offset += ref[1]
            if offset != size:
                raise _dump_size_error(manifest, dump_index, va, offset,
                                       size)

    # -- replication ---------------------------------------------------------

    def replicate_from(self, peer: "Vault", digest: str) -> Manifest:
        """Copy one recording's manifest + objects from ``peer``.

        Every object streams through the same integrity check a local
        fetch applies (decompress, re-hash against its address, size
        against the manifest), so a corrupt peer chunk raises
        :class:`StoreCorruptionError` *mid-fetch* -- before anything
        damaged lands locally -- carrying the chunk and dump location
        for the doctor handoff. Objects already present locally are
        skipped (content addressing makes the copy idempotent and
        dedup-aware); the rest land in one fresh pack, each as the
        peer stored it (record word and bytes, verified, never
        deflated again). Returns the replicated manifest.
        """
        obs = self.obs
        manifest = peer.load_manifest(digest)
        with obs.span("store:replicate", obs.track("store", "vault"),
                      cat="store", args={"digest": digest[:12],
                                         "peer": peer.root}):
            sizes = {manifest.skeleton_digest: manifest.skeleton_size}
            contexts: Dict[str, dict] = {
                manifest.skeleton_digest:
                    {"recording_digest": digest}}
            for dump_index, (va, _size, chunk_list) in \
                    enumerate(manifest.dumps):
                offset = 0
                for chunk_digest, chunk_size in chunk_list:
                    sizes.setdefault(chunk_digest, chunk_size)
                    contexts.setdefault(chunk_digest, {
                        "recording_digest": digest,
                        "dump_index": dump_index, "dump_va": va,
                        "dump_offset": offset})
                    offset += chunk_size
            copied = 0
            copied_bytes = 0
            healed = 0
            remote = peer._source(digest)
            where = self._all_locations()
            local = _Source(self._packs_dir, {
                obj: where[obj] for obj in sizes if obj in where})
            with _PackWriter(self._packs_dir) as writer:
                for obj, size in sizes.items():
                    if obj in where:
                        try:
                            self._get_object(obj, local, size,
                                             context=contexts[obj])
                            continue
                        except StoreError:
                            pass  # damaged here: repaired below
                    payload = peer._get_object(obj, remote, size,
                                               context=contexts[obj])
                    if obj in where:
                        # Replication doubles as repair: put the good
                        # bytes back where every index expects them.
                        self._heal_object(where[obj], payload)
                        healed += 1
                    else:
                        stored, word = remote.stored(obj)
                        writer.add_stored(obj, word, stored)
                    copied += 1
                    copied_bytes += len(payload)
            where.update(writer.located)
            self._write_index(digest, {obj: where[obj] for obj in sizes})
            self._write_manifest(manifest)
            entry = peer.index.entries.get(digest)
            if entry is not None:
                # Copy: CompatIndex.add assigns a local seq, and the
                # peer's entry object must not be mutated.
                self.index.add(CompatEntry.from_dict(entry.to_dict()))
                self.index.save(self._index_path)
            obs.counter("store.replicate.recordings").inc()
            obs.counter("store.replicate.objects").inc(copied)
            obs.counter("store.replicate.bytes").inc(copied_bytes)
            if healed:
                obs.counter("store.replicate.healed").inc(healed)
            return manifest

    def _heal_object(self, location: Location, payload: bytes) -> None:
        """Rewrite one pack record in place from its verified content
        (storage is deterministic, so it takes the same bytes)."""
        pack, offset, word = location
        stored = payload if word & _RAW \
            else zlib.compress(payload, OBJECT_ZLIB_LEVEL)
        if len(stored) != word & _LENGTH:
            raise StoreError(
                f"index entry for pack {pack[:12]} @{offset} does not "
                f"fit its object (`grr store reindex` rebuilds it)")
        fd = os.open(self._packs_file(pack, ".pack"),
                     os.O_RDWR | os.O_CREAT, 0o644)
        try:
            os.pwrite(fd, _RECORD.pack(word) + stored,
                      offset - _RECORD.size)
        finally:
            os.close(fd)

    # -- verify --------------------------------------------------------------

    def verify(self, digest: Optional[str] = None
               ) -> List[StoreCorruptionError]:
        """Scrub the integrity chain; returns every corruption found.

        With ``digest`` it checks that one recording; otherwise every
        manifest in the vault. Each returned error names the damaged
        chunk and where it lands (dump index / VA / offset), ready for
        :meth:`diagnose`.
        """
        obs = self.obs
        targets = [digest] if digest else self.digests()
        problems: List[StoreCorruptionError] = []
        with obs.span("store:verify", obs.track("store", "vault"),
                      cat="store", args={"recordings": len(targets)}):
            for target in targets:
                try:
                    self._fetch_checked(target, verify=True)
                except StoreCorruptionError as error:
                    problems.append(error)
                obs.counter("store.verify.recordings").inc()
            if problems:
                obs.counter("store.verify.corrupt").inc(len(problems))
        return problems

    def diagnose(self, digest: str, board: Optional[str] = None,
                 seed: int = 2026):
        """Hand a damaged recording to the replay doctor.

        Reassembles the recording *without* integrity enforcement --
        corrupt chunk bytes included -- and runs
        :func:`repro.obs.doctor.run_doctor` on it, localizing the
        first diverging chokepoint the damage causes. Returns the
        DivergenceReport (None when the replay is somehow healthy,
        e.g. the corruption sits in a dump no job reads).
        """
        from repro.obs.doctor import run_doctor

        manifest = self.load_manifest(digest)
        recording = self._reassemble(manifest, verify=False)
        return run_doctor(recording, board or manifest.board, seed=seed)

    # -- gc / remove ---------------------------------------------------------

    def remove(self, digest: str) -> bool:
        """Drop a recording: manifest, object index, compatibility
        entry. Chunks stay until ``gc()`` -- they may be shared, and
        an unreferenced chunk is harmless garbage, while a missing
        referenced chunk is a broken recording."""
        path = self._manifest_path(digest)
        if not os.path.exists(path):
            return False
        os.remove(path)
        try:
            os.remove(self._packs_file(digest, ".idx"))
        except FileNotFoundError:
            pass
        if self.index.remove(digest):
            self.index.save(self._index_path)
        return True

    def _manifests(self) -> Dict[str, Manifest]:
        """Every manifest in the vault, each parsed once."""
        return {digest: self.load_manifest(digest)
                for digest in self.digests()}

    def chunk_refcounts(self) -> Dict[str, int]:
        """object digest -> number of manifests referencing it."""
        counts: Dict[str, int] = {}
        for manifest in self._manifests().values():
            for obj in set(manifest.objects()):
                counts[obj] = counts.get(obj, 0) + 1
        return counts

    def gc(self) -> Tuple[int, int]:
        """Delete objects no manifest references.

        A pack none of whose records a live recording's index points
        at is deleted; a partially-live pack is rewritten with its
        live records only (verbatim, under a new content name) and the
        indexes that pointed into it are re-pointed before the old
        file goes. Index files of removed recordings and abandoned
        ``.tmp`` files go too. Returns ``(objects_removed,
        bytes_freed)``. Safe by construction against in-flight fetches
        of *live* recordings: liveness is "referenced by any
        manifest", and fetch materializes a whole Recording in memory
        before anyone replays it -- see DESIGN.md.
        """
        obs = self.obs
        removed = 0
        with obs.span("store:gc", obs.track("store", "vault"),
                      cat="store"):
            before = self._packs_bytes()
            indexes = {digest: _load_index(
                self._packs_file(digest, ".idx")).where()
                for digest in self.digests()}
            live = {(pack, offset) for where in indexes.values()
                    for pack, offset, _word in where.values()}
            moved: Dict[Tuple[str, int], Location] = {}
            doomed: List[str] = []
            for name in sorted(os.listdir(self._packs_dir)):
                path = os.path.join(self._packs_dir, name)
                stem, ext = os.path.splitext(name)
                if ext != ".pack":
                    if ext == ".tmp" or stem not in indexes:
                        doomed.append(path)
                    continue
                blob, records = _scan_pack(path)
                keep = [record for record in records
                        if (stem, record[0]) in live]
                if len(keep) == len(records):
                    continue
                removed += len(records) - len(keep)
                doomed.append(path)
                with _PackWriter(self._packs_dir) as writer:
                    for offset, word in keep:
                        writer.add_stored(
                            (stem, offset), word,
                            blob[offset:offset + (word & _LENGTH)])
                moved.update(writer.located)
            for digest, where in indexes.items():
                if any((pack, offset) in moved
                       for pack, offset, _word in where.values()):
                    self._write_index(digest, {
                        obj: moved.get(location[:2], location)
                        for obj, location in where.items()})
            # A rewrite is named by its content, which may be the
            # name of a pack on its way out: spare what was just written.
            rewritten = {self._packs_file(pack, ".pack")
                         for pack, _offset, _word in moved.values()}
            for path in doomed:
                if path not in rewritten:
                    os.remove(path)
            freed = before - self._packs_bytes()
            obs.counter("store.gc.removed").inc(removed)
            obs.counter("store.gc.freed_bytes").inc(freed)
        return removed, freed

    def reindex(self) -> None:
        """Rebuild every recording's object index from the packs.

        Pack records carry no address, so each is inflated and hashed
        to learn it; a damaged record hashes to an address nobody
        asks for and its recording fetches as missing that object.
        """
        where: Dict[str, Location] = {}
        for name in sorted(os.listdir(self._packs_dir)):
            stem, ext = os.path.splitext(name)
            if ext != ".pack":
                continue
            blob, records = _scan_pack(os.path.join(self._packs_dir, name))
            for offset, word in records:
                payload = blob[offset:offset + (word & _LENGTH)]
                if not word & _RAW:
                    try:
                        payload = zlib.decompress(payload)
                    except zlib.error:
                        continue
                where.setdefault(hashlib.sha256(payload).hexdigest(),
                                 (stem, offset, word))
        for digest, manifest in self._manifests().items():
            self._write_index(digest, {
                obj: where[obj] for obj in manifest.objects()
                if obj in where})

    # -- accounting ----------------------------------------------------------

    def _packs_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self._packs_dir, name))
                   for name in os.listdir(self._packs_dir))

    def stats(self) -> VaultStats:
        stats = VaultStats()
        unique: set = set()
        for digest, manifest in self._manifests().items():
            stats.recordings += 1
            refs = manifest.chunk_refs()
            stats.chunk_refs += len(refs)
            unique.update(refs)
            stats.logical_bytes += manifest.skeleton_size + sum(
                size for _va, size, _c in manifest.dumps)
            stats.manifest_bytes += os.path.getsize(
                self._manifest_path(digest))
        stats.unique_chunks = len(unique)
        stats.object_bytes = self._packs_bytes()
        if os.path.exists(self._index_path):
            stats.index_bytes = os.path.getsize(self._index_path)
        return stats

    def recording_stats(self, digest: str) -> Dict[str, object]:
        """Per-recording chunk accounting for ``grr inspect --store``:
        chunk count, how much of it dedups against the rest of the
        vault, and which recordings it shares chunks with."""
        manifests = self._manifests()
        if digest not in manifests:
            raise StoreNotFoundError(
                f"no recording {digest[:12]} in vault {self.root}")
        return self._sharing(digest, manifests)

    @staticmethod
    def _sharing(digest: str,
                 manifests: Dict[str, Manifest]) -> Dict[str, object]:
        manifest = manifests[digest]
        own = manifest.chunk_refs()
        own_set = set(own)
        shared_with: Dict[str, int] = {}
        others: set = set()
        for other, other_manifest in manifests.items():
            if other == digest:
                continue
            other_chunks = set(other_manifest.chunk_refs())
            overlap = len(own_set & other_chunks)
            if overlap:
                shared_with[other] = overlap
            others.update(other_chunks)
        shared_refs = sum(1 for c in own if c in others)
        return {
            "digest": digest,
            "workload": manifest.workload,
            "chunks": len(own),
            "unique_chunks": len(own_set),
            "shared_chunks": shared_refs,
            "dedup_ratio": shared_refs / len(own) if own else 0.0,
            "shared_with": dict(sorted(shared_with.items())),
            "dump_bytes": sum(size for _va, size, _c in manifest.dumps),
        }

    def job_sharing_stats(self) -> Dict[str, object]:
        """Job-level dedup accounting across the vault's
        micro-recordings (``repro.surgery`` slices, whose workloads
        carry a ``#job`` marker, and ``synthetic/`` compositions).

        Slicing multiplies recordings that share content wholesale --
        sibling-SKU slices differ only in actions/metadata, and a
        composed session re-uses its slices' tensor dumps -- so the
        interesting number is how many of each micro-recording's dump
        chunk refs resolve to chunks some *other* recording already
        put in the vault. ``grr store pack`` prints this breakdown and
        the surgery bench pins the sibling-SKU ratio.
        """
        manifests = self._manifests()
        per = [self._sharing(digest, manifests)
               for digest, manifest in manifests.items()
               if "#job" in manifest.workload
               or manifest.workload.startswith("synthetic/")]
        chunk_refs = sum(int(p["chunks"]) for p in per)
        shared_refs = sum(int(p["shared_chunks"]) for p in per)
        return {
            "micro_recordings": len(per),
            "chunk_refs": chunk_refs,
            "shared_chunk_refs": shared_refs,
            "dump_chunk_dedup": shared_refs / chunk_refs
            if chunk_refs else 0.0,
            "per_recording": sorted(
                per, key=lambda p: str(p["workload"])),
        }

    # -- queries -------------------------------------------------------------

    def best_for(self, family: str, board: Optional[str] = None,
                 workload: Optional[str] = None) -> Optional[str]:
        """Digest of the best recording for a board (via the index)."""
        entry = self.index.best_for(family, board=board,
                                    workload=workload)
        return entry.digest if entry else None
