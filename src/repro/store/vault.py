"""The content-addressed recording vault.

On-disk layout under one root directory::

    objects/<aa>/<sha256>.z   zlib-compressed blobs: dump chunks and
                              recording skeletons, named by the SHA-256
                              of their *uncompressed* bytes
    manifests/<digest>.json   one per packed recording: the skeleton
                              object, the per-dump chunk lists, and the
                              recording digest the reassembly must hash
                              back to
    index.json                the compatibility index (repro.store.index)

Integrity is a chain with the recording digest at the root: the
manifest names every chunk by content hash, ``fetch`` re-hashes each
chunk as it streams it in, and the reassembled recording must hash
back to the manifest's ``digest`` -- the same value
``Recording.digest()`` computes and the replay load cache keys on. A
mismatch anywhere raises :class:`StoreCorruptionError` carrying the
chunk and the dump location, so the damaged recording can be handed
straight to the replay doctor (:meth:`Vault.diagnose`).

Garbage collection is refcount-shaped: a chunk is live while any
manifest references it, and ``gc()`` deletes only objects no manifest
can reach. Removing a recording deletes its manifest (and index entry)
first, so a crash between ``remove`` and ``gc`` leaves garbage, never
a dangling manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.recording import (Recording, decode_skeleton,
                                  encode_skeleton)
from repro.errors import (StoreCorruptionError, StoreError,
                          StoreNotFoundError)
from repro.obs.session import NULL_OBS
from repro.store import chunks as cdc
from repro.store.index import (CompatEntry, CompatIndex, gpu_clock_hz)

#: zlib level for stored objects; fixed so two packs of the same
#: content produce byte-identical vaults.
OBJECT_ZLIB_LEVEL = 6

MANIFEST_SCHEMA = 1


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
            dumps=[(d["va"], d["size"],
                    [(digest, csize) for digest, csize in d["chunks"]])
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
    #: Compressed object files on disk.
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
        self._objects_dir = os.path.join(root, "objects")
        self._manifests_dir = os.path.join(root, "manifests")
        self._index_path = os.path.join(root, "index.json")
        os.makedirs(self._objects_dir, exist_ok=True)
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

    def _object_path(self, digest: str) -> str:
        return os.path.join(self._objects_dir, digest[:2],
                            digest + ".z")

    def _manifest_path(self, digest: str) -> str:
        return os.path.join(self._manifests_dir, digest + ".json")

    def _put_object(self, payload: bytes) -> Tuple[str, bool]:
        """Store ``payload`` content-addressed; returns (digest, new)."""
        digest = hashlib.sha256(payload).hexdigest()
        path = self._object_path(digest)
        if os.path.exists(path):
            return digest, False
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(zlib.compress(payload, OBJECT_ZLIB_LEVEL))
        os.replace(tmp, path)
        return digest, True

    def _get_object(self, digest: str, expect_size: int = -1,
                    context: Optional[dict] = None) -> bytes:
        """Read and integrity-check one object.

        ``context`` (recording digest / dump location) flows into the
        corruption error so the caller can hand off to the doctor.
        """
        ctx = context or {}
        path = self._object_path(digest)
        try:
            with open(path, "rb") as handle:
                compressed = handle.read()
        except FileNotFoundError:
            raise StoreNotFoundError(
                f"missing object {digest[:12]} "
                f"(expected at {path})")
        try:
            payload = zlib.decompress(compressed)
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

        Splits every dump with the content-defined chunker, stores the
        new chunks and the skeleton as compressed objects, writes the
        manifest, and registers the recording in the compatibility
        index. Returns the manifest (the existing one when the same
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
            skeleton = encode_skeleton(recording)
            skeleton_digest, new = self._put_object(skeleton)
            new_chunks = 0 + (1 if new else 0)
            shared_chunks = 0 if new else 1
            stored_bytes = 0
            dumps: List[Tuple[int, int, List[Tuple[str, int]]]] = []
            for dump in recording.dumps:
                chunk_list: List[Tuple[str, int]] = []
                for piece in cdc.split(dump.data):
                    piece_digest, new = self._put_object(piece)
                    if new:
                        new_chunks += 1
                        stored_bytes += len(piece)
                    else:
                        shared_chunks += 1
                    chunk_list.append((piece_digest, len(piece)))
                dumps.append((dump.va, dump.size, chunk_list))
            manifest = Manifest(
                digest=digest,
                skeleton_digest=skeleton_digest,
                skeleton_size=len(skeleton),
                dumps=dumps,
                workload=recording.meta.workload,
                family=recording.meta.family,
                board=recording.meta.board,
                gpu_model=recording.meta.gpu_model)
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
        path = self._manifest_path(manifest.digest)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest.to_dict(), handle,
                      separators=(",", ":"), sort_keys=True)
        os.replace(tmp, path)

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

        Every distinct chunk is re-hashed on the way in (once per
        fetch, however many dumps reference it) and the reassembled
        recording must hash back to the manifest digest; with
        ``verify=False`` only structural checks run (sizes must still
        line up for decoding to succeed).
        """
        obs = self.obs
        with obs.span("store:fetch", obs.track("store", "vault"),
                      cat="store", args={"digest": digest[:12]}):
            manifest, recording = self._fetch_checked(digest, verify)
            chunks = len(manifest.chunk_refs())
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
            manifest.skeleton_digest, manifest.skeleton_size,
            context={"recording_digest": digest})
        payloads = [b"\x00" * size for _va, size, _c in manifest.dumps]
        return decode_skeleton(skeleton, payloads)

    def _reassemble(self, manifest: Manifest,
                    verify: bool) -> Recording:
        """Rebuild a Recording, handing dump payloads out as read-only
        ``memoryview``s instead of reassembled ``bytes``.

        A single-chunk dump (the common case under content-defined
        chunking) is a zero-copy view straight into the fetched chunk
        buffer; multi-chunk dumps are assembled once into a buffer and
        viewed. Downstream -- ``MemoryDump`` digesting, the compiled
        upload plan, nano-driver residency hashing and per-page writes
        -- operates on the views without materializing ``bytes``, so
        the chunk buffer is the *only* copy of the payload in memory.
        Views are read-only: the vault owns the underlying buffers and
        nothing downstream may mutate them.
        """
        skeleton = self._get_object(
            manifest.skeleton_digest, manifest.skeleton_size,
            context={"recording_digest": manifest.digest})
        payloads: List[memoryview] = []
        # (chunk digest, manifest size) -> bytes already read this
        # fetch. Tensor dumps repeat chunks; each distinct ref is read,
        # inflated, hashed and size-checked once, by its first use. A
        # ref that names a known digest with another size is a distinct
        # key and goes through the checks on its own.
        fetched: Dict[Tuple[str, int], bytes] = {}
        for dump_index, (va, size, chunk_list) in \
                enumerate(manifest.dumps):
            parts: List[bytes] = []
            offset = 0
            for chunk_digest, chunk_size in chunk_list:
                ref = (chunk_digest, chunk_size)
                part = fetched.get(ref)
                if part is None:
                    if verify:
                        part = self._get_object(
                            chunk_digest, chunk_size,
                            context={"recording_digest": manifest.digest,
                                     "dump_index": dump_index,
                                     "dump_va": va,
                                     "dump_offset": offset})
                    else:
                        part = self._read_object_best_effort(
                            chunk_digest, chunk_size)
                    fetched[ref] = part
                parts.append(part)
                offset += chunk_size
            if len(parts) == 1:
                payload = memoryview(parts[0])
            else:
                buf = bytearray(sum(len(p) for p in parts))
                cursor = 0
                for p in parts:
                    buf[cursor:cursor + len(p)] = p
                    cursor += len(p)
                payload = memoryview(buf).toreadonly()
            if len(payload) != size:
                raise StoreCorruptionError(
                    f"dump reassembled to {len(payload)} bytes, "
                    f"manifest says {size}",
                    recording_digest=manifest.digest,
                    dump_index=dump_index, dump_va=va)
            payloads.append(payload)
        return decode_skeleton(skeleton, payloads)

    def _read_object_best_effort(self, digest: str,
                                 size: int) -> bytes:
        """The object's bytes, corrupt or not, padded/clipped to
        ``size`` -- the forensics path: the doctor wants to replay the
        damage, not be stopped by it."""
        try:
            with open(self._object_path(digest), "rb") as handle:
                compressed = handle.read()
        except FileNotFoundError:
            return b"\x00" * size
        try:
            payload = zlib.decompress(compressed)
        except zlib.error:
            payload = compressed
        return payload[:size].ljust(size, b"\x00")

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
        dedup-aware). Returns the replicated manifest.
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
            for obj in manifest.objects():
                local = self._object_path(obj)
                if os.path.exists(local):
                    try:
                        self._get_object(obj, sizes[obj],
                                         context=contexts[obj])
                        continue
                    except StoreError:
                        # Local copy is damaged: replace it from the
                        # peer (replication doubles as repair).
                        os.remove(local)
                        healed += 1
                payload = peer._get_object(obj, sizes[obj],
                                           context=contexts[obj])
                self._put_object(payload)
                copied += 1
                copied_bytes += len(payload)
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
        """Drop a recording: manifest + index entry. Chunks stay until
        ``gc()`` -- they may be shared, and an unreferenced chunk is
        harmless garbage, while a missing referenced chunk is a broken
        recording."""
        path = self._manifest_path(digest)
        if not os.path.exists(path):
            return False
        os.remove(path)
        if self.index.remove(digest):
            self.index.save(self._index_path)
        return True

    def chunk_refcounts(self) -> Dict[str, int]:
        """object digest -> number of manifests referencing it."""
        counts: Dict[str, int] = {}
        for digest in self.digests():
            manifest = self.load_manifest(digest)
            for obj in set(manifest.objects()):
                counts[obj] = counts.get(obj, 0) + 1
        return counts

    def _object_files(self) -> Iterable[Tuple[str, str]]:
        for shard in sorted(os.listdir(self._objects_dir)):
            shard_dir = os.path.join(self._objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".z"):
                    yield name[:-2], os.path.join(shard_dir, name)

    def gc(self) -> Tuple[int, int]:
        """Delete objects no manifest references.

        Returns ``(objects_removed, bytes_freed)``. Safe by
        construction against in-flight fetches of *live* recordings:
        liveness is "referenced by any manifest", and fetch
        materializes a whole Recording in memory before anyone replays
        it -- see DESIGN.md.
        """
        obs = self.obs
        live = self.chunk_refcounts()
        removed = 0
        freed = 0
        with obs.span("store:gc", obs.track("store", "vault"),
                      cat="store"):
            for digest, path in list(self._object_files()):
                if digest in live:
                    continue
                freed += os.path.getsize(path)
                os.remove(path)
                removed += 1
            obs.counter("store.gc.removed").inc(removed)
            obs.counter("store.gc.freed_bytes").inc(freed)
        return removed, freed

    # -- accounting ----------------------------------------------------------

    def stats(self) -> VaultStats:
        stats = VaultStats()
        unique: set = set()
        for digest in self.digests():
            manifest = self.load_manifest(digest)
            stats.recordings += 1
            refs = manifest.chunk_refs()
            stats.chunk_refs += len(refs)
            unique.update(refs)
            stats.logical_bytes += manifest.skeleton_size + sum(
                size for _va, size, _c in manifest.dumps)
            stats.manifest_bytes += os.path.getsize(
                self._manifest_path(digest))
        stats.unique_chunks = len(unique)
        stats.object_bytes = sum(os.path.getsize(path)
                                 for _d, path in self._object_files())
        if os.path.exists(self._index_path):
            stats.index_bytes = os.path.getsize(self._index_path)
        return stats

    def recording_stats(self, digest: str) -> Dict[str, object]:
        """Per-recording chunk accounting for ``grr inspect --store``:
        chunk count, how much of it dedups against the rest of the
        vault, and which recordings it shares chunks with."""
        manifest = self.load_manifest(digest)
        own = manifest.chunk_refs()
        own_set = set(own)
        shared_with: Dict[str, int] = {}
        others: set = set()
        for other in self.digests():
            if other == digest:
                continue
            other_chunks = set(self.load_manifest(other).chunk_refs())
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
        per: List[Dict[str, object]] = []
        for digest in self.digests():
            manifest = self.load_manifest(digest)
            if ("#job" not in manifest.workload
                    and not manifest.workload.startswith("synthetic/")):
                continue
            stats = self.recording_stats(digest)
            per.append(stats)
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
