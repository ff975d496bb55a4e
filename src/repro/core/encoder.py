"""The writer half of the ``.grr`` format (:mod:`repro.core.recording`),
and the vault's skeleton form.

A replayer reads recordings and never writes one, nor reads a vault's
skeleton, so this loads at call time: :meth:`Recording.to_bytes`, the
digest of a recording that was built rather than decoded, and the
vault's packing and fetching import it.

Version 2 stores each dump as a bitmap of its all-zero pages plus its
other pages, after the skeleton, in one zlib stream: a v3d dump is
mostly zero pages (Section 6.2's "larger but highly compressible"),
and deflating them is most of what writing one used to cost. The
stream is stored raw when deflate saves less than a tenth -- the
vault's rule -- so a dense model's file decodes to views of the file
buffer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import fields
from itertools import chain
from operator import attrgetter
from typing import Dict, List

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import (_ACTION_CODECS, _DUMP_ENTRY, _HEADER,
                                  _LENGTHS, _U8, _U16, _U32, _U64, MAGIC,
                                  VERSION, IoBuffer, Recording, _decode,
                                  _Reader)
from repro.errors import SerializationError
from repro.soc import PAGE_SIZE

#: zlib level of a whole file (Section 6.2's compressed dumps).
ZLIB_LEVEL = 6

_ZERO_PAGE = bytes(PAGE_SIZE)

#: Indexed by action tag: the getter of its fields in wire order.
_WIRE_FIELDS = tuple(attrgetter(*[f.name for f in fields(cls)])
                     for cls in act.ACTION_TYPES)


def _int_method(codec: struct.Struct):
    def write(self, v: int) -> None:
        self.parts.append(codec.pack(v))
    return write


class _Writer:
    u8, u16, u32, u64 = map(_int_method, (_U8, _U16, _U32, _U64))

    def __init__(self) -> None:
        self.parts: List[bytes] = []
        #: String table: string -> index, in index order.
        self.strings: Dict[str, int] = {}

    def raw(self, b: bytes) -> None:
        self.parts.append(b)

    def string(self, s: str) -> None:
        encoded = s.encode("utf-8")
        self.u16(len(encoded))
        self.raw(encoded)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


def _encode_io(w: _Writer, buffers: List[IoBuffer]) -> None:
    w.u16(len(buffers))
    for b in buffers:
        w.string(b.name)
        w.u64(b.gaddr)
        w.u64(b.size)
        w.u8(len(b.shape))
        for dim in b.shape:
            w.u32(dim)
        w.u8(1 if b.optional else 0)


def encode_head(rec: Recording) -> bytes:
    """The body up to the dump table: metadata, string table, actions
    and the dump count, as the recording holds them now."""
    meta = rec.meta
    w = _Writer()
    for s in (meta.gpu_model, meta.family, meta.pte_format, meta.board,
              meta.workload, meta.api, meta.framework):
        w.string(s)
    w.u32(meta.memattr)
    w.u32(meta.n_jobs)
    w.u32(meta.reg_io)
    w.u32(meta.prologue_len)
    _encode_io(w, meta.inputs)
    _encode_io(w, meta.outputs)
    w.u16(len(meta.power_sequence))
    for tag, dev, val in meta.power_sequence:
        w.u32(tag)
        w.u32(dev)
        w.u64(val)

    # Actions (string table written afterwards, referenced by index).
    aw = _Writer()
    aw.u32(len(rec.actions))
    strings, intern, raw = aw.strings, aw.strings.setdefault, aw.parts.append
    for action in rec.actions:
        tag = act.ACTION_TAGS.get(type(action))
        if tag is None:
            raise SerializationError(
                f"unserializable action {type(action).__name__}")
        _cls, codec, refs, _bools = _ACTION_CODECS[tag]
        values = list(_WIRE_FIELDS[tag](action))
        for position in refs:
            values[position] = intern(values[position], len(strings))
        raw(codec.pack(tag, *values))

    w.u32(len(strings))
    for s in strings:
        w.string(s)
    w.raw(aw.getvalue())
    w.u32(len(rec.dumps))
    return w.getvalue()


def encode_skeleton(rec: Recording) -> bytes:
    """The body *without* dump payloads.

    The chunked store keeps a recording as this skeleton (metadata,
    string table, actions, and the dump table of VAs and sizes) plus a
    content-defined chunk list per dump; the payload bytes live in the
    shared chunk objects. ``decode_skeleton`` reassembles the exact
    Recording, so ``digest()`` survives a store round-trip unchanged.
    """
    return encode_head(rec) + b"".join(
        _DUMP_ENTRY.pack(dump.va, dump.size) for dump in rec.dumps)


def decode_skeleton(skeleton: bytes,
                    payloads: List[bytes]) -> Recording:
    """Rebuild a recording from its skeleton and dump payloads.

    ``payloads[i]`` must be exactly the bytes of dump ``i`` as the
    skeleton's dump table declares them; a count or size mismatch is a
    :class:`SerializationError` (the store's integrity chain should
    have caught it earlier). Payloads may be ``bytes`` or read-only
    ``memoryview``s (the vault's zero-copy fetch path); they land in
    :class:`MemoryDump` untouched, with no intermediate copy.
    """
    def dumps(r: _Reader, n_dumps: int) -> List[MemoryDump]:
        if len(payloads) != n_dumps:
            raise SerializationError(
                f"skeleton declares {n_dumps} dumps, "
                f"{len(payloads)} payloads supplied")
        out = []
        for index, payload in enumerate(payloads):
            va, size = r.unpack(_DUMP_ENTRY)
            if len(payload) != size:
                raise SerializationError(
                    f"dump #{index}: skeleton declares {size} bytes, "
                    f"payload has {len(payload)}")
            out.append(MemoryDump(va, payload))
        return out

    try:
        return _decode(skeleton, dumps)
    except (struct.error, ValueError, EOFError, IndexError,
            OverflowError, MemoryError) as exc:
        raise SerializationError(
            f"corrupt recording skeleton: {type(exc).__name__}: {exc}")


def encode_body(rec: Recording) -> bytes:
    """The logical body: each dump's bytes after its table entry."""
    parts = [encode_head(rec)]
    for dump in rec.dumps:
        parts += (_DUMP_ENTRY.pack(dump.va, dump.size), dump.data)
    return b"".join(parts)


def zero_pages(data) -> List[bool]:
    """Per page of ``data`` (the last may be short): all zero?"""
    view = memoryview(data).cast("B")
    return [_ZERO_PAGE.startswith(view[at:at + PAGE_SIZE])
            for at in range(0, len(view), PAGE_SIZE)]


def zero_page_ratio(dumps: List[MemoryDump]) -> float:
    """Fraction of dumped pages that are all-zero (compressibility)."""
    zero = [z for dump in dumps for z in zero_pages(dump.data)]
    return sum(zero) / len(zero) if zero else 0.0


def _dump_parts(dump: MemoryDump) -> list:
    """Version 2's record of one dump: the bitmap of its zero pages
    (bit ``i`` of byte ``i // 8``, low bit first), then its other pages
    in order."""
    zero = zero_pages(dump.data)
    bitmap = sum(1 << page for page, is_zero in enumerate(zero) if is_zero)
    parts = [bitmap.to_bytes((len(zero) + 7) // 8, "little")]
    if not bitmap:
        return parts + [dump.data]
    view = memoryview(dump.data).cast("B")
    start = None
    for page, is_zero in enumerate(zero + [True]):
        if not is_zero and start is None:
            start = page
        elif is_zero and start is not None:
            parts.append(view[start * PAGE_SIZE:page * PAGE_SIZE])
            start = None
    return parts


def to_bytes(rec: Recording, compress: bool = True) -> bytes:
    """The file: version 2 (the skeleton and every dump's record, one
    stream), or with ``compress=False`` version 1's header and the
    logical body as it is."""
    if not compress:
        return _HEADER.pack(MAGIC, 1, 0) + encode_body(rec)
    skeleton = encode_skeleton(rec)
    stream = b"".join([skeleton, *chain.from_iterable(
        map(_dump_parts, rec.dumps))])
    packed = zlib.compress(stream, ZLIB_LEVEL)
    # Deflated only when that saves a tenth (the vault's rule for an
    # object, ``repro.store.vault.stored_form``): a read inflates it.
    deflated = len(packed) * 10 <= len(stream) * 9
    return b"".join((
        _HEADER.pack(MAGIC, VERSION, deflated),
        _LENGTHS.pack(len(skeleton) + rec.dump_bytes(), len(stream)),
        packed if deflated else stream))
