"""The recording container and its compressed binary file format.

A recording encodes a fixed sequence of GPU jobs: replay actions plus
the memory dumps they upload, and metadata describing the GPU it was
captured on and the workload's input/output interface. Files are
zlib-compressed (Section 6.2), giving the few-hundred-KB sizes of
Table 6.

Format (little-endian): a 10-byte plain header (magic, version,
flags), then the zlib-compressed body: metadata, string table,
actions, dumps. The format is deliberately self-contained -- the
replayer needs nothing else.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.errors import SerializationError
from repro.soc.memory import PAGE_SIZE

MAGIC = b"GRRC"
VERSION = 1

_U8, _U16, _U32, _U64 = (struct.Struct("<" + code) for code in "BHIQ")
_DUMP_ENTRY = struct.Struct("<QI")

#: Wire layout of an action: tag, then the dataclass fields in
#: declaration order -- min/recorded interval, ``src`` (string-table
#: ref), job index, then the per-type codes below. ``I`` at a position
#: listed as a ref is an index into the string table; ``?`` is a bool
#: stored as one byte.
_ACTION_HEADER = "<BQQII"
_ACTION_WIRE = {
    act.RegReadOnce: ("IQ?", (4,)),
    act.RegReadWait: ("IQQQ", (4,)),
    act.RegWrite: ("IQQ?", (4,)),
    act.SetGpuPgtable: ("Q", ()),
    act.MapGpuMem: ("QIQ", ()),
    act.UnmapGpuMem: ("QI", ()),
    act.Upload: ("QI", ()),
    act.CopyToGpu: ("QQI", (6,)),
    act.CopyFromGpu: ("QQI", (6,)),
    act.WaitIrq: ("Q", ()),
    act.IrqEnter: ("", ()),
    act.IrqExit: ("", ()),
}


def _action_codec(cls: type):
    """(class, one Struct for the whole action, getter of its fields
    in wire order, positions of string refs among them)."""
    codes, refs = _ACTION_WIRE[cls]
    names = [f.name for f in fields(cls)]
    return (cls, struct.Struct(_ACTION_HEADER + codes),
            attrgetter(*names), (2,) + refs)


#: Indexed by action tag: an action encodes and decodes in one struct
#: call, not one per field.
_ACTION_CODECS = tuple(_action_codec(cls) for cls in act.ACTION_TYPES)


@dataclass(frozen=True)
class IoBuffer:
    """An input or output interface of a recording (Section 4.4).

    ``optional`` marks inputs the app *may* supply (the "record by
    address + optional value override" pattern): e.g. training weights
    are deposited before the first iteration and then live in GPU
    memory across replays.
    """

    name: str
    gaddr: int
    size: int
    shape: Tuple[int, ...] = ()
    optional: bool = False


@dataclass
class RecordingMeta:
    """Provenance and interface metadata."""

    gpu_model: str = ""
    family: str = ""
    pte_format: str = ""
    board: str = ""
    workload: str = ""
    api: str = ""
    framework: str = ""
    memattr: int = 0
    n_jobs: int = 0
    reg_io: int = 0
    #: Actions before this index set up the address space; input
    #: deposit happens right after them.
    prologue_len: int = 0
    inputs: List[IoBuffer] = field(default_factory=list)
    outputs: List[IoBuffer] = field(default_factory=list)
    #: Firmware power/clock calls needed before MMIO works (baremetal).
    power_sequence: List[Tuple[int, int, int]] = field(default_factory=list)


class Recording:
    """Actions + dumps + metadata for one recorded GPU phase."""

    def __init__(self, meta: RecordingMeta,
                 actions: List[act.Action],
                 dumps: List[MemoryDump]):
        self.meta = meta
        self.actions = actions
        self.dumps = dumps
        self._digest: Optional[str] = None

    # -- content addressing --------------------------------------------------

    def digest(self) -> str:
        """Stable content hash (hex SHA-256 of the uncompressed body).

        Two recordings with identical metadata, actions and dumps have
        the same digest regardless of compression, which file they
        came from, or which process decoded them. The replay fast path
        keys its load cache on it. Memoized: recordings are treated as
        immutable once they reach the replayer (mutating passes such
        as cross-SKU patching build new Recording objects).
        """
        if self._digest is None:
            # Hashed as the body lies, dump by dump: never joined.
            skeleton = encode_skeleton(self)
            table = len(skeleton) - _DUMP_ENTRY.size * len(self.dumps)
            h = hashlib.sha256(skeleton[:table])
            for dump in self.dumps:
                h.update(_DUMP_ENTRY.pack(dump.va, dump.size))
                h.update(dump.data)
            self._digest = h.hexdigest()
        return self._digest

    # -- accounting ---------------------------------------------------------

    def dump_bytes(self) -> int:
        return sum(d.size for d in self.dumps)

    def peak_gpu_pages(self) -> int:
        """Maximum concurrently-mapped GPU pages across the action stream.

        This is the §5.1 "maximum GPU physical memory usage" scan that
        lets apps reject memory-hungry recordings before replay.
        """
        live: Dict[int, int] = {}
        peak = 0
        for action in self.actions:
            if isinstance(action, act.MapGpuMem):
                live[action.addr] = action.num_pages
                peak = max(peak, sum(live.values()))
            elif isinstance(action, act.UnmapGpuMem):
                live.pop(action.addr, None)
        return peak

    def summary(self) -> Dict[str, object]:
        return {
            "workload": self.meta.workload,
            "gpu": self.meta.gpu_model,
            "jobs": self.meta.n_jobs,
            "actions": len(self.actions),
            "reg_io": self.meta.reg_io,
            "dump_bytes": self.dump_bytes(),
            "gpu_mem_bytes": self.peak_gpu_pages() * PAGE_SIZE,
        }

    # -- serialization ---------------------------------------------------------

    def to_bytes(self, compress: bool = True) -> bytes:
        body = _encode_body(self)
        flags = 1 if compress else 0
        if compress:
            body = zlib.compress(body, level=6)
        return MAGIC + struct.pack("<HI", VERSION, flags) + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Recording":
        if len(blob) < 10 or blob[:4] != MAGIC:
            raise SerializationError("not a GPUReplay recording")
        version, flags = struct.unpack_from("<HI", blob, 4)
        if version != VERSION:
            raise SerializationError(f"unsupported version {version}")
        body = blob[10:]
        if flags & 1:
            try:
                body = zlib.decompress(body)
            except zlib.error as exc:
                raise SerializationError(f"corrupt recording: {exc}")
        # A truncated or garbage body must always surface as the
        # structured corrupt-recording error, never as whatever raw
        # exception the decoder tripped over (struct.error on a short
        # buffer, UnicodeDecodeError inside a mangled string table,
        # MemoryError on an absurd length field...). `grr` maps
        # SerializationError to exit code 2, like any unusable file.
        try:
            return _decode_body(body)
        except SerializationError:
            raise
        except (struct.error, ValueError, EOFError, IndexError,
                OverflowError, MemoryError) as exc:
            raise SerializationError(
                f"corrupt recording body: {type(exc).__name__}: {exc}")

    def save(self, path: str, compress: bool = True) -> int:
        data = self.to_bytes(compress)
        with open(path, "wb") as f:
            f.write(data)
        return len(data)

    @classmethod
    def load(cls, path: str) -> "Recording":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())

    def size_unzipped(self) -> int:
        return len(self.to_bytes(compress=False))

    def size_zipped(self) -> int:
        return len(self.to_bytes(compress=True))


# --------------------------------------------------------------------------
# Binary body encoding.
# --------------------------------------------------------------------------


class _Writer:
    def __init__(self) -> None:
        self.parts: List[bytes] = []
        self._strings: Dict[str, int] = {}
        self.string_list: List[str] = []

    def intern(self, s: str) -> int:
        index = self._strings.get(s)
        if index is None:
            index = len(self.string_list)
            self._strings[s] = index
            self.string_list.append(s)
        return index

    def u8(self, v: int) -> None:
        self.parts.append(_U8.pack(v))

    def u16(self, v: int) -> None:
        self.parts.append(_U16.pack(v))

    def u32(self, v: int) -> None:
        self.parts.append(_U32.pack(v))

    def u64(self, v: int) -> None:
        self.parts.append(_U64.pack(v))

    def raw(self, b: bytes) -> None:
        self.parts.append(b)

    def string(self, s: str) -> None:
        encoded = s.encode("utf-8")
        self.u16(len(encoded))
        self.raw(encoded)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.strings: List[str] = []

    def unpack(self, codec: struct.Struct) -> tuple:
        end = self.pos + codec.size
        if end > len(self.data):
            raise SerializationError("truncated recording body")
        values = codec.unpack_from(self.data, self.pos)
        self.pos = end
        return values

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u16(self) -> int:
        return self.unpack(_U16)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("truncated recording body")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def string(self) -> str:
        return self.raw(self.u16()).decode("utf-8")

    def ref(self, index: int) -> str:
        if index >= len(self.strings):
            raise SerializationError(f"bad string ref {index}")
        return self.strings[index]


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


def _decode_io(r: _Reader) -> List[IoBuffer]:
    out = []
    for _ in range(r.u16()):
        name = r.string()
        gaddr = r.u64()
        size = r.u64()
        shape = tuple(r.u32() for _ in range(r.u8()))
        optional = bool(r.u8())
        out.append(IoBuffer(name, gaddr, size, shape, optional))
    return out


def encode_skeleton(rec: Recording) -> bytes:
    """The recording body *without* dump payloads.

    The chunked store keeps a recording as this skeleton (metadata,
    string table, actions, and the dump table of VAs and sizes) plus a
    content-defined chunk list per dump; the payload bytes live in the
    shared chunk objects. ``decode_skeleton`` reassembles the exact
    Recording, so ``digest()`` survives a store round-trip unchanged.
    """
    return _encode_body(rec, with_dump_data=False)


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
    try:
        return _decode_body(skeleton, dump_payloads=payloads)
    except SerializationError:
        raise
    except (struct.error, ValueError, EOFError, IndexError,
            OverflowError, MemoryError) as exc:
        raise SerializationError(
            f"corrupt recording skeleton: {type(exc).__name__}: {exc}")


def _encode_body(rec: Recording, with_dump_data: bool = True) -> bytes:
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
    for action in rec.actions:
        tag = act.ACTION_TAGS.get(type(action))
        if tag is None:
            raise SerializationError(
                f"unserializable action {type(action).__name__}")
        _cls, codec, wire_fields, refs = _ACTION_CODECS[tag]
        values = list(wire_fields(action))
        for position in refs:
            values[position] = aw.intern(values[position])
        aw.raw(codec.pack(tag, *values))

    w.u32(len(aw.string_list))
    for s in aw.string_list:
        w.string(s)
    w.raw(aw.getvalue())

    w.u32(len(rec.dumps))
    for dump in rec.dumps:
        w.raw(_DUMP_ENTRY.pack(dump.va, len(dump.data)))
        if with_dump_data:
            w.raw(dump.data)
    return w.getvalue()


def _decode_body(data: bytes,
                 dump_payloads: Optional[List[bytes]] = None
                 ) -> Recording:
    r = _Reader(data)
    meta = RecordingMeta()
    (meta.gpu_model, meta.family, meta.pte_format, meta.board,
     meta.workload, meta.api, meta.framework) = (r.string()
                                                 for _ in range(7))
    meta.memattr = r.u32()
    meta.n_jobs = r.u32()
    meta.reg_io = r.u32()
    meta.prologue_len = r.u32()
    meta.inputs = _decode_io(r)
    meta.outputs = _decode_io(r)
    meta.power_sequence = [
        (r.u32(), r.u32(), r.u64()) for _ in range(r.u16())]

    r.strings = [r.string() for _ in range(r.u32())]
    actions: List[act.Action] = []
    for _ in range(r.u32()):
        tag = r.u8()
        if tag >= len(_ACTION_CODECS):
            raise SerializationError(f"unknown action tag {tag}")
        cls, codec, _wire_fields, refs = _ACTION_CODECS[tag]
        r.pos -= 1  # the codec covers the tag byte too
        values = list(r.unpack(codec)[1:])
        for position in refs:
            values[position] = r.ref(values[position])
        actions.append(cls(*values))

    dumps = []
    n_dumps = r.u32()
    if dump_payloads is not None and len(dump_payloads) != n_dumps:
        raise SerializationError(
            f"skeleton declares {n_dumps} dumps, "
            f"{len(dump_payloads)} payloads supplied")
    for index in range(n_dumps):
        va, size = r.unpack(_DUMP_ENTRY)
        if dump_payloads is None:
            dumps.append(MemoryDump(va, r.raw(size)))
        else:
            payload = dump_payloads[index]
            if len(payload) != size:
                raise SerializationError(
                    f"dump #{index}: skeleton declares {size} bytes, "
                    f"payload has {len(payload)}")
            dumps.append(MemoryDump(va, payload))
    return Recording(meta, actions, dumps)
