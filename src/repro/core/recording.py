"""The recording container and its binary file format (read half).

A recording encodes a fixed sequence of GPU jobs: replay actions plus
the memory dumps they upload, and metadata on the GPU it was captured
on and the workload's inputs and outputs. Files are zlib-compressed
(Section 6.2; Table 6); :mod:`repro.core.encoder` writes them.

The logical body (what ``digest()`` hashes) is metadata, string table,
actions, then the dump table with each dump's bytes after its entry.
A file is magic, version and flags (10 bytes), then in version 1 that
body, zlib'd if flags bit 0. Version 2 adds the logical and stored
lengths (u64s) and stores the skeleton (the body without dump bytes)
and per dump a bitmap of its all-zero pages and its other pages, as
one zlib stream if flags bit 0. Decoding is strict and bounded. The
format is deliberately self-contained -- the replayer needs nothing
else.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.errors import SerializationError
from repro.gpu import FAMILIES
from repro.soc import PAGE_SIZE

MAGIC = b"GRRC"
VERSION = 2

_HEADER = struct.Struct("<4sHI")
_LENGTHS = struct.Struct("<QQ")
_U8, _U16, _U32, _U64 = (struct.Struct("<" + code) for code in "BHIQ")
_DUMP_ENTRY = struct.Struct("<QI")

#: The longest logical body a decoder takes, which bounds what a small
#: file can make it allocate. Over the zoo a body is at most 6.4 times
#: the GPU memory its recording maps (v3d/mobilenet: whole regions are
#: dumped at each job) and 6.5 MB (adreno/dense-serve): 1 GiB admits a
#: model that maps 160 MiB.
MAX_BODY = 1 << 30

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
    """(class, one Struct for the whole action, with bools as ``B``s a
    decoder sees are 0 or 1, positions of string refs and of bools)."""
    codes, refs = _ACTION_WIRE[cls]
    return (cls, struct.Struct(_ACTION_HEADER + codes.replace("?", "B")),
            (2,) + refs,
            tuple(4 + i for i, code in enumerate(codes) if code == "?"))


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
        #: The body up to the dump table, as a canonical decode read it
        #: (hashed as it is: a replayer never loads the encoder).
        self._head: Optional[bytes] = None

    # -- content addressing --------------------------------------------------

    def digest(self, head: Optional[bytes] = None) -> str:
        """Stable content hash (hex SHA-256 of the logical body).

        Two recordings with identical metadata, actions and dumps have
        the same digest regardless of the file's version, compression,
        which file they came from, or which process decoded them. The
        replay fast path keys its load cache on it. Memoized:
        recordings are treated as immutable once they reach the
        replayer (mutating passes such as cross-SKU patching build new
        Recording objects). ``head``: its encoding, if the caller has it.
        """
        if self._digest is None:
            # Hashed dump by dump, never joined; a decoded head as read.
            head = self._head or head
            if head is None:
                from repro.core.encoder import encode_head
                head = encode_head(self)
            h = hashlib.sha256(head)
            for dump in self.dumps:
                h.update(_DUMP_ENTRY.pack(dump.va, dump.size))
                h.update(dump.data)
            self._digest = h.hexdigest()
        return self._digest

    def with_dumps(self, dumps: List[MemoryDump]) -> "Recording":
        """This recording's metadata and actions with as many other
        dumps: the same head, so a decoded one is shared, not encoded."""
        if len(dumps) != len(self.dumps):
            raise ValueError("a recording's head counts its dumps")
        other = Recording(self.meta, self.actions, dumps)
        other._head = self._head
        return other

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
        from repro.core.encoder import to_bytes
        return to_bytes(self, compress)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Recording":
        """Anything but a whole recording of a known family, no longer
        than ``MAX_BODY``, is a :class:`SerializationError`."""
        if len(blob) < 10 or blob[:4] != MAGIC:
            raise SerializationError("not a GPUReplay recording")
        _magic, version, flags = _HEADER.unpack_from(blob)
        view = memoryview(blob).toreadonly()
        # A truncated or garbage body must always surface as the
        # structured corrupt-recording error, never as whatever raw
        # exception the decoder tripped over (struct.error on a short
        # buffer, UnicodeDecodeError inside a mangled string table,
        # MemoryError on an absurd length field...). `grr` maps
        # SerializationError to exit code 2, like any unusable file.
        try:
            if version == 1:
                rec = _decode(_inflate(view[10:], MAX_BODY) if flags & 1
                              else view[10:], _v1_dumps)
            elif version == VERSION:
                logical, length = _LENGTHS.unpack_from(blob, 10)
                if not (0 < length <= MAX_BODY and logical <= MAX_BODY):
                    raise SerializationError(
                        f"declared length over {MAX_BODY}")
                body = memoryview(_inflate(view[26:], length)) \
                    if flags & 1 else view[26:]
                if len(body) != length:
                    raise SerializationError("stream length is not "
                                             "the declared one")
                rec = _decode(body, lambda r, n: _v2_dumps(r, n, logical))
            else:
                raise SerializationError(f"unsupported version {version}")
        except (struct.error, ValueError, EOFError, IndexError,
                OverflowError, MemoryError) as exc:
            raise SerializationError(
                f"corrupt recording body: {type(exc).__name__}: {exc}")
        if not rec.actions:
            raise SerializationError("recording has no actions")
        if rec.meta.family not in FAMILIES or not (rec.meta.gpu_model
                                                   and rec.meta.board):
            raise SerializationError("unknown GPU family, or no model "
                                     "or board")
        return rec

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
        """Bytes of an uncompressed file: header and logical body."""
        from repro.core.encoder import encode_skeleton
        return 10 + len(encode_skeleton(self)) + self.dump_bytes()

    def size_zipped(self) -> int:
        return len(self.to_bytes(compress=True))


# --------------------------------------------------------------------------
# Binary body decoding.
# --------------------------------------------------------------------------


def _inflate(body, limit: int) -> bytes:
    """``body`` inflated; refused past ``limit`` bytes, cut short, or
    followed by bytes."""
    inflate = zlib.decompressobj()
    try:
        out = inflate.decompress(body, limit)
        if not inflate.eof:     # the end may wait behind a full buffer
            out += inflate.decompress(inflate.unconsumed_tail, 1)
    except zlib.error as exc:
        raise SerializationError(f"corrupt recording: {exc}")
    if not inflate.eof or inflate.unused_data or len(out) > limit:
        raise SerializationError("corrupt recording: zlib stream cut "
                                 "short, too long or followed by bytes")
    return out


def _int_read(codec: struct.Struct):
    return lambda self: self.unpack(codec)[0]


class _Reader:
    u8, u16, u32, u64 = map(_int_read, (_U8, _U16, _U32, _U64))

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.strings: List[str] = []
        #: Whether the bytes are what the encoder writes for what they
        #: decode to (then ``digest`` may hash them as they are).
        self.canonical = True

    def unpack(self, codec: struct.Struct) -> tuple:
        end = self.pos + codec.size
        if end > len(self.data):
            raise SerializationError("truncated recording body")
        values = codec.unpack_from(self.data, self.pos)
        self.pos = end
        return values

    def raw(self, n: int):
        if self.pos + n > len(self.data):
            raise SerializationError("truncated recording body")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def string(self) -> str:
        return str(self.raw(self.u16()), "utf-8")

    def ref(self, index: int) -> str:
        if index >= len(self.strings):
            raise SerializationError(f"bad string ref {index}")
        return self.strings[index]


def _decode_io(r: _Reader) -> List[IoBuffer]:
    out = []
    for _ in range(r.u16()):
        name = r.string()
        gaddr = r.u64()
        size = r.u64()
        shape = tuple(r.u32() for _ in range(r.u8()))
        optional = r.u8()
        r.canonical &= optional < 2
        out.append(IoBuffer(name, gaddr, size, shape, bool(optional)))
    return out


def _v1_dumps(r: _Reader, n_dumps: int) -> List[MemoryDump]:
    """Version 1: each dump's bytes follow its table entry."""
    return [MemoryDump(va, bytes(r.raw(size))) for va, size in
            (r.unpack(_DUMP_ENTRY) for _ in range(n_dumps))]


def _v2_dumps(r: _Reader, n_dumps: int, logical: int) -> List[MemoryDump]:
    """Version 2: the dump table, which must add up to the declared
    ``logical`` length, then per dump a bitmap of its zero pages (bit
    ``i`` of byte ``i // 8``, low bit first) and its other pages: a
    view of the stream, or copied into one zeroed buffer, so a decode
    holds a dump's bytes once however few the file stores."""
    table = [r.unpack(_DUMP_ENTRY) for _ in range(n_dumps)]
    if r.pos + sum(size for _va, size in table) != logical:
        raise SerializationError("body length is not the declared one")
    dumps = []
    for va, size in table:
        pages = -(-size // PAGE_SIZE)
        bitmap = r.raw((pages + 7) // 8)
        if pages % 8 and bitmap[-1] >> pages % 8:
            raise SerializationError(f"bitmap past dump {va:#x}")
        if not any(bitmap):
            dumps.append(MemoryDump(va, r.raw(size)))
            continue
        data = bytearray(size)
        for page, at in enumerate(range(0, size, PAGE_SIZE)):
            if not bitmap[page >> 3] >> (page & 7) & 1:
                data[at:at + PAGE_SIZE] = r.raw(min(PAGE_SIZE, size - at))
        dumps.append(MemoryDump(va, memoryview(data).toreadonly()))
    return dumps


def _decode(data, read_dumps) -> Recording:
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

    strings = r.strings = [r.string() for _ in range(r.u32())]
    used = 0    # the encoder numbers strings by first use
    actions: List[act.Action] = []
    for _ in range(r.u32()):
        # u8() and ref() only where they raise; the codec covers the tag.
        tag = data[r.pos] if r.pos < len(data) else r.u8()
        if tag >= len(_ACTION_CODECS):
            raise SerializationError(f"unknown action tag {tag}")
        cls, codec, refs, bools = _ACTION_CODECS[tag]
        values = list(r.unpack(codec)[1:])
        for position in refs:
            index = values[position]
            r.canonical &= index <= used
            used += index == used
            values[position] = strings[index] if index < len(strings) \
                else r.ref(index)
        for position in bools:
            r.canonical &= values[position] < 2
            values[position] = bool(values[position])
        actions.append(cls(*values))

    n_dumps = r.u32()
    head = bytes(data[:r.pos])
    dumps = read_dumps(r, n_dumps)
    if r.pos != len(data):
        raise SerializationError(
            f"{len(data) - r.pos} bytes after the body")
    recording = Recording(meta, actions, dumps)
    if r.canonical and used == len(set(strings)) == len(strings):
        recording._head = head
    return recording
