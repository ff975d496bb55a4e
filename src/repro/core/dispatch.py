"""Job submission per GPU family: how each GPU is kicked, in one table.

GPU families differ in a small interface (PAPER §4.1, Table 1): which
register kicks a job, where the head of the job binary sits, and how
that binary -- a Mali job chain, a v3d control list, an Adreno ring --
links descriptors to shaders. :data:`DISPATCH` holds the binaries
once per family for the surgery analyzer, slicer and composer, and
:func:`first_kick_chain_va` / :func:`flip_dump_byte` (the replay
doctor's and the serve engine's poisoned recordings); the kick, config
and retire registers live in :data:`repro.gpu.FAMILIES`. The deployable
never imports this module. A *submission* is the kick-time register
state as a dict (``JobInfo.setup``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import Recording
from repro.errors import JobDecodeError, ObsError
from repro.gpu import FAMILIES
from repro.gpu.jobs import (CL_BRANCH, CL_BRANCH_PKT, CL_EXEC_PKT,
                            CL_EXEC_SHADER, CL_HALT, MALI_JOB_DESC_SIZE,
                            RING_PKT, RING_PKT_MAGIC, decode_mali_job,
                            encode_cl_exec, encode_cl_halt, encode_mali_job,
                            walk_control_list, walk_mali_chain)

#: The control-list packets that carry a VA, right after the opcode.
_CL_PACKETS = {CL_EXEC_SHADER: CL_EXEC_PKT, CL_BRANCH: CL_BRANCH_PKT}

Read = Callable[[int, int], bytes]
Setup = Dict[str, int]
Writes = Tuple[List[act.RegWrite], act.RegWrite]


class Entry(NamedTuple):
    """One kernel of a dispatch structure: the descriptor (or packet)
    at ``desc_va`` and the shader program it names."""

    desc_va: int
    desc_size: int
    shader_va: int
    shader_size: int


def _split(va: int) -> Tuple[int, int]:
    return va & 0xFFFFFFFF, va >> 32


def _set(*writes: Tuple[str, int]) -> List[act.RegWrite]:
    return [act.RegWrite(reg=reg, val=val) for reg, val in writes]


def _kick(reg: str, val: int) -> act.RegWrite:
    return act.RegWrite(reg=reg, val=val, is_job_kick=True)


def _descs(vas, kernels) -> List[Dict[str, int]]:
    """A slice manifest's per-kernel layout."""
    return [{"va": va, "shader_va": k.shader_va,
             "shader_size": k.shader_size} for va, k in zip(vas, kernels)]


class Dispatch:
    """One family's job-submission interface. Besides the defaults
    below, each family defines:

    - ``kick(regs, reg, val)``: the submission a write of ``val`` to
      kick register ``reg`` makes, given the register values before it
      (``regs`` moves past it);
    - ``head(setup)``: the VA the GPU starts walking the structure at;
    - ``walk(setup, read)``: the structure's kernels as :class:`Entry`
      values, read via ``read(va, size)``; raises
      :class:`JobDecodeError` where the device would refuse the job;
    - ``shift(setup, delta)``: the same submission ``delta`` higher;
    - ``encode(setup, kernels, read)``: a structure that submits just
      ``kernels`` (anything with the :class:`Entry` fields, their
      descriptors read via ``read``) -- its (va, bytes) dumps, its
      submission and the layout a slice manifest records;
    - ``rebase(blob, delta)``: structure bytes with every VA they hold
      moved by ``delta``, and how many pointers that rewrote;
    - ``writes(setup)``: the setup RegWrites and the kick RegWrite
      that submit ``setup``.
    """

    family: str

    def write(self, regs: Dict[str, int], reg: str, val: int) -> None:
        """Latch a register write that does not kick into ``regs``."""
        regs[reg] = val

    def span(self, setup: Setup) -> List[Tuple[int, int]]:
        """Structure bytes the kernels' descriptors do not cover."""
        return []


class MaliDispatch(Dispatch):
    """Job slots: ``JS<n>_HEAD_LO/HI`` name a descriptor chain,
    ``JS<n>_COMMAND`` starts it."""

    family = "mali"

    def kick(self, regs: Dict[str, int], reg: str, val: int) -> Setup:
        slot = int(reg[2])
        return {"slot": slot,
                "head_lo": regs.get(f"JS{slot}_HEAD_LO", 0),
                "head_hi": regs.get(f"JS{slot}_HEAD_HI", 0),
                "affinity": regs.get(f"JS{slot}_AFFINITY", 0),
                "command": val}

    def head(self, setup: Setup) -> int:
        return (setup["head_hi"] << 32) | setup["head_lo"]

    def walk(self, setup: Setup, read: Read) -> List[Entry]:
        return [Entry(va, MALI_JOB_DESC_SIZE, desc.shader_va,
                      desc.shader_size)
                for va, desc in walk_mali_chain(self.head(setup), read)]

    def shift(self, setup: Setup, delta: int) -> Setup:
        return self._at(setup, self.head(setup) + delta)

    @staticmethod
    def _at(setup: Setup, head: int) -> Setup:
        lo, hi = _split(head)
        return dict(setup, head_lo=lo, head_hi=hi)

    def encode(self, setup, kernels, read):
        # Each descriptor stays where it is; the chain ends at the last.
        dumps, descs = [], _descs([k.desc_va for k in kernels], kernels)
        for kernel, layout in zip(kernels, descs):
            desc = decode_mali_job(read(kernel.desc_va, kernel.desc_size))
            if kernel is kernels[-1]:
                desc = replace(desc, next_va=0)
            dumps.append((kernel.desc_va, encode_mali_job(desc)))
            layout["job_type"] = desc.job_type
        head = kernels[0].desc_va
        return dumps, self._at(setup, head), {
            "kind": self.family, "slot": setup["slot"], "chain_va": head,
            "descs": descs}

    def rebase(self, blob: bytes, delta: int) -> Tuple[bytes, int]:
        out = bytearray()
        for pos in range(0, len(blob), MALI_JOB_DESC_SIZE):
            desc = decode_mali_job(blob[pos:pos + MALI_JOB_DESC_SIZE])
            out += encode_mali_job(replace(
                desc, next_va=desc.next_va and desc.next_va + delta,
                shader_va=desc.shader_va + delta))
        return bytes(out), 2 * (len(blob) // MALI_JOB_DESC_SIZE)

    def writes(self, setup: Setup) -> Writes:
        slot = setup["slot"]
        return (_set((f"JS{slot}_HEAD_LO", setup["head_lo"]),
                     (f"JS{slot}_HEAD_HI", setup["head_hi"]),
                     (f"JS{slot}_AFFINITY", setup["affinity"])),
                _kick(f"JS{slot}_COMMAND", setup["command"]))


class V3dDispatch(Dispatch):
    """Control lists: ``CT0QBA`` names the list, writing its end VA to
    ``CT0QEA`` runs it."""

    family = "v3d"

    def kick(self, regs: Dict[str, int], reg: str, val: int) -> Setup:
        return {"qba": regs.get("CT0QBA", 0), "qea": val}

    def head(self, setup: Setup) -> int:
        return setup["qba"]

    def walk(self, setup: Setup, read: Read) -> List[Entry]:
        return [Entry(entry.va, CL_EXEC_PKT.size, entry.shader_va,
                      entry.shader_size)
                for entry in walk_control_list(setup["qba"], read)
                if entry.opcode == CL_EXEC_SHADER]

    def span(self, setup: Setup) -> List[Tuple[int, int]]:
        qba, qea = setup["qba"], setup["qea"]
        return [(qba, qea - qba)] if qea > qba else []

    def shift(self, setup: Setup, delta: int) -> Setup:
        return {"qba": setup["qba"] + delta, "qea": setup["qea"] + delta}

    def encode(self, setup, kernels, read):
        # One flat list at the old base: branches are not carried over.
        qba = setup["qba"]
        blob = b"".join(encode_cl_exec(k.shader_va, k.shader_size)
                        for k in kernels) + encode_cl_halt()
        setup = {"qba": qba, "qea": qba + len(blob)}
        vas = range(qba, setup["qea"], CL_EXEC_PKT.size)
        return [(qba, blob)], setup, {"kind": self.family, **setup,
                                      "descs": _descs(vas, kernels)}

    def rebase(self, blob: bytes, delta: int) -> Tuple[bytes, int]:
        out = bytearray(blob)
        pos = moved = 0
        while pos < len(blob):
            packet = _CL_PACKETS.get(blob[pos])
            if packet is None:
                if blob[pos] != CL_HALT:
                    raise JobDecodeError(
                        f"unknown control-list opcode {blob[pos]}")
                pos += 1
                continue
            fields = list(packet.unpack_from(blob, pos))
            fields[1] += delta
            packet.pack_into(out, pos, *fields)
            pos += packet.size
            moved += 1
        return bytes(out), moved

    def writes(self, setup: Setup) -> Writes:
        return _set(("CT0QBA", setup["qba"])), _kick("CT0QEA", setup["qea"])


class AdrenoDispatch(Dispatch):
    """A ring: ``CP_RB_BASE_LO/HI`` and ``CP_RB_SIZE`` place it, the
    doorbell ``CP_RB_WPTR`` submits the packets from the read pointer
    up to itself."""

    family = "adreno"

    def write(self, regs: Dict[str, int], reg: str, val: int) -> None:
        regs[reg] = val
        if reg == "CP_RB_BASE_LO":
            regs["CP_RB_RPTR"] = 0  # a new base rewinds the ring

    def kick(self, regs: Dict[str, int], reg: str, val: int) -> Setup:
        setup = {"ring_base": (regs.get("CP_RB_BASE_HI", 0) << 32)
                 | regs.get("CP_RB_BASE_LO", 0),
                 "ring_size": regs.get("CP_RB_SIZE", 0),
                 "rptr": regs.get("CP_RB_RPTR", 0), "wptr": val}
        regs["CP_RB_RPTR"] = val  # the CP consumes up to the doorbell
        return setup

    def head(self, setup: Setup) -> int:
        return setup["ring_base"] + setup["rptr"]

    def walk(self, setup: Setup, read: Read) -> List[Entry]:
        rptr, wptr, size = setup["rptr"], setup["wptr"], setup["ring_size"]
        # The device's doorbell rule (AdrenoGpu._on_doorbell).
        if size == 0 or wptr % RING_PKT.size or wptr > size:
            raise JobDecodeError(
                f"doorbell {wptr} is not a whole number of packets "
                f"inside the {size}-byte ring")
        if wptr <= rptr:
            raise JobDecodeError(
                f"doorbell rewinds the ring (rptr {rptr}, wptr {wptr})")
        entries = []
        base = setup["ring_base"]
        for va in range(base + rptr, base + wptr, RING_PKT.size):
            magic, blob_size, shader_va = RING_PKT.unpack(
                read(va, RING_PKT.size))
            if magic != RING_PKT_MAGIC:
                raise JobDecodeError(
                    f"bad ring packet magic {magic:#x} at {va:#x}")
            entries.append(Entry(va, RING_PKT.size, shader_va, blob_size))
        return entries

    def shift(self, setup: Setup, delta: int) -> Setup:
        return dict(setup, ring_base=setup["ring_base"] + delta)

    def encode(self, setup, kernels, read):
        # The packets move to the start of the ring.
        base = setup["ring_base"]
        blob = b"".join(read(k.desc_va, k.desc_size) for k in kernels)
        setup = dict(setup, rptr=0, wptr=len(blob))
        vas = range(base, base + len(blob), RING_PKT.size)
        return [(base, blob)], setup, {
            "kind": self.family, "ring_base": base,
            "ring_size": setup["ring_size"], "wptr": len(blob),
            "descs": _descs(vas, kernels)}

    def rebase(self, blob: bytes, delta: int) -> Tuple[bytes, int]:
        out = bytearray(blob)
        for pos in range(0, len(blob), RING_PKT.size):
            magic, blob_size, shader_va = RING_PKT.unpack_from(blob, pos)
            RING_PKT.pack_into(out, pos, magic, blob_size, shader_va + delta)
        return bytes(out), len(blob) // RING_PKT.size

    def writes(self, setup: Setup) -> Writes:
        lo, hi = _split(setup["ring_base"])
        return (_set(("CP_RB_BASE_LO", lo), ("CP_RB_BASE_HI", hi),
                     ("CP_RB_SIZE", setup["ring_size"])),
                _kick("CP_RB_WPTR", setup["wptr"]))


DISPATCH: Dict[str, Dispatch] = {
    d.family: d for d in (MaliDispatch(), V3dDispatch(), AdrenoDispatch())}


def first_kick_chain_va(recording: Recording) -> int:
    """GPU VA of the first kicked job's descriptor chain: the register
    writes replayed symbolically up to the first ``is_job_kick`` write,
    read through the family's table (Mali's ``JS{slot}_HEAD_HI/LO``,
    v3d's ``CT0QBA``, Adreno's ring base)."""
    dispatch = DISPATCH.get(recording.meta.family)
    if dispatch is None:
        raise ObsError(f"unknown GPU family {recording.meta.family!r}")
    regs: Dict[str, int] = {}
    for action in recording.actions:
        if not isinstance(action, act.RegWrite):
            continue
        if not action.is_job_kick:
            dispatch.write(regs, action.reg, action.val)
        elif action.reg in FAMILIES[dispatch.family].kick_regs:
            return dispatch.head(
                dispatch.kick(regs, action.reg, action.val))
        else:
            raise ObsError(
                f"unrecognized kick register {action.reg!r}")
    raise ObsError("recording has no job kick")


def flip_dump_byte(recording: Recording
                   ) -> Tuple[Recording, int, int]:
    """A copy of ``recording`` with one dump byte flipped -- the first
    byte of the first job's descriptor chain, so the corruption is
    guaranteed to surface at the first kick. Returns
    ``(corrupted, dump_index, offset)``."""
    chain_va = first_kick_chain_va(recording)
    for index, dump in enumerate(recording.dumps):
        if dump.va <= chain_va < dump.end_va():
            offset = chain_va - dump.va
            data = bytearray(dump.data)
            data[offset] ^= 0xFF
            dumps = list(recording.dumps)
            dumps[index] = MemoryDump(dump.va, bytes(data))
            return recording.with_dumps(dumps), index, offset
    raise ObsError(
        f"no dump covers the first job chain at {chain_va:#x}")
