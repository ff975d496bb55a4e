"""Slice one job (or one kernel) out of a recording.

A **micro-recording** is a standalone, self-contained recording that
replays exactly one job through the unmodified :class:`Replayer`: same
file format, same digest, same verifier, same doctor support. It is
built in three moves:

1. **Closure** -- :func:`repro.surgery.analyze.analyze_recording`
   recovers the job's dispatch chain and the minimal VA ranges it
   touches (descriptors, shaders, every tensor operand).
2. **Capture** -- the parent is truncated just before the job's kick
   and replayed on a scratch machine with a seeded input deposit; the
   closure bytes are then read back out of GPU memory. This bakes the
   job's *true* pre-state (including intermediate tensors earlier jobs
   computed) into the micro-recording's dumps, which is why a slice
   needs no inputs of its own.
3. **Re-emission** -- a fresh action tape: page-table setup, only the
   mappings the closure touches, one upload per closure range (split
   so descriptor/shader structures stay in their own dumps -- the
   composer rewrites those during VA rebase), the kick-register
   sequence recovered by the analyzer, and the parent's own completion
   window verbatim.

Slicing a single *kernel* out of a multi-kernel chain additionally
CPU-executes the kernels before it over the captured image (shared op
semantics, bit-identical to the GPU) and synthesizes a one-entry
dispatch structure.

The equivalence contract -- an unmutated slice replays byte-identical
to the same job inside its parent session -- is checked by
:func:`parent_write_bytes` + :func:`slice_write_bytes` and enforced in
``tests/surgery`` and the ``surgery`` bench suite.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import actions as act
from repro.core.dispatch import DISPATCH, Dispatch
from repro.core.dumps import MemoryDump
from repro.core.recording import IoBuffer, Recording, RecordingMeta
from repro.core.replay import boot_replayer, seeded_inputs
from repro.core.replayer import Replayer
from repro.errors import SurgeryError
from repro.gpu import FAMILIES
from repro.obs.session import NULL_OBS
from repro.surgery.analyze import (JobInfo, KernelInfo, RecordingAnalysis,
                                   Range, SparseImage, analyze_recording,
                                   apply_kernels, merge_ranges)

_REG_ACTIONS = (act.RegReadOnce, act.RegReadWait, act.RegWrite)
_COMPLETION_ACTIONS = _REG_ACTIONS + (act.WaitIrq, act.IrqEnter, act.IrqExit)


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------


class Sidecar:
    """A JSON manifest saved beside a recording, tagged ``SCHEMA``."""

    SCHEMA = ""

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        raw = json.loads(text)
        if raw.get("schema") != cls.SCHEMA:
            raise SurgeryError(
                f"not a {cls.SCHEMA} manifest: {raw.get('schema')!r}")
        return cls(**{k: raw[k] for k in cls.__dataclass_fields__
                      if k in raw})

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str):
        with open(path) as fh:
            return cls.from_json(fh.read())


@dataclass
class SliceManifest(Sidecar):
    """Provenance + structure sidecar for one micro-recording.

    Everything the composer and the differential tests need that the
    recording bytes alone do not say: where the slice came from, which
    dump is a descriptor/shader structure (rewritten on VA rebase)
    versus plain tensor data (only shifted), and the expected output
    bytes captured from the parent session.
    """

    schema: str
    parent_digest: str
    parent_workload: str
    family: str
    board: str
    job_index: int
    kernel_index: int                     # -1 = whole job
    input_seed: int
    slice_digest: str
    closure: List[List[int]]
    writes: List[List[int]]
    structure: Dict[str, object]          # family-specific layout
    dumps: List[Dict[str, object]]        # {"va","size","kind"}
    outputs: List[Dict[str, object]]      # {"name","gaddr","size","shape"}
    expected_outputs: Dict[str, str] = field(default_factory=dict)

    SCHEMA = "surgery.slice.v1"

    def expected_output_arrays(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for io in self.outputs:
            raw = bytes.fromhex(self.expected_outputs[io["name"]])
            array = np.frombuffer(raw, dtype=np.float32)
            if io["shape"]:
                array = array.reshape(tuple(io["shape"]))
            out[io["name"]] = array.copy()
        return out


@dataclass
class Slice:
    """A micro-recording plus its manifest."""

    recording: Recording
    manifest: SliceManifest

    @property
    def workload(self) -> str:
        return self.recording.meta.workload


# --------------------------------------------------------------------------
# Capture replays
# --------------------------------------------------------------------------


def _scratch_replayer(recording: Recording, board: Optional[str],
                      seed: int = 7100) -> Replayer:
    return boot_replayer(recording, board, seed)[1]


def _truncated(parent: Recording, end: int, n_jobs: int) -> Recording:
    """Parent prefix ``actions[:end]`` as a loadable recording."""
    actions = copy.deepcopy(parent.actions[:end])
    used = sorted({a.dump_index for a in actions
                   if isinstance(a, act.Upload)})
    remap = {old: new for new, old in enumerate(used)}
    for action in actions:
        if isinstance(action, act.Upload):
            action.dump_index = remap[action.dump_index]
    meta = copy.deepcopy(parent.meta)
    meta.n_jobs = n_jobs
    meta.outputs = []
    meta.reg_io = sum(isinstance(a, _REG_ACTIONS) for a in actions)
    return Recording(meta, actions, [parent.dumps[i] for i in used])


def _replay_and_read(recording: Recording, ranges: List[Range],
                     inputs: Optional[Dict[str, np.ndarray]],
                     board: Optional[str]) -> Dict[Range, bytes]:
    """Replay ``recording`` and read ``ranges`` out of GPU memory."""
    replayer = _scratch_replayer(recording, board)
    replayer.replay(inputs=inputs or None)
    out: Dict[Range, bytes] = {}
    for va, size in merge_ranges(list(ranges)):
        out[(va, size)] = replayer.nano.copy_from_gpu(va, size)
    return out


def capture_closure(parent: Recording, info: JobInfo,
                    inputs: Optional[Dict[str, np.ndarray]],
                    board: Optional[str] = None) -> SparseImage:
    """The job's pre-kick memory image, captured by a truncated replay."""
    pre = _truncated(parent, info.kick_index, info.job_index)
    captured = _replay_and_read(pre, info.closure, inputs, board)
    image = SparseImage()
    for (va, _size), data in captured.items():
        image.write(va, data)
    return image


def parent_write_bytes(parent: Recording, info: JobInfo,
                       inputs: Optional[Dict[str, np.ndarray]],
                       board: Optional[str] = None,
                       writes: Optional[List[Range]] = None
                       ) -> Dict[Range, bytes]:
    """The job's write-set bytes as the *parent* session computes them.

    Replays the parent truncated right after the job's completion
    window and reads the write ranges back -- the reference side of the
    slice-equivalence contract.
    """
    post = _truncated(parent, info.completion_end, info.job_index + 1)
    return _replay_and_read(post, writes or info.writes, inputs, board)


def slice_write_bytes(slice_: "Slice",
                      board: Optional[str] = None) -> Dict[Range, bytes]:
    """Replay a micro-recording and read its write-set bytes back."""
    ranges = [tuple(r) for r in slice_.manifest.writes]
    return _replay_and_read(slice_.recording, ranges, None, board)


# --------------------------------------------------------------------------
# Slice construction
# --------------------------------------------------------------------------


def _split_by_maps(ranges: List[Range],
                   live_maps: Dict[int, Tuple[int, int]],
                   page_size: int) -> List[Range]:
    """Split merged ranges at mapping boundaries (an Upload must land
    inside one mapped region)."""
    out: List[Range] = []
    regions = sorted((addr, addr + pages * page_size)
                     for addr, (pages, _f) in live_maps.items())
    for va, size in merge_ranges(list(ranges)):
        end = va + size
        cursor = va
        for lo, hi in regions:
            if hi <= cursor or lo >= end:
                continue
            if cursor < lo:
                raise SurgeryError(
                    f"closure range {cursor:#x}+{end - cursor} is not "
                    f"fully mapped at kick time")
            piece_end = min(end, hi)
            out.append((cursor, piece_end - cursor))
            cursor = piece_end
            if cursor >= end:
                break
        if cursor < end:
            raise SurgeryError(
                f"closure range {cursor:#x}+{end - cursor} is not "
                f"fully mapped at kick time")
    return out


def _post_map_config(parent: Recording) -> List[act.RegWrite]:
    """The parent's post-map configuration writes (page-table flush,
    ring-base programming): every RegWrite before the first Upload."""
    out: List[act.RegWrite] = []
    for action in parent.actions:
        if isinstance(action, act.Upload):
            break
        if isinstance(action, act.RegWrite) and not action.is_job_kick:
            clone = copy.deepcopy(action)
            clone.job_index = 0
            out.append(clone)
    return out


def _completion_actions(parent: Recording, info: JobInfo,
                        dispatch: Dispatch,
                        kick: act.RegWrite) -> List[act.Action]:
    """The parent's completion window for this job, renumbered for a
    single-job tape. A retire read of the family's ``retire_reg``
    (Adreno's ``CP_RB_RPTR``) is the one history-dependent value: the
    parent saw its own ring offset, the slice sees its kick's."""
    out: List[act.Action] = []
    for action in parent.actions[info.kick_index + 1:info.completion_end]:
        if not isinstance(action, _COMPLETION_ACTIONS):
            continue
        clone = copy.deepcopy(action)
        clone.job_index = 1
        if (isinstance(clone, act.RegReadOnce)
                and clone.reg == FAMILIES[dispatch.family].retire_reg):
            clone.val = kick.val
        out.append(clone)
    return out


def _slice_outputs(kernels: List[KernelInfo]) -> List[IoBuffer]:
    """Synthesize named outputs from the final writer of each range."""
    last_writer: Dict[int, object] = {}
    for kernel in kernels:
        for instr in kernel.program.instructions:
            from repro.gpu.shader_exec import output_arity
            for ref in instr.operands[-output_arity(instr.op):]:
                last_writer[ref.va] = ref
    refs = [last_writer[va] for va in sorted(last_writer)]
    return [IoBuffer(name=f"out{i}", gaddr=ref.va, size=ref.nbytes,
                     shape=tuple(ref.shape))
            for i, ref in enumerate(refs)]


def slice_job(parent: Recording, job_index: int,
              kernel_index: Optional[int] = None,
              input_seed: int = 0, board: Optional[str] = None,
              expect_outputs: bool = True,
              analysis: Optional[RecordingAnalysis] = None,
              obs=NULL_OBS) -> Slice:
    """Extract job ``job_index`` (optionally just one kernel of its
    chain) from ``parent`` into a standalone micro-recording."""
    from repro.soc.memory import PAGE_SIZE

    with obs.span("surgery:slice", obs.track("surgery", "slicer"),
                  cat="surgery"):
        analysis = analysis or analyze_recording(parent)
        info = analysis.job(job_index)
        inputs = seeded_inputs(parent, input_seed)
        image = capture_closure(parent, info, inputs, board)
        obs.counter("surgery.slice.capture_replays").inc()

        kernels = info.kernels
        if kernel_index is not None:
            if not 0 <= kernel_index < len(kernels):
                raise SurgeryError(
                    f"job {job_index} has kernels "
                    f"0..{len(kernels) - 1}, not {kernel_index}")
            apply_kernels(kernels[:kernel_index], image)
            kernels = [kernels[kernel_index]]

        family = parent.meta.family
        dispatch = DISPATCH[family]
        structs, setup, structure = dispatch.encode(info.setup, kernels,
                                                    image.read)
        setup_writes, kick = dispatch.writes(setup)
        # The prologue already programs the config registers.
        setup_writes = [w for w in setup_writes
                        if w.reg not in FAMILIES[family].config_regs]
        struct_dumps = [(va, data, "desc") for va, data in structs] + [
            (k.shader_va, image.read(k.shader_va, k.shader_size), "shader")
            for k in kernels]

        structural = merge_ranges(
            [(va, len(data)) for va, data, _kind in struct_dumps])
        closure: List[Range] = list(structural)
        writes: List[Range] = []
        for kernel in kernels:
            closure.extend(kernel.program.referenced_ranges())
            writes.extend(kernel.write_ranges())
        closure = merge_ranges(closure)
        writes = merge_ranges(writes)
        data_ranges = _subtract_ranges(closure, structural)

        keep_maps = {
            addr: spec for addr, spec in info.live_maps.items()
            if any(addr < va + size and va < addr + spec[0] * PAGE_SIZE
                   for va, size in closure)}
        data_ranges = _split_by_maps(data_ranges, keep_maps, PAGE_SIZE)

        dumps: List[MemoryDump] = []
        dump_meta: List[Dict[str, object]] = []
        uploads: List[act.Upload] = []
        for va, data, kind in struct_dumps:
            uploads.append(act.Upload(addr=va, dump_index=len(dumps)))
            dumps.append(MemoryDump(va, data))
            dump_meta.append({"va": va, "size": len(data), "kind": kind})
        for va, size in data_ranges:
            data = image.read(va, size)
            uploads.append(act.Upload(addr=va, dump_index=len(dumps)))
            dumps.append(MemoryDump(va, data))
            dump_meta.append({"va": va, "size": size, "kind": "data"})

        prologue: List[act.Action] = [
            act.SetGpuPgtable(memattr=parent.meta.memattr)]
        for addr in sorted(keep_maps):
            pages, flags = keep_maps[addr]
            prologue.append(act.MapGpuMem(addr=addr, num_pages=pages,
                                          raw_pte_flags=flags))
        prologue.extend(_post_map_config(parent))

        outputs = _slice_outputs(kernels)
        actions: List[act.Action] = (
            list(prologue) + list(uploads) + setup_writes + [kick]
            + _completion_actions(parent, info, dispatch, kick))

        workload = f"{parent.meta.workload}#job{job_index}"
        if kernel_index is not None:
            workload += f".k{kernel_index}"
        meta = RecordingMeta(
            gpu_model=parent.meta.gpu_model, family=family,
            pte_format=parent.meta.pte_format, board=parent.meta.board,
            workload=workload, api=parent.meta.api,
            framework=parent.meta.framework,
            memattr=parent.meta.memattr, n_jobs=1,
            reg_io=sum(isinstance(a, _REG_ACTIONS) for a in actions),
            prologue_len=len(prologue), inputs=[], outputs=outputs,
            power_sequence=list(parent.meta.power_sequence))
        recording = Recording(meta, actions, dumps)

        expected: Dict[str, str] = {}
        if expect_outputs:
            ref = parent_write_bytes(parent, info, inputs, board,
                                    writes=writes)
            expected = _expected_from_write_bytes(outputs, ref)

        manifest = SliceManifest(
            schema=SliceManifest.SCHEMA,
            parent_digest=parent.digest(),
            parent_workload=parent.meta.workload,
            family=family, board=parent.meta.board,
            job_index=job_index,
            kernel_index=-1 if kernel_index is None else kernel_index,
            input_seed=input_seed,
            slice_digest=recording.digest(),
            closure=[list(r) for r in closure],
            writes=[list(r) for r in writes],
            structure=structure, dumps=dump_meta,
            outputs=[{"name": io.name, "gaddr": io.gaddr,
                      "size": io.size, "shape": list(io.shape)}
                     for io in outputs],
            expected_outputs=expected)

        obs.counter("surgery.slices").inc()
        obs.counter("surgery.slice.closure_bytes").inc(
            sum(s for _v, s in closure))
        obs.counter("surgery.slice.dump_bytes").inc(
            recording.dump_bytes())
        return Slice(recording, manifest)


def _subtract_ranges(ranges: List[Range],
                     holes: List[Range]) -> List[Range]:
    """``ranges`` minus ``holes`` (both merged)."""
    out: List[Range] = []
    for va, size in ranges:
        pieces = [(va, va + size)]
        for hva, hsize in holes:
            hend = hva + hsize
            next_pieces = []
            for lo, hi in pieces:
                if hend <= lo or hva >= hi:
                    next_pieces.append((lo, hi))
                    continue
                if lo < hva:
                    next_pieces.append((lo, hva))
                if hend < hi:
                    next_pieces.append((hend, hi))
            pieces = next_pieces
        out.extend((lo, hi - lo) for lo, hi in pieces)
    return merge_ranges(out)


def _expected_from_write_bytes(outputs: List[IoBuffer],
                               write_bytes: Dict[Range, bytes]
                               ) -> Dict[str, str]:
    """Pull each output's bytes out of captured write-range blocks."""
    expected: Dict[str, str] = {}
    for io in outputs:
        for (va, size), data in write_bytes.items():
            if va <= io.gaddr and io.gaddr + io.size <= va + size:
                off = io.gaddr - va
                expected[io.name] = data[off:off + io.size].hex()
                break
        else:
            raise SurgeryError(
                f"output {io.name} at {io.gaddr:#x}+{io.size} is not "
                f"inside any captured write range")
    return expected


def verify_slice(parent: Recording, slice_: "Slice",
                 board: Optional[str] = None,
                 analysis: Optional[RecordingAnalysis] = None) -> bool:
    """Check the slice-equivalence contract end to end.

    Replays both sides -- the micro-recording standalone, and the
    parent truncated past the same job's completion window -- and
    compares the write-set bytes. True iff they are byte-identical.
    """
    analysis = analysis or analyze_recording(parent)
    info = analysis.job(slice_.manifest.job_index)
    inputs = seeded_inputs(parent, slice_.manifest.input_seed)
    writes = [tuple(r) for r in slice_.manifest.writes]
    ref = parent_write_bytes(parent, info, inputs, board, writes=writes)
    got = slice_write_bytes(slice_, board)
    return ref == got
