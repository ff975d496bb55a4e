"""Per-job analysis of a recording: the slicer's taint walk.

A recording's action stream is a flat tape; this module recovers its
*job structure* by symbolically replaying the tape -- tracking the
last-written value of every register, the live GPU mappings and a
sparse memory image built from the Upload actions in stream order. At
every job-kick write it decodes the family's dispatch structure out of
the image (Mali job-descriptor chain, v3d control list, Adreno ring
packet; :data:`repro.core.dispatch.DISPATCH` knows each), follows it
to the shader programs, and unions every VA range the job's MMIO/DMA
chain actually touches into the job's **closure**:

- descriptor bytes (chain / control list / ring packet),
- shader program blobs,
- every tensor operand range the decoded programs reference.

The closure is what a standalone micro-recording must map and upload;
the per-instruction output ranges form the job's **write-set**, which
is what slice equivalence is judged over. Nothing here reads tensor
*content* -- intermediate data may not be dump-covered (the recorder
only re-dumps executable/by-value regions) -- so content comes from a
capture replay in :mod:`repro.surgery.slicer`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core import actions as act
from repro.core.dispatch import DISPATCH
from repro.core.recording import Recording
from repro.errors import JobDecodeError, ShaderDecodeError, SurgeryError
from repro.gpu.isa import Op, Program, decode_program
from repro.gpu.shader_exec import compute_fill, compute_op, output_arity

Range = Tuple[int, int]  # (va, size)


def merge_ranges(ranges: List[Range]) -> List[Range]:
    """Sort and merge overlapping/adjacent (va, size) ranges."""
    merged: List[Range] = []
    for va, size in sorted(r for r in ranges if r[1] > 0):
        if merged and va <= merged[-1][0] + merged[-1][1]:
            last_va, last_size = merged[-1]
            merged[-1] = (last_va, max(last_size, va + size - last_va))
        else:
            merged.append((va, size))
    return merged


def ranges_bytes(ranges: List[Range]) -> int:
    return sum(size for _va, size in merge_ranges(list(ranges)))


class SparseImage:
    """A sparse byte image of GPU memory, built from Upload actions.

    Writes merge into sorted, non-overlapping segments; reads must be
    fully covered or they raise :class:`SurgeryError` -- an uncovered
    descriptor read means the recording's dump policy did not capture
    the structure the analysis needs, which is a real finding, not a
    situation to paper over with zeroes.
    """

    def __init__(self) -> None:
        #: Sorted, non-overlapping, non-adjacent: segment starts and
        #: their bytes.
        self._vas: List[int] = []
        self._segments: List[bytearray] = []

    def write(self, va: int, data: bytes) -> None:
        """Store ``data`` at ``va``, merged with every segment it
        overlaps or touches: written into the first one's buffer where
        that starts no later (in place, or extending it), and the last
        one's tail appended; each byte is copied once."""
        if not len(data):
            return
        start, end = va, va + len(data)
        vas, segments = self._vas, self._segments
        first = bisect_right(vas, start) - 1
        if first < 0 or vas[first] + len(segments[first]) < start:
            first += 1
        last = bisect_right(vas, end, first)  # [first, last) touch it
        if first < last and vas[first] <= start:
            base, merged = vas[first], segments[first]
            merged[start - base:end - base] = data
        else:
            base, merged = start, bytearray(data)
        if first < last and segments[last - 1] is not merged:
            tail_va, tail = vas[last - 1], segments[last - 1]
            merged += memoryview(tail)[max(end - tail_va, 0):]
        vas[first:last] = [base]
        segments[first:last] = [merged]

    def read(self, va: int, size: int) -> bytes:
        at = bisect_right(self._vas, va) - 1
        if at >= 0 and va + size <= self._vas[at] + len(self._segments[at]):
            off = va - self._vas[at]
            return bytes(self._segments[at][off:off + size])
        raise SurgeryError(
            f"range {va:#x}+{size} is not covered by any dump the "
            f"recording uploads before this point")

    def covered_bytes(self, ranges: List[Range]) -> int:
        """How many bytes of ``ranges`` the image covers."""
        total = 0
        for va, size in merge_ranges(list(ranges)):
            for seg_va, seg in zip(self._vas, self._segments):
                lo = max(va, seg_va)
                hi = min(va + size, seg_va + len(seg))
                if hi > lo:
                    total += hi - lo
        return total


@dataclass
class KernelInfo:
    """One shader program reachable from a job's dispatch chain."""

    index: int                 # position within the job's chain
    desc_va: int               # descriptor / packet address
    desc_size: int
    shader_va: int
    shader_size: int
    program: Program

    @property
    def ops(self) -> List[str]:
        return [instr.op.name for instr in self.program.instructions]

    def write_ranges(self) -> List[Range]:
        out: List[Range] = []
        for instr in self.program.instructions:
            n_out = output_arity(instr.op)
            for ref in instr.operands[-n_out:]:
                out.append((ref.va, ref.nbytes))
        return merge_ranges(out)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "desc_va": self.desc_va,
            "desc_size": self.desc_size,
            "shader_va": self.shader_va,
            "shader_size": self.shader_size,
            "ops": self.ops,
            "instructions": len(self.program.instructions),
        }


@dataclass
class JobInfo:
    """Everything the slicer needs to know about one recorded job."""

    job_index: int
    kick_index: int            # action index of the is_job_kick write
    completion_end: int        # exclusive action index past the IrqExit
    chain_va: int
    setup: Dict[str, int]      # family-specific kick-time register state
    kernels: List[KernelInfo]
    #: Live mappings at kick time: addr -> (num_pages, raw_pte_flags).
    live_maps: Dict[int, Tuple[int, int]]
    closure: List[Range] = field(default_factory=list)
    writes: List[Range] = field(default_factory=list)
    #: Bytes of the closure the parent's own dumps cover at kick time.
    dump_covered_bytes: int = 0

    @property
    def closure_bytes(self) -> int:
        return ranges_bytes(self.closure)

    @property
    def va_footprint(self) -> Tuple[int, int]:
        """(lowest VA, highest end VA) the closure spans."""
        if not self.closure:
            return (0, 0)
        merged = merge_ranges(self.closure)
        return (merged[0][0], merged[-1][0] + merged[-1][1])

    def to_dict(self) -> Dict[str, object]:
        lo, hi = self.va_footprint
        return {
            "job_index": self.job_index,
            "kick_index": self.kick_index,
            "completion_end": self.completion_end,
            "chain_va": self.chain_va,
            "setup": dict(self.setup),
            "kernels": [k.to_dict() for k in self.kernels],
            "closure": [list(r) for r in merge_ranges(self.closure)],
            "writes": [list(r) for r in merge_ranges(self.writes)],
            "closure_bytes": self.closure_bytes,
            "dump_covered_bytes": self.dump_covered_bytes,
            "va_lo": lo,
            "va_hi": hi,
        }


@dataclass
class RecordingAnalysis:
    """The job structure :func:`analyze_recording` recovers."""

    recording: Recording
    jobs: List[JobInfo]

    def job(self, job_index: int) -> JobInfo:
        for info in self.jobs:
            if info.job_index == job_index:
                return info
        raise SurgeryError(
            f"recording has no job {job_index} "
            f"(jobs 0..{len(self.jobs) - 1})")


def analyze_recording(recording: Recording) -> RecordingAnalysis:
    """Recover the per-job structure of ``recording``.

    Symbolically replays the action tape (registers, mappings, memory
    image) and decodes each job's dispatch chain out of the image at
    its kick. Raises :class:`SurgeryError` when a chain cannot be
    decoded -- which means the recording would not replay either.
    """
    dispatch = DISPATCH.get(recording.meta.family)
    if dispatch is None:
        raise SurgeryError(
            f"unknown GPU family {recording.meta.family!r}")
    regs: Dict[str, int] = {}
    live: Dict[int, Tuple[int, int]] = {}
    image = SparseImage()
    jobs: List[JobInfo] = []

    for idx, action in enumerate(recording.actions):
        if isinstance(action, act.MapGpuMem):
            live[action.addr] = (action.num_pages, action.raw_pte_flags)
        elif isinstance(action, act.UnmapGpuMem):
            live.pop(action.addr, None)
        elif isinstance(action, act.Upload):
            dump = recording.dumps[action.dump_index]
            image.write(action.addr, bytes(dump.data))
        elif isinstance(action, act.RegWrite):
            if not action.is_job_kick:
                dispatch.write(regs, action.reg, action.val)
                continue
            setup = dispatch.kick(regs, action.reg, action.val)
            try:
                kernels = [
                    KernelInfo(index, *entry, decode_program(
                        image.read(entry.shader_va, entry.shader_size)))
                    for index, entry in enumerate(
                        dispatch.walk(setup, image.read))]
            except (JobDecodeError, ShaderDecodeError) as error:
                raise SurgeryError(
                    f"job {len(jobs)} (kick at action {idx}) does not "
                    f"decode: {error}") from error
            closure: List[Range] = dispatch.span(setup)
            writes: List[Range] = []
            for kernel in kernels:
                closure.append((kernel.desc_va, kernel.desc_size))
                closure.append((kernel.shader_va, kernel.shader_size))
                closure.extend(kernel.program.referenced_ranges())
                writes.extend(kernel.write_ranges())
            jobs.append(JobInfo(
                job_index=action.job_index,
                kick_index=idx,
                completion_end=_completion_end(recording, idx),
                chain_va=dispatch.head(setup),
                setup=setup,
                kernels=kernels,
                live_maps=dict(live),
                closure=merge_ranges(closure),
                writes=merge_ranges(writes),
                dump_covered_bytes=image.covered_bytes(closure)))
    return RecordingAnalysis(recording, jobs)


def apply_kernels(kernels: List[KernelInfo], image: SparseImage) -> None:
    """CPU-execute ``kernels`` over ``image`` with the shared op
    semantics (:func:`repro.gpu.shader_exec.compute_op`), so the
    resulting bytes are bit-comparable with a GPU replay."""
    for kernel in kernels:
        for instr in kernel.program.instructions:
            n_out = output_arity(instr.op)
            in_refs = instr.operands[:-n_out]
            out_refs = instr.operands[-n_out:]
            if instr.op == Op.FILL:
                results = [compute_fill(out_refs[0].shape, instr.params)]
            else:
                inputs = [
                    np.frombuffer(image.read(ref.va, ref.nbytes),
                                  dtype=np.float32)
                    .reshape(ref.shape).copy()
                    for ref in in_refs]
                results = compute_op(instr.op, inputs, instr.params)
            for ref, value in zip(out_refs, results):
                value = np.ascontiguousarray(value, dtype=np.float32)
                if value.size != ref.elements:
                    raise SurgeryError(
                        f"{instr.op.name}: {value.size} elements "
                        f"computed for output of {ref.elements}")
                image.write(ref.va, value.tobytes())


def cpu_reference_outputs(recording: Recording) -> "Dict[str, object]":
    """Execute ``recording`` entirely on the CPU and return its named
    output arrays.

    Walks the action tape: Uploads seed a sparse image, each kick runs
    its decoded kernels via :func:`apply_kernels`, and the final bytes
    under ``meta.outputs`` come back as float32 arrays. Only works for
    **self-contained** recordings (no required inputs) -- which is what
    the slicer emits: micro-recordings bake their input content into
    the dump closure. This is the differential contract every composed
    session is checked against.
    """
    if any(not io.optional for io in recording.meta.inputs):
        raise SurgeryError(
            "cpu_reference_outputs needs a self-contained recording; "
            f"{recording.meta.workload!r} still requires inputs")
    analysis = analyze_recording(recording)
    image = SparseImage()
    jobs = iter(analysis.jobs)
    for action in recording.actions:
        if isinstance(action, act.Upload):
            dump = recording.dumps[action.dump_index]
            image.write(action.addr, bytes(dump.data))
        elif isinstance(action, act.RegWrite) and action.is_job_kick:
            apply_kernels(next(jobs).kernels, image)
    outputs: Dict[str, object] = {}
    for io in recording.meta.outputs:
        raw = image.read(io.gaddr, io.size)
        array = np.frombuffer(raw, dtype=np.float32)
        if io.shape:
            array = array.reshape(io.shape)
        outputs[io.name] = array.copy()
    return outputs


def _completion_end(recording: Recording, kick_idx: int) -> int:
    """Exclusive index one past the IrqExit that retires this kick.

    Recording enforces synchronous submission (queue depth 1), so the
    first IrqExit after a kick always belongs to that job. Falls back
    to the next kick (or end of tape) for streams that poll without
    interrupts.
    """
    for idx in range(kick_idx + 1, len(recording.actions)):
        action = recording.actions[idx]
        if isinstance(action, act.IrqExit):
            return idx + 1
        if isinstance(action, act.RegWrite) and action.is_job_kick:
            return idx
    return len(recording.actions)
