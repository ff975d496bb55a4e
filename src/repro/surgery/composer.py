"""Stitch micro-recordings into new synthetic sessions.

The composer takes slices (:class:`repro.surgery.slicer.Slice`) and a
**schedule** -- a sequence of instance indices -- and emits one
recording that kicks those jobs in that order. Three canned shapes:

- :func:`repeat`    -- the same slice N times (microbenchmark loops),
- :func:`reorder`   -- a seeded shuffle of a slice set,
- :func:`interleave` -- round-robin across slices of *different*
  models, the scenario-diversity workhorse.

Every instance gets its own VA region: the composer picks a
page-aligned delta per instance, shifts its mappings, uploads and
output addresses, and **rewrites the pointers inside its dumps** --
Mali job descriptors (``next_va``/``shader_va``), v3d control-list
entries, Adreno ring packets, and the tensor operands inside every
shader program are re-encoded at the new base. Plain tensor-data dumps
only move; their bytes never change, so a composed session still
dedups against its slices in the vault.

Because a slice is self-contained (inputs baked into dumps) and every
occurrence re-uploads its dumps before the kick, each scheduled job
starts from identical state: repeat-N yields N identical results, and
any schedule of the same instances yields the same per-instance
outputs regardless of order. That is the composed differential
contract, checked against the shared CPU op semantics via
:func:`repro.surgery.analyze.cpu_reference_outputs`.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import actions as act
from repro.core.dispatch import DISPATCH
from repro.core.dumps import MemoryDump
from repro.core.recording import IoBuffer, Recording, RecordingMeta
from repro.errors import SurgeryError
from repro.gpu import FAMILIES, VA_SPACE_SIZE
from repro.gpu.isa import Instruction, Program, TensorRef, decode_program, \
    encode_program
from repro.obs.session import NULL_OBS
from repro.surgery.analyze import analyze_recording
from repro.surgery.slicer import (Sidecar, Slice, _REG_ACTIONS,
                                  _completion_actions)

#: Instance regions are placed on this alignment with one unit of
#: guard space between them.
REGION_ALIGN = 1 << 20


@dataclass
class ComposedManifest(Sidecar):
    """Provenance sidecar for a composed session."""

    schema: str
    op: str
    family: str
    board: str
    composed_digest: str
    schedule: List[int]
    instances: List[Dict[str, object]]    # {"slice_digest","workload","delta"}
    expected_outputs: Dict[str, str] = field(default_factory=dict)

    SCHEMA = "surgery.composed.v1"

    def expected_output_arrays(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name, hexed in self.expected_outputs.items():
            out[name] = np.frombuffer(bytes.fromhex(hexed),
                                      dtype=np.float32).copy()
        return out


@dataclass
class Composed:
    """A synthetic session plus its manifest."""

    recording: Recording
    manifest: ComposedManifest

    @property
    def workload(self) -> str:
        return self.recording.meta.workload


# --------------------------------------------------------------------------
# Pointer rebasing
# --------------------------------------------------------------------------


def _rebase_program(blob: bytes, delta: int) -> bytes:
    program = decode_program(blob)
    moved = Program([
        Instruction(instr.op,
                    tuple(TensorRef(ref.va + delta, ref.shape)
                          for ref in instr.operands),
                    instr.params)
        for instr in program.instructions])
    out = encode_program(moved)
    if len(out) != len(blob):
        raise SurgeryError("program re-encode changed size during rebase")
    return out


@dataclass
class _Instance:
    """One slice placed at its own VA region inside the composition."""

    index: int
    slice: Slice
    delta: int
    maps: List[act.MapGpuMem]
    uploads: List[Tuple[int, int]]      # (rebased va, dump index)
    dumps: List[MemoryDump]
    submit: List[act.RegWrite]          # setup writes, then the kick
    completion: List[act.Action]
    outputs: List[IoBuffer]
    rebased_pointers: int = 0


def _place_instance(index: int, slice_: Slice, delta: int) -> _Instance:
    """Rebase one slice by ``delta`` into an :class:`_Instance`."""
    recording = slice_.recording
    dispatch = DISPATCH[recording.meta.family]
    analysis = analyze_recording(recording)
    if len(analysis.jobs) != 1:
        raise SurgeryError(
            f"{recording.meta.workload!r} is not a micro-recording "
            f"({len(analysis.jobs)} jobs); compose only stitches slices")
    info = analysis.jobs[0]

    maps: List[act.MapGpuMem] = []
    for action in recording.actions:
        if isinstance(action, act.MapGpuMem):
            maps.append(act.MapGpuMem(
                addr=action.addr + delta, num_pages=action.num_pages,
                raw_pte_flags=action.raw_pte_flags))

    rebased = 0
    dumps: List[MemoryDump] = []
    uploads: List[Tuple[int, int]] = []
    for action in recording.actions:
        if not isinstance(action, act.Upload):
            continue
        dump = recording.dumps[action.dump_index]
        data = bytes(dump.data)
        va, size = action.addr, len(data)
        if any((va, size) == (k.shader_va, k.shader_size)
               for k in info.kernels):
            data = _rebase_program(data, delta)
            rebased += sum(len(i.operands) for i in
                           decode_program(data).instructions)
        elif any(va <= k.desc_va < va + size for k in info.kernels):
            data, pointers = dispatch.rebase(data, delta)
            rebased += pointers
        uploads.append((action.addr + delta, len(dumps)))
        dumps.append(MemoryDump(action.addr + delta, data))

    setup, kick = dispatch.writes(dispatch.shift(info.setup, delta))
    completion = _completion_actions(recording, info, dispatch, kick)

    outputs = [IoBuffer(name=f"s{index}.{io.name}",
                        gaddr=io.gaddr + delta, size=io.size,
                        shape=io.shape)
               for io in recording.meta.outputs]

    return _Instance(index=index, slice=slice_, delta=delta,
                     maps=maps, uploads=uploads, dumps=dumps,
                     submit=setup + [kick], completion=completion,
                     outputs=outputs, rebased_pointers=rebased)


def _map_extent(recording: Recording) -> Tuple[int, int]:
    from repro.soc.memory import PAGE_SIZE
    regions = [(a.addr, a.addr + a.num_pages * PAGE_SIZE)
               for a in recording.actions
               if isinstance(a, act.MapGpuMem)]
    if not regions:
        raise SurgeryError("slice maps no GPU memory")
    return min(lo for lo, _ in regions), max(hi for _, hi in regions)


def _global_config(slice_: Slice) -> List[act.RegWrite]:
    """Session-wide post-map configuration writes from a slice's
    prologue (page-table flush and friends); the family's config
    registers (Adreno's ring base) are per-instance, so they are
    excluded."""
    out = []
    recording = slice_.recording
    config_regs = FAMILIES[recording.meta.family].config_regs
    for action in recording.actions[:recording.meta.prologue_len]:
        if (isinstance(action, act.RegWrite)
                and action.reg not in config_regs):
            out.append(copy.deepcopy(action))
    return out


# --------------------------------------------------------------------------
# Composition
# --------------------------------------------------------------------------


def compose(slices: List[Slice], schedule: List[int], op: str = "custom",
            obs=NULL_OBS) -> Composed:
    """Stitch ``slices`` into one session kicking ``schedule`` in order.

    ``schedule[k]`` names the slice instance job ``k`` replays. Every
    instance is rebased into its own VA region; every occurrence
    re-uploads the instance's dumps so repeated jobs start identical.
    """
    if not slices:
        raise SurgeryError("compose needs at least one slice")
    if not schedule:
        raise SurgeryError("compose needs a non-empty schedule")
    if any(not 0 <= s < len(slices) for s in schedule):
        raise SurgeryError(f"schedule references unknown instances: "
                           f"{sorted(set(schedule))}")

    head = slices[0].recording.meta
    for slice_ in slices[1:]:
        meta = slice_.recording.meta
        mismatches = [
            f for f in ("family", "gpu_model", "board", "memattr",
                        "pte_format")
            if getattr(meta, f) != getattr(head, f)]
        if mismatches:
            raise SurgeryError(
                f"cannot stitch {meta.workload!r} with "
                f"{head.workload!r}: differing {', '.join(mismatches)}")

    with obs.span("surgery:compose", obs.track("surgery", "composer"),
                  cat="surgery"):
        instances: List[_Instance] = []
        cursor: Optional[int] = None
        for index, slice_ in enumerate(slices):
            lo, hi = _map_extent(slice_.recording)
            if cursor is None:
                delta = 0
            else:
                new_lo = (cursor + REGION_ALIGN - 1) // REGION_ALIGN \
                    * REGION_ALIGN
                delta = new_lo - lo
            if hi + delta + REGION_ALIGN > VA_SPACE_SIZE:
                raise SurgeryError(
                    f"composition overflows the {VA_SPACE_SIZE:#x} GPU "
                    f"VA space at instance {index}")
            instances.append(_place_instance(index, slice_, delta))
            cursor = hi + delta + REGION_ALIGN

        actions: List[act.Action] = [
            act.SetGpuPgtable(memattr=head.memattr)]
        for instance in instances:
            actions.extend(copy.deepcopy(m) for m in instance.maps)
        actions.extend(_global_config(slices[0]))
        prologue_len = len(actions)

        dumps: List[MemoryDump] = []
        dump_base: Dict[int, int] = {}
        for instance in instances:
            dump_base[instance.index] = len(dumps)
            dumps.extend(instance.dumps)

        for kick_number, instance_index in enumerate(schedule):
            instance = instances[instance_index]
            base = dump_base[instance.index]
            for va, local_index in instance.uploads:
                actions.append(act.Upload(
                    addr=va, dump_index=base + local_index,
                    job_index=kick_number))
            for reg_action in instance.submit:
                clone = copy.deepcopy(reg_action)
                clone.job_index = kick_number
                actions.append(clone)
            for action in instance.completion:
                clone = copy.deepcopy(action)
                clone.job_index = kick_number + 1
                actions.append(clone)

        outputs: List[IoBuffer] = []
        expected: Dict[str, str] = {}
        for instance in instances:
            outputs.extend(instance.outputs)
            source = instance.slice.manifest.expected_outputs
            for io, original in zip(instance.outputs,
                                    instance.slice.recording.meta.outputs):
                if original.name in source:
                    expected[io.name] = source[original.name]

        workloads = ",".join(dict.fromkeys(
            s.recording.meta.workload for s in slices))
        meta = RecordingMeta(
            gpu_model=head.gpu_model, family=head.family,
            pte_format=head.pte_format, board=head.board,
            workload=f"synthetic/{op}[{workloads}]x{len(schedule)}",
            api=head.api, framework=head.framework,
            memattr=head.memattr, n_jobs=len(schedule),
            reg_io=0, prologue_len=prologue_len,
            inputs=[], outputs=outputs,
            power_sequence=list(head.power_sequence))
        meta.reg_io = sum(isinstance(a, _REG_ACTIONS) for a in actions)
        recording = Recording(meta, actions, dumps)

        manifest = ComposedManifest(
            schema=ComposedManifest.SCHEMA, op=op,
            family=head.family, board=head.board,
            composed_digest=recording.digest(),
            schedule=list(schedule),
            instances=[{
                "slice_digest": i.slice.manifest.slice_digest,
                "workload": i.slice.recording.meta.workload,
                "delta": i.delta,
            } for i in instances],
            expected_outputs=expected)

        obs.counter("surgery.composed").inc()
        obs.counter("surgery.compose.jobs").inc(len(schedule))
        obs.counter("surgery.compose.rebased_pointers").inc(
            sum(i.rebased_pointers for i in instances))
        return Composed(recording, manifest)


def repeat(slice_: Slice, n: int, obs=NULL_OBS) -> Composed:
    """The same micro-recording kicked ``n`` times."""
    if n < 1:
        raise SurgeryError(f"repeat needs n >= 1, got {n}")
    return compose([slice_], [0] * n, op="repeat", obs=obs)


def reorder(slices: List[Slice], seed: int, obs=NULL_OBS) -> Composed:
    """A seeded shuffle of the slice set, one kick each."""
    order = list(range(len(slices)))
    random.Random(seed).shuffle(order)
    return compose(slices, order, op="reorder", obs=obs)


def interleave(slices: List[Slice], rounds: int = 1,
               obs=NULL_OBS) -> Composed:
    """Round-robin across the slices, ``rounds`` times."""
    if rounds < 1:
        raise SurgeryError(f"interleave needs rounds >= 1, got {rounds}")
    return compose(slices, list(range(len(slices))) * rounds,
                   op="interleave", obs=obs)


def replay_composed_outputs(composed: Composed,
                            board: Optional[str] = None
                            ) -> Dict[str, np.ndarray]:
    """Replay a composed session and return its named output arrays."""
    from repro.surgery.slicer import _scratch_replayer
    replayer = _scratch_replayer(composed.recording, board)
    result = replayer.replay()
    return dict(result.outputs)
