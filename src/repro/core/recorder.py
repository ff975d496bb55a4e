"""The in-driver recorder (Section 4).

Subscribes to the driver's trace chokepoints and turns the event stream
into replay actions:

- register writes/reads/polls map 1:1 onto RegWrite / RegReadOnce /
  RegReadWait (polling loops arrive pre-summarized, Section 4.2);
- right before every job kick it captures memory dumps, using the
  family-specific shrink heuristics of Sections 6.1/6.2;
- it tracks GPU idleness from the driver's own accounting and marks
  intervals skippable when the GPU was idle throughout (Section 4.5);
- ``cut()`` splits the stream into multiple recordings (per-layer /
  per-fused-layer granularity, Section 3.1).

The recorder enforces synchronous job submission for the duration of
the recording (queue depth 1 -- the Mali "reduce the job queue length"
change of Table 1) and restores the original depth afterwards.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import Recording, RecordingMeta
from repro.errors import RecordingError
from repro.gpu import jobs as jobfmt
from repro.soc import firmware as fw
from repro.soc.memory import PAGE_SIZE
from repro.stack.driver import trace
from repro.stack.driver.base import GpuDriver
from repro.stack.driver.memory import MemFlags
from repro.units import SEC, SIZE_BUCKETS_BYTES

#: Throughput of the recorder's page hashing/copying (record-time cost).
DUMP_BW = int(1.5 * 1024 ** 3)


def coalesce_pages(pages: Iterable[Tuple[int, bytes]]) -> List[MemoryDump]:
    """Merge per-page captures into contiguous dumps.

    ``pages`` yields (va, page_bytes) for individual pages; adjacent
    VAs are merged so a 40-page shader blob becomes one Upload action
    instead of 40.
    """
    ordered = sorted(pages, key=lambda p: p[0])
    out: List[MemoryDump] = []
    run_va = None
    run_parts: List[bytes] = []
    cursor = 0
    for va, data in ordered:
        if run_va is not None and va == cursor:
            run_parts.append(data)
            cursor += len(data)
            continue
        if run_va is not None:
            out.append(MemoryDump(run_va, b"".join(run_parts)))
        run_va = va
        run_parts = [data]
        cursor = va + len(data)
    if run_va is not None:
        out.append(MemoryDump(run_va, b"".join(run_parts)))
    return out


@dataclass
class RecorderOptions:
    """Knobs for record-time behaviour (ablations flip these)."""

    #: Enforce queue depth 1 while recording (Section 2.3).
    sync_submission: bool = True
    #: Apply the GPU-idle interval-skip heuristic (Section 4.5).
    skip_idle_intervals: bool = True
    #: Use allocation-flag hints to exclude scratch on v3d (Section 6.2).
    use_flag_hints: bool = True


@dataclass
class _Region:
    va: int
    num_pages: int
    flags: MemFlags

    def end_va(self) -> int:
        return self.va + self.num_pages * PAGE_SIZE


@dataclass
class IntervalSample:
    """One observed inter-action interval (feeds Figures 5 and 10)."""

    job_index: int
    dt_ns: int
    skippable: bool


class GpuRecorder(trace.DriverTracer):
    """Family-independent recorder core; see the two subclasses below."""

    def __init__(self, driver: GpuDriver,
                 options: Optional[RecorderOptions] = None):
        self.driver = driver
        self.machine = driver.machine
        self.options = options or RecorderOptions()
        self.family = driver.gpu.family
        self._fmt = driver.gpu.mmu.fmt
        self._kick_regs = self._kick_register_names()
        self._by_value: List[Tuple[int, int]] = []
        self._recordings: List[Recording] = []
        self._active = False
        self.interval_samples: List[IntervalSample] = []
        self._reset_stream_state()

    # -- family knowledge (Table 1) ------------------------------------------

    def _kick_register_names(self) -> Set[str]:
        raise NotImplementedError

    def _capture_memattr(self) -> int:
        raise NotImplementedError

    def _dump_eligible_regions(self, chain_va: int) -> List[_Region]:
        """Which live regions may contain the job binary."""
        raise NotImplementedError

    def _whole_region_dumps(self) -> bool:
        """True when changed pages pull in their whole region (v3d)."""
        return False

    def _on_begin(self) -> None:
        """Family hook: quiesce hardware state before recording."""

    def _extra_prologue_actions(self) -> List[act.Action]:
        """Family hook: extra address-space setup actions (e.g. the
        Adreno ring configuration registers)."""
        return []

    # -- annotations (the record-harness API of Section 4.4) ---------------------

    def annotate_by_value(self, ranges: List[Tuple[int, int]]) -> None:
        """Mark (va, size) ranges whose *values* must be captured."""
        self._by_value.extend(ranges)

    def _overlaps_by_value(self, region: _Region) -> bool:
        for va, size in self._by_value:
            if va < region.end_va() and region.va < va + size:
                return True
        return False

    # -- session lifecycle ----------------------------------------------------------

    def begin(self, workload: str) -> None:
        if self._active:
            raise RecordingError("recorder already active")
        self._active = True
        self.workload = workload
        self._recordings = []
        self.interval_samples = []
        self._saved_depth = self.driver.queue.depth
        if self.options.sync_submission:
            self.driver.queue.set_depth(1)
        self._live_regions: Dict[int, _Region] = {}
        ctx = self.driver.require_ctx()
        for region in ctx.regions.values():
            self._live_regions[region.va] = _Region(
                region.va, region.num_pages, region.flags)
        self.first_kick_snapshot: List[Tuple[int, bytes]] = []
        self._page_hashes: Dict[int, int] = {}
        obs = self.machine.obs
        self._obs_track = obs.track("recorder", self.family)
        self._session_span = obs.begin(f"record:{workload}",
                                       self._obs_track, cat="record")
        self._rec_span = None
        self._on_begin()
        self._start_recording()
        self.driver.attach_tracer(self)

    def end(self) -> List[Recording]:
        if not self._active:
            raise RecordingError("recorder not active")
        self.driver.detach_tracer(self)
        self._finalize_recording()
        self.machine.obs.end(self._session_span)
        self.driver.queue.set_depth(self._saved_depth)
        self._active = False
        return self._recordings

    def cut(self) -> None:
        """Finish the current recording and start the next one."""
        if not self._active:
            raise RecordingError("recorder not active")
        self._finalize_recording()
        self._start_recording()

    # -- per-recording state ------------------------------------------------------------

    def _reset_stream_state(self) -> None:
        self._actions: List[act.Action] = []
        self._dumps: List[MemoryDump] = []
        # Page hashes deliberately survive cut(): recordings in a
        # per-layer chain share state already uploaded by earlier
        # recordings of the same replay session (weights, prior job
        # binaries), so later recordings carry only their own deltas.
        self._job_counter = 0
        self._reg_action_count = 0
        self._last_t = self.machine.clock.now()
        self._last_busy = False
        self._prologue_len = 0

    def _start_recording(self) -> None:
        self._reset_stream_state()
        self._rec_span = self.machine.obs.begin(
            f"recording[{len(self._recordings)}]", self._obs_track,
            cat="record")
        self._last_busy = self.driver.gpu_busy_hint()
        # Prologue: reconstruct the GPU address space at replay time.
        self._append(act.SetGpuPgtable(memattr=self._capture_memattr(),
                                       src="recorder:prologue"),
                     interval=False)
        for region in sorted(self._live_regions.values(),
                             key=lambda r: r.va):
            self._append(self._map_action(region), interval=False)
        for action in self._extra_prologue_actions():
            self._append(action, interval=False)
        self._prologue_len = len(self._actions)

    def _map_action(self, region: _Region) -> act.MapGpuMem:
        raw = self._fmt.encode_pte(0, region.flags.to_perms())
        return act.MapGpuMem(addr=region.va, num_pages=region.num_pages,
                             raw_pte_flags=raw, src="recorder:map")

    def _finalize_recording(self) -> None:
        meta = RecordingMeta(
            gpu_model=self.driver.gpu.model_name,
            family=self.family,
            pte_format=self._fmt.name,
            board=self.machine.board.name,
            workload=self.workload,
            memattr=self._capture_memattr(),
            n_jobs=self._job_counter,
            reg_io=self._reg_action_count,
            prologue_len=self._prologue_len,
            power_sequence=[
                (tag, dev, val)
                for tag, dev, val in self.machine.firmware.extract_sequence()
                if tag in (fw.TAG_SET_POWER, fw.TAG_SET_CLOCK_RATE)
            ],
        )
        self._recordings.append(Recording(meta, self._actions, self._dumps))
        obs = self.machine.obs
        obs.end(self._rec_span)
        self._rec_span = None
        obs.counter("record.recordings").inc()
        obs.counter("record.actions").inc(len(self._actions))
        obs.counter("record.jobs").inc(self._job_counter)

    @property
    def recordings(self) -> List[Recording]:
        return self._recordings

    # -- action emission -------------------------------------------------------------------

    def _append(self, action: act.Action, interval: bool = True,
                t_ns: Optional[int] = None) -> None:
        now = t_ns if t_ns is not None else self.machine.clock.now()
        if interval:
            dt = max(0, now - self._last_t)
            # An interval ending in (or starting from) an event-driven
            # wait is re-synchronized by the hardware itself at replay
            # time: the WaitIrq/RegReadWait blocks until the GPU is
            # ready, so pacing it again would double-count GPU time.
            event_driven = (
                isinstance(action, (act.IrqEnter, act.IrqExit))
                or isinstance(self._actions[-1] if self._actions else
                              None, (act.WaitIrq, act.RegReadWait)))
            skippable = (self.options.skip_idle_intervals
                         and (not self._last_busy or event_driven))
            action.recorded_interval_ns = dt
            action.min_interval_ns = 0 if skippable else dt
            self.interval_samples.append(
                IntervalSample(self._job_counter, dt, skippable))
            obs = self.machine.obs
            obs.counter("record.intervals").inc()
            if skippable:
                obs.counter("record.intervals_skippable").inc()
        action.job_index = self._job_counter
        self._actions.append(action)
        self._last_t = now

    # -- DriverTracer --------------------------------------------------------------------------

    def emit(self, event: trace.TraceEvent) -> None:
        if isinstance(event, trace.RegWriteEvent):
            kick = event.name in self._kick_regs
            self._reg_action_count += 1
            self._append(act.RegWrite(reg=event.name, mask=event.mask,
                                      val=event.value, is_job_kick=kick,
                                      src=event.src), t_ns=event.t_ns)
            if kick:
                self._job_counter += 1
        elif isinstance(event, trace.RegReadEvent):
            self._reg_action_count += 1
            self._append(act.RegReadOnce(reg=event.name, val=event.value,
                                         ignore=event.volatile,
                                         src=event.src), t_ns=event.t_ns)
        elif isinstance(event, trace.RegPollEvent):
            if not event.success:
                raise RecordingError(
                    f"record-time poll timed out at {event.src}")
            self._reg_action_count += event.polls
            self._append(act.RegReadWait(reg=event.name, mask=event.mask,
                                         val=event.value,
                                         timeout_ns=event.timeout_ns,
                                         src=event.src), t_ns=event.t_ns)
        elif isinstance(event, trace.WaitIrqEvent):
            self._append(act.WaitIrq(timeout_ns=event.timeout_ns,
                                     src=event.src), t_ns=event.t_ns)
        elif isinstance(event, trace.IrqEvent):
            cls = act.IrqEnter if event.phase == "enter" else act.IrqExit
            self._append(cls(src=event.src), t_ns=event.t_ns)
        elif isinstance(event, trace.JobKickEvent):
            self._capture_dumps(event.chain_va)
        elif isinstance(event, trace.MemMapEvent):
            region = _Region(event.va, event.num_pages,
                             MemFlags(event.flags))
            self._live_regions[event.va] = region
            self._append(self._map_action(region), t_ns=event.t_ns)
        elif isinstance(event, trace.MemUnmapEvent):
            self._live_regions.pop(event.va, None)
            self._append(act.UnmapGpuMem(addr=event.va,
                                         num_pages=event.num_pages,
                                         src=event.src), t_ns=event.t_ns)
        self._last_busy = event.gpu_busy_after

    # -- memory dumping (Section 4.3) -----------------------------------------------------------

    def _read_region_page(self, region: _Region, index: int) -> bytes:
        """Read one page of a live region through the driver's tables."""
        ctx = self.driver.require_ctx()
        va = region.va + index * PAGE_SIZE
        entry = ctx.page_table.lookup(va)
        if entry is None:
            raise RecordingError(f"live region page {va:#x} unmapped")
        pa, _perms = entry
        return self.machine.memory.read(pa, PAGE_SIZE)

    def _snapshot_data_regions(self) -> List[Tuple[int, bytes]]:
        """Contents of CPU-mapped data regions (for taint scanning)."""
        out: List[Tuple[int, bytes]] = []
        for region in sorted(self._live_regions.values(),
                             key=lambda r: r.va):
            if region.flags & MemFlags.GPU_EXEC:
                continue
            if not region.flags & MemFlags.CPU_MAPPED:
                continue
            data = b"".join(self._read_region_page(region, i)
                            for i in range(region.num_pages))
            out.append((region.va, data))
        return out

    def _capture_dumps(self, chain_va: int) -> None:
        obs = self.machine.obs
        t0 = self.machine.clock.now()
        if not self.first_kick_snapshot:
            # Taken before any GPU job has run: the only copy of the
            # app's input in GPU memory is the one the runtime wrote,
            # so the taint scan cannot confuse job-made duplicates.
            self.first_kick_snapshot = self._snapshot_data_regions()
        pages: List[Tuple[int, bytes]] = []
        scanned_bytes = 0
        for region in self._dump_eligible_regions(chain_va):
            changed: List[Tuple[int, bytes]] = []
            all_pages: List[Tuple[int, bytes]] = []
            for i in range(region.num_pages):
                va = region.va + i * PAGE_SIZE
                data = self._read_region_page(region, i)
                scanned_bytes += PAGE_SIZE
                digest = zlib.crc32(data)
                if self._whole_region_dumps():
                    all_pages.append((va, data))
                if self._page_hashes.get(va) != digest:
                    self._page_hashes[va] = digest
                    changed.append((va, data))
            if not changed:
                continue
            pages.extend(all_pages if self._whole_region_dumps()
                         else changed)
        obs.counter("record.dump_bytes_scanned").inc(scanned_bytes)
        if not pages:
            return
        # Record-time overhead of copying the pages out (an unintended
        # delay the idle heuristic later removes from replay).
        self.machine.clock.advance(
            max(1, (scanned_bytes + sum(len(d) for _va, d in pages))
                * SEC // DUMP_BW))
        dump_bytes = 0
        for dump in coalesce_pages(pages):
            index = len(self._dumps)
            self._dumps.append(dump)
            dump_bytes += dump.size
            self._append(act.Upload(addr=dump.va, dump_index=index,
                                    src="recorder:dump"))
        obs.counter("record.dump_bytes").inc(dump_bytes)
        obs.histogram("record.dump_capture_bytes",
                      SIZE_BUCKETS_BYTES).observe(dump_bytes)
        obs.complete(f"dump@{chain_va:#x}", self._obs_track, t0,
                     self.machine.clock.now(),
                     cat="record",
                     args={"scanned_bytes": scanned_bytes,
                           "dump_bytes": dump_bytes})


class MaliRecorder(GpuRecorder):
    """Mali recorder: exec-permission dump shrinking (Section 6.1).

    A GPU-visible page mapped *executable* is part of a job chain ->
    dump it. A non-executable page never touched through the CPU
    mapping must be a GPU-internal buffer -> exclude it. Data pages the
    harness annotated record-by-value (NN parameters) are captured too.
    """

    def _kick_register_names(self) -> Set[str]:
        return {f"JS{slot}_COMMAND" for slot in range(2)}

    def _capture_memattr(self) -> int:
        return self.driver.regs.peek("AS0_MEMATTR")

    def _dump_eligible_regions(self, chain_va: int) -> List[_Region]:
        del chain_va  # exec permissions suffice on Mali
        out = []
        for region in self._live_regions.values():
            if region.flags & MemFlags.GPU_EXEC:
                out.append(region)
            elif self._overlaps_by_value(region):
                out.append(region)
        return out


class AdrenoRecorder(MaliRecorder):
    """Adreno recorder: SMMU permissions give the same exec-bit dump
    shrinking as Mali; the kick register is the ring doorbell.

    Amortization in practice (Section 4.1): the Adreno recorder reuses
    the Mali dump policy wholesale -- only the Table 1 interface
    knowledge differs.
    """

    def _kick_register_names(self) -> Set[str]:
        return {"CP_RB_WPTR"}

    def _capture_memattr(self) -> int:
        return self.driver.regs.peek("SMMU_CR0")

    def _on_begin(self) -> None:
        # A recording must start from ring offset zero, matching the
        # freshly-reset state the nano driver provides at replay time.
        self.driver.rewind_ring()

    def _extra_prologue_actions(self) -> List[act.Action]:
        regs = self.driver.regs
        return [
            act.RegWrite(reg=name, val=regs.peek(name),
                         src="recorder:ring-prologue")
            for name in ("CP_RB_BASE_LO", "CP_RB_BASE_HI", "CP_RB_SIZE")
        ]


class V3dRecorder(GpuRecorder):
    """v3d recorder: pointer chasing + flag hints (Section 6.2).

    v3d page tables lack executable bits, so the recorder follows the
    kick registers into the control list and chases shader pointers to
    find the job binary; allocation-flag hints exclude GPU-internal
    scratch (unless disabled, the conservative mode that inflates
    dumps). Dumps are rounded to whole regions -- the conservatism that
    makes v3d recordings larger but highly compressible (Section 7.3).
    """

    def _kick_register_names(self) -> Set[str]:
        return {"CT0QEA"}

    def _capture_memattr(self) -> int:
        return 0  # v3d has no translation-config register to capture.

    def _whole_region_dumps(self) -> bool:
        return True

    def _cpu_read(self, va: int, size: int) -> bytes:
        """Read GPU memory CPU-side through the driver's page tables."""
        ctx = self.driver.require_ctx()
        out = bytearray()
        cursor = va
        while len(out) < size:
            entry = ctx.page_table.lookup(cursor)
            if entry is None:
                raise RecordingError(
                    f"control list walks into unmapped VA {cursor:#x}")
            pa, _ = entry
            in_page = cursor & (PAGE_SIZE - 1)
            chunk = min(size - len(out), PAGE_SIZE - in_page)
            out += self.machine.memory.read(pa + in_page, chunk)
            cursor += chunk
        return bytes(out)

    def _regions_containing(self, va: int, size: int) -> List[_Region]:
        out = []
        for region in self._live_regions.values():
            if va < region.end_va() and region.va < va + size:
                out.append(region)
        return out

    def _dump_eligible_regions(self, chain_va: int) -> List[_Region]:
        eligible: Dict[int, _Region] = {}
        # Pointer-chase the control list from the kick registers.
        entries = jobfmt.walk_control_list(chain_va, self._cpu_read)
        targets: List[Tuple[int, int]] = [(chain_va, 1)]
        for entry in entries:
            if entry.opcode == jobfmt.CL_EXEC_SHADER:
                targets.append((entry.shader_va, entry.shader_size))
            elif entry.opcode == jobfmt.CL_BRANCH:
                targets.append((entry.target_va, 1))
        for va, size in targets:
            for region in self._regions_containing(va, size):
                eligible[region.va] = region
        # By-value annotations and (without flag hints) scratch too.
        for region in self._live_regions.values():
            if self._overlaps_by_value(region):
                eligible[region.va] = region
            elif (not self.options.use_flag_hints
                  and region.flags & MemFlags.SCRATCH):
                eligible[region.va] = region
        return list(eligible.values())


def make_recorder(driver: GpuDriver,
                  options: Optional[RecorderOptions] = None) -> GpuRecorder:
    """Build the family-appropriate recorder for ``driver``."""
    if driver.gpu.family == "mali":
        return MaliRecorder(driver, options)
    if driver.gpu.family == "v3d":
        return V3dRecorder(driver, options)
    if driver.gpu.family == "adreno":
        return AdrenoRecorder(driver, options)
    raise RecordingError(f"no recorder for GPU family {driver.gpu.family}")
