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
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import Recording, RecordingMeta
from repro.errors import RecordingError
from repro.gpu import FAMILIES
from repro.gpu import jobs as jobfmt
from repro.soc import firmware as fw
from repro.soc.memory import PAGE_SIZE, ZERO
from repro.stack.driver import trace
from repro.stack.driver.base import GpuDriver
from repro.stack.driver.memory import MemFlags
from repro.units import SEC, SIZE_BUCKETS_BYTES

#: Throughput of the recorder's page hashing/copying (record-time cost).
DUMP_BW = int(1.5 * 1024 ** 3)


def coalesce_pages(pages: Iterable[Tuple[int, bytes]],
                   held: Optional[Dict[int, tuple]] = None
                   ) -> List[MemoryDump]:
    """Merge per-page captures into contiguous dumps.

    ``pages`` yields (va, page_buffer) for individual pages; adjacent
    VAs are merged so a 40-page shader blob becomes one Upload action
    instead of 40. A buffer may be a live page of physical memory:
    the join is the one copy its bytes get -- unless ``held`` (va ->
    ``(source, k)``, the page's memory tag) says a run holds pages
    ``k, k + 1, ...`` of one :class:`~repro.soc.PageSource`; then the
    dump is a view of that source, found by tag, not by address.
    """
    ordered = sorted(pages, key=lambda p: p[0])
    runs: List[Tuple[int, List[bytes]]] = []
    cursor = None
    for va, data in ordered:
        if va != cursor:
            runs.append((va, []))
        runs[-1][1].append(data)
        cursor = va + len(data)
    return [MemoryDump(va, _held_view(va, parts, held or {})
                       or b"".join(parts)) for va, parts in runs]


def _held_view(va: int, parts: List[bytes], held: Dict[int, tuple]):
    """The source view a run of whole pages holds by tag, or None."""
    source, k = held.get(va) or (None, 0)
    end = (k + len(parts)) * PAGE_SIZE
    if source is None or end > len(source.data) or any(
            len(part) != PAGE_SIZE or held.get(va + i * PAGE_SIZE) !=
            (source, k + i) for i, part in enumerate(parts)):
        return None
    return source.data[k * PAGE_SIZE:end]


@dataclass
class RecorderOptions:
    """Knobs for record-time behaviour (ablations flip these)."""

    #: Enforce queue depth 1 while recording (Section 2.3).
    sync_submission: bool = True
    #: Apply the GPU-idle interval-skip heuristic (Section 4.5).
    skip_idle_intervals: bool = True
    #: Use allocation-flag hints to exclude scratch on v3d (Section 6.2).
    use_flag_hints: bool = True
    #: Hash every eligible page at every kick, not only the pages
    #: written since their region's last scan (the reference the
    #: dirty-page capture is checked against).
    full_rescan: bool = False


@dataclass
class _Region:
    va: int
    num_pages: int
    flags: MemFlags

    def end_va(self) -> int:
        return self.va + self.num_pages * PAGE_SIZE


class _Scan:
    """A region as the recorder last scanned it: its pages' physical
    addresses, their CRCs (-1: never hashed), the physical indices of
    those written since, and (once one is) index -> page number."""

    __slots__ = ("pas", "crcs", "written", "at")

    def __init__(self, pas: List[int], crcs: array) -> None:
        self.pas = pas
        self.crcs = crcs
        self.written: set = set()
        self.at: Optional[Dict[int, int]] = None


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
        self._table = FAMILIES[self.family]
        self._by_value: List[Tuple[int, int]] = []
        self._recordings: List[Recording] = []
        #: What ``_dump_eligible_regions`` found, where it depends on
        #: the live regions and by-value ranges only; None: stale.
        self._eligible: Optional[List[_Region]] = None
        self._active = False
        self.interval_samples: List[IntervalSample] = []
        self._reset_stream_state()

    # -- family knowledge (Table 1) ------------------------------------------

    def _capture_memattr(self) -> int:
        reg = self._table.memattr_reg
        return self.driver.regs.peek(reg) if reg else 0

    def _dump_eligible_regions(self, chain_va: int) -> List[_Region]:
        """Which live regions may contain the job binary."""
        raise NotImplementedError

    def _whole_region_dumps(self) -> bool:
        """True when changed pages pull in their whole region (v3d)."""
        return False

    def _on_begin(self) -> None:
        """Family hook: quiesce hardware state before recording."""

    def _config_prologue(self) -> List[act.Action]:
        """The family's config registers (the Adreno ring's
        base and size) as the driver left them: the recording's
        prologue programs them once."""
        regs = self.driver.regs
        return [act.RegWrite(reg=name, val=regs.peek(name),
                             src="recorder:ring-prologue")
                for name in self._table.config_regs]

    # -- annotations (the record-harness API of Section 4.4) ---------------------

    def annotate_by_value(self, ranges: List[Tuple[int, int]]) -> None:
        """Mark (va, size) ranges whose *values* must be captured."""
        self._by_value.extend(ranges)
        self._eligible = None

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
        self._eligible = None
        self.first_kick_snapshot: List[Tuple[int, bytes]] = []
        #: Region VA -> its pages as last scanned.
        self._scans: Dict[int, _Scan] = {}
        #: The last CRC of each page VA no scanned region holds now.
        self._page_hashes: Dict[int, int] = {}
        #: Physical address -> VA of the scanned region whose page it is
        #: (keyed by the region's own ints: a driver maps a page into
        #: one region).
        self._owners: Dict[int, int] = {}
        self.machine.memory.dirty = set()
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
        self.machine.memory.dirty = None
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
        for action in self._config_prologue():
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
            kick = event.name in self._table.kick_regs
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
            self._forget_scan(event.va)
            self._live_regions[event.va] = region
            self._eligible = None
            self._append(self._map_action(region), t_ns=event.t_ns)
        elif isinstance(event, trace.MemUnmapEvent):
            self._live_regions.pop(event.va, None)
            self._forget_scan(event.va)
            self._eligible = None
            self._append(act.UnmapGpuMem(addr=event.va,
                                         num_pages=event.num_pages,
                                         src=event.src), t_ns=event.t_ns)
        self._last_busy = event.gpu_busy_after

    # -- memory dumping (Section 4.3) -----------------------------------------------------------

    def _page_buffer(self, va: int):
        """The live physical page behind GPU ``va`` (a zero page while
        it has no buffer), through the driver's tables. Not a copy."""
        entry = self.driver.require_ctx().page_table.lookup(va)
        if entry is None:
            raise RecordingError(f"read of unmapped GPU VA {va:#x}")
        page = self.machine.memory.buffers.get(entry[0] // PAGE_SIZE)
        return ZERO.data if page is None else page

    def _cpu_read(self, va: int, size: int) -> bytes:
        """Read GPU memory CPU-side through the driver's page tables:
        one copy, by the join."""
        parts = []
        for at in range(va - va % PAGE_SIZE, va + size, PAGE_SIZE):
            page = memoryview(self._page_buffer(at))
            parts.append(page[max(va - at, 0):va + size - at])
        return b"".join(parts)

    def data_spans(self) -> Iterator[Tuple[int, bytes]]:
        """Contents of CPU-mapped data regions minus the by-value
        ranges, one span at a time (for taint scanning): the dumps
        capture the weights, and the app's input and output are never
        among them."""
        cuts = sorted(self._by_value)
        for region in sorted(self._live_regions.values(),
                             key=lambda r: r.va):
            if region.flags & MemFlags.GPU_EXEC:
                continue
            if not region.flags & MemFlags.CPU_MAPPED:
                continue
            start = region.va
            for va, size in cuts + [(region.end_va(), 0)]:
                end = min(va, region.end_va())
                if end > start:
                    yield start, self._cpu_read(start, end - start)
                start = max(start, va + size)

    def _forget_scan(self, va: int) -> None:
        """A region (un)mapped at ``va``: its next scan is a full one,
        against the CRCs its pages' VAs last had."""
        scan = self._scans.pop(va, None)
        if scan is None:
            return
        for i, (pa, crc) in enumerate(zip(scan.pas, scan.crcs)):
            del self._owners[pa]
            if crc >= 0:
                self._page_hashes[va + i * PAGE_SIZE] = crc

    def _scan(self, region: _Region) -> Tuple[_Scan, Iterable[int]]:
        """``region``'s scan record, and the numbers of its pages that
        may have changed since its last scan: all of them the first
        time (or always, with ``full_rescan``), else those memory saw
        written, stored or dropped."""
        va = region.va
        scan = self._scans.get(va)
        if scan is not None and not self.options.full_rescan:
            written, scan.written = scan.written, set()
            if written and scan.at is None:
                scan.at = {pa // PAGE_SIZE: i
                           for i, pa in enumerate(scan.pas)}
            return scan, [scan.at[index] for index in written]
        self._forget_scan(va)
        pas = self.driver.require_ctx().regions[va].pas
        scan = self._scans[va] = _Scan(pas, array("q", [
            self._page_hashes.pop(va + i * PAGE_SIZE, -1)
            for i in range(len(pas))]))
        self._owners.update(dict.fromkeys(pas, va))
        return scan, range(len(pas))

    def _capture_dumps(self, chain_va: int) -> None:
        obs = self.machine.obs
        t0 = self.machine.clock.now()
        if not self.first_kick_snapshot:
            # Taken before any GPU job has run: the only copy of the
            # app's input in GPU memory is the one the runtime wrote,
            # so the taint scan cannot confuse job-made duplicates.
            self.first_kick_snapshot = list(self.data_spans())
        # File what memory saw written under the regions scanned so far.
        memory = self.machine.memory
        for index in memory.dirty:
            va = self._owners.get(index * PAGE_SIZE)
            if va is not None:
                self._scans[va].written.add(index)
        memory.dirty.clear()
        # Pages are hashed in place and the changed ones copied once,
        # by the join in ``coalesce_pages`` -- or not at all, where
        # they reference consecutive pages of one source. Only pages
        # written since their region's last scan are hashed, but the
        # model charges the scan of every eligible page.
        buffers, tags, tag_pages = memory.buffers, memory.tags, \
            memory.tag_pages
        pages: List[Tuple[int, bytes]] = []
        held: Dict[int, tuple] = {}
        scanned_bytes = 0
        whole = self._whole_region_dumps()
        for region in self._dump_eligible_regions(chain_va):
            scanned_bytes += region.num_pages * PAGE_SIZE
            scan, numbers = self._scan(region)
            changed: List[int] = []
            for i in numbers:
                crc = zlib.crc32(buffers.get(scan.pas[i] // PAGE_SIZE,
                                             ZERO.data))
                if scan.crcs[i] != crc:
                    scan.crcs[i] = crc
                    changed.append(i)
            for i in range(len(scan.pas)) if changed and whole else changed:
                index, va = scan.pas[i] // PAGE_SIZE, region.va + i * PAGE_SIZE
                pages.append((va, buffers.get(index, ZERO.data)))
                if index in tags:
                    held[va] = (tags[index], tag_pages[index])
        obs.counter("record.dump_bytes_scanned").inc(scanned_bytes)
        if not pages:
            return
        # The copy comes before the clock moves: events fired by the
        # advance may write GPU memory.
        dumps = coalesce_pages(pages, held)
        # Record-time overhead of copying the pages out (an unintended
        # delay the idle heuristic later removes from replay).
        self.machine.clock.advance(
            max(1, (scanned_bytes + len(pages) * PAGE_SIZE)
                * SEC // DUMP_BW))
        dump_bytes = 0
        for dump in dumps:
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

    def _dump_eligible_regions(self, chain_va: int) -> List[_Region]:
        del chain_va  # exec permissions suffice on Mali
        if self._eligible is None:
            self._eligible = [
                region for region in self._live_regions.values()
                if region.flags & MemFlags.GPU_EXEC
                or self._overlaps_by_value(region)]
        return self._eligible


class AdrenoRecorder(MaliRecorder):
    """Adreno recorder: SMMU permissions give the same exec-bit dump
    shrinking as Mali; the kick register is the ring doorbell.

    Amortization in practice (Section 4.1): the Adreno recorder reuses
    the Mali dump policy wholesale -- only the Table 1 interface
    knowledge differs.
    """

    def _on_begin(self) -> None:
        # A recording must start from ring offset zero, matching the
        # freshly-reset state the nano driver provides at replay time.
        self.driver.rewind_ring()


class V3dRecorder(GpuRecorder):
    """v3d recorder: pointer chasing + flag hints (Section 6.2).

    v3d page tables lack executable bits, so the recorder follows the
    kick registers into the control list and chases shader pointers to
    find the job binary; allocation-flag hints exclude GPU-internal
    scratch (unless disabled, the conservative mode that inflates
    dumps). Dumps are rounded to whole regions -- the conservatism that
    makes v3d recordings larger but highly compressible (Section 7.3).
    """

    def _whole_region_dumps(self) -> bool:
        return True

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
