"""The nano GPU driver (Section 5.2): the replayer's hardware access.

The only GPU knowledge the replayer ships: the register map (names ->
MMIO offsets), its family's :data:`repro.gpu.FAMILIES` row, its SKU's
page-table encoding and an interrupt handler that only flags arrival
-- interrupt *handling* is the recording's job (the actions that
follow a WaitIrq).

Register access goes through the machine's MMIO bus at resolved
addresses, exactly as a user-level replayer would through mmap'd
registers.
"""

from __future__ import annotations

import bisect
import hashlib
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro import weakly
from repro.core.dumps import MemoryDump
from repro.errors import ReplayError, VerificationError
from repro.gpu import FAMILIES, PageTableBuilder, Step
from repro.soc import PAGE_SIZE, PageSource
from repro.units import SEC, US

if TYPE_CHECKING:
    from repro.soc.machine import Machine

MMIO_ACCESS_NS = 150
POLL_STEP_NS = 10 * US
#: Throughput of loading memory dumps into GPU memory.
UPLOAD_BW = 1 * 1024 ** 3
#: Per-PTE cost of building/patching page tables.
PTE_PATCH_NS = 120
#: Per-page cache-maintenance cost when checkpointing GPU memory: each
#: page must be cleaned/invalidated through an uncached mapping, which
#: is why dumping all GPU memory is so much slower than re-executing
#: (the Section 7.5 checkpoint-vs-reexecution trade-off).
PAGE_SYNC_NS = 45 * US
#: Cost of the content-hash comparison that proves an upload's bytes
#: are already GPU-resident (the replay fast path's skip check).
RESIDENT_CHECK_NS = 250


class NanoGpuDriver:
    """Minimal GPU access layer shared by every replayer deployment."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.clock = machine.clock
        gpu = machine.require_gpu()
        self.family = gpu.family
        self.table = FAMILIES[gpu.family]
        self.model_name = gpu.model_name
        self.mmio_base = machine.board.gpu_mmio_base
        self.mmio = machine.mmio
        self.irq_number = machine.board.gpu_irq
        # The shipped register map: names resolved to MMIO addresses.
        self._reg_offsets: Dict[str, int] = {
            d.name: d.offset for d in gpu.regs.defs()}
        self._fmt = gpu.mmu.fmt  # the replayer's own SKU format
        self._pt: Optional[PageTableBuilder] = None
        self._regions: Dict[int, Tuple[List[int], int]] = {}
        #: GPU-resident dumps: upload VA -> the dump last uploaded,
        #: dropped whenever the bytes underneath might have changed
        #: (unmap, fresh map, CPU writes, memory release).
        self._resident: Dict[int, MemoryDump] = {}
        #: Sorted resident base addresses + the largest resident dump
        #: (lowered when it leaves), so the per-GPU-write overlap check
        #: is a bisect, not a scan.
        self._resident_bases: List[int] = []
        self._resident_max = 0
        self._observer = weakly(self._drop_resident)
        self._irq_count = 0
        self._irq_connected = False
        self.in_irq_context = False
        self.reg_io_count = 0
        self._reg_fingerprint: Optional[str] = None
        # The always-on flight recorder: both executors funnel through
        # here, so their event streams are identical by construction.
        self.flight = machine.flight
        # The GPU's counter tape: register writes and skipped uploads
        # are session-level costs that all cross this driver.
        self.counters = gpu.counters
        self._in_poll = False
        #: Set by an environment that wants the GPU back: the replay
        #: in flight aborts before its next action (both executors
        #: read this flag once per action).
        self.preempt_requested = False

    # -- register map (the §5.1 name->address resolution) ---------------------

    def register_names(self) -> Set[str]:
        return set(self._reg_offsets)

    def register_map_fingerprint(self) -> str:
        """Content digest of this board's register map: the MMIO base
        plus every (name, offset) pair. Two drivers with equal
        fingerprints verify and compile recordings identically, so the
        fingerprint keys the content-addressed load cache."""
        if self._reg_fingerprint is None:
            h = hashlib.sha256()
            h.update(f"{self.family}:{self.mmio_base:#x}".encode())
            for name in sorted(self._reg_offsets):
                h.update(f"|{name}={self._reg_offsets[name]:#x}".encode())
            self._reg_fingerprint = h.hexdigest()
        return self._reg_fingerprint

    def resolve(self, reg: str) -> int:
        offset = self._reg_offsets.get(reg)
        if offset is None:
            raise VerificationError(
                f"recording names unknown register {reg!r}")
        return self.mmio_base + offset

    def reg_read(self, reg: str) -> int:
        return self.reg_read_at(self.resolve(reg))

    def reg_write(self, reg: str, value: int,
                  mask: int = 0xFFFFFFFF) -> None:
        self.reg_write_at(self.resolve(reg), value, mask)

    def reg_poll(self, reg: str, mask: int, value: int,
                 timeout_ns: int) -> bool:
        return self.reg_poll_at(self.resolve(reg), mask, value,
                                timeout_ns)

    # Pre-resolved variants, for compiled programs that resolve names
    # once: timing and accounting equal the named ones'.

    def reg_read_at(self, addr: int) -> int:
        clock = self.clock
        clock.advance(MMIO_ACCESS_NS)
        self.reg_io_count += 1
        value = self.mmio.read(addr)
        if not self._in_poll:
            self.flight.record(clock.now_ns, "RegRead", (addr, value))
        return value

    def reg_write_at(self, addr: int, value: int,
                     mask: int = 0xFFFFFFFF) -> None:
        clock = self.clock
        mmio = self.mmio
        counters = self.counters
        clock.advance(MMIO_ACCESS_NS)
        self.reg_io_count += 1
        if counters.enabled:
            # CounterTape.note_mmio_write, without the call.
            counters.session.mmio_writes += 1
            counters.total_mmio_writes += 1
        if mask != 0xFFFFFFFF:
            value = (mmio.read(addr) & ~mask) | (value & mask)
        mmio.write(addr, value)
        self.flight.record(clock.now_ns, "RegWrite", (addr, value, mask))

    def reg_poll_at(self, addr: int, mask: int, value: int,
                    timeout_ns: int) -> bool:
        # One summarized flight event per poll, not one per read: a
        # long poll would otherwise flush the whole ring.
        clock = self.clock
        deadline = clock.now_ns + timeout_ns
        self._in_poll = True
        polls = 0
        last = 0
        try:
            while True:
                last = self.reg_read_at(addr)
                polls += 1
                if (last & mask) == value:
                    ok = True
                    break
                if clock.now_ns >= deadline:
                    ok = False
                    break
                clock.advance(min(POLL_STEP_NS, deadline - clock.now_ns))
        finally:
            self._in_poll = False
        self.flight.record(clock.now_ns, "RegPoll",
                           (addr, mask, value, polls, ok, last))
        return ok

    # -- interrupts -----------------------------------------------------------

    def connect_irq(self) -> None:
        if not self._irq_connected:
            self.machine.irq.connect(self.irq_number, self._irq_stub)
            self._irq_connected = True

    def disconnect_irq(self) -> None:
        if self._irq_connected:
            self.machine.irq.connect(self.irq_number, None)
            self._irq_connected = False

    def _irq_stub(self, line: int) -> None:
        """The bare-minimum handler: note arrival, nothing else."""
        del line
        self._irq_count += 1
        self.machine.irq.ack(self.irq_number)

    def wait_irq(self, timeout_ns: int) -> bool:
        t0 = self.clock.now_ns
        deadline = t0 + timeout_ns
        ok = True
        while self._irq_count == 0:
            if self.clock.now_ns >= deadline:
                ok = False
                break
            fired = self.clock.advance_to_next_event(limit_ns=deadline)
            if not fired and self._irq_count == 0:
                ok = False
                break
        self.flight.record(self.clock.now_ns, "WaitIrq",
                           (timeout_ns, ok, self.clock.now_ns - t0))
        return ok

    @property
    def pending_irqs(self) -> int:
        return self._irq_count

    def enter_irq_context(self) -> None:
        if self._irq_count > 0:
            self._irq_count -= 1
        self.in_irq_context = True
        self.flight.record(self.clock.now_ns, "IrqEnter")

    def exit_irq_context(self) -> None:
        self.in_irq_context = False
        self.flight.record(self.clock.now_ns, "IrqExit")

    def clear_irq_state(self) -> None:
        self._irq_count = 0
        self.in_irq_context = False

    # -- GPU bring-up / reset (per-family Table 1 knowledge) ------------------

    def init_gpu(self) -> None:
        """Acquire the GPU: reset, unmask interrupts, power the cores.

        Also scrubs any previous session's GPU memory -- a fresh init
        is the clean-handoff point between apps (Section 5.3: no data
        leaks across replayer sessions)."""
        obs = self.machine.obs
        self.flight.record(self.clock.now(), "Reset", ("init",))
        with obs.span("nano:init-gpu", obs.track("replay", "nano"),
                      cat="nano", args={"family": self.family}):
            self.connect_irq()
            self.clear_irq_state()
            self._run(self.table.reset)
            self.release_memory()
        # Observe GPU-side writes so resident-dump tracking never
        # claims bytes the GPU itself has since overwritten.
        self.machine.gpu.mmu.write_observer = self._observer

    def soft_reset(self) -> None:
        """Reset without touching replayer memory state (recovery path)."""
        obs = self.machine.obs
        obs.counter("nano.resets").inc()
        self.flight.record(self.clock.now(), "Reset", ("soft",))
        with obs.span("nano:reset", obs.track("replay", "nano"),
                      cat="nano"):
            self._run(self.table.reset)
        self.clear_irq_state()

    def flush_and_reset(self) -> None:
        """Preemption path: clean caches + TLB, then soft reset (§5.3)."""
        self._run(self.table.flush)
        self.soft_reset()

    def _run(self, steps: Sequence[Step]) -> None:
        """Run one of the table's register sequences."""
        last = 0
        for step in steps:
            value = last if step.value is None else step.value
            if step.op == "write":
                self.reg_write(step.reg, value)
            elif step.op == "poll":
                mask = last if step.mask is None else step.mask
                if not self.reg_poll(step.reg, mask, value,
                                     step.timeout_ns) and step.what:
                    raise ReplayError(f"nano driver: {step.what} timed out")
            else:
                last = self.reg_read(step.reg)
                if last == step.value:
                    raise ReplayError(step.what)

    # -- GPU memory (MapGPUMem / Upload / CopyTo / CopyFrom) ------------------

    def _require_pt(self) -> PageTableBuilder:
        if self._pt is None:
            self._pt = PageTableBuilder(
                self.machine.memory, self.machine.gpu_allocator,
                self._fmt, tag="replayer-pgtable")
        return self._pt

    def map_gpu_mem(self, va: int, num_pages: int,
                    raw_pte_flags: int) -> None:
        """Allocate fresh physical pages for ``va`` and map them.

        The PTE permission bits come in the *source SKU's* encoding and
        are decoded with this SKU's format (Section 5.2's relocation
        with patching). Re-mapping an identical region is a no-op, so
        sessions keep GPU memory across recordings (layer chaining).
        """
        existing = self._regions.get(va)
        if existing is not None:
            if existing[1] == num_pages:
                return
            raise ReplayError(
                f"replay re-maps VA {va:#x} with different size")
        _valid, _pa, perms = self._fmt.decode_pte(raw_pte_flags)
        pas = self.machine.gpu_allocator.alloc_pages(num_pages,
                                                     "replayer-mem")
        # Fresh pages are zero-filled by the allocator: no stale
        # data leaks to the GPU (§5.1, "no sensitive data").
        self._require_pt().map_range(va, pas, perms)
        self.clock.advance(PTE_PATCH_NS * num_pages)
        self._regions[va] = (pas, num_pages)
        self._drop_resident(va, num_pages * PAGE_SIZE)
        self.flight.record(self.clock.now_ns, "MemMap", (va, num_pages))

    def unmap_gpu_mem(self, va: int, num_pages: int) -> None:
        entry = self._regions.pop(va, None)
        if entry is None:
            raise ReplayError(f"replay unmaps unmapped VA {va:#x}")
        pas, mapped_pages = entry
        del num_pages
        self._require_pt().unmap_range(va, mapped_pages)
        self.machine.gpu_allocator.free_pages(pas)
        self._drop_resident(va, mapped_pages * PAGE_SIZE)
        self.flight.record(self.clock.now_ns, "MemUnmap",
                           (va, mapped_pages))

    def set_gpu_pgtable(self, memattr: int) -> None:
        self.flight.record(self.clock.now_ns, "SetPgtable", (memattr,))
        table = self.table
        root = self._require_pt().root_pa >> table.root_shift
        for word, reg in enumerate(table.root_regs):
            self.reg_write(reg, (root >> 32 * word) & 0xFFFFFFFF)
        if table.memattr_reg is not None:
            self.reg_write(table.memattr_reg, memattr)
        self._run(table.arm)

    def _cpu_access(self, va: int, size: int, data: Optional[bytes] = None,
                    source: Optional[PageSource] = None) -> bytes:
        """Read ``size`` bytes at ``va`` or store ``data`` there (one
        tagged store, with its ``source``) up to an unmapped page."""
        if data is not None:
            self._drop_resident(va, size)
        first = va & ~(PAGE_SIZE - 1)
        entries = self._require_pt().lookup_pages(
            first, -(-(va + size - first) // PAGE_SIZE) if size else 0)
        mapped = entries.index(None) if None in entries else len(entries)
        memory = self.machine.memory
        out = bytearray()
        pages = entries[:mapped]
        if source is not None:
            memory.store_pages(list(map(itemgetter(0), pages)), source, 0)
            pages = []
        for offset, (pa, _perms) in zip(range(first - va, size, PAGE_SIZE),
                                        pages):
            at = max(offset, 0)
            chunk = min(size, offset + PAGE_SIZE) - at
            if data is None:
                out += memory.read(pa + at - offset, chunk)
            else:
                memory.write(pa + at - offset, data[at:at + chunk])
        if mapped < len(entries):
            raise ReplayError(f"replay touches unmapped GPU VA "
                              f"{max(va, first + mapped * PAGE_SIZE):#x}")
        return bytes(out)

    # -- resident-dump tracking (the replay fast path) ------------------------

    def _drop_resident(self, va: int, size: int) -> None:
        """Forget resident dumps overlapping [va, va+size).

        Called on every GPU-side store via the MMU write observer, so
        it must be cheap when nothing overlaps: a sorted index of base
        addresses narrows the scan to entries that could start inside
        ``[va - largest_dump, va + size)``, instead of walking every
        resident entry per write.
        """
        if not self._resident:
            return
        end = va + size
        bases = self._resident_bases
        lo = bisect.bisect_left(bases, va - self._resident_max + 1)
        hi = bisect.bisect_left(bases, end)
        if lo >= hi:
            return
        resident = self._resident
        stale = [base for base in bases[lo:hi]
                 if va < base + resident[base].size]
        for base in stale:
            bases.remove(base)
            if resident.pop(base).size == self._resident_max:
                self._resident_max = max(
                    [dump.size for dump in resident.values()], default=0)

    def resident_digest(self, va: int) -> Optional[str]:
        """The content digest resident at ``va``, if any (debug/CLI)."""
        held = self._resident.get(va)
        return held.digest if held is not None else None

    def forget_resident(self) -> None:
        """Drop all resident-dump knowledge, so the next replay pays for
        re-uploading everything (benchmark baselines, paranoia mode).
        Virtual only: the host copies no page that holds its bytes."""
        self._resident.clear()
        self._resident_bases.clear()
        self._resident_max = 0

    def upload(self, va: int, data: bytes) -> int:
        """Load a dump at ``va``; returns the bytes the model moves.

        ``data`` is a :class:`MemoryDump` (what replay passes) or any
        C-contiguous read-only buffer. Skipped when the dump a previous
        upload left here is this one, or one of equal size and digest
        (a residency key, computed only when two dump objects meet at
        one address), and nothing dirtied the range since. Any other
        upload costs its size in virtual time; the host copies only the
        pages of a page-aligned dump that do not hold them already.
        """
        dump = data if isinstance(data, MemoryDump) else MemoryDump(va, data)
        size = dump.size
        held = self._resident.get(va)
        if held is dump or (held is not None and held.size == size
                            and held.digest == dump.digest):
            self.clock.advance(RESIDENT_CHECK_NS)
            if self.counters.enabled:
                self.counters.note_upload_skipped(size)
            self.flight.record(self.clock.now_ns, "Upload", (va, size, 0))
            return 0
        self.clock.advance(max(1, size * SEC // UPLOAD_BW))
        self._cpu_access(va, size, dump.data, None if (va | size) % PAGE_SIZE
                         else dump.pages)
        self._resident[va] = dump
        bisect.insort(self._resident_bases, va)
        self._resident_max = max(self._resident_max, size)
        self.flight.record(self.clock.now_ns, "Upload", (va, size, size))
        return size

    def copy_to_gpu(self, gaddr: int, data: bytes) -> None:
        self.clock.advance(max(1, len(data) * SEC // UPLOAD_BW))
        self._cpu_access(gaddr, len(data), data)
        self.flight.record(self.clock.now_ns, "CopyToGpu",
                           (gaddr, len(data)))

    def copy_from_gpu(self, gaddr: int, size: int) -> bytes:
        self.clock.advance(max(1, size * SEC // UPLOAD_BW))
        out = self._cpu_access(gaddr, size)
        self.flight.record(self.clock.now_ns, "CopyFromGpu",
                           (gaddr, size))
        return out

    # -- checkpoint support (§5.3) --------------------------------------------

    def snapshot_memory(self) -> Dict[int, bytes]:
        """Copy every mapped region (the expensive part of checkpoints)."""
        out = {va: self._cpu_access(va, pages * PAGE_SIZE)
               for va, (_pas, pages) in self._regions.items()}
        self._sync_pages(out)
        return out

    def restore_memory(self, snapshot: Dict[int, bytes]) -> None:
        for va, data in snapshot.items():
            self._cpu_access(va, len(data), data)
        self._sync_pages(snapshot)

    def _sync_pages(self, snapshot: Dict[int, bytes]) -> None:
        """Charge copying ``snapshot`` through uncached mappings."""
        mapped = sum(pages for _pas, pages in self._regions.values())
        synced = sum(-(-len(data) // PAGE_SIZE) for data in snapshot.values())
        self.clock.advance(max(1, mapped * PAGE_SIZE * SEC // UPLOAD_BW)
                           + PAGE_SYNC_NS * synced)

    # -- teardown -------------------------------------------------------------

    def release_memory(self) -> None:
        """Free every mapped region and the page tables themselves."""
        self.forget_resident()
        for va in list(self._regions):
            pas, pages = self._regions.pop(va)
            if self._pt is not None:
                self._pt.unmap_range(va, pages)
            self.machine.gpu_allocator.free_pages(pas)
        if self._pt is not None:
            self._pt.destroy()
            self._pt = None

    def release(self) -> None:
        self.release_memory()
        self.disconnect_irq()
        mmu = self.machine.gpu.mmu
        if mmu.write_observer is self._observer:
            mmu.write_observer = None
