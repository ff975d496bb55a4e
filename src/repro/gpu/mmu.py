"""The GPU MMU: walks the page tables :mod:`repro.gpu` encodes.

The paper's GPU model (Section 3.2) requires GPU virtual memory: the
replayer may load memory dumps to physical pages *of its choice* and
patch the page tables for relocation. To make that real, both record
and replay machines allocate physical pages in different orders, and
every GPU access goes through the MMU modelled here.

Host cost. The MMU caches two things, both derived from page-table
memory and both dropped by :meth:`GpuMmu._drop_translations` wherever
that memory may have changed: translations (the TLB, kept coherent by a
write hook on physical memory) and *page runs* -- per
``(va, size, access)`` range, the physical pages the TLB already
resolved it to. A warm bulk access then costs one C-level gather (or
one physical write per page) instead of a Python iteration per page;
first touches, faults and partial writes go through the one
page-at-a-time loop, :meth:`GpuMmu._walk`, and count the same hits and
misses either way. That loop walks the root once per leaf table it
crosses, not once per page: misses decode their PTEs in place in the
table's page buffer (never stale) and look the table up again only
after a write to the root table's page. A run holds the live page
buffers, so it reads whatever the CPU or GPU last wrote. Bytes are
remembered once: a gather whose pages are tagged as one dump's returns
a view of the dump, until a page tagged from it changes.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Optional, Tuple, Union
from weakref import finalize

from repro import weakly
from repro.errors import GpuPageFault
# PageTableBuilder is imported from here too (ledger/).
from repro.gpu import (L0_BITS, L1_BITS, OFFSET_BITS, PERM_R, PERM_W,
                       PERM_X, PageTableBuilder, PteFormat, split_va)
from repro.soc.memory import PAGE_SIZE, PhysicalMemory

_NEEDED = {"r": PERM_R, "w": PERM_W, "x": PERM_X}

#: Pages all remembered page runs of one MMU may span together (128 MiB
#: of touched ranges). A range that would not fit alone is never
#: remembered; one that no longer fits starts the memo over.
MAX_RUN_PAGES = 1 << 15


class GpuMmu:
    """The GPU-side MMU: walks page tables living in physical memory."""

    def __init__(self, memory: PhysicalMemory, fmt: PteFormat):
        self.memory = memory
        self.fmt = fmt
        self.base_pa: Optional[int] = None
        self.enabled = False
        self._entry = struct.Struct("<Q" if fmt.pte_size == 8 else "<I")
        self._tlb: Dict[Tuple[int, str], int] = {}
        #: Page runs: ``(va, size, access)`` -> what the TLB said about
        #: every page of that range when it was last probed -- the live
        #: page buffers for a read, ``(pa, length)`` pieces for a write.
        #: A memo of TLB entries, so it is dropped exactly where the TLB
        #: is (:meth:`_drop_translations`); translations are remembered,
        #: bytes only as ``_views`` (the same ranges, :meth:`gather_va`).
        self._runs: Dict[Tuple[int, int, str], list] = {}
        self._run_pages = 0
        self._views: Dict[Tuple[int, int, str], object] = {}
        self.fault_count = 0
        #: Emulated TLB performance counters (plain ints on the hot
        #: path; the device's CounterTape samples deltas per kernel).
        self.tlb_hits = 0
        self.tlb_misses = 0
        #: Optional observer of GPU-side VA writes: ``fn(va, size)``.
        #: The replayer's nano driver subscribes so its GPU-resident
        #: dump tracking sees buffers the GPU itself overwrites.
        self.write_observer = None
        #: Coherent-TLB mode. The simulated TLB is an implementation
        #: cache, not architectural state: with shootdown, any physical
        #: write to a page this MMU has walked tables from clears the
        #: cache (and the page runs built from it), so translations can
        #: never go stale and architectural flush commands have nothing
        #: left to invalidate. Cached translations then survive across
        #: replays, removing a full page-table walk per touched page
        #: per replay -- and, through the runs, the per-page work of a
        #: warm access altogether. Set False to get the historical
        #: behaviour (flush commands discard the TLB and the runs) --
        #: the replay fast-path benchmark does, to measure the
        #: pre-optimization baseline.
        self.coherent_tlb = True
        self._table_pages: set = set()
        self._subscribe(memory)

    def _subscribe(self, memory: PhysicalMemory) -> None:
        prev, mine = memory.write_hook, weakly(self._on_phys_write)
        if prev is not None:
            def mine(pa: int, size: int, _prev=prev, _mine=mine) -> None:
                _prev(pa, size)
                _mine(pa, size)
        memory.write_hook = mine
        # Memory may outlive this MMU's machine; the hook goes with it.
        finalize(self, _unhook, memory, mine, prev)

    def _on_phys_write(self, pa: int, size: int) -> None:
        """Shootdown: a write landed in a page-table page we walked."""
        tables = self._table_pages
        if not tables or not self.coherent_tlb:
            return
        first = pa >> 12
        last = (pa + size - 1) >> 12
        if first in tables or (last != first and any(
                page in tables for page in range(first + 1, last + 1))):
            self._drop_translations()

    def _drop_translations(self) -> None:
        """Forget every cached translation: the TLB, the table pages it
        was walked from and the page runs probed out of it."""
        self._tlb.clear()
        self._table_pages.clear()
        self._runs.clear()
        self._views.clear()
        self._run_pages = 0

    def set_base(self, base_pa: int) -> None:
        changed = base_pa != self.base_pa
        self.base_pa = base_pa
        self.enabled = base_pa != 0
        if changed or not self.coherent_tlb:
            self._drop_translations()

    def flush_tlb(self) -> None:
        if self.coherent_tlb:
            # Shootdown keeps the cache coherent with table memory;
            # the architectural flush has nothing to invalidate.
            return
        self._drop_translations()

    def translate(self, va: int, access: str) -> int:
        """Translate one VA; raises :class:`GpuPageFault` on failure.
        The one-page case of :meth:`_walk`."""
        offset = va & (PAGE_SIZE - 1)
        pa = self._tlb.get((va - offset, access))
        if pa is None:
            return self._miss(va, access)[0] | offset
        self.tlb_hits += 1
        return pa | offset

    def _miss(self, va: int, access: str, leaf: Optional[tuple] = None
              ) -> Tuple[int, tuple]:
        """Walk the tables for ``va``'s page; remember the translation
        and the table pages it came from. Returns the page's PA and the
        leaf table (number, PA, live page buffer, both table pages),
        which a walk hands back so its next miss there skips the root."""
        if not self.enabled or self.base_pa is None:
            raise GpuPageFault(va, access, "MMU disabled")
        self.tlb_misses += 1
        fmt = self.fmt
        width = fmt.pte_size
        index = va >> OFFSET_BITS
        if leaf is None or leaf[0] != index >> L1_BITS:
            if index >> (L1_BITS + L0_BITS):
                split_va(va)  # raises
            valid, l1_pa = fmt.decode_table_ptr(self._entry.unpack(
                self.memory.read(self.base_pa + (index >> L1_BITS) * width,
                                 width))[0])
            if not valid:
                self.fault_count += 1
                raise GpuPageFault(va, access, "no L1 table")
            leaf = (index >> L1_BITS, l1_pa, self.memory.page_buffer(l1_pa),
                    (self.base_pa >> 12, l1_pa >> 12))
        _number, l1_pa, buffer, tables = leaf
        at = (index & ((1 << L1_BITS) - 1)) * width
        # No buffer (yet): a read's zeros, or its error.
        valid, pa, perms = fmt.decode_pte(
            self._entry.unpack_from(buffer, at)[0] if buffer is not None
            else self._entry.unpack(self.memory.read(l1_pa + at, width))[0])
        if not valid:
            self.fault_count += 1
            raise GpuPageFault(va, access, "invalid PTE")
        if fmt.has_permissions and not perms & _NEEDED[access]:
            self.fault_count += 1
            raise GpuPageFault(va, access, "permission denied")
        self._table_pages.update(tables)
        self._tlb[(va & ~(PAGE_SIZE - 1), access)] = pa
        return pa, leaf

    # -- bulk access (gather/scatter across non-contiguous pages) ----------

    def _walk(self, va: int, size: int, access: str
              ) -> Iterator[Tuple[int, int]]:
        """``(pa, length)`` of each page ``[va, va + size)`` touches,
        translated one page at a time as the caller consumes them.

        The one page loop behind every first touch, fault and partial
        write: a fault leaves the pages before it accessed, and a page
        is translated only after the caller is done with the previous
        one, whose write may have been to the root table.
        """
        tlb = self._tlb
        cursor = va
        end = va + size
        leaf = None
        while cursor < end:
            offset = cursor & (PAGE_SIZE - 1)
            pa = tlb.get((cursor - offset, access))
            if pa is None:
                pa, leaf = self._miss(cursor, access, leaf)
            else:
                self.tlb_hits += 1
            chunk = min(end - cursor, PAGE_SIZE - offset)
            yield pa | offset, chunk
            cursor += chunk
            if leaf is not None and pa >> 12 == leaf[3][0]:
                leaf = None

    def _run(self, va: int, size: int, access: str) -> Optional[list]:
        """The page run of ``[va, va + size)``: remembered, or probed
        now out of TLB entries that are *already present*.

        None unless every page of the range hits the TLB (and, for a
        read, has a buffer in physical memory), so a run never counts
        a miss, walks a table or faults -- whatever it cannot answer
        goes through :meth:`_walk`. Using a run is worth
        ``tlb_hits += len(run)``.
        """
        key = (va, size, access)
        run = self._runs.get(key)
        if run is not None or \
                not 0 < size <= (MAX_RUN_PAGES - 1) * PAGE_SIZE:
            return run
        tlb = self._tlb
        page_buffer = self.memory.page_buffer
        run = []
        cursor = va
        end = va + size
        while cursor < end:
            offset = cursor & (PAGE_SIZE - 1)
            base = tlb.get((cursor - offset, access))
            if base is None:
                return None
            chunk = min(end - cursor, PAGE_SIZE - offset)
            if access == "w":
                run.append((base | offset, chunk))
            else:
                buffer = page_buffer(base)
                if buffer is None:
                    return None
                run.append(buffer if chunk == PAGE_SIZE else
                           memoryview(buffer)[offset:offset + chunk])
            cursor += chunk
        if self._run_pages + len(run) > MAX_RUN_PAGES:
            self._runs.clear()
            self._views.clear()
            self._run_pages = 0
        self._runs[key] = run
        self._run_pages += len(run)
        return run

    def _parts(self, va: int, size: int, access: str) -> list:
        """One buffer per page of a readable range, TLB traffic counted."""
        run = self._run(va, size, access)
        if run is not None:
            self.tlb_hits += len(run)
            return run
        page_buffer = self.memory.page_buffer
        parts = []
        for pa, chunk in self._walk(va, size, access):
            buffer = page_buffer(pa)
            # No buffer (yet): a read's zeros, or its error.
            parts.append(self.memory.read(pa, chunk) if buffer is None
                         else buffer if chunk == PAGE_SIZE else
                         memoryview(buffer)[pa % PAGE_SIZE:][:chunk])
        return parts

    def read_va(self, va: int, size: int, access: str = "r") -> bytes:
        return b"".join(self._parts(va, size, access))

    def gather_va(self, va: int, size: int,
                  access: str = "r") -> Union[bytearray, memoryview]:
        """:meth:`read_va`'s bytes as the shader cores wrap them, with
        no second copy: a fresh ``bytearray``, or from a range's second
        gather on, while its pages hold consecutive pages of one dump, a
        read-only view of the dump. TLB counts are :meth:`_parts`'."""
        parts = self._parts(va, size, access)
        key = (va, size, access)
        seen = self._views.get(key)
        if seen is None:
            self._views[key] = True
        elif seen is True or seen and seen[0].version != seen[1]:
            found = self._source(va, size, access)
            # A range that held a dump may again: look next time too.
            self._views[key] = found or seen is not True
            if found:
                return found[2]
        elif seen:
            return seen[2]
        return bytearray().join(parts)

    def _source(self, va: int, size: int, access: str):
        """``(source, version, view)`` if the translated range holds
        pages ``k, k + 1, ...`` of one ``PageSource``, else False."""
        tags, tag_pages = self.memory.tags, self.memory.tag_pages
        tlb = self._tlb
        first = va & ~(PAGE_SIZE - 1)
        index = tlb[(first, access)] >> 12 if size else None
        source = tags.get(index)
        if source is None:
            return False
        k = tag_pages[index]
        page_vas = range(first, va + size, PAGE_SIZE)
        if k + len(page_vas) > len(source.zero):
            return False
        for page, page_va in enumerate(page_vas, k):
            index = tlb[(page_va, access)] >> 12
            if tags.get(index) is not source or tag_pages[index] != page:
                return False
        start = k * PAGE_SIZE + va - first
        return source, source.version, source.data[start:start + size]

    def write_va(self, va: int, data: bytes) -> None:
        size = len(data)
        if self.write_observer is not None:
            self.write_observer(va, size)
        view = memoryview(data)
        tlb = self._tlb
        done = 0
        for pa, chunk in self._run(va, size, "w") or ():
            if not tlb:
                # The previous page was a page-table page: its write
                # shot the TLB (and this run) down. Finish by walking.
                break
            self.tlb_hits += 1
            self.memory.write(pa, view[done:done + chunk])
            done += chunk
        for pa, chunk in self._walk(va + done, size - done, "w"):
            self.memory.write(pa, view[done:done + chunk])
            done += chunk


def _unhook(memory: PhysicalMemory, hook, prev) -> None:
    if memory.write_hook is hook:
        memory.write_hook = prev
