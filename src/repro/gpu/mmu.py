"""The GPU MMU: walks the page tables :mod:`repro.gpu` encodes.

The paper's GPU model (Section 3.2) requires GPU virtual memory: the
replayer loads dumps to physical pages *of its choice* and patches the
page tables for relocation. Record and replay machines allocate pages
in different orders, and every GPU access goes through this MMU.

Host cost. Two caches derive from page-table memory, both dropped by
:meth:`GpuMmu._drop_translations` wherever it may have changed: the
TLB (coherent through write hooks on physical memory) and *page runs*,
per ``(va, size, access)`` the pages the TLB resolved it to (for a
read, their buffers; all runs go once memory counts a replaced
buffer, ``PhysicalMemory.replaced``). A warm bulk
access is one C-level gather (or one write per page); a gather of one
source's pages returns a view of it, until one of them changes.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple, Union
from weakref import finalize

from repro import weakly
from repro.errors import GpuPageFault
# PageTableBuilder is imported from here too (ledger/).
from repro.gpu import (L0_BITS, L1_BITS, L1_SPAN, OFFSET_BITS, PERM_R,
                       PERM_W, PERM_X, PageTableBuilder, PteFormat, split_va)
from repro.soc.memory import PAGE_SIZE, PhysicalMemory

_NEEDED = {"r": PERM_R, "w": PERM_W, "x": PERM_X}

#: Pages one MMU's remembered runs may span together (128 MiB). A range
#: that would not fit alone is never remembered; one that no longer
#: fits starts the memo over.
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
        #: each page when last probed: buffers for a read, ``(pa,
        #: length)`` for a write; a memo of the TLB, dropped with it,
        #: and when ``memory.replaced`` moves off ``_replaced``.
        #: Bytes are remembered only as ``_views`` (:meth:`gather_va`).
        self._runs: Dict[Tuple[int, int, str], list] = {}
        self._run_pages = 0
        self._replaced = memory.replaced
        self._views: Dict[Tuple[int, int, str], object] = {}
        self.fault_count = 0
        #: Emulated TLB performance counters (plain ints on the hot
        #: path; the device's CounterTape samples deltas per kernel).
        self.tlb_hits = 0
        self.tlb_misses = 0
        #: Optional observer of GPU-side VA writes, ``fn(va, size)``: the
        #: nano driver's resident-dump tracking sees the GPU's stores.
        self.write_observer = None
        #: Coherent TLB: a host cache that a write to a table page this
        #: MMU walked clears (with the runs), so flushes invalidate
        #: nothing. False (flushes drop both): the fast path's baseline.
        self.coherent_tlb = True
        self._table_pages: set = set()
        self._subscribe(memory)

    def _subscribe(self, memory: PhysicalMemory) -> None:
        for name, mine in (("write_hook", weakly(self._on_phys_write)),
                           ("pages_hook", weakly(self._on_pages_write))):
            prev = getattr(memory, name)
            if prev is not None:
                def mine(*args, _prev=prev, _mine=mine) -> None:
                    _prev(*args)
                    _mine(*args)
            setattr(memory, name, mine)
            # Memory may outlive this MMU's machine; the hooks go too.
            finalize(self, _unhook, memory, name, mine, prev)

    def _on_phys_write(self, pa: int, size: int) -> None:
        """Shootdown: a write lands in a table page we walked."""
        tables = self._table_pages
        if not tables or not self.coherent_tlb:
            return
        first = pa >> 12
        last = (pa + size - 1) >> 12
        if first in tables or (last != first and any(
                page in tables for page in range(first + 1, last + 1))):
            self._drop_translations()

    def _on_pages_write(self, indices: List[int]) -> None:
        tables = self._table_pages
        if tables and self.coherent_tlb and not tables.isdisjoint(indices):
            self._drop_translations()

    def _drop_translations(self) -> None:
        """Forget the TLB, the table pages it was walked from and the
        page runs probed out of it."""
        self._tlb.clear()
        self._table_pages.clear()
        self._forget_runs()

    def _forget_runs(self) -> None:
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
        if not self.coherent_tlb:
            self._drop_translations()

    def translate(self, va: int, access: str) -> int:
        """Translate one VA; raises :class:`GpuPageFault` on failure."""
        offset = va & (PAGE_SIZE - 1)
        pa = self._tlb.get((va - offset, access))
        if pa is None:
            return self._miss(va, access)[0] | offset
        self.tlb_hits += 1
        return pa | offset

    def _miss(self, va: int, access: str, leaf: Optional[tuple] = None
              ) -> Tuple[int, tuple]:
        """Walk the tables for ``va``'s page; remember the translation
        and the table pages it came from. Returns the PA and the leaf
        table (number, PA, buffer, both table pages) that a walk
        hands back to skip the root."""
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
        translated only once the caller is done with the previous one,
        whose write may have been to a table: then the walk goes back
        to the root."""
        cursor, end, leaf = va, va + size, None
        while cursor < end:
            chunk = min(end - cursor, PAGE_SIZE - (cursor & (PAGE_SIZE - 1)))
            (piece,), leaf = self._pages(cursor, chunk, access, leaf)
            yield piece
            cursor += chunk
            if leaf is not None and piece[0] >> 12 in leaf[3]:
                leaf = None

    def _pages(self, va: int, size: int, access: str,
               leaf: Optional[tuple] = None) -> Tuple[list, tuple]:
        """:meth:`_walk`'s pages in one pass, as a read takes them, and
        the leaf table last walked. A walking miss decodes the range's
        PTEs in its leaf table for the misses after it; the pass stops
        at a fault, or after a page outside memory."""
        tlb = self._tlb
        needed = _NEEDED[access] if self.fmt.has_permissions else 0
        limit = self.memory.size
        pieces = []
        cursor = va
        end = va + size
        first = stop = 0
        while cursor < end:
            offset = cursor & (PAGE_SIZE - 1)
            page_va = cursor - offset
            pa = tlb.get((page_va, access))
            entry = decoded[(page_va - first) >> OFFSET_BITS] \
                if pa is None and first <= page_va < stop else (False,)
            if pa is not None:
                self.tlb_hits += 1
            elif entry[0] and (not needed or entry[2] & needed):
                self.tlb_misses += 1
                pa = tlb[(page_va, access)] = entry[1]
                self._table_pages.update(leaf[3])
            else:   # a walk, or a decoded entry's fault
                pa, leaf = self._miss(cursor, access, leaf)
                first = page_va
                stop = min(end, (page_va | (L1_SPAN - 1)) + 1) \
                    if leaf[2] is not None else 0
                count = -(-(stop - first) // PAGE_SIZE)
                decoded = self.fmt.decode_ptes(struct.unpack_from(
                    f"<{count}{self._entry.format[1]}", leaf[2],
                    (first >> OFFSET_BITS & (1 << L1_BITS) - 1)
                    * self.fmt.pte_size)) if count > 1 else ()
            chunk = min(end - cursor, PAGE_SIZE - offset)
            pieces.append((pa | offset, chunk))
            cursor += chunk
            if (pa | offset) + chunk > limit:
                break
        return pieces, leaf

    def _run(self, va: int, size: int, access: str) -> Optional[list]:
        """The page run of ``[va, va + size)``: remembered, or probed
        now out of TLB entries *already present*. None unless every
        page hits (and, for a read, has a buffer), so a run never
        misses, walks or faults; using one is worth ``tlb_hits +=
        len(run)``."""
        if self._replaced != self.memory.replaced:
            # A page lost a buffer a read run may hold.
            self._replaced = self.memory.replaced
            self._runs.clear()
            self._run_pages = 0
        key = (va, size, access)
        run = self._runs.get(key)
        if run is not None or \
                not 0 < size <= (MAX_RUN_PAGES - 1) * PAGE_SIZE:
            return run
        tlb, page_buffer = self._tlb, self.memory.page_buffer
        run, cursor, end = [], va, va + size
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
            self._forget_runs()
        self._runs[key] = run
        self._run_pages += len(run)
        return run

    def _parts(self, va: int, size: int, access: str) -> list:
        """One buffer per page of a readable range, TLB traffic counted."""
        run = self._run(va, size, access)
        if run is not None:
            self.tlb_hits += len(run)
            return run
        buffers = self.memory.buffers
        parts = []
        for pa, chunk in self._pages(va, size, access)[0]:
            buffer = buffers.get(pa >> 12)
            parts.append(self.memory.read(pa, chunk) if buffer is None
                         else buffer if chunk == PAGE_SIZE else
                         memoryview(buffer)[pa % PAGE_SIZE:][:chunk])
        return parts

    def read_va(self, va: int, size: int, access: str = "r") -> bytes:
        return b"".join(self._parts(va, size, access))

    def gather_va(self, va: int, size: int,
                  access: str = "r") -> Union[bytearray, memoryview]:
        """:meth:`read_va`'s bytes as the shader cores wrap them: while
        the pages hold consecutive pages of one source, a read-only view
        of it (from the first gather on), else a fresh ``bytearray``."""
        parts = self._parts(va, size, access)
        key = (va, size, access)
        seen = self._views.get(key, True)
        if seen is True or seen and seen[0].version != seen[1]:
            found = self._source(va, size, access)
            # A range that held a dump may again: look next time too.
            self._views[key] = found or seen is not True
            if found:
                return found[2]
        elif seen:
            return seen[2]
        return bytearray().join(parts)

    def _source(self, va: int, size: int, access: str):
        """``(source, version, view)`` if the range holds pages ``k,
        k + 1, ...`` of one ``PageSource``, else False."""
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


def _unhook(memory: PhysicalMemory, name: str, hook, prev) -> None:
    if getattr(memory, name) is hook:
        setattr(memory, name, prev)
