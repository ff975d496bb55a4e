"""GPU virtual memory: page-table formats, the GPU MMU, table builders.

The paper's GPU model (Section 3.2) requires GPU virtual memory: the
replayer may load memory dumps to physical pages *of its choice* and
patch the page tables for relocation. To make that real, both record
and replay machines allocate physical pages in different orders, and
every GPU access goes through the MMU modelled here.

Three page-table-entry formats are provided, matching Section 6.4's
cross-SKU experience: the regular Mali format, the LPAE variant used by
the low-end SKU whose *permission bits sit in a different order* (the
cross-GPU patch re-arranges them), and the v3d format which has no
permission bits at all (forcing the recorder's conservative dumps).

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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import GpuPageFault, SocError
from repro.soc.memory import PAGE_SIZE, PageAllocator, PhysicalMemory

# Permission bits (logical, format-independent).
PERM_R = 1
PERM_W = 2
PERM_X = 4
_NEEDED = {"r": PERM_R, "w": PERM_W, "x": PERM_X}

# Virtual address split: 4 KiB pages, 512-entry L1 tables, 512-entry L0
# root -> 1 GiB of GPU virtual address space per context.
_OFFSET_BITS = 12
_L1_BITS = 9
_L0_BITS = 9
L1_SPAN = 1 << (_OFFSET_BITS + _L1_BITS)  # 2 MiB per L1 table
VA_SPACE_SIZE = 1 << (_OFFSET_BITS + _L1_BITS + _L0_BITS)  # 1 GiB

#: Pages all remembered page runs of one MMU may span together (128 MiB
#: of touched ranges). A range that would not fit alone is never
#: remembered; one that no longer fits starts the memo over.
MAX_RUN_PAGES = 1 << 15


def split_va(va: int) -> Tuple[int, int, int]:
    """Split a VA into (l0_index, l1_index, page_offset)."""
    if va < 0 or va >= VA_SPACE_SIZE:
        raise GpuPageFault(va, "r", "outside GPU VA space")
    offset = va & (PAGE_SIZE - 1)
    l1 = (va >> _OFFSET_BITS) & ((1 << _L1_BITS) - 1)
    l0 = (va >> (_OFFSET_BITS + _L1_BITS)) & ((1 << _L0_BITS) - 1)
    return l0, l1, offset


class PteFormat:
    """Encodes/decodes page-table entries for one GPU family."""

    name = "abstract"
    pte_size = 8
    has_permissions = True

    def encode_pte(self, pa: int, perms: int) -> int:
        raise NotImplementedError

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        """Returns (valid, pa, perms)."""
        raise NotImplementedError

    def encode_table_ptr(self, pa: int) -> int:
        raise NotImplementedError

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        raise NotImplementedError


class MaliPteFormat(PteFormat):
    """Regular Mali Bifrost format: valid, R, W, X at bits 0..3."""

    name = "mali"
    pte_size = 8
    has_permissions = True

    _VALID = 1 << 0
    _R = 1 << 1
    _W = 1 << 2
    _X = 1 << 3
    _TABLE = 1 << 4

    def encode_pte(self, pa: int, perms: int) -> int:
        value = self._VALID | (pa & ~(PAGE_SIZE - 1))
        if perms & PERM_R:
            value |= self._R
        if perms & PERM_W:
            value |= self._W
        if perms & PERM_X:
            value |= self._X
        return value

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        if not value & self._VALID:
            return False, 0, 0
        perms = 0
        if value & self._R:
            perms |= PERM_R
        if value & self._W:
            perms |= PERM_W
        if value & self._X:
            perms |= PERM_X
        return True, value & ~0xFFF & ~(self._TABLE), perms

    def encode_table_ptr(self, pa: int) -> int:
        return self._VALID | self._TABLE | (pa & ~(PAGE_SIZE - 1))

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        if not (value & self._VALID and value & self._TABLE):
            return False, 0
        return True, value & ~0xFFF


class MaliLpaePteFormat(MaliPteFormat):
    """LPAE variant (Mali G31): permission bits in a *different order*.

    X sits at bit 1, R at bit 2, W at bit 3. A G31 recording replayed
    on G71 without re-arranging these bits yields wrong permissions --
    the exact incompatibility Section 6.4's patch item (1) fixes.
    """

    name = "mali-lpae"
    _X = 1 << 1
    _R = 1 << 2
    _W = 1 << 3


class AdrenoPteFormat(MaliPteFormat):
    """Adreno SMMU format: 8-byte entries, permissions at bits 6..8.

    A third layout again (Table 1 row 5): recordings do not port
    between families, only between SKUs sharing a format. Encoded
    like Mali's with the bits elsewhere; unlike Mali's, a table
    pointer never decodes as a page.
    """

    name = "adreno-smmu"
    _TABLE = 1 << 1
    _R = 1 << 6
    _W = 1 << 7
    _X = 1 << 8

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        if value & self._TABLE:
            return False, 0, 0
        return super().decode_pte(value)


class V3dPteFormat(PteFormat):
    """v3d format: 4-byte PTEs, page number at bits 4..31, no perms."""

    name = "v3d"
    pte_size = 4
    has_permissions = False

    _VALID = 1 << 0
    _TABLE = 1 << 1

    def encode_pte(self, pa: int, perms: int) -> int:
        del perms  # v3d page tables lack permission bits (Section 6.2).
        return self._VALID | ((pa >> 12) << 4)

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        if not value & self._VALID or value & self._TABLE:
            return False, 0, 0
        return True, ((value >> 4) << 12), PERM_R | PERM_W | PERM_X

    def encode_table_ptr(self, pa: int) -> int:
        return self._VALID | self._TABLE | ((pa >> 12) << 4)

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        if not (value & self._VALID and value & self._TABLE):
            return False, 0
        return True, (value >> 4) << 12


PTE_FORMATS: Dict[str, PteFormat] = {
    fmt.name: fmt
    for fmt in (MaliPteFormat(), MaliLpaePteFormat(), V3dPteFormat(),
                AdrenoPteFormat())
}


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
        prev = memory.write_hook
        if prev is None:
            memory.write_hook = self._on_phys_write
        else:
            def chained(pa: int, size: int,
                        _prev=prev, _mine=self._on_phys_write) -> None:
                _prev(pa, size)
                _mine(pa, size)
            memory.write_hook = chained

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
        index = va >> _OFFSET_BITS
        if leaf is None or leaf[0] != index >> _L1_BITS:
            if index >> (_L1_BITS + _L0_BITS):
                split_va(va)  # raises
            valid, l1_pa = fmt.decode_table_ptr(self._entry.unpack(
                self.memory.read(self.base_pa + (index >> _L1_BITS) * width,
                                 width))[0])
            if not valid:
                self.fault_count += 1
                raise GpuPageFault(va, access, "no L1 table")
            leaf = (index >> _L1_BITS, l1_pa, self.memory.page_buffer(l1_pa),
                    (self.base_pa >> 12, l1_pa >> 12))
        _number, l1_pa, buffer, tables = leaf
        at = (index & ((1 << _L1_BITS) - 1)) * width
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


class PageTableBuilder:
    """CPU-side construction and maintenance of GPU page tables.

    Used by the full driver *and* by the replayer's nano driver; both
    sides need exactly the interface knowledge Table 1 lists -- the
    register pointing at the tables and the PTE encoding.
    """

    def __init__(self, memory: PhysicalMemory, allocator: PageAllocator,
                 fmt: PteFormat, tag: str = "pgtable"):
        self.memory = memory
        self.allocator = allocator
        self.fmt = fmt
        self.tag = tag
        self.root_pa = allocator.alloc_page(tag)
        self._l1_tables: Dict[int, int] = {}  # l0 index -> l1 table pa
        self._mappings: Dict[int, Tuple[int, int]] = {}  # va page -> (pa, perms)

    def _leaf_runs(self, va: int, num_pages: int
                   ) -> List[Tuple[int, int, int, int]]:
        """Split a page-aligned VA range at L1-table boundaries into
        (l0, first l1 slot, first page number, page count) runs."""
        if va % PAGE_SIZE:
            raise SocError("mappings must be page-aligned")
        if num_pages > 0:
            # Both ends inside the VA space, or GpuPageFault.
            split_va(va)
            split_va(va + (num_pages - 1) * PAGE_SIZE)
        runs = []
        done = 0
        while done < num_pages:
            l0, l1 = divmod((va >> _OFFSET_BITS) + done, 1 << _L1_BITS)
            count = min(num_pages - done, (1 << _L1_BITS) - l1)
            runs.append((l0, l1, done, count))
            done += count
        return runs

    def map_range(self, va: int, pas: Sequence[int], perms: int) -> None:
        """Map ``pas`` at consecutive pages from ``va``: one packed
        write of PTEs per leaf table the range crosses."""
        for pa in pas:
            if pa % PAGE_SIZE:
                raise SocError("mappings must be page-aligned")
        fmt = self.fmt
        entry = "Q" if fmt.pte_size == 8 else "I"
        for l0, l1, first, count in self._leaf_runs(va, len(pas)):
            l1_pa = self._l1_tables.get(l0)
            if l1_pa is None:
                l1_pa = self.allocator.alloc_page(self.tag)
                self._l1_tables[l0] = l1_pa
                self.memory.write(
                    self.root_pa + l0 * fmt.pte_size,
                    struct.pack(f"<{entry}", fmt.encode_table_ptr(l1_pa)))
            run = pas[first:first + count]
            self.memory.write(
                l1_pa + l1 * fmt.pte_size,
                struct.pack(f"<{count}{entry}",
                            *[fmt.encode_pte(pa, perms) for pa in run]))
            page_va = va + first * PAGE_SIZE
            for pa in run:
                self._mappings[page_va] = (pa, perms)
                page_va += PAGE_SIZE

    def unmap_range(self, va: int, num_pages: int) -> None:
        """Clear the PTEs of ``num_pages`` mapped pages from ``va``."""
        page_vas = range(va, va + num_pages * PAGE_SIZE, PAGE_SIZE)
        for page_va in page_vas:
            if page_va not in self._mappings:
                raise SocError(f"VA {page_va:#x} is not mapped")
        pte_size = self.fmt.pte_size
        for l0, l1, _first, count in self._leaf_runs(va, num_pages):
            self.memory.write(self._l1_tables[l0] + l1 * pte_size,
                              bytes(count * pte_size))
        for page_va in page_vas:
            del self._mappings[page_va]

    def map_page(self, va: int, pa: int, perms: int) -> None:
        self.map_range(va, (pa,), perms)

    def unmap_page(self, va: int) -> None:
        self.unmap_range(va, 1)

    def lookup(self, va: int) -> Optional[Tuple[int, int]]:
        """(pa, perms) of a mapped page VA, or None."""
        return self._mappings.get(va & ~(PAGE_SIZE - 1))

    def mappings(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (va, pa, perms) for every mapped page, VA-sorted."""
        for va in sorted(self._mappings):
            pa, perms = self._mappings[va]
            yield va, pa, perms

    def mapped_page_count(self) -> int:
        return len(self._mappings)

    def table_pages(self) -> List[int]:
        """Physical pages holding the tables themselves."""
        return [self.root_pa] + sorted(self._l1_tables.values())

    def destroy(self) -> None:
        """Free the table pages (mapped data pages belong to the caller)."""
        self.allocator.free_pages(self.table_pages())
        self._l1_tables.clear()
        self._mappings.clear()
