"""Simulated physical DRAM and a page allocator.

The DRAM is shared by the CPU and the integrated GPU as on the
paper's SoCs ("GPU memory" is a region of shared DRAM). Storage is
sparse, and a tagged store's page references its source until
written, so a board can advertise gigabytes of DRAM and a model's
weights exist once. :class:`PageAllocator` hands out pages in a
seed-dependent order, so the replayer's page-table relocation path
(Section 5.2) must work.
"""

from __future__ import annotations

import random
import struct
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import AllocationError, PhysicalMemoryError
from repro.soc import PAGE_SIZE, ZERO, PageSource


class PhysicalMemory:
    """Byte-addressable sparse physical memory."""

    def __init__(self, size_bytes: int):
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise PhysicalMemoryError(
                f"memory size must be a positive multiple of {PAGE_SIZE}")
        self.size = size_bytes
        #: Page index -> buffer (:meth:`page_buffer`'s table).
        self.buffers = self._pages = {}
        #: Page ``n`` holds page ``tag_pages[n]`` of ``tags[n]`` (plain
        #: values: no load on the collector). Set only by this class.
        self.tags: Dict[int, PageSource] = {}
        self.tag_pages: Dict[int, int] = {}
        #: Optional observers (the GPU MMU's TLB shootdown): of writes,
        #: ``fn(pa, length)``, before the bytes land; of page stores,
        #: ``fn(indices)`` once per batch.
        self.write_hook = None
        self.pages_hook = None
        #: Times a page lost a buffer it did not own (a read-only view,
        #: or ``ZERO``'s page): a holder of such buffers compares it.
        self.replaced = 0
        #: Pages written, stored or dropped, while a recorder keeps a set.
        self.dirty = None

    # -- raw access --------------------------------------------------------

    def read(self, pa: int, length: int) -> bytes:
        """Read ``length`` bytes at physical address ``pa``."""
        if pa < 0 or length < 0 or pa + length > self.size:
            self._check_range(pa, length)
        page_index, page_offset = divmod(pa, PAGE_SIZE)
        if page_offset + length <= PAGE_SIZE:
            # Single-page read: the unit MMU bulk accesses come in.
            page = self._pages.get(page_index)
            return bytes(length) if page is None else \
                bytes(page[page_offset:page_offset + length])
        cuts = [pa, *range(pa - page_offset + PAGE_SIZE, pa + length,
                           PAGE_SIZE), pa + length]
        return b"".join([self.read(at, end - at)
                         for at, end in zip(cuts, cuts[1:])])

    def write(self, pa: int, data: bytes) -> None:
        """Write ``data`` at physical address ``pa``."""
        length = len(data)
        if pa < 0 or pa + length > self.size:
            self._check_range(pa, length)
        if self.write_hook is not None:
            self.write_hook(pa, length)
        page_index, page_offset = divmod(pa, PAGE_SIZE)
        if self.dirty is not None:
            self.dirty.update(range(page_index, -(-(pa + length) // PAGE_SIZE)))
        tags = self.tags
        if 0 < length <= PAGE_SIZE - page_offset:
            # Single-page write: the unit MMU stores come in.
            held = tags.pop(page_index, None)
            page = self._pages.get(page_index)
            if held is not None or page is None:
                page = self._own(page_index, page, held)
            page[page_offset:page_offset + length] = data
            return
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(pa + offset, PAGE_SIZE)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            held = tags.pop(page_index, None)
            page = self._pages.get(page_index)
            if held is not None or page is None:
                page = self._own(page_index, page, held)
            page[page_offset:page_offset + chunk] = data[offset:offset + chunk]
            offset += chunk

    def _own(self, index: int, page, held):
        if held is not None:
            held.version += 1
        if page.__class__ is not bytearray:
            if page is not None or held is not None:
                self.replaced += 1
            page = self._pages[index] = bytearray(page or PAGE_SIZE)
        return page

    def scrub_pages(self, pas: Sequence[int]) -> None:
        """Zero whole pages: a tagged store of ``ZERO``'s page."""
        self.store_pages(pas, ZERO, 0)

    def store_pages(self, pas: Sequence[int], source: PageSource,
                    k: int) -> int:
        """Store pages ``k, k + 1, ...`` of ``source`` (of a one-page
        source, page ``k`` each time) at ``pas``, skipping a page that
        holds them (by tag, or both all zero). A page without a buffer
        references them; any other gets a copy. Returns how many;
        ``pages_hook`` hears of them when done."""
        tags, tag_pages, zero = self.tags, self.tag_pages, source.zero
        pages, data, last = self._pages, source.data, self.size - PAGE_SIZE
        copied: List[int] = []
        for pa, n in zip(pas, range(k, k + len(pas)) if len(zero) > 1
                         else repeat(k)):
            index = pa // PAGE_SIZE
            held = tags.get(index)
            if held is source and tag_pages[index] == n:
                continue
            if pa % PAGE_SIZE or not 0 <= pa <= last:
                self._check_range(pa, PAGE_SIZE)
                raise PhysicalMemoryError(f"page store to {pa:#x}")
            if held is not None:
                held.version += 1
                if zero[n] and held.zero[tag_pages[index]]:
                    tags[index], tag_pages[index] = source, n
                    continue
            page = pages.get(index)
            if page.__class__ is bytearray:
                page[:] = data[n * PAGE_SIZE:(n + 1) * PAGE_SIZE]
            else:
                if page is not None or held is not None:
                    self.replaced += 1
                if zero[n]:
                    pages.pop(index, None)
                else:
                    view = data[n * PAGE_SIZE:(n + 1) * PAGE_SIZE]
                    pages[index] = view if page is None else bytearray(view)
            tags[index], tag_pages[index] = source, n
            copied.append(index)
        if copied and self.pages_hook is not None:
            self.pages_hook(copied)
        if self.dirty is not None:
            self.dirty.update(copied)
        return len(copied)

    def drop_pages(self, pas: Iterable[int]) -> None:
        """Freed pages drop tags (but ``ZERO``) and buffers not their own."""
        tags = self.tags
        for index in map(PAGE_SIZE.__rfloordiv__, pas):
            held = tags.get(index, ZERO)
            if held is not ZERO:
                del tags[index]
                held.version += 1
                if self._pages.get(index).__class__ is not bytearray:
                    self._pages.pop(index, None)
                    self.replaced += 1
                    if self.dirty is not None:
                        self.dirty.add(index)

    def read_u32(self, pa: int) -> int:
        return struct.unpack("<I", self.read(pa, 4))[0]

    def read_u64(self, pa: int) -> int:
        return struct.unpack("<Q", self.read(pa, 8))[0]

    # -- introspection -----------------------------------------------------

    def touched_pages(self) -> int:
        """Pages with a buffer."""
        return len(self._pages)

    def page_buffer(self, pa: int):
        """The buffer behind the page containing ``pa``: its own
        ``bytearray``, written in place; or a read-only view a tagged
        store put there (``ZERO``'s page if zero), until replaced
        (``replaced`` counts it); or None."""
        index = pa // PAGE_SIZE
        page = self._pages.get(index)
        return ZERO.data if page is None and index in self.tags else page

    def _check_range(self, pa: int, length: int) -> None:
        if pa < 0 or length < 0 or pa + length > self.size:
            raise PhysicalMemoryError(
                f"access [{pa:#x}, {pa + length:#x}) outside memory of "
                f"size {self.size:#x}")


class PageAllocator:
    """Allocates physical pages from a region of :class:`PhysicalMemory`.

    Pages come out in a permutation of the region fixed by ``seed``, so
    record and replay machines get different physical layouts for the
    same allocation sequence: page ``k`` handed out is what
    ``random.Random(seed).shuffle`` of the full page list, popped from
    the end, would hand out -- without building that list.
    ``shuffle``'s Fisher-Yates pass settles slot ``n-1`` first, then
    ``n-2``, ...; each step swaps slot ``i`` with a slot ``j <= i`` and
    never looks above ``i`` again. Popping from the end consumes slots
    in that order, so drawing ``randrange(i + 1)`` when slot ``i`` is
    needed yields the page the shuffled list would hold there. Only
    slots a swap moved off identity are stored (``_displaced``): a
    machine pays for the pages it allocates, not for the region.
    Freed pages go on a LIFO stack consulted before any fresh draw
    (part of the layout contract too); ``tests/soc/test_memory.py``
    checks every step against the list.
    """

    def __init__(self, memory: PhysicalMemory, base_pa: int,
                 page_count: int, seed: int = 0):
        if base_pa % PAGE_SIZE != 0:
            raise AllocationError("allocator base must be page-aligned")
        if base_pa + page_count * PAGE_SIZE > memory.size:
            raise AllocationError("allocator region exceeds physical memory")
        self.memory = memory
        self.base_pa = base_pa
        self.page_count = page_count
        self._rng = random.Random(seed)
        #: Slots ``[0, _fresh)`` of the permutation are still undrawn.
        self._fresh = page_count
        #: Undrawn slot -> page index, where a swap moved it off identity.
        self._displaced: Dict[int, int] = {}
        self._recycled: List[int] = []
        self._used: Dict[int, str] = {}

    # -- allocation --------------------------------------------------------

    def alloc_page(self, tag: str = "") -> int:
        """Allocate one page; returns its physical address."""
        return self.alloc_pages(1, tag)[0]

    def alloc_pages(self, count: int, tag: str = "") -> List[int]:
        """Allocate ``count`` zeroed pages (not necessarily contiguous)."""
        if count < 0:
            raise AllocationError(f"cannot allocate {count} pages")
        if count > self.pages_free:
            raise AllocationError(
                f"out of physical pages ({count} requested, "
                f"{self.pages_free} free)")
        recycled = self._recycled
        displaced = self._displaced
        getrandbits = self._rng.getrandbits
        base_pa = self.base_pa
        pas: List[int] = []
        for _ in range(count):
            if recycled:
                pas.append(recycled.pop())
                continue
            i = self._fresh = self._fresh - 1
            # One Fisher-Yates step: slot i takes slot j's page, slot j
            # keeps slot i's; j is ``randrange(i + 1)`` as ``Random``
            # draws it, inline. Slot 0 is what is left: no draw.
            j = 0
            if i:
                bits = (i + 1).bit_length()
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
            index = displaced.get(j, j)
            mine = displaced.pop(i, i)
            if j != i:
                displaced[j] = mine
            pas.append(base_pa + index * PAGE_SIZE)
        self._used.update(dict.fromkeys(pas, tag))
        self.memory.scrub_pages(pas)
        return pas

    def free_pages(self, pas: Iterable[int]) -> None:
        pas = list(pas)
        for pa in pas:
            if pa not in self._used:
                raise AllocationError(f"double free of page {pa:#x}")
            del self._used[pa]
            self._recycled.append(pa)
        self.memory.drop_pages(pas)

    # -- accounting --------------------------------------------------------

    @property
    def pages_in_use(self) -> int:
        return len(self._used)

    @property
    def pages_free(self) -> int:
        return self._fresh + len(self._recycled)

    def owner_of(self, pa: int) -> Optional[str]:
        return self._used.get(pa)
