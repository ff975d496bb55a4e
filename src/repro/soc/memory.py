"""Simulated physical DRAM and a page allocator.

The DRAM is shared between CPU and the integrated GPU exactly as on the
paper's SoCs ("GPU memory" is a region of shared DRAM). Storage is
sparse: only touched pages are materialized, so a board can advertise
gigabytes of DRAM while tests stay cheap.

The :class:`PageAllocator` hands out *non-contiguous* physical pages in
a seed-dependent order. This is deliberate: record-time and replay-time
machines get different physical layouts, which forces the replayer's
page-table relocation path (Section 5.2) to actually work rather than
accidentally relying on identical addresses.

The order is a seeded permutation of the region, drawn *lazily*: a
machine pays for the pages a session allocates, not for the gigabytes
the board advertises. Construction is O(1) and the allocator's state
grows only with pages handed out (see :class:`PageAllocator`).

A page may be tagged page ``k`` of a :class:`PageSource`, and then
holds exactly those bytes (DESIGN.md, "Pages know what they hold").
"""

from __future__ import annotations

import random
import struct
from typing import Dict, Iterable, List, Optional

from repro.errors import AllocationError, PhysicalMemoryError

PAGE_SIZE = 4096
_ZERO_PAGE = bytes(PAGE_SIZE)


class PageSource:
    """A read-only buffer as tagged stores copy it: ``zero[k]`` says its
    page ``k`` is all zero, and ``version`` is bumped whenever a page
    tagged from it is overwritten, scrubbed or re-tagged."""

    __slots__ = ("data", "zero", "version")

    def __init__(self, data) -> None:
        self.data = view = memoryview(data).toreadonly().cast("B")
        self.zero = [_ZERO_PAGE.startswith(view[at:at + PAGE_SIZE])
                     for at in range(0, len(view), PAGE_SIZE)]
        self.version = 0


#: The source of an all-zero page's tag, ``(ZERO, 0)``.
ZERO = PageSource(_ZERO_PAGE)


class PhysicalMemory:
    """Byte-addressable sparse physical memory."""

    def __init__(self, size_bytes: int):
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise PhysicalMemoryError(
                f"memory size must be a positive multiple of {PAGE_SIZE}")
        self.size = size_bytes
        self._pages: Dict[int, bytearray] = {}
        #: Page ``n`` holds page ``tag_pages[n]`` of ``tags[n]`` (plain
        #: values: no load on the collector). Set only by this class.
        self.tags: Dict[int, PageSource] = {}
        self.tag_pages: Dict[int, int] = {}
        #: Optional observer of physical writes: ``fn(pa, length)``,
        #: called before the bytes land. The GPU MMU subscribes so it
        #: can shoot down TLB entries when page-table pages change
        #: (see :attr:`repro.gpu.mmu.GpuMmu.coherent_tlb`).
        self.write_hook = None

    # -- raw access --------------------------------------------------------

    def read(self, pa: int, length: int) -> bytes:
        """Read ``length`` bytes at physical address ``pa``."""
        page_index, page_offset = divmod(pa, PAGE_SIZE)
        if page_offset + length <= PAGE_SIZE:
            # Single-page read: the unit every MMU-mediated bulk access
            # decomposes into, worth keeping allocation-free and loopless.
            if pa < 0 or length < 0 or pa + length > self.size:
                self._check_range(pa, length)
            page = self._pages.get(page_index)
            if page is None:
                return bytes(length)
            return bytes(page[page_offset:page_offset + length])
        self._check_range(pa, length)
        out = bytearray(length)
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(pa + offset, PAGE_SIZE)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = page[page_offset:page_offset + chunk]
            offset += chunk
        return bytes(out)

    def write(self, pa: int, data: bytes) -> None:
        """Write ``data`` at physical address ``pa``."""
        length = len(data)
        if pa < 0 or pa + length > self.size:
            self._check_range(pa, length)
        if self.write_hook is not None:
            self.write_hook(pa, length)
        page_index, page_offset = divmod(pa, PAGE_SIZE)
        tags = self.tags
        if 0 < length <= PAGE_SIZE - page_offset:
            # Single-page write: the unit MMU-mediated stores and dump
            # uploads decompose into (as in read).
            held = tags.pop(page_index, None)
            if held is not None:
                held.version += 1
            page = self._pages.get(page_index)
            if page is None:
                page = self._pages[page_index] = bytearray(PAGE_SIZE)
            page[page_offset:page_offset + length] = data
            return
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(pa + offset, PAGE_SIZE)
            chunk = min(length - offset, PAGE_SIZE - page_offset)
            held = tags.pop(page_index, None)
            if held is not None:
                held.version += 1
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[page_index] = page
            page[page_offset:page_offset + chunk] = data[offset:offset + chunk]
            offset += chunk

    def fill(self, pa: int, length: int, value: int = 0) -> None:
        """Fill a range with a byte value."""
        self.write(pa, bytes([value]) * length)

    def scrub_pages(self, pas: Iterable[int]) -> None:
        """Zero whole pages and tag them ``ZERO``: what ``write(pa,
        bytes(PAGE_SIZE))`` does to each, without the 4-KiB operand,
        and nothing to a page tagged ``ZERO``. The ``write_hook`` still
        sees every page scrubbed."""
        pages = self._pages
        tags = self.tags
        hook = self.write_hook
        size = self.size
        for pa in pas:
            page_index, page_offset = divmod(pa, PAGE_SIZE)
            if page_offset:
                raise PhysicalMemoryError(
                    f"scrub of unaligned page {pa:#x}")
            if pa < 0 or pa >= size:
                self._check_range(pa, PAGE_SIZE)
            held = tags.get(page_index)
            if held is ZERO:
                continue
            if held is not None:
                held.version += 1
            tags[page_index] = ZERO
            self.tag_pages[page_index] = 0
            if hook is not None:
                hook(pa, PAGE_SIZE)
            page = pages.get(page_index)
            if page is None:
                pages[page_index] = bytearray(PAGE_SIZE)
            else:
                page[:] = _ZERO_PAGE

    def store_page(self, pa: int, source: PageSource, k: int) -> None:
        """The tagged store of page ``k`` of ``source`` to the page at
        ``pa``: a copy through :meth:`write`, unless the page holds the
        bytes already (that is its tag, or both pages are all zero)."""
        page_index = pa // PAGE_SIZE
        tag_pages = self.tag_pages
        held = self.tags.get(page_index)
        if held is source and tag_pages[page_index] == k:
            return
        if held is not None and source.zero[k] \
                and held.zero[tag_pages[page_index]]:
            held.version += 1
        else:
            self.write(pa, source.data[k * PAGE_SIZE:(k + 1) * PAGE_SIZE])
        self.tags[page_index] = source
        tag_pages[page_index] = k

    # -- word access -------------------------------------------------------

    def read_u32(self, pa: int) -> int:
        return struct.unpack("<I", self.read(pa, 4))[0]

    def write_u32(self, pa: int, value: int) -> None:
        self.write(pa, struct.pack("<I", value & 0xFFFFFFFF))

    def read_u64(self, pa: int) -> int:
        return struct.unpack("<Q", self.read(pa, 8))[0]

    def write_u64(self, pa: int, value: int) -> None:
        self.write(pa, struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF))

    # -- introspection -----------------------------------------------------

    def touched_pages(self) -> int:
        """Number of pages actually materialized."""
        return len(self._pages)

    def page_buffer(self, pa: int) -> Optional[bytearray]:
        """The live buffer behind the page containing ``pa``, or None
        while the page is unmaterialized. A page's buffer is created
        once and only ever written in place, so a holder (the GPU MMU's
        page runs) sees every later write; holders read, never write."""
        return self._pages.get(pa // PAGE_SIZE)

    def page_is_zero(self, pa: int) -> bool:
        """True if the page containing ``pa`` holds only zero bytes."""
        page = self._pages.get(pa // PAGE_SIZE)
        return page is None or not any(page)

    def _check_range(self, pa: int, length: int) -> None:
        if pa < 0 or length < 0 or pa + length > self.size:
            raise PhysicalMemoryError(
                f"access [{pa:#x}, {pa + length:#x}) outside memory of "
                f"size {self.size:#x}")


class PageAllocator:
    """Allocates physical pages from a region of :class:`PhysicalMemory`.

    Pages come out in a permutation of the region fixed by ``seed``, so
    two machines (record vs replay) produce different physical layouts
    for the same allocation sequence. The contract: page ``k`` handed
    out is what ``random.Random(seed).shuffle`` of the full page list,
    popped from the end, would hand out -- without ever building that
    list. ``shuffle`` is a Fisher-Yates pass that settles slot ``n-1``
    first, then ``n-2``, ...; each step swaps slot ``i`` with a slot
    ``j <= i`` and never looks above ``i`` again. Popping from the end
    consumes slots in exactly that order, so drawing
    ``randrange(i + 1)`` at the moment slot ``i`` is needed yields the
    page the shuffled list would hold there. Only slots a swap moved
    off their identity value are stored (``_displaced``); a fresh
    allocator holds no per-page state at all.

    Freed pages go on a LIFO stack that is consulted before any fresh
    draw (a list popped and appended at the same end behaves so), which
    makes recycling order part of the layout contract too.
    ``tests/soc/test_memory.py`` keeps the shuffled-list allocator as a
    reference model and checks every step against it.
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
        randrange = self._rng.randrange
        base_pa = self.base_pa
        pas: List[int] = []
        for _ in range(count):
            if recycled:
                pas.append(recycled.pop())
                continue
            i = self._fresh = self._fresh - 1
            # One Fisher-Yates step: slot i takes slot j's page, slot j
            # keeps slot i's. Slot 0 is what is left; shuffle draws
            # nothing for it.
            j = randrange(i + 1) if i else 0
            index = displaced.get(j, j)
            mine = displaced.pop(i, i)
            if j != i:
                displaced[j] = mine
            pas.append(base_pa + index * PAGE_SIZE)
        self._used.update(dict.fromkeys(pas, tag))
        self.memory.scrub_pages(pas)
        return pas

    def free_page(self, pa: int) -> None:
        if pa not in self._used:
            raise AllocationError(f"double free of page {pa:#x}")
        del self._used[pa]
        self._recycled.append(pa)

    def free_pages(self, pas: Iterable[int]) -> None:
        for pa in list(pas):
            self.free_page(pa)

    # -- accounting --------------------------------------------------------

    @property
    def pages_in_use(self) -> int:
        return len(self._used)

    @property
    def pages_free(self) -> int:
        return self._fresh + len(self._recycled)

    def usage_by_tag(self) -> Dict[str, int]:
        """Pages in use, grouped by allocation tag."""
        out: Dict[str, int] = {}
        for tag in self._used.values():
            out[tag] = out.get(tag, 0) + 1
        return out

    def owner_of(self, pa: int) -> Optional[str]:
        return self._used.get(pa)
