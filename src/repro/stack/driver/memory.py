"""Driver-side GPU memory management.

Models the part of a GPU driver that backs the runtime's allocation
ioctls: a per-context GPU virtual-address allocator, physical page
allocation, and page-table maintenance.

Two properties matter to GPUReplay and are modelled faithfully:

- The runtime accesses allocated regions through a *CPU mapping that
  bypasses the driver* (``cpu_write``/``cpu_read`` go straight to
  physical memory). The driver -- and therefore the recorder -- never
  sees those stores; only the memory contents at job-kick time.
- Allocation *flags* describe intent (shader/executable, data buffer,
  GPU-private scratch, CPU-visible). They drive GPU page permissions
  on Mali and survive as the recorder's only dump-shrinking *hint* on
  v3d, whose page tables have no permission bits (Section 6.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import DriverError
from repro.gpu import PERM_R, PERM_W, PERM_X, VA_SPACE_SIZE, PageTableBuilder
from repro.soc.memory import (PAGE_SIZE, PageAllocator, PageSource,
                              PhysicalMemory)
from repro.units import align_up


class MemFlags(enum.Flag):
    """Allocation flags, as passed by the runtime through ioctls."""

    NONE = 0
    #: GPU may read.
    GPU_READ = enum.auto()
    #: GPU may write.
    GPU_WRITE = enum.auto()
    #: Region holds GPU commands/shaders; mapped executable on Mali.
    GPU_EXEC = enum.auto()
    #: Region is mmap'd into the CPU (the runtime writes it directly).
    CPU_MAPPED = enum.auto()
    #: GPU-internal scratch (tile state, spill); never read by the CPU.
    SCRATCH = enum.auto()

    @classmethod
    def data_buffer(cls) -> "MemFlags":
        return cls.GPU_READ | cls.GPU_WRITE | cls.CPU_MAPPED

    @classmethod
    def job_binary(cls) -> "MemFlags":
        return cls.GPU_READ | cls.GPU_EXEC | cls.CPU_MAPPED

    @classmethod
    def gpu_scratch(cls) -> "MemFlags":
        return cls.GPU_READ | cls.GPU_WRITE | cls.SCRATCH

    def to_perms(self) -> int:
        perms = 0
        if self & MemFlags.GPU_READ:
            perms |= PERM_R
        if self & MemFlags.GPU_WRITE:
            perms |= PERM_W
        if self & MemFlags.GPU_EXEC:
            perms |= PERM_X
        return perms


@dataclass
class MemRegion:
    """One allocated GPU memory region."""

    va: int
    num_pages: int
    flags: MemFlags
    pas: List[int]
    tag: str = ""
    freed: bool = False
    #: Pages the CPU has actually touched through its mapping; on Mali
    #: a GPU-visible page never touched by the CPU must be internal
    #: (Section 6.1's second shrink rule).
    cpu_touched: set = field(default_factory=set)

    @property
    def size(self) -> int:
        return self.num_pages * PAGE_SIZE

    def end_va(self) -> int:
        return self.va + self.size


class ContextMemory:
    """GPU memory state of one driver context (one GPU address space)."""

    #: First VA handed out; low VAs stay unmapped to catch null derefs.
    VA_BASE = 0x0010_0000
    #: Guard gap between regions (pages).
    GUARD_PAGES = 1

    def __init__(self, memory: PhysicalMemory, allocator: PageAllocator,
                 pte_format, tag: str = "ctx"):
        self.memory = memory
        self.allocator = allocator
        self.page_table = PageTableBuilder(memory, allocator, pte_format,
                                           tag=f"{tag}-pgtable")
        self._next_va = self.VA_BASE
        self.regions: Dict[int, MemRegion] = {}

    # -- allocation ----------------------------------------------------------

    def alloc(self, size: int, flags: MemFlags, tag: str = "") -> MemRegion:
        if size <= 0:
            raise DriverError(f"bad allocation size {size}")
        num_pages = align_up(size, PAGE_SIZE) // PAGE_SIZE
        va = self._next_va
        end = va + num_pages * PAGE_SIZE
        if end >= VA_SPACE_SIZE:
            raise DriverError("GPU virtual address space exhausted")
        self._next_va = end + self.GUARD_PAGES * PAGE_SIZE
        pas = self.allocator.alloc_pages(num_pages, tag or "gpu-mem")
        self.page_table.map_range(va, pas, flags.to_perms())
        region = MemRegion(va, num_pages, flags, pas, tag)
        self.regions[va] = region
        return region

    def free(self, va: int) -> MemRegion:
        region = self.regions.pop(va, None)
        if region is None:
            raise DriverError(f"free of unknown region VA {va:#x}")
        self.page_table.unmap_range(region.va, region.num_pages)
        self.allocator.free_pages(region.pas)
        region.freed = True
        return region

    def region_at(self, va: int) -> MemRegion:
        region = self.regions.get(va)
        if region is None:
            # Interior addresses: find the containing region.
            for r in self.regions.values():
                if r.va <= va < r.end_va():
                    return r
            raise DriverError(f"no region contains VA {va:#x}")
        return region

    def total_mapped_bytes(self) -> int:
        return sum(r.size for r in self.regions.values())

    # -- CPU-side access (kernel-bypassing mmap) ---------------------------------

    def cpu_write(self, va: int, data: bytes) -> None:
        """Store through the CPU mapping. Invisible to the driver/recorder."""
        self._cpu_access(va, len(data), write_data=data)

    def cpu_store(self, va: int, source: PageSource) -> None:
        """:meth:`cpu_write` of a read-only buffer: at a page-aligned
        ``va``, its whole pages are one tagged store (the pages
        reference its bytes until written) and only the tail is
        copied."""
        self._cpu_access(va, len(source.data), source.data, source)

    def cpu_read(self, va: int, size: int) -> bytes:
        return self._cpu_access(va, size)

    def _cpu_access(self, va: int, size: int,
                    write_data: Optional[bytes] = None,
                    source: Optional[PageSource] = None) -> bytes:
        region = self.region_at(va)
        if not region.flags & MemFlags.CPU_MAPPED:
            raise DriverError(
                f"region {region.va:#x} ({region.tag}) is not CPU-mapped")
        if va + size > region.end_va():
            raise DriverError("CPU access crosses region end")
        out = bytearray()
        offset = 0
        if source is not None and va % PAGE_SIZE == 0:
            first = (va - region.va) // PAGE_SIZE
            pages = range(first, first + size // PAGE_SIZE)
            self.memory.store_pages(region.pas[first:pages.stop], source, 0)
            region.cpu_touched.update(pages)
            offset = len(pages) * PAGE_SIZE
        cursor = va + offset
        while offset < size:
            page_index = (cursor - region.va) // PAGE_SIZE
            pa = region.pas[page_index]
            in_page = cursor & (PAGE_SIZE - 1)
            chunk = min(size - offset, PAGE_SIZE - in_page)
            if write_data is None:
                out += self.memory.read(pa + in_page, chunk)
            else:
                self.memory.write(pa + in_page,
                                  write_data[offset:offset + chunk])
                region.cpu_touched.add(page_index)
            cursor += chunk
            offset += chunk
        return bytes(out)

    def destroy(self) -> None:
        for va in list(self.regions):
            self.free(va)
        self.page_table.destroy()
