"""The per-family GPU interface (PAPER §4.1, Table 1), as data only.

Page-table root and arming registers, the PTE formats and encoder,
reset / power and cache-flush sequences, the kick, config and retire
registers: :data:`FAMILIES` holds one row per family for the replayer,
the verifier and the dispatch table. The device models
(:mod:`repro.gpu.mali`, ``v3d``, ``adreno``), loaded only by
:func:`create_gpu`, import their bit constants from here, and
:mod:`repro.gpu.mmu` walks the tables encoded here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import repeat
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from repro.errors import GpuPageFault, SocError
from repro.soc import PAGE_SIZE
from repro.units import MS

if TYPE_CHECKING:
    from repro.soc.memory import PageAllocator, PhysicalMemory

# Permission bits (logical, format-independent).
PERM_R = 1
PERM_W = 2
PERM_X = 4

# Virtual address split: 4 KiB pages, 512-entry L1 tables, 512-entry L0
# root -> 1 GiB of GPU virtual address space per context.
OFFSET_BITS = 12
L1_BITS = 9
L0_BITS = 9
L1_SPAN = 1 << (OFFSET_BITS + L1_BITS)  # 2 MiB per L1 table
VA_SPACE_SIZE = 1 << (OFFSET_BITS + L1_BITS + L0_BITS)  # 1 GiB


def split_va(va: int) -> Tuple[int, int, int]:
    """Split a VA into (l0_index, l1_index, page_offset)."""
    if va < 0 or va >= VA_SPACE_SIZE:
        raise GpuPageFault(va, "r", "outside GPU VA space")
    offset = va & (PAGE_SIZE - 1)
    l1 = (va >> OFFSET_BITS) & ((1 << L1_BITS) - 1)
    l0 = (va >> (OFFSET_BITS + L1_BITS)) & ((1 << L0_BITS) - 1)
    return l0, l1, offset


class PteFormat:
    """Encodes/decodes page-table entries for one GPU family."""

    name = "abstract"
    pte_size = 8
    has_permissions = True
    frame_shift = 12  # a PTE holds pa >> 12 shifted left this far
    _low: Optional[tuple] = None

    def encode_pte(self, pa: int, perms: int) -> int:
        raise NotImplementedError

    def decode_pte(self, value: int) -> Tuple[bool, int, int]:
        """Returns (valid, pa, perms)."""
        raise NotImplementedError

    def encode_table_ptr(self, pa: int) -> int:
        raise NotImplementedError

    def decode_table_ptr(self, value: int) -> Tuple[bool, int]:
        raise NotImplementedError

    def encode_ptes(self, pas: Sequence[int], perms: int) -> List[int]:
        """:meth:`encode_pte` of each page-aligned PA."""
        flags, shift = self.encode_pte(0, perms), self.frame_shift
        return [flags | pa >> 12 << shift for pa in pas]

    def decode_ptes(self, values: Sequence[int]) -> List[tuple]:
        """:meth:`decode_pte` of each value."""
        low = self._low
        if low is None:
            seen = {}   # interned
            low = self._low = tuple(seen.setdefault(e, e) for e in map(
                self.decode_pte, range(4096)))
        shift = self.frame_shift
        return [(True, value >> shift << 12, entry[2]) if entry[0]
                else entry for value in values
                for entry in (low[value & 0xFFF],)]


class MaliPteFormat(PteFormat):
    """Regular Mali Bifrost format: valid, R, W, X at bits 0..3."""

    name = "mali"

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
    frame_shift = 4

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
            l0, l1 = divmod((va >> OFFSET_BITS) + done, 1 << L1_BITS)
            count = min(num_pages - done, (1 << L1_BITS) - l1)
            runs.append((l0, l1, done, count))
            done += count
        return runs

    def map_range(self, va: int, pas: Sequence[int], perms: int) -> None:
        """Map ``pas`` at consecutive pages from ``va``: one packed
        write of PTEs per leaf table the range crosses."""
        if any(map(PAGE_SIZE.__rmod__, pas)):
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
                            *fmt.encode_ptes(run, perms)))
            page_va = va + first * PAGE_SIZE
            self._mappings.update(zip(
                range(page_va, page_va + count * PAGE_SIZE, PAGE_SIZE),
                zip(run, repeat(perms))))

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

    def lookup_pages(self, va: int, count: int) -> list:
        """:meth:`lookup` of ``count`` pages from page-aligned ``va``."""
        return [*map(self._mappings.get, range(va, va + count * PAGE_SIZE,
                                               PAGE_SIZE))]

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


# -- Mali (SKUs G31 / G52 / G71) --------------------------------------------

# GPU_IRQ_RAWSTAT bits.
IRQ_RESET_COMPLETED = 1 << 0
IRQ_CLEAN_CACHES_COMPLETED = 1 << 1
IRQ_POWER_CHANGED = 1 << 2

# GPU_COMMAND values.
CMD_SOFT_RESET = 1
CMD_HARD_RESET = 2
CMD_CLEAN_CACHES = 4
CMD_INV_CACHES = 8

# JSn_COMMAND values.
JS_CMD_START = 1
JS_CMD_HARD_STOP = 2

# JSn_STATUS values.
JS_STATUS_IDLE = 0x00
JS_STATUS_ACTIVE = 0x08
JS_STATUS_DONE = 0x40
JS_STATUS_FAULT = 0x60

# AS0_COMMAND values.
AS_CMD_UPDATE = 1
AS_CMD_FLUSH_PT = 4

# AS0_FAULTSTATUS codes.
FAULT_NONE = 0
FAULT_TRANSLATION = 1
FAULT_MEMATTR = 2
FAULT_PERMISSION = 3

NUM_JOB_SLOTS = 2


@dataclass(frozen=True)
class MaliSkuSpec:
    """Static description of one SKU in the family."""

    name: str
    gpu_id: int
    core_count: int
    clock_hz: int
    pte_format: str
    #: MEMATTR value this SKU requires in AS0_MEMATTR before jobs run.
    #: G71 expects the read-allocate bit (bit 2) set; G31/G52 do not.
    required_memattr: int


MALI_SKUS: Dict[str, MaliSkuSpec] = {
    "g31": MaliSkuSpec("g31", 0x7093_0000, 1, 650_000_000,
                       "mali-lpae", 0x48),
    "g52": MaliSkuSpec("g52", 0x7402_0000, 2, 846_000_000, "mali", 0x48),
    "g71": MaliSkuSpec("g71", 0x6000_0000, 8, 546_000_000, "mali", 0x4C),
}

# -- v3d ---------------------------------------------------------------------

# CTL_INT_STS bits.
INT_FRDONE = 1 << 0  # control list finished
INT_CTERR = 1 << 1  # control list / shader decode error
INT_MMU_FAULT = 1 << 2

# CTL_STATUS bits.
STATUS_IDLE = 1 << 0

# MMU_CTRL bits.
MMU_CTRL_ENABLE = 1 << 0
MMU_CTRL_TLB_CLEAR = 1 << 2

# L2TCACTL bits.
L2T_FLUSH = 1 << 2

#: Firmware mailbox device id for the v3d block.
V3D_FIRMWARE_ID = 10

V3D_GPU_IDENT = 0x0443_3356  # "V3D\x04"
V3D_CORE_COUNT = 4
V3D_DEFAULT_CLOCK_HZ = 500_000_000

# -- Adreno ------------------------------------------------------------------

# RBBM_INT_0_STATUS bits.
INT_CP_DONE = 1 << 0
INT_RBBM_ERROR = 1 << 1
INT_SMMU_FAULT = 1 << 2

# SMMU_CR0 bits.
SMMU_ENABLE = 1 << 0

# UCHE_CACHE_FLUSH bits (hardware clears when the flush retires).
UCHE_FLUSH = 1 << 0

ADRENO_GPU_ID = 0x0604_0001  # Adreno 640-class
ADRENO_CORE_COUNT = 2
ADRENO_CLOCK_HZ = 585_000_000


# -- the Table 1 rows, one per family -----------------------------------------
class Step(NamedTuple):
    """A "write" of ``value``; a "poll" for ``reg & mask == value`` that
    fails with "nano driver: <what> timed out" after ``timeout_ns``
    (unless ``what`` is None); a "read" that fails with ``what`` if it
    sees ``value``. In a write or poll, None is what the last read saw."""

    op: str
    reg: str
    value: Optional[int] = None
    mask: Optional[int] = None
    timeout_ns: int = 0
    what: Optional[str] = None


@dataclass(frozen=True)
class GpuFamily:
    """One family's row of Table 1, as the replayer drives it."""

    name: str
    #: Page-table root registers, low word first: the root PA shifted
    #: right by ``root_shift``, one 32-bit word each.
    root_regs: Tuple[str, ...]
    root_shift: int
    #: Where ``SetGpuPgtable`` puts its memattr (None: nowhere), and the
    #: writes that then arm the table.
    memattr_reg: Optional[str]
    arm: Tuple[Step, ...]
    #: Reset and power-up; cache and TLB flush before a preemption reset.
    reset: Tuple[Step, ...]
    flush: Tuple[Step, ...]
    #: Registers whose write kicks a job.
    kick_regs: FrozenSet[str]
    #: Registers that place the job structure but that a recording
    #: programs once, in its prologue: a slice keeps them there, a
    #: composition programs them per instance.
    config_regs: Tuple[str, ...] = ()
    #: A register a job's completion reads back equal to the kick's
    #: value (Adreno's read pointer catches up with the doorbell): the
    #: one completion value that depends on earlier jobs.
    retire_reg: Optional[str] = None


FAMILIES: Dict[str, GpuFamily] = {family.name: family for family in (
    GpuFamily(
        "mali", ("AS0_TRANSTAB_LO", "AS0_TRANSTAB_HI"), 0, "AS0_MEMATTR",
        (Step("write", "AS0_COMMAND", AS_CMD_UPDATE),),
        reset=(Step("write", "GPU_COMMAND", CMD_SOFT_RESET),
               Step("poll", "GPU_IRQ_RAWSTAT", IRQ_RESET_COMPLETED,
                    IRQ_RESET_COMPLETED, 10 * MS, "GPU reset"),
               Step("write", "GPU_IRQ_CLEAR", IRQ_RESET_COMPLETED),
               Step("write", "JOB_IRQ_MASK", 0xFFFFFFFF),
               Step("write", "MMU_IRQ_MASK", 0xFFFFFFFF),
               Step("write", "GPU_IRQ_MASK", 0),
               Step("write", "L2_PWRON", 1),
               Step("poll", "L2_READY", 1, 1, 5 * MS, "L2 power-up"),
               Step("read", "SHADER_PRESENT"),
               Step("write", "SHADER_PWRON"),
               Step("poll", "SHADER_READY", None, None, 5 * MS,
                    "shader power-up")),
        flush=(Step("write", "GPU_COMMAND", CMD_CLEAN_CACHES),
               Step("poll", "GPU_IRQ_RAWSTAT", IRQ_CLEAN_CACHES_COMPLETED,
                    IRQ_CLEAN_CACHES_COMPLETED, 2 * MS),
               Step("write", "GPU_IRQ_CLEAR", IRQ_CLEAN_CACHES_COMPLETED),
               Step("write", "AS0_COMMAND", AS_CMD_FLUSH_PT)),
        kick_regs=frozenset(f"JS{slot}_COMMAND"
                            for slot in range(NUM_JOB_SLOTS))),
    GpuFamily(
        "v3d", ("MMU_PT_PA_BASE",), 12, None,
        (Step("write", "MMU_CTRL", MMU_CTRL_ENABLE | MMU_CTRL_TLB_CLEAR),),
        reset=(Step("read", "CTL_IDENT", 0xFFFFFFFF, what=(
                   "v3d reads as unpowered; the deployment environment "
                   "must configure GPU power/clocks before replay "
                   "(host kernel, or the recording's firmware sequence)")),
               Step("write", "CTL_RESET", 1),
               Step("poll", "CTL_STATUS", STATUS_IDLE, STATUS_IDLE, 5 * MS,
                    "v3d reset"),
               Step("write", "CTL_INT_MSK",
                    INT_FRDONE | INT_CTERR | INT_MMU_FAULT)),
        flush=(Step("write", "L2TCACTL", L2T_FLUSH),
               Step("poll", "L2TCACTL", 0, L2T_FLUSH, 2 * MS)),
        kick_regs=frozenset({"CT0QEA"})),
    GpuFamily(
        "adreno", ("SMMU_TTBR0_LO", "SMMU_TTBR0_HI"), 0, "SMMU_CR0",
        (Step("write", "SMMU_TLBIALL", 1),),
        reset=(Step("write", "RBBM_SW_RESET_CMD", 1),
               Step("poll", "RBBM_RESET_STATUS", 1, 1, 10 * MS,
                    "adreno reset"),
               Step("write", "RBBM_INT_0_MASK",
                    INT_CP_DONE | INT_RBBM_ERROR | INT_SMMU_FAULT),
               Step("write", "GDSC_PWR_CTRL", 1),
               Step("poll", "GDSC_PWR_STATUS", 1, 1, 5 * MS,
                    "GDSC power-up"),
               Step("write", "SPTP_PWR_CTRL", 1),
               Step("poll", "SPTP_PWR_STATUS", 1, 1, 5 * MS,
                    "SPTP power-up")),
        flush=(Step("write", "UCHE_CACHE_FLUSH", UCHE_FLUSH),
               Step("poll", "UCHE_CACHE_FLUSH", 0, UCHE_FLUSH, 2 * MS),
               Step("write", "SMMU_TLBIALL", 1)),
        kick_regs=frozenset({"CP_RB_WPTR"}),
        config_regs=("CP_RB_BASE_LO", "CP_RB_BASE_HI", "CP_RB_SIZE"),
        retire_reg="CP_RB_RPTR"))}


def gpu_clock_hz(model: str) -> int:
    """The nominal clock of a GPU model string (a board's, a
    recording's); 0 for a model no family has."""
    if model.startswith("mali-"):
        sku = MALI_SKUS.get(model[len("mali-"):])
        return sku.clock_hz if sku else 0
    if model == "v3d":
        return V3D_DEFAULT_CLOCK_HZ
    return ADRENO_CLOCK_HZ if model.startswith("adreno") else 0


def create_gpu(model: str, machine):
    """Mount the GPU device a board spec names; its model loads here."""
    if model.startswith("mali-"):
        from repro.gpu.mali import MaliGpu
        return MaliGpu(machine, sku=model[len("mali-"):])
    if model == "v3d":
        from repro.gpu.v3d import V3dGpu
        return V3dGpu(machine)
    if model.startswith("adreno"):
        from repro.gpu.adreno import AdrenoGpu
        return AdrenoGpu(machine)
    raise ValueError(f"unknown GPU model {model!r}")
