"""Hardware fault injection for the Section 7.2 validation experiments.

The paper injects "transient, non-preventable failures" during replay:
forcibly offlining GPU cores and corrupting GPU page-table entries. The
replayer must *detect* them (diverging status-register reads, GPU
memory-exception interrupts) and *recover* by re-execution.

Everything here manipulates simulated silicon directly -- it models
physical events, not software, so it bypasses the register interface.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import SocError
from repro.gpu import L1_SPAN, VA_SPACE_SIZE, PteFormat, split_va
from repro.gpu.device import GpuDevice
from repro.soc.memory import PAGE_SIZE, PhysicalMemory


def walk_page_table(memory: PhysicalMemory, root_pa: int,
                    fmt: PteFormat) -> List[Tuple[int, int, int]]:
    """Walk a page table in memory, returning (va, pa, perms) triples.

    This is what the recorder does to capture the GPU virtual address
    space: it only needs the root register value and the PTE encoding.
    """
    entries: List[Tuple[int, int, int]] = []
    read_entry = memory.read_u64 if fmt.pte_size == 8 else memory.read_u32
    for l0 in range(VA_SPACE_SIZE // L1_SPAN):
        l0_value = read_entry(root_pa + l0 * fmt.pte_size)
        valid, l1_pa = fmt.decode_table_ptr(l0_value)
        if not valid:
            continue
        for l1 in range(L1_SPAN // PAGE_SIZE):
            pte = read_entry(l1_pa + l1 * fmt.pte_size)
            valid, pa, perms = fmt.decode_pte(pte)
            if valid:
                entries.append((l0 * L1_SPAN + l1 * PAGE_SIZE, pa, perms))
    return entries


class FaultInjector:
    """Injects and clears hardware faults on one GPU device."""

    def __init__(self, device: GpuDevice):
        self.device = device
        self._saved_ptes: List[Tuple[int, bytes]] = []

    # -- core offlining ------------------------------------------------------

    def offline_cores(self, mask: int) -> None:
        """Power-collapse the cores in ``mask`` (e.g. thermal event)."""
        if mask == 0:
            raise SocError("offline mask must be non-zero")
        self.device.offline_cores(mask)

    def restore_cores(self) -> None:
        self.device.restore_cores()

    # -- page-table corruption --------------------------------------------------

    def corrupt_pte(self, va: int) -> None:
        """Corrupt the PTE mapping ``va`` in the *live* page tables.

        Emulates a bit-flip in DRAM holding the tables. The next GPU
        access through the entry raises a genuine GPU memory exception.
        """
        mmu = self.device.mmu
        if not mmu.enabled or mmu.base_pa is None:
            raise SocError("GPU MMU is not configured; nothing to corrupt")
        fmt = mmu.fmt
        memory = mmu.memory
        # Locate the leaf entry by a software walk of the live tables.
        target_page = va & ~0xFFF
        for entry_va, _pa, _perms in walk_page_table(memory, mmu.base_pa, fmt):
            if entry_va == target_page:
                break
        else:
            raise SocError(f"VA {va:#x} is not mapped; cannot corrupt")
        # Re-walk structurally to find the leaf entry's physical slot.
        l0, l1, _ = split_va(va)
        read_entry = memory.read_u64 if fmt.pte_size == 8 else memory.read_u32
        l0_value = read_entry(mmu.base_pa + l0 * fmt.pte_size)
        _valid, l1_pa = fmt.decode_table_ptr(l0_value)
        slot_pa = l1_pa + l1 * fmt.pte_size
        original = memory.read(slot_pa, fmt.pte_size)
        self._saved_ptes.append((slot_pa, original))
        memory.write(slot_pa, b"\x00" * fmt.pte_size)
        mmu.flush_tlb()

    def repair_ptes(self) -> None:
        """Undo every PTE corruption (the 'transient' part of the fault)."""
        for slot_pa, original in self._saved_ptes:
            self.device.mmu.memory.write(slot_pa, original)
        self._saved_ptes.clear()
        self.device.mmu.flush_tlb()

    # -- chip-level resources ------------------------------------------------------

    def underclock(self, factor: float) -> int:
        """Drop the GPU clock by ``factor``; returns the previous rate."""
        if factor <= 1.0:
            raise SocError("underclock factor must exceed 1.0")
        domain = self.device.clock_domain
        previous = domain.rate_hz
        domain.set_rate(max(1, int(previous / factor)))
        return previous

    def restore_clock(self, rate_hz: int) -> None:
        self.device.clock_domain.set_rate(rate_hz)
