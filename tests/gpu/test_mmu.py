"""GPU MMU: PTE formats, table building, translation, faults."""

import pytest

from repro.errors import GpuPageFault, SocError
from repro.gpu.mmu import (L1_SPAN, PERM_R, PERM_W, PERM_X, PTE_FORMATS,
                           GpuMmu, MaliLpaePteFormat, MaliPteFormat,
                           PageTableBuilder, V3dPteFormat, VA_SPACE_SIZE,
                           split_va, walk_page_table)
from repro.soc.memory import PAGE_SIZE, PageAllocator, PhysicalMemory
from repro.units import MIB


@pytest.fixture
def memory():
    return PhysicalMemory(64 * MIB)


@pytest.fixture
def allocator(memory):
    return PageAllocator(memory, 0, 8192, seed=3)


class TestPteFormats:
    @pytest.mark.parametrize("fmt_name", ["mali", "mali-lpae", "v3d"])
    def test_roundtrip(self, fmt_name):
        fmt = PTE_FORMATS[fmt_name]
        pa = 0x12345 * PAGE_SIZE
        perms = PERM_R | PERM_X
        valid, decoded_pa, decoded_perms = fmt.decode_pte(
            fmt.encode_pte(pa, perms))
        assert valid
        assert decoded_pa == pa
        if fmt.has_permissions:
            assert decoded_perms == perms
        else:
            assert decoded_perms == PERM_R | PERM_W | PERM_X

    @pytest.mark.parametrize("fmt_name", ["mali", "mali-lpae", "v3d"])
    def test_zero_entry_invalid(self, fmt_name):
        fmt = PTE_FORMATS[fmt_name]
        valid, _pa, _perms = fmt.decode_pte(0)
        assert not valid

    @pytest.mark.parametrize("fmt_name", ["mali", "mali-lpae", "v3d"])
    def test_table_ptr_roundtrip(self, fmt_name):
        fmt = PTE_FORMATS[fmt_name]
        pa = 0x77 * PAGE_SIZE
        valid, decoded = fmt.decode_table_ptr(fmt.encode_table_ptr(pa))
        assert valid and decoded == pa

    def test_lpae_permission_bits_differ_from_regular(self):
        """The incompatibility Section 6.4's patch item (1) fixes."""
        regular = MaliPteFormat()
        lpae = MaliLpaePteFormat()
        encoded = lpae.encode_pte(0, PERM_X)
        # Decoding an LPAE entry with the regular format mis-reads the
        # execute bit as something else.
        _v, _pa, wrong_perms = regular.decode_pte(encoded)
        assert wrong_perms != PERM_X

    def test_v3d_has_no_permissions(self):
        assert not V3dPteFormat().has_permissions
        assert V3dPteFormat().pte_size == 4

    def test_split_va_bounds(self):
        with pytest.raises(GpuPageFault):
            split_va(VA_SPACE_SIZE)
        l0, l1, off = split_va(0x30201234)
        assert off == 0x234


class TestPageTableBuilder:
    def test_map_lookup_unmap(self, memory, allocator):
        pt = PageTableBuilder(memory, allocator, PTE_FORMATS["mali"])
        data_pa = allocator.alloc_page()
        pt.map_page(0x100000, data_pa, PERM_R | PERM_W)
        assert pt.lookup(0x100000) == (data_pa, PERM_R | PERM_W)
        assert pt.lookup(0x100abc) == (data_pa, PERM_R | PERM_W)
        pt.unmap_page(0x100000)
        assert pt.lookup(0x100000) is None

    def test_unaligned_mapping_rejected(self, memory, allocator):
        pt = PageTableBuilder(memory, allocator, PTE_FORMATS["mali"])
        with pytest.raises(Exception):
            pt.map_page(0x100001, 0, PERM_R)

    def test_unmap_unmapped_rejected(self, memory, allocator):
        pt = PageTableBuilder(memory, allocator, PTE_FORMATS["mali"])
        with pytest.raises(Exception):
            pt.unmap_page(0x100000)

    def test_walk_matches_mappings(self, memory, allocator):
        pt = PageTableBuilder(memory, allocator, PTE_FORMATS["mali"])
        expected = []
        for i in range(20):
            pa = allocator.alloc_page()
            va = 0x200000 + i * PAGE_SIZE * 3  # sparse VAs
            perms = (PERM_R | PERM_X) if i % 2 else (PERM_R | PERM_W)
            pt.map_page(va, pa, perms)
            expected.append((va, pa, perms))
        walked = walk_page_table(memory, pt.root_pa, PTE_FORMATS["mali"])
        assert walked == sorted(expected)

    def test_walk_v3d_format(self, memory, allocator):
        pt = PageTableBuilder(memory, allocator, PTE_FORMATS["v3d"])
        pa = allocator.alloc_page()
        pt.map_page(0x300000, pa, 0)
        walked = walk_page_table(memory, pt.root_pa, PTE_FORMATS["v3d"])
        assert walked == [(0x300000, pa, PERM_R | PERM_W | PERM_X)]

    def test_destroy_frees_table_pages(self, memory, allocator):
        pt = PageTableBuilder(memory, allocator, PTE_FORMATS["mali"])
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, PERM_R)
        used_before = allocator.pages_in_use
        pt.destroy()
        assert allocator.pages_in_use < used_before


class TestRangeOps:
    """``map_range``/``unmap_range`` write a leaf table's run of PTEs
    in one store; the tables must come out as if mapped page by page."""

    #: (first VA, pages): inside one leaf table, across one boundary,
    #: and across two (a whole 512-entry table in the middle).
    RANGES = [(0x100000, 7), (L1_SPAN - 3 * PAGE_SIZE, 10),
              (5 * L1_SPAN - 40 * PAGE_SIZE, 600)]

    def world(self, fmt_name):
        memory = PhysicalMemory(64 * MIB)
        allocator = PageAllocator(memory, 0, 8192, seed=3)
        pt = PageTableBuilder(memory, allocator, PTE_FORMATS[fmt_name])
        return memory, allocator, pt

    def tables(self, memory, pt):
        return [(pa, memory.read(pa, PAGE_SIZE))
                for pa in pt.table_pages()]

    def assert_same(self, fmt_name, ranged, paged):
        (mem_a, _alloc_a, pt_a), (mem_b, _alloc_b, pt_b) = ranged, paged
        fmt = PTE_FORMATS[fmt_name]
        assert walk_page_table(mem_a, pt_a.root_pa, fmt) == \
            walk_page_table(mem_b, pt_b.root_pa, fmt)
        assert self.tables(mem_a, pt_a) == self.tables(mem_b, pt_b)
        assert list(pt_a.mappings()) == list(pt_b.mappings())

    @pytest.mark.parametrize("fmt_name", sorted(PTE_FORMATS))
    def test_range_equals_per_page(self, fmt_name):
        ranged, paged = self.world(fmt_name), self.world(fmt_name)
        fmt = PTE_FORMATS[fmt_name]
        expected = []
        for va, pages in self.RANGES:
            perms = PERM_R | (PERM_W if pages % 2 else PERM_X)
            pas = ranged[1].alloc_pages(pages)
            assert paged[1].alloc_pages(pages) == pas
            ranged[2].map_range(va, pas, perms)
            for i, pa in enumerate(pas):
                paged[2].map_page(va + i * PAGE_SIZE, pa, perms)
            walked_perms = perms if fmt.has_permissions else \
                PERM_R | PERM_W | PERM_X
            expected += [(va + i * PAGE_SIZE, pa, walked_perms)
                         for i, pa in enumerate(pas)]
        self.assert_same(fmt_name, ranged, paged)
        assert walk_page_table(ranged[0], ranged[2].root_pa, fmt) == \
            sorted(expected)
        # 1 root + the leaf tables the three ranges touch.
        assert len(ranged[2].table_pages()) == 1 + 1 + 1 + 3

        va, pages = self.RANGES[2]
        ranged[2].unmap_range(va + 10 * PAGE_SIZE, 580)
        for i in range(10, 590):
            paged[2].unmap_page(va + i * PAGE_SIZE)
        self.assert_same(fmt_name, ranged, paged)
        assert ranged[2].mapped_page_count() == 7 + 10 + 20
        assert ranged[2].lookup(va + 10 * PAGE_SIZE) is None
        assert ranged[2].lookup(va + 590 * PAGE_SIZE) is not None

    def test_write_hook_sees_every_pte_byte_range(self):
        memory, allocator, pt = self.world("mali")
        va, pages = self.RANGES[1]
        pas = allocator.alloc_pages(pages)
        pt.map_range(va, pas[:1], PERM_R)  # leaf table now exists
        pt.unmap_range(va, 1)
        seen = []
        memory.write_hook = lambda pa, size: seen.append((pa, size))
        pt.map_range(va, pas, PERM_R)
        low, high = pt._l1_tables[0], pt._l1_tables[1]
        # 3 PTEs at the end of the first leaf, then: scrub of the new
        # leaf, its root pointer, 7 PTEs at its start.
        assert seen == [(low + 509 * 8, 3 * 8), (high, PAGE_SIZE),
                        (pt.root_pa + 8, 8), (high, 7 * 8)]

    def test_remap_overwrites_like_per_page(self):
        ranged, paged = self.world("mali"), self.world("mali")
        for world in (ranged, paged):
            world[2].map_range(0x100000, world[1].alloc_pages(4), PERM_R)
        pas = ranged[1].alloc_pages(4)
        assert paged[1].alloc_pages(4) == pas
        ranged[2].map_range(0x102000, pas, PERM_R | PERM_W)
        for i, pa in enumerate(pas):
            paged[2].map_page(0x102000 + i * PAGE_SIZE, pa,
                              PERM_R | PERM_W)
        self.assert_same("mali", ranged, paged)
        assert ranged[2].mapped_page_count() == 6

    def test_range_errors(self):
        memory, allocator, pt = self.world("mali")
        pas = allocator.alloc_pages(4)
        with pytest.raises(SocError, match="page-aligned"):
            pt.map_range(0x100800, pas, PERM_R)
        with pytest.raises(SocError, match="page-aligned"):
            pt.map_range(0x100000, [pas[0], pas[1] + 8], PERM_R)
        with pytest.raises(GpuPageFault):
            pt.map_range(VA_SPACE_SIZE - 2 * PAGE_SIZE, pas, PERM_R)
        assert pt.mapped_page_count() == 0
        pt.map_range(0x100000, pas[:2], PERM_R)
        with pytest.raises(SocError, match="0x102000 is not mapped"):
            pt.unmap_range(0x100000, 3)
        # The refused unmap removed nothing.
        assert pt.mapped_page_count() == 2
        assert len(walk_page_table(memory, pt.root_pa, pt.fmt)) == 2
        pt.map_range(0x300000, [], PERM_R)
        pt.unmap_range(0x300000, 0)
        assert pt.mapped_page_count() == 2


class TestGpuMmu:
    def build(self, memory, allocator, fmt_name="mali"):
        fmt = PTE_FORMATS[fmt_name]
        pt = PageTableBuilder(memory, allocator, fmt)
        mmu = GpuMmu(memory, fmt)
        mmu.set_base(pt.root_pa)
        return pt, mmu

    def test_translate(self, memory, allocator):
        pt, mmu = self.build(memory, allocator)
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, PERM_R | PERM_W)
        assert mmu.translate(0x100234, "r") == pa | 0x234

    def test_disabled_mmu_faults(self, memory):
        mmu = GpuMmu(memory, PTE_FORMATS["mali"])
        with pytest.raises(GpuPageFault):
            mmu.translate(0x1000, "r")

    def test_unmapped_va_faults(self, memory, allocator):
        _pt, mmu = self.build(memory, allocator)
        with pytest.raises(GpuPageFault):
            mmu.translate(0x900000, "r")
        assert mmu.fault_count == 1

    def test_permission_enforcement(self, memory, allocator):
        pt, mmu = self.build(memory, allocator)
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, PERM_R)
        mmu.translate(0x100000, "r")
        with pytest.raises(GpuPageFault):
            mmu.translate(0x100000, "w")
        with pytest.raises(GpuPageFault):
            mmu.translate(0x100000, "x")

    def test_v3d_ignores_permissions(self, memory, allocator):
        pt, mmu = self.build(memory, allocator, "v3d")
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, 0)
        mmu.translate(0x100000, "w")
        mmu.translate(0x100000, "x")

    def test_gather_scatter_across_noncontiguous_pages(self, memory,
                                                       allocator):
        pt, mmu = self.build(memory, allocator)
        # The shuffled allocator virtually guarantees non-adjacent PAs.
        for i in range(4):
            pt.map_page(0x100000 + i * PAGE_SIZE, allocator.alloc_page(),
                        PERM_R | PERM_W)
        data = bytes(range(256)) * 50  # 12800 bytes, spans 4 pages
        mmu.write_va(0x100100, data)
        assert mmu.read_va(0x100100, len(data)) == data

    def test_coherent_tlb_shootdown_on_table_write(self, memory, allocator):
        pt, mmu = self.build(memory, allocator)
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, PERM_R)
        mmu.translate(0x100000, "r")
        # Rewriting the live table shoots the cached translation down
        # immediately -- no architectural flush needed.
        pt.unmap_page(0x100000)
        with pytest.raises(GpuPageFault):
            mmu.translate(0x100000, "r")

    def test_noncoherent_tlb_stale_until_flush(self, memory, allocator):
        pt, mmu = self.build(memory, allocator)
        mmu.coherent_tlb = False
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, PERM_R)
        mmu.translate(0x100000, "r")
        # Historical behaviour: the stale TLB still translates...
        pt.unmap_page(0x100000)
        assert mmu.translate(0x100000, "r") == pa
        # ...until the TLB is flushed.
        mmu.flush_tlb()
        with pytest.raises(GpuPageFault):
            mmu.translate(0x100000, "r")

    def test_coherent_tlb_survives_architectural_flush(self, memory,
                                                       allocator):
        pt, mmu = self.build(memory, allocator)
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, PERM_R)
        assert mmu.translate(0x100000, "r") == pa
        mmu.flush_tlb()  # no table write happened: nothing to invalidate
        assert mmu._tlb
        assert mmu.translate(0x100000, "r") == pa

    def test_set_base_change_drops_translations(self, memory, allocator):
        pt, mmu = self.build(memory, allocator)
        pa = allocator.alloc_page()
        pt.map_page(0x100000, pa, PERM_R)
        mmu.translate(0x100000, "r")
        mmu.set_base(allocator.alloc_page())  # different address space
        assert not mmu._tlb
