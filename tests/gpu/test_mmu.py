"""GPU MMU: PTE formats, table building, translation, faults."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GpuPageFault, SocError
from repro.gpu import (L1_SPAN, PERM_R, PERM_W, PERM_X, PTE_FORMATS,
                       VA_SPACE_SIZE, MaliLpaePteFormat, MaliPteFormat,
                       PageTableBuilder, V3dPteFormat, split_va)
from repro.gpu.faults import walk_page_table
from repro.gpu.mmu import GpuMmu
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
        memory.pages_hook = lambda indices: seen.append(indices)
        pt.map_range(va, pas, PERM_R)
        low, high = pt._l1_tables[0], pt._l1_tables[1]
        # 3 PTEs at the end of the first leaf, then: scrub of the new
        # leaf (a page store), its root pointer, 7 PTEs at its start.
        assert seen == [(low + 509 * 8, 3 * 8), [high // PAGE_SIZE],
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


# ---------------------------------------------------------------------------
# Page runs: the bulk data path against a page-at-a-time reference.
# ---------------------------------------------------------------------------


class PageAtATimeMmu(GpuMmu):
    """The reference data path: every access walks its range one page
    at a time through the TLB, exactly as the MMU did before it
    remembered page runs. Translation, shootdown and the counters are
    the real class's; only the two bulk loops are kept here."""

    def read_va(self, va, size, access="r"):
        chunks = []
        cursor = va
        remaining = size
        while remaining > 0:
            offset = cursor & (PAGE_SIZE - 1)
            chunk = min(remaining, PAGE_SIZE - offset)
            base = self._tlb.get((cursor - offset, access))
            if base is None:
                pa = self.translate(cursor, access)
            else:
                self.tlb_hits += 1
                pa = base | offset
            chunks.append(self.memory.read(pa, chunk))
            cursor += chunk
            remaining -= chunk
        return b"".join(chunks)

    def gather_va(self, va, size, access="r"):
        return bytearray(self.read_va(va, size, access))

    def write_va(self, va, data):
        if self.write_observer is not None:
            self.write_observer(va, len(data))
        cursor = va
        offset = 0
        while offset < len(data):
            pa = self.translate(cursor, "w")
            chunk = min(len(data) - offset,
                        PAGE_SIZE - (cursor & (PAGE_SIZE - 1)))
            self.memory.write(pa, data[offset:offset + chunk])
            cursor += chunk
            offset += chunk


#: Eight VA pages straddling an L1-table boundary; a ninth is never
#: mapped, so ranges reaching it have an unmapped tail.
RUN_SLOTS = 8
RUN_BASE_VA = L1_SPAN - 4 * PAGE_SIZE
#: (offset from RUN_BASE_VA, size) of the ranges the property test
#: accesses -- few enough that sequences repeat them and reuse runs.
RUN_RANGES = (
    (0x10, 0x20),                              # inside one page
    (PAGE_SIZE - 0x10, 0x40),                  # unaligned, two pages
    (0, 3 * PAGE_SIZE),                        # aligned, multi-page
    (3 * PAGE_SIZE + 0x800, 2 * PAGE_SIZE),    # across the L1 boundary
    (6 * PAGE_SIZE + 8, 0x30),                 # a page with no buffer yet
    (6 * PAGE_SIZE + 4, 3 * PAGE_SIZE - 8),    # unmapped tail
    (0, RUN_SLOTS * PAGE_SIZE),                # everything
    (5 * PAGE_SIZE, 0),                        # empty
)
RUN_PERMS = (PERM_R, PERM_R | PERM_W, PERM_R | PERM_W | PERM_X,
             PERM_R | PERM_X, PERM_W)
#: Never written before the test maps them: pages without a buffer.
RAW_PAS = (12 * MIB, 12 * MIB + PAGE_SIZE)


class RunWorld:
    """One memory + page tables + MMU, with both write hooks logged."""

    def __init__(self, mmu_cls, fmt_name, coherent):
        self.memory = PhysicalMemory(16 * MIB)
        self.log = []
        self.memory.write_hook = \
            lambda pa, n: self.log.append(("phys", pa, n))
        allocator = PageAllocator(self.memory, 0, 1024, seed=7)
        fmt = PTE_FORMATS[fmt_name]
        self.pt = PageTableBuilder(self.memory, allocator, fmt)
        self.mmu = mmu_cls(self.memory, fmt)
        self.mmu.coherent_tlb = coherent
        self.mmu.write_observer = \
            lambda va, n: self.log.append(("gpu", va, n))
        self.mmu.set_base(self.pt.root_pa)
        self.pool = allocator.alloc_pages(6, "data") + list(RAW_PAS)
        self.mapped = set()

    def step(self, op, a, b, c):
        """Apply one operation; returns what a caller could observe."""
        mmu, memory = self.mmu, self.memory
        try:
            if op == "map":
                va = RUN_BASE_VA + (a % RUN_SLOTS) * PAGE_SIZE
                if va in self.mapped:  # remap the same VA elsewhere
                    self.pt.unmap_page(va)
                self.pt.map_page(va, self.pool[b % len(self.pool)],
                                 RUN_PERMS[c % len(RUN_PERMS)])
                self.mapped.add(va)
            elif op == "unmap":
                va = RUN_BASE_VA + (a % RUN_SLOTS) * PAGE_SIZE
                if va in self.mapped:
                    self.pt.unmap_page(va)
                    self.mapped.discard(va)
            elif op == "cpu_write":
                offset = b % PAGE_SIZE
                data = bytes([c % 251 + 1]) * min(64, PAGE_SIZE - offset)
                memory.write(self.pool[a % len(self.pool)] + offset, data)
            elif op == "scrub":
                memory.scrub_pages([self.pool[a % len(self.pool)]])
            elif op == "read":
                offset, size = RUN_RANGES[a % len(RUN_RANGES)]
                return mmu.read_va(RUN_BASE_VA + offset, size,
                                   access="rx"[b % 2])
            elif op == "gather":
                offset, size = RUN_RANGES[a % len(RUN_RANGES)]
                return bytes(mmu.gather_va(RUN_BASE_VA + offset, size))
            elif op == "write":
                offset, size = RUN_RANGES[a % len(RUN_RANGES)]
                data = bytes((b + i) % 256 for i in range(251)) \
                    * (size // 251 + 1)
                mmu.write_va(RUN_BASE_VA + offset, data[:size])
            elif op == "flush":
                mmu.flush_tlb()
            elif op == "rebase":
                mmu.set_base(self.pt.root_pa)
        except GpuPageFault as fault:
            return ("fault", fault.va, fault.access, fault.reason)
        return None

    def observable(self):
        mmu = self.mmu
        return (mmu.tlb_hits, mmu.tlb_misses, mmu.fault_count, self.log)

    def contents(self):
        pages = self.pool + self.pt.table_pages()
        return ([self.memory.read(pa, PAGE_SIZE) for pa in pages],
                self.memory.touched_pages())


def _assert_runs_cover_live_buffers(world):
    """Every remembered read run sits on TLB entries that exist and on
    pages that have a buffer."""
    mmu = world.mmu
    for (va, size, access), run in mmu._runs.items():
        assert 0 < len(run) <= (size + 2 * PAGE_SIZE - 2) // PAGE_SIZE
        for page_va in range(va & ~(PAGE_SIZE - 1), va + size, PAGE_SIZE):
            pa = mmu._tlb[(page_va, access)]
            if access != "w":
                assert world.memory.page_buffer(pa) is not None
    assert mmu._run_pages == sum(len(run) for run in mmu._runs.values())


RUN_OPS = ("map", "map", "unmap", "cpu_write", "scrub", "read", "read",
           "read", "gather", "write", "write", "flush", "rebase")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PTE_FORMATS)), st.booleans(),
       st.lists(st.tuples(st.sampled_from(RUN_OPS), st.integers(0, 255),
                          st.integers(0, 2 ** 16), st.integers(0, 255)),
                max_size=70))
def test_page_runs_match_page_at_a_time_reference(fmt_name, coherent, ops):
    world = RunWorld(GpuMmu, fmt_name, coherent)
    model = RunWorld(PageAtATimeMmu, fmt_name, coherent)
    # A populated start, so short sequences reach warm accesses too.
    prologue = [("map", slot, slot, 2) for slot in range(RUN_SLOTS - 1)]
    for op in prologue + ops:
        assert world.step(*op) == model.step(*op), op
        assert world.observable() == model.observable(), op
        _assert_runs_cover_live_buffers(world)
    # Equal memory, including after writes that faulted mid-range.
    assert world.contents() == model.contents()
    assert not model.mmu._runs


class TestPageRuns:
    def build(self, memory, allocator, pages=3, perms=PERM_R | PERM_W):
        fmt = PTE_FORMATS["mali"]
        pt = PageTableBuilder(memory, allocator, fmt)
        mmu = GpuMmu(memory, fmt)
        mmu.set_base(pt.root_pa)
        pas = allocator.alloc_pages(pages)
        pt.map_range(0x100000, pas, perms)
        return pt, mmu, pas

    def test_warm_read_is_one_gather_and_counts_every_page(
            self, memory, allocator, monkeypatch):
        _pt, mmu, _pas = self.build(memory, allocator)
        data = bytes(range(256)) * 40
        mmu.write_va(0x100080, data)
        assert mmu.read_va(0x100080, len(data)) == data   # first touch
        assert (0x100080, len(data), "r") not in mmu._runs
        assert mmu.read_va(0x100080, len(data)) == data   # probes a run
        reads = []
        monkeypatch.setattr(
            PhysicalMemory, "read",
            lambda self, pa, n: reads.append((pa, n)) or bytes(n))
        hits, misses = mmu.tlb_hits, mmu.tlb_misses
        assert mmu.read_va(0x100080, len(data)) == data
        assert bytes(mmu.gather_va(0x100080, len(data))) == data
        assert reads == []
        assert (mmu.tlb_hits, mmu.tlb_misses) == (hits + 6, misses)

    def test_bytes_are_never_remembered(self, memory, allocator):
        _pt, mmu, pas = self.build(memory, allocator)
        for _ in range(3):
            mmu.read_va(0x100000, 3 * PAGE_SIZE)
        memory.write(pas[1] + 5, b"cpu")              # CPU store
        assert mmu.read_va(0x100000, 3 * PAGE_SIZE)[PAGE_SIZE + 5:][:3] \
            == b"cpu"
        memory.scrub_pages([pas[1]])                   # page recycled
        assert mmu.read_va(0x100000, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)
        mmu.write_va(0x100ffe, b"gpu!")                # GPU store
        assert mmu.read_va(0x100000, 3 * PAGE_SIZE)[0xffe:][:4] == b"gpu!"

    def test_no_run_over_a_page_without_a_buffer(self, memory, allocator):
        pt, mmu, _pas = self.build(memory, allocator)
        pt.map_page(0x200000, RAW_PAS[0], PERM_R | PERM_W)
        assert memory.page_buffer(RAW_PAS[0]) is None
        for _ in range(3):
            assert mmu.read_va(0x200010, 64) == bytes(64)
        assert not mmu._runs
        memory.write(RAW_PAS[0] + 0x10, b"now it exists")
        for _ in range(2):
            assert mmu.read_va(0x200010, 13) == b"now it exists"
        assert (0x200010, 13, "r") in mmu._runs

    @pytest.mark.parametrize("drop", ["table-write", "set_base",
                                      "noncoherent-flush"])
    def test_runs_are_dropped_where_the_tlb_is(self, memory, allocator,
                                               drop):
        pt, mmu, _pas = self.build(memory, allocator)
        if drop == "noncoherent-flush":
            mmu.coherent_tlb = False
        for _ in range(2):
            mmu.read_va(0x100000, 2 * PAGE_SIZE)
            mmu.write_va(0x100000, bytes(2 * PAGE_SIZE))
        assert len(mmu._runs) == 2 and mmu._run_pages == 4
        if drop == "table-write":
            pt.map_page(0x300000, allocator.alloc_page(), PERM_R)
        elif drop == "set_base":
            mmu.set_base(allocator.alloc_page())
        else:
            mmu.flush_tlb()
        assert not mmu._tlb and not mmu._runs and mmu._run_pages == 0

    def test_coherent_flush_keeps_runs(self, memory, allocator):
        _pt, mmu, _pas = self.build(memory, allocator)
        for _ in range(2):
            mmu.read_va(0x100000, 2 * PAGE_SIZE)
        mmu.flush_tlb()
        assert mmu._runs

    def test_write_into_a_table_page_finishes_page_by_page(
            self, memory, allocator):
        """A GPU store that lands in a page-table page shoots the TLB
        down mid-range: the pages after it are walked again, as the
        page-at-a-time loop would."""
        worlds = []
        for cls in (GpuMmu, PageAtATimeMmu):
            mem = PhysicalMemory(64 * MIB)
            alloc = PageAllocator(mem, 0, 8192, seed=3)
            fmt = PTE_FORMATS["mali"]
            pt = PageTableBuilder(mem, alloc, fmt)
            mmu = cls(mem, fmt)
            mmu.set_base(pt.root_pa)
            first, last = alloc.alloc_pages(2)
            pt.map_page(0x100000, first, PERM_R | PERM_W)
            leaf = pt.table_pages()[1]
            pt.map_page(0x101000, leaf, PERM_R | PERM_W)
            pt.map_page(0x102000, last, PERM_R | PERM_W)
            for page in range(3):   # warm the TLB without storing
                mmu.translate(0x100000 + page * PAGE_SIZE, "w")
            # Rewrite the leaf table with its own bytes: harmless to
            # the mappings, but still a write to a table page.
            data = b"a" * PAGE_SIZE + mem.read(leaf, PAGE_SIZE) \
                + b"c" * PAGE_SIZE
            before = (mmu.tlb_hits, mmu.tlb_misses)
            mmu.write_va(0x100000, data)
            worlds.append((mmu.tlb_hits - before[0],
                           mmu.tlb_misses - before[1],
                           mem.read(first, 4), mem.read(last, 4)))
        assert worlds[0] == worlds[1] == (2, 1, b"aaaa", b"cccc")

    def test_remembered_pages_are_capped(self, memory, allocator,
                                         monkeypatch):
        import repro.gpu.mmu as mmu_mod
        monkeypatch.setattr(mmu_mod, "MAX_RUN_PAGES", 4)
        _pt, mmu, _pas = self.build(memory, allocator, pages=6)
        for offset in range(0, 6 * PAGE_SIZE, PAGE_SIZE):
            for _ in range(2):
                mmu.read_va(0x100000 + offset, 16)
            assert mmu._run_pages <= 4
        for _ in range(3):   # wider than the cap: never remembered
            assert mmu.read_va(0x100000, 5 * PAGE_SIZE) == \
                bytes(5 * PAGE_SIZE)
        assert (0x100000, 5 * PAGE_SIZE, "r") not in mmu._runs


# ---------------------------------------------------------------------------
# The walker against the per-page, two-reads-per-miss walk it replaced.
# ---------------------------------------------------------------------------


class TwoReadsMmu(PageAtATimeMmu):
    """The reference walker: every miss reads its root entry and its
    PTE out of physical memory, one ``translate`` per page -- the MMU
    as it was before a walk looked the leaf table up once per table."""

    def translate(self, va, access):
        if not self.enabled or self.base_pa is None:
            raise GpuPageFault(va, access, "MMU disabled")
        page_va = va & ~(PAGE_SIZE - 1)
        cached = self._tlb.get((page_va, access))
        if cached is not None:
            self.tlb_hits += 1
            return cached | (va & (PAGE_SIZE - 1))
        self.tlb_misses += 1
        l0, l1, offset = split_va(va)
        wide = self.fmt.pte_size == 8
        read = self.memory.read_u64 if wide else self.memory.read_u32
        valid, l1_pa = self.fmt.decode_table_ptr(
            read(self.base_pa + l0 * self.fmt.pte_size))
        if not valid:
            self.fault_count += 1
            raise GpuPageFault(va, access, "no L1 table")
        valid, pa, perms = self.fmt.decode_pte(
            read(l1_pa + l1 * self.fmt.pte_size))
        if not valid:
            self.fault_count += 1
            raise GpuPageFault(va, access, "invalid PTE")
        if self.fmt.has_permissions:
            needed = {"r": PERM_R, "w": PERM_W, "x": PERM_X}[access]
            if not perms & needed:
                self.fault_count += 1
                raise GpuPageFault(va, access, "permission denied")
        self._table_pages.add(self.base_pa >> 12)
        self._table_pages.add(l1_pa >> 12)
        self._tlb[(page_va, access)] = pa
        return pa | offset

    def _walk(self, va, size, access):
        cursor, end = va, va + size
        while cursor < end:
            chunk = min(end - cursor, PAGE_SIZE - cursor % PAGE_SIZE)
            yield self.translate(cursor, access), chunk
            cursor += chunk


#: The walked window: the last pages of one leaf table, the whole of
#: the next, and the first pages of a third whose L1 table is missing.
WALK_EDGE = 6
WALK_BASE_VA = 3 * L1_SPAN - WALK_EDGE * PAGE_SIZE
WALK_PAGES = WALK_EDGE + 512 + WALK_EDGE
WALK_MEMORY = 32 * MIB


class WalkWorld:
    """Seeded page tables with every kind of page the walker can meet,
    the leaf table of the middle run and the root table mapped into
    the window themselves, and one MMU class over them."""

    def __init__(self, mmu_cls, fmt_name, seed, coherent=True):
        import random
        rng = random.Random(seed)
        self.memory = PhysicalMemory(WALK_MEMORY)
        allocator = PageAllocator(self.memory, 0, 4096, seed=seed)
        self.fmt = PTE_FORMATS[fmt_name]
        self.pt = PageTableBuilder(self.memory, allocator, self.fmt)
        self.mmu = mmu_cls(self.memory, self.fmt)
        self.mmu.coherent_tlb = coherent
        self.mmu.set_base(self.pt.root_pa)
        raw = iter(range(20 * MIB, WALK_MEMORY, PAGE_SIZE))
        self.kinds = {}
        mapped = WALK_EDGE + 512     # the third table stays missing
        for page in range(mapped):
            va = WALK_BASE_VA + page * PAGE_SIZE
            kind = rng.choice(("rw",) * 8 + ("r", "w", "x", "hole", "hole",
                                             "raw", "outside"))
            self.kinds[page] = kind
            if kind == "hole":
                continue
            if kind == "raw":        # never written: no page buffer
                pa, perms = next(raw), PERM_R | PERM_W
            elif kind == "outside":  # valid PTE, no such memory
                pa, perms = WALK_MEMORY + page * PAGE_SIZE, PERM_R | PERM_W
            else:
                pa = allocator.alloc_page("data")
                self.memory.write(pa, bytes([page % 251 + 1]) * PAGE_SIZE)
                perms = {"rw": PERM_R | PERM_W, "r": PERM_R, "w": PERM_W,
                         "x": PERM_X | PERM_R}[kind]
            self.pt.map_page(va, pa, perms)
        # Tables mapped into the window: a store through these VAs
        # rewrites the tables the same store is being walked through.
        tables = self.pt.table_pages()
        middle = self.pt._l1_tables[split_va(
            WALK_BASE_VA + WALK_EDGE * PAGE_SIZE)[0]]
        self.leaf_page = WALK_EDGE + 40
        self.root_page = WALK_EDGE + 90
        for table_page, table_pa in ((self.leaf_page, middle),
                                     (self.root_page, tables[0])):
            # With plain data pages around it, so a store gets there.
            for page in range(table_page - 4, table_page + 10):
                va = WALK_BASE_VA + page * PAGE_SIZE
                if self.pt.lookup(va) is not None:
                    self.pt.unmap_page(va)
                pa = table_pa if page == table_page \
                    else allocator.alloc_page("data")
                self.pt.map_page(va, pa, PERM_R | PERM_W)
                self.kinds[page] = "table" if page == table_page else "rw"

    def va(self, page, offset=0):
        return WALK_BASE_VA + page * PAGE_SIZE + offset

    def call(self, op, va, size, access="r", data=b""):
        mmu = self.mmu
        try:
            if op == "walk":
                return list(mmu._walk(va, size, access))
            if op == "translate":
                return mmu.translate(va, access)
            if op == "read":
                return mmu.read_va(va, size, access)
            if op == "gather":
                return bytes(mmu.gather_va(va, size, access))
            return mmu.write_va(va, data)
        except GpuPageFault as fault:
            return ("fault", fault.va, fault.access, fault.reason)
        except Exception as error:   # PhysicalMemoryError and its message
            return (type(error).__name__, str(error))

    def state(self):
        mmu = self.mmu
        return (mmu.tlb_hits, mmu.tlb_misses, mmu.fault_count,
                dict(mmu._tlb), set(mmu._table_pages))

    def contents(self):
        return {index: bytes(page) for index, page
                in self.memory._pages.items()}


def _both(fmt_name, seed, coherent=True):
    return (WalkWorld(GpuMmu, fmt_name, seed, coherent),
            WalkWorld(TwoReadsMmu, fmt_name, seed, coherent))


def _same(world, model, *call, **kwargs):
    got, want = world.call(*call, **kwargs), model.call(*call, **kwargs)
    assert got == want, (call, got if not isinstance(got, bytes) else "...")
    assert world.state() == model.state(), call
    return got


@pytest.mark.parametrize("fmt_name", sorted(PTE_FORMATS))
class TestWalkerAgainstTwoReadsReference:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("coherent", (True, False))
    def test_seeded_ranges(self, fmt_name, seed, coherent):
        """Random accesses over random tables: equal results, faults,
        counters, TLB and table pages after every one, equal memory at
        the end."""
        import random
        world, model = _both(fmt_name, seed, coherent)
        rng = random.Random(seed * 7919)
        window = WALK_PAGES * PAGE_SIZE
        for step in range(160):
            op = rng.choice(("walk", "translate", "read", "gather",
                             "write", "write"))
            start = rng.randrange(-PAGE_SIZE, window)
            size = rng.choice((1, 17, PAGE_SIZE, 3 * PAGE_SIZE + 5,
                               40 * PAGE_SIZE, 600 * PAGE_SIZE))
            # Loads are "r" or "x"; "w" belongs to stores (a run
            # remembered for one is not one a load can gather).
            access = rng.choice("rrwx" if op in ("walk", "translate")
                                else "rx")
            data = bytes([step % 255 + 1]) * min(size, 9 * PAGE_SIZE)
            _same(world, model, op, WALK_BASE_VA + start, size,
                  access=access, data=data)
            if step % 40 == 0:
                world.mmu.flush_tlb()
                model.mmu.flush_tlb()
        assert world.contents() == model.contents()

    def test_each_kind_of_page_and_boundary(self, fmt_name):
        world, model = _both(fmt_name, 5)
        by_kind = {}
        for page, kind in world.kinds.items():
            by_kind.setdefault(kind, page)
        for kind, page in sorted(by_kind.items()):
            for access in "rwx":
                # From mid-page two pages earlier, across it.
                for op in ("walk", "translate") if access == "w" else \
                        ("walk", "read", "gather", "translate"):
                    _same(world, model, op, world.va(page - 2, 0x321),
                          3 * PAGE_SIZE, access=access)
        # Across both leaf-table boundaries, the second into the table
        # that does not exist; and off both ends of the VA space.
        for op in ("walk", "read", "gather"):
            _same(world, model, op, world.va(0, 0x10), 20 * PAGE_SIZE)
            _same(world, model, op, world.va(WALK_EDGE + 500),
                  30 * PAGE_SIZE)
            missing = world.va(WALK_EDGE + 512, 8)
            assert _same(world, model, op, missing, PAGE_SIZE) == \
                ("fault", missing, "r", "no L1 table")
        for va in (VA_SPACE_SIZE - 0x800, -0x800, VA_SPACE_SIZE):
            for op in ("walk", "read", "translate"):
                _same(world, model, op, va, 2 * PAGE_SIZE)

    @pytest.mark.parametrize("coherent", (True, False))
    @pytest.mark.parametrize("table", ("leaf", "root"))
    def test_a_store_rewrites_the_table_it_is_walked_through(
            self, fmt_name, coherent, table):
        """``write_va`` over a range whose own bytes land in the leaf
        table (then the root table) serving its later pages: those
        pages must translate through what the store just wrote."""
        world, model = _both(fmt_name, 11, coherent)
        fmt = world.fmt
        code = "<Q" if fmt.pte_size == 8 else "<I"
        import struct
        results = []
        for w in (world, model):
            page = w.leaf_page if table == "leaf" else w.root_page
            entries = []
            if table == "leaf":
                # Remap every page of the middle table onto two pages
                # (the mapped table itself stays mapped where it is).
                spare = [20 * MIB - PAGE_SIZE, 20 * MIB - 2 * PAGE_SIZE]
                here = w.pt.lookup(w.va(page))[0]
                for slot in range(512):
                    target = here if slot == page - WALK_EDGE \
                        else spare[slot % 2]
                    entries.append(fmt.encode_pte(target, PERM_R | PERM_W))
            else:
                # Point the middle table's root entry at the first
                # leaf table, drop every other root entry.
                first = w.pt._l1_tables[split_va(WALK_BASE_VA)[0]]
                middle_l0 = split_va(w.va(WALK_EDGE))[0]
                entries = [fmt.encode_table_ptr(first)
                           if slot == middle_l0 else 0
                           for slot in range(512)]
            payload = struct.pack(f"{code[0]}512{code[1]}", *entries)
            payload = payload.ljust(PAGE_SIZE, b"\0")
            # Warm a few translations first, so hits and misses mix.
            for warm in range(page - 3, page + 6, 2):
                w.call("translate", w.va(warm), 1, access="w")
            data = b"\x11" * (3 * PAGE_SIZE - 0x40) + payload \
                + b"\x22" * (5 * PAGE_SIZE + 0x40)
            results.append(w.call("write", w.va(page - 3, 0x40), 0,
                                  data=data))
            results.append(w.call("read", w.va(page - 3), 12 * PAGE_SIZE))
        assert results[:2] == results[2:]
        assert world.state() == model.state()
        assert world.contents() == model.contents()
