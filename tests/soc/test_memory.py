"""Physical memory and the page allocator."""

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, PhysicalMemoryError
from repro.soc.memory import (PAGE_SIZE, ZERO, PageAllocator, PageSource,
                              PhysicalMemory)
from repro.units import MIB


@pytest.fixture
def memory():
    return PhysicalMemory(4 * MIB)


class TestPhysicalMemory:
    def test_read_back_written_bytes(self, memory):
        memory.write(0x1000, b"hello world")
        assert memory.read(0x1000, 11) == b"hello world"

    def test_unwritten_memory_reads_zero(self, memory):
        assert memory.read(0x2000, 8) == b"\x00" * 8

    def test_write_across_page_boundary(self, memory):
        data = bytes(range(200)) * 50  # 10000 bytes > 2 pages
        memory.write(PAGE_SIZE - 100, data)
        assert memory.read(PAGE_SIZE - 100, len(data)) == data

    def test_word_accessors(self, memory):
        memory.write(0x100, struct.pack("<I", 0xDEADBEEF))
        assert memory.read_u32(0x100) == 0xDEADBEEF
        memory.write(0x200, struct.pack("<Q", 0x0123456789ABCDEF))
        assert memory.read_u64(0x200) == 0x0123456789ABCDEF

    def test_out_of_bounds_read_rejected(self, memory):
        with pytest.raises(PhysicalMemoryError):
            memory.read(memory.size - 4, 8)

    def test_out_of_bounds_write_rejected(self, memory):
        with pytest.raises(PhysicalMemoryError):
            memory.write(memory.size, b"x")

    def test_negative_address_rejected(self, memory):
        with pytest.raises(PhysicalMemoryError):
            memory.read(-4, 4)

    def test_a_scrubbed_page_without_a_buffer_gets_none(self, memory):
        """A scrub zeroes a page's own buffer in place; a page without
        one reads zero, shares ``ZERO``'s page and gets no buffer."""
        memory.write(0x3000, b"\xAB" * PAGE_SIZE)
        buffer = memory.page_buffer(0x3000)
        seen = []
        memory.write_hook = lambda pa, size: seen.append((pa, size))
        before = memory.touched_pages()
        memory.scrub_pages([0x3000, 0x7000])
        for pa in (0x3000, 0x7000):
            assert memory.read(pa, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert memory.touched_pages() == before
        assert memory.page_buffer(0x3000) is buffer and not any(buffer)
        assert 7 not in memory.buffers
        assert memory.page_buffer(0x7000) is ZERO.data
        assert memory.page_buffer(0x8000) is None   # nothing stored there
        assert seen == [(0x3000, PAGE_SIZE), (0x7000, PAGE_SIZE)]

    def test_a_stored_page_references_its_source_until_written(
            self, memory):
        """A tagged store into a page without a buffer keeps a view of
        the source's page; the page gets a private copy at its first
        write or re-store, keeps it, and the source never changes. A
        holder that built on the view hears when it is replaced."""
        data = bytes(range(256)) * 32                   # two pages
        other = PageSource(b"\x05" * PAGE_SIZE)
        source = PageSource(data)
        replaced = []
        memory.buffers_hook = replaced.append
        memory.scrub_pages([0x1000, 0x2000, 0x3000])
        memory.store_pages([0x1000, 0x2000], source, 0)
        for pa, k in ((0x1000, 0), (0x2000, 1)):
            view = memory.page_buffer(pa)
            assert view.readonly and view.obj is data
            assert bytes(view) == data[k * PAGE_SIZE:][:PAGE_SIZE]
        assert replaced == []
        for index in (1, 2):                    # holders of the views
            memory.lent[index] = {f"holder-{index}"}
        memory.write(0x1005, b"x")                      # first write
        own = memory.page_buffer(0x1000)
        assert isinstance(own, bytearray) and own[5:6] == b"x"
        assert replaced == [{"holder-1"}] and 1 not in memory.tags
        memory.store_pages([0x2000], other, 0)          # re-store
        again = memory.page_buffer(0x2000)
        assert isinstance(again, bytearray)
        assert replaced[1:] == [{"holder-2"}] and not memory.lent
        assert bytes(again) == bytes(other.data)
        memory.store_pages([0x2000], source, 1)         # in place
        memory.write(0x2000, b"y")
        assert memory.page_buffer(0x2000) is again
        assert again[:1] == b"y" and again[1:] == data[PAGE_SIZE + 1:]
        memory.store_pages([0x3000], source, 1)
        memory.scrub_pages([0x3000])                    # drops the view
        assert 3 not in memory.buffers
        assert memory.read(0x3000, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert bytes(source.data) == data == bytes(range(256)) * 32
        assert bytes(other.data) == b"\x05" * PAGE_SIZE

    def test_a_freed_page_lets_go_of_its_source(self, memory):
        allocator = PageAllocator(memory, 0, 64, seed=1)
        own, referenced = allocator.alloc_pages(2)
        source = PageSource(b"\x01" * PAGE_SIZE)
        memory.store_pages([own, referenced], source, 0)
        memory.write(own, b"\x02")
        memory.store_pages([own], source, 0)
        allocator.free_pages([own, referenced])
        assert not memory.tags and source.version
        assert memory.page_buffer(referenced) is None
        assert memory.read(own, 2) == b"\x01\x01"     # its own buffer

    def test_a_page_source_must_be_read_only(self):
        for writable in (bytearray(PAGE_SIZE), np.zeros(1024, np.float32)):
            with pytest.raises(TypeError):
                PageSource(writable)
        weights = np.ones((2, 1024), np.float32)
        weights.flags.writeable = False
        assert PageSource(weights).zero == [False, False]

    def test_scrub_pages_rejects_bad_addresses(self, memory):
        with pytest.raises(PhysicalMemoryError):
            memory.scrub_pages([0x3004])
        with pytest.raises(PhysicalMemoryError):
            memory.scrub_pages([memory.size])

    def test_size_must_be_page_multiple(self):
        with pytest.raises(PhysicalMemoryError):
            PhysicalMemory(PAGE_SIZE + 1)

    def test_touched_pages_is_sparse(self, memory):
        before = memory.touched_pages()
        memory.write(0, b"x")
        memory.write(10 * PAGE_SIZE, b"y")
        assert memory.touched_pages() == before + 2

    def test_page_buffer_is_created_once_and_written_in_place(
            self, memory):
        assert memory.page_buffer(0x5010) is None
        memory.read(0x5000, 64)                 # reads materialize nothing
        assert memory.page_buffer(0x5010) is None
        memory.write(0x5ff0, b"x" * 32)         # spills into the next page
        buffer = memory.page_buffer(0x5010)
        assert buffer is memory.page_buffer(0x5fff)
        assert bytes(buffer[-16:]) == b"x" * 16
        memory.write(0x5000, memoryview(b"abc"))
        memory.scrub_pages([0x6000])
        assert bytes(memory.page_buffer(0x6000)[:16]) == bytes(16)
        memory.scrub_pages([0x5000])
        assert memory.page_buffer(0x5000) is buffer
        assert not any(buffer)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 4 * PAGE_SIZE), st.integers(0, 2 * PAGE_SIZE + 3),
        st.integers(1, 255)), max_size=20))
    def test_writes_match_a_flat_buffer(self, writes):
        """Single-page and page-crossing writes, empty ones and ones
        that end exactly at a page or at the end of memory."""
        memory = PhysicalMemory(4 * PAGE_SIZE)
        model = bytearray(memory.size)
        hooked = []
        memory.write_hook = lambda pa, n: hooked.append((pa, n))
        expect = []
        touched = set()
        for pa, length, fill in writes:
            data = bytes([fill]) * length
            if pa + length > memory.size:
                with pytest.raises(PhysicalMemoryError):
                    memory.write(pa, data)
                continue
            memory.write(pa, data)
            model[pa:pa + length] = data
            expect.append((pa, length))
            if length:   # an empty write materializes nothing
                touched.update(range(pa // PAGE_SIZE,
                                     (pa + length - 1) // PAGE_SIZE + 1))
        assert memory.read(0, memory.size) == bytes(model)
        assert hooked == expect
        assert memory.touched_pages() == len(touched)


class TestDirtyPages:
    """``PhysicalMemory.dirty``: the pages each write path changed, kept
    only while a recorder asks (a set), for its dirty-page capture."""

    def test_not_kept_unless_asked(self, memory):
        memory.write(0, b"x")
        memory.scrub_pages([PAGE_SIZE])
        assert memory.dirty is None

    def test_each_write_path_marks_the_pages_it_changes(self, memory):
        memory.dirty = set()
        memory.write(5 * PAGE_SIZE + 10, b"x")              # one page
        assert memory.dirty == {5}
        memory.write(7 * PAGE_SIZE - 2, b"abcd")            # two pages
        assert memory.dirty == {5, 6, 7}
        memory.dirty.clear()
        source = PageSource(bytes(PAGE_SIZE) + b"\x01" * PAGE_SIZE)
        memory.store_pages([8 * PAGE_SIZE, 9 * PAGE_SIZE], source, 0)
        assert memory.dirty >= {9}                           # a reference
        memory.store_pages([5 * PAGE_SIZE], source, 1)      # a copy
        assert memory.dirty >= {5, 9}
        memory.dirty.clear()
        memory.store_pages([8 * PAGE_SIZE, 9 * PAGE_SIZE], source, 0)
        assert memory.dirty == set()        # already holds them: no change
        memory.scrub_pages([9 * PAGE_SIZE])                 # a scrub
        assert memory.dirty == {9}
        memory.dirty.clear()
        memory.store_pages([9 * PAGE_SIZE], source, 1)
        memory.dirty.clear()
        memory.drop_pages([9 * PAGE_SIZE])                  # a free
        assert memory.dirty == {9}
        assert memory.read(9 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_a_page_left_unmarked_did_not_change(self, memory):
        """Over random writes, stores, scrubs and frees, a page outside
        ``dirty`` reads what it read before the operation."""
        rng = random.Random(3)
        sources = [PageSource(b"".join(
            rng.choice((bytes(PAGE_SIZE), rng.randbytes(PAGE_SIZE)))
            for _ in range(6))) for _ in range(3)]
        pages = range(12)
        for _ in range(300):
            before = {n: memory.read(n * PAGE_SIZE, PAGE_SIZE)
                      for n in pages}
            memory.dirty = set()
            pick = rng.sample(pages, rng.randrange(1, 4))
            kind = rng.randrange(4)
            if kind == 0:
                at = pick[0] * PAGE_SIZE + rng.randrange(PAGE_SIZE)
                memory.write(at, rng.randbytes(rng.randrange(1, 6000)))
            elif kind == 1:
                memory.store_pages([n * PAGE_SIZE for n in pick],
                                   rng.choice(sources), rng.randrange(3))
            elif kind == 2:
                memory.scrub_pages([n * PAGE_SIZE for n in pick])
            else:
                memory.drop_pages([n * PAGE_SIZE for n in pick])
            for n in pages:
                if n not in memory.dirty:
                    assert memory.read(n * PAGE_SIZE, PAGE_SIZE) == \
                        before[n]


class TestPageAllocator:
    def make(self, memory, pages=64, seed=0):
        return PageAllocator(memory, base_pa=0, page_count=pages,
                             seed=seed)

    def test_allocates_distinct_pages(self, memory):
        alloc = self.make(memory)
        pages = alloc.alloc_pages(10, "test")
        assert len(set(pages)) == 10
        assert all(pa % PAGE_SIZE == 0 for pa in pages)

    def test_allocated_pages_are_scrubbed(self, memory):
        alloc = self.make(memory)
        pa = alloc.alloc_page()
        memory.write(pa, b"\xFF" * PAGE_SIZE)
        alloc.free_pages([pa])
        # LIFO recycling is part of the layout contract: the page just
        # freed is the next one out, and it comes back zeroed.
        pa2 = alloc.alloc_page()
        assert pa2 == pa
        assert memory.read(pa2, PAGE_SIZE) == b"\x00" * PAGE_SIZE

    def test_bulk_allocated_pages_are_scrubbed_through_the_hook(
            self, memory):
        alloc = self.make(memory)
        dirty = alloc.alloc_pages(5)
        for pa in dirty:
            memory.write(pa, b"\xFF" * PAGE_SIZE)
        alloc.free_pages(dirty)
        hooked = []
        memory.write_hook = lambda pa, size: hooked.append((pa, size))
        pages = alloc.alloc_pages(8)  # 5 recycled + 3 fresh
        assert pages[:5] == dirty[::-1]
        assert all(memory.read(pa, PAGE_SIZE) == b"\x00" * PAGE_SIZE
                   for pa in pages)
        assert hooked == [(pa, PAGE_SIZE) for pa in pages]

    def test_seed_changes_allocation_order(self, memory):
        a = self.make(memory, seed=1).alloc_pages(8)
        b = self.make(PhysicalMemory(4 * MIB), pages=64, seed=2)
        assert a != b.alloc_pages(8)

    def test_exhaustion(self, memory):
        alloc = self.make(memory, pages=4)
        alloc.alloc_pages(4)
        with pytest.raises(AllocationError):
            alloc.alloc_page()

    def test_bulk_exhaustion_checked_up_front(self, memory):
        alloc = self.make(memory, pages=4)
        with pytest.raises(AllocationError):
            alloc.alloc_pages(5)
        assert alloc.pages_in_use == 0  # nothing leaked

    def test_refused_bulk_request_draws_nothing(self, memory):
        """The up-front check counts fresh *and* recycled pages, and a
        refusal leaves the permutation where it was."""
        alloc = self.make(memory, pages=8, seed=5)
        model = EagerAllocator(0, 8, seed=5)
        held = alloc.alloc_pages(6)
        assert held == [model.alloc() for _ in range(6)]
        for pa in held[:3]:
            alloc.free_pages([pa])
            model.free(pa)
        assert alloc.pages_free == 5
        with pytest.raises(AllocationError, match="6 requested, 5 free"):
            alloc.alloc_pages(6)
        assert alloc.pages_free == 5
        assert alloc.alloc_pages(5) == [model.alloc() for _ in range(5)]

    def test_double_free_rejected(self, memory):
        alloc = self.make(memory)
        pa = alloc.alloc_page()
        alloc.free_pages([pa])
        with pytest.raises(AllocationError):
            alloc.free_pages([pa])

    def test_free_recycles(self, memory):
        alloc = self.make(memory, pages=2)
        pages = alloc.alloc_pages(2)
        alloc.free_pages(pages)
        assert alloc.pages_free == 2
        alloc.alloc_pages(2)

    def test_owner_of(self, memory):
        alloc = self.make(memory)
        pa = alloc.alloc_page("mine")
        assert alloc.owner_of(pa) == "mine"
        assert alloc.owner_of(pa + PAGE_SIZE * 1000) is None

    def test_unaligned_base_rejected(self, memory):
        with pytest.raises(AllocationError):
            PageAllocator(memory, base_pa=100, page_count=4)

    def test_region_exceeding_memory_rejected(self, memory):
        with pytest.raises(AllocationError):
            PageAllocator(memory, base_pa=0,
                          page_count=memory.size // PAGE_SIZE + 1)


# --------------------------------------------------------------------------
# Differential: the lazy permutation against the allocator it replaced.
# --------------------------------------------------------------------------

class EagerAllocator:
    """Reference model: the whole free list shuffled at construction,
    popped from and appended to at the end. The shipped allocator must
    hand out the same page at every step."""

    def __init__(self, base_pa, page_count, seed):
        self.free_list = [base_pa + i * PAGE_SIZE
                          for i in range(page_count)]
        random.Random(seed).shuffle(self.free_list)
        self.used = {}

    def alloc(self, tag=""):
        pa = self.free_list.pop()
        self.used[pa] = tag
        return pa

    def free(self, pa):
        del self.used[pa]
        self.free_list.append(pa)


SIZES = (1, 2, 64, 4096)
BASE_PA = 3 * PAGE_SIZE


def _pair(size, seed):
    memory = PhysicalMemory((size + 3) * PAGE_SIZE)
    return (PageAllocator(memory, BASE_PA, size, seed=seed),
            EagerAllocator(BASE_PA, size, seed))


def _assert_accounts_agree(alloc, model):
    assert alloc.pages_free == len(model.free_list)
    assert alloc.pages_in_use == len(model.used)
    assert alloc._used == model.used      # every page's allocation tag


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", (0, 1, 0x5EED ^ 2026))
def test_lazy_permutation_to_exhaustion_and_back(size, seed):
    alloc, model = _pair(size, seed)
    order = random.Random(seed + 1)
    for tag in ("first", "second"):
        held = []
        while alloc.pages_free:
            held.append(alloc.alloc_page(tag))
            assert held[-1] == model.alloc(tag)
        assert sorted(held) == [BASE_PA + i * PAGE_SIZE
                                for i in range(size)]
        assert not alloc._displaced  # every drawn slot was dropped
        _assert_accounts_agree(alloc, model)
        with pytest.raises(AllocationError):
            alloc.alloc_page()
        order.shuffle(held)
        for pa in held:
            alloc.free_pages([pa])
            model.free(pa)
        _assert_accounts_agree(alloc, model)
    assert alloc.pages_free == size


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2 ** 32),
       st.lists(st.tuples(st.sampled_from(["alloc", "bulk", "free"]),
                          st.integers(0, 2 ** 16)), max_size=80))
def test_lazy_allocator_matches_eager_reference(size, seed, ops):
    alloc, model = _pair(size, seed)
    held = []
    for op, arg in ops:
        if op == "alloc" and alloc.pages_free:
            tag = f"t{arg % 3}"
            held.append(alloc.alloc_page(tag))
            assert held[-1] == model.alloc(tag)
        elif op == "bulk":
            count = arg % (alloc.pages_free + 2)
            if count > alloc.pages_free:
                with pytest.raises(AllocationError):
                    alloc.alloc_pages(count)
                continue
            pages = alloc.alloc_pages(count, "bulk")
            assert pages == [model.alloc("bulk") for _ in range(count)]
            held.extend(pages)
        elif op == "free" and held:
            pa = held.pop(arg % len(held))
            alloc.free_pages([pa])
            model.free(pa)
        _assert_accounts_agree(alloc, model)
        # State grows with pages drawn, never with the region.
        assert len(alloc._displaced) <= size - alloc._fresh
    assert sorted(held) == sorted(model.used)
