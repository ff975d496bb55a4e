"""Pages know what they hold, and nothing can tell.

Physical memory tags a page with what it holds (page ``k`` of one
dump's :class:`~repro.soc.memory.PageSource`, or ``ZERO``), so a store
whose page already holds its bytes copies nothing and a gather whose
pages hold one dump reads it in place. The tags are host state only:
memory, gathers, counters, flight tapes, stats and answers must be
exactly what a memory without tags gives.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import fresh_replay_machine, get_recorded
from repro.core.dumps import MemoryDump
from repro.core.nano_driver import NanoGpuDriver
from repro.core.replay import seeded_inputs
from repro.core.replayer import Replayer, clear_load_cache
from repro.errors import GpuPageFault, PhysicalMemoryError
from repro.gpu import PERM_R, PERM_W, PTE_FORMATS, PageTableBuilder
from repro.gpu.mmu import GpuMmu
from repro.soc import Machine
from repro.soc.memory import PAGE_SIZE, ZERO, PageAllocator, PhysicalMemory
from repro.store.vault import Vault
from repro.units import MIB

# ---------------------------------------------------------------------------
# Differential: tagged memory against a memory that copies every time.
# ---------------------------------------------------------------------------


class TaglessMemory(PhysicalMemory):
    """The reference: a tagged store always copies, a scrub always
    zeroes, and no page is ever tagged."""

    def store_pages(self, pas, source, k):
        for n, pa in enumerate(pas, k):
            self.write(pa, source.data[n * PAGE_SIZE:(n + 1) * PAGE_SIZE])
        return len(pas)

    def scrub_pages(self, pas):
        for pa in pas:
            self.write(pa, bytes(PAGE_SIZE))


SLOTS = 8
BASE_VA = 0x100000
DUMPS = (
    # nonzero, zero, nonzero
    MemoryDump(0, b"\x01" * PAGE_SIZE + bytes(PAGE_SIZE)
               + bytes(range(256)) * 16),
    MemoryDump(0, bytes(2 * PAGE_SIZE)),
    # a read-only view, as a vault fetch hands dumps out
    MemoryDump(0, memoryview(b"\x07" * PAGE_SIZE + b"\x08" * PAGE_SIZE)),
    # the same bytes as page 0 of the first, another object
    MemoryDump(0, b"\x01" * PAGE_SIZE),
)
#: (offset from BASE_VA, size): few, so sequences gather a range again.
RANGES = (
    (0, 3 * PAGE_SIZE),
    (0x10, 2 * PAGE_SIZE),
    (PAGE_SIZE, PAGE_SIZE),
    (PAGE_SIZE + 8, 64),
    (5 * PAGE_SIZE, 3 * PAGE_SIZE),
    (0, 0),
)


class World:
    """Memory, page tables and a GPU MMU with SLOTS pages mapped."""

    def __init__(self, memory_cls):
        self.memory = memory_cls(16 * MIB)
        self.allocator = PageAllocator(self.memory, 0, 1024, seed=5)
        fmt = PTE_FORMATS["mali"]
        self.pt = PageTableBuilder(self.memory, self.allocator, fmt)
        self.mmu = GpuMmu(self.memory, fmt)
        self.mmu.set_base(self.pt.root_pa)
        self.pas = self.allocator.alloc_pages(SLOTS, "data")
        for slot, pa in enumerate(self.pas):
            self.pt.map_page(BASE_VA + slot * PAGE_SIZE, pa,
                             PERM_R | PERM_W)
        self.views = 0

    def step(self, op, a, b, c):
        """Apply one operation; returns what a caller could observe."""
        try:
            return self._step(op, a % SLOTS, b, c)
        except (GpuPageFault, PhysicalMemoryError) as error:
            # A plain write that spilled into a page-table page.
            return type(error).__name__, str(error)

    def _step(self, op, slot, b, c):
        memory, mmu = self.memory, self.mmu
        va = BASE_VA + slot * PAGE_SIZE
        if op == "store":       # the nano driver's page loop
            source = DUMPS[b % len(DUMPS)].pages
            for k in range(len(source.zero)):
                entry = self.pt.lookup(va + k * PAGE_SIZE)
                if entry is not None:
                    memory.store_pages([entry[0]], source, k)
        elif op == "write":     # may spill into the next physical page
            memory.write(self.pas[slot] + b % PAGE_SIZE,
                         bytes([c]) * (c % 96 + 1))
        elif op == "u32":
            memory.write(self.pas[slot] + b % (PAGE_SIZE // 4) * 4,
                         struct.pack("<I", c * 0x01010101))
        elif op == "scrub":
            memory.scrub_pages([self.pas[slot]])
        elif op == "realloc":   # free a page, map a fresh allocation
            self.allocator.free_pages([self.pas[slot]])
            self.pt.unmap_page(va)
            self.pas[slot] = self.allocator.alloc_pages(2, "data")[b % 2]
            self.pt.map_page(va, self.pas[slot], PERM_R | PERM_W)
        elif op == "remap":     # unmap and map the same VA again
            self.pt.unmap_page(va)
            self.pt.map_page(va, self.pas[slot], PERM_R | PERM_W)
        elif op == "gpu_write":
            offset, size = RANGES[b % len(RANGES)]
            mmu.write_va(BASE_VA + offset,
                         bytes((c + i) % 256 for i in range(size)))
        elif op == "gather":
            offset, size = RANGES[b % len(RANGES)]
            got = mmu.gather_va(BASE_VA + offset, size)
            if isinstance(got, memoryview):
                assert got.readonly
                self.views += 1
            return bytes(got), mmu.read_va(BASE_VA + offset, size)
        return None

    def contents(self):
        """Logical contents: a page without a buffer reads zero, so
        only nonzero pages are listed."""
        return {index: bytes(page)
                for index, page in self.memory.buffers.items() if any(page)}

    def counters(self):
        return self.mmu.tlb_hits, self.mmu.tlb_misses, self.mmu.fault_count


def assert_tags_hold(memory):
    """Every tagged page holds exactly the bytes its tag names."""
    for index, source in memory.tags.items():
        k = memory.tag_pages[index]
        assert memory.read(index * PAGE_SIZE, PAGE_SIZE) == bytes(
            source.data[k * PAGE_SIZE:(k + 1) * PAGE_SIZE]), index


OPS = ("store", "store", "store", "write", "u32", "scrub", "realloc",
       "remap", "gpu_write", "gather", "gather", "gather")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 255),
                          st.integers(0, 2 ** 16), st.integers(0, 255)),
                max_size=60))
def test_tagged_memory_matches_a_memory_that_always_copies(ops):
    world, model = World(PhysicalMemory), World(TaglessMemory)
    # Dumps in place and gathered twice: short sequences start with
    # views to invalidate.
    prologue = [("store", 0, 0, 0), ("store", 5, 2, 0)] \
        + [("gather", 0, r, 0) for r in (0, 0, 1, 1, 4, 4)]
    for op in prologue + ops:
        got = world.step(*op)
        assert got == model.step(*op), op
        if op[0] == "gather" and isinstance(got[0], bytes):
            assert got[0] == got[1], op     # gather == read_va
        assert world.contents() == model.contents(), op
        assert world.counters() == model.counters(), op
        assert_tags_hold(world.memory)
    assert world.views and not model.memory.tags


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("store", "store", "write",
                                           "scrub")),
                          st.integers(0, 3), st.integers(0, 7),
                          st.integers(0, PAGE_SIZE - 1)), max_size=40))
def test_writes_into_referenced_pages_and_restores(ops):
    """Stores into pages without a buffer keep views of the source;
    a page's first write or re-store gives it a private copy that it
    keeps; the sources' bytes never change."""
    memory = PhysicalMemory(4 * PAGE_SIZE)
    sources = [dump.pages for dump in DUMPS]
    originals = [bytes(source.data) for source in sources]
    model = [bytes(PAGE_SIZE)] * 4
    own = {}
    for op, slot, b, c in ops:
        pa = slot * PAGE_SIZE
        if op == "store":
            source = sources[b % len(sources)]
            k = c % len(source.zero)
            memory.store_pages([pa], source, k)
            model[slot] = bytes(source.data[k * PAGE_SIZE:][:PAGE_SIZE])
        elif op == "write":
            data = bytes([b + 1]) * min(8, PAGE_SIZE - c)
            memory.write(pa + c, data)
            model[slot] = model[slot][:c] + data + model[slot][c + len(data):]
        else:
            memory.scrub_pages([pa])
            model[slot] = bytes(PAGE_SIZE)
        page = memory.buffers.get(slot)
        if op == "write":
            assert isinstance(page, bytearray)
        if isinstance(page, bytearray):
            assert own.setdefault(slot, page) is page   # one, kept
        else:
            assert slot not in own
        for index, buffer in memory.buffers.items():
            if not isinstance(buffer, bytearray):       # a reference
                source = memory.tags[index]
                assert buffer.readonly and buffer.obj is source.data.obj
        assert [memory.read(at * PAGE_SIZE, PAGE_SIZE)
                for at in range(4)] == model
        assert_tags_hold(memory)
    assert [bytes(source.data) for source in sources] == originals


def test_a_first_gather_of_one_dump_is_a_read_only_view():
    world = World(PhysicalMemory)
    world.step("store", 0, 0, 0)
    for _ in range(2):
        view = world.mmu.gather_va(BASE_VA, 3 * PAGE_SIZE)
        assert isinstance(view, memoryview) and view.readonly
        assert bytes(view) == bytes(DUMPS[0].data)
    tensor = np.frombuffer(view, dtype=np.float32)
    assert not tensor.flags.writeable
    # A range starting inside the dump's last page runs past its end.
    world.step("store", 3, 3, 0)        # one page of another dump
    for _ in range(2):
        assert isinstance(world.mmu.gather_va(BASE_VA + 2 * PAGE_SIZE,
                                              2 * PAGE_SIZE), bytearray)


@pytest.mark.parametrize("change", ["write", "scrub", "restore", "free"])
def test_a_run_is_dropped_when_one_of_its_pages_gets_a_new_buffer(change):
    """A read run holds the views of referenced pages (and ``ZERO``'s
    page); when one of them gets a new buffer, memory counts it, the
    MMU drops its runs, and no TLB entry, so every count stays the
    same and the next read sees the new bytes."""
    world = World(PhysicalMemory)
    world.mmu.coherent_tlb = False      # no shootdown to hide behind
    world.step("store", 0, 0, 0)        # slots 0-2, the middle one zero
    mmu, memory, pa = world.mmu, world.memory, world.pas[2]
    key = (BASE_VA, 3 * PAGE_SIZE, "r")
    for _ in range(2):
        mmu.read_va(*key)
    assert not isinstance(memory.page_buffer(pa), bytearray)
    counts = mmu.tlb_hits, mmu.tlb_misses, len(mmu._tlb)
    replaced = memory.replaced
    if change == "write":
        memory.write(pa + 5, b"x")
    elif change == "scrub":
        memory.scrub_pages([pa])
    elif change == "restore":
        memory.store_pages([pa], DUMPS[2].pages, 0)
    else:
        world.allocator.free_pages([pa])
    assert memory.replaced == replaced + 1
    assert (mmu.tlb_hits, mmu.tlb_misses, len(mmu._tlb)) == counts
    assert mmu.read_va(*key)[2 * PAGE_SIZE:] == memory.read(pa, PAGE_SIZE)
    assert mmu.tlb_hits == counts[0] + 3


def test_runs_outlive_writes_into_owned_pages_and_warm_replays():
    """Only a lost view or ``ZERO`` page moves ``replaced``: a write
    into a page with a buffer of its own, or a warm replay, leaves it
    and every remembered run as they were."""
    world = World(PhysicalMemory)
    mmu, memory = world.mmu, world.memory
    world.step("write", 1, 0, 9)        # slot 1 owns its buffer now
    for _ in range(2):
        mmu.read_va(BASE_VA + PAGE_SIZE, PAGE_SIZE)
    runs, replaced = dict(mmu._runs), memory.replaced
    memory.write(world.pas[1] + 7, b"owned")
    assert mmu.read_va(BASE_VA + PAGE_SIZE + 7, 5) == b"owned"
    assert memory.replaced == replaced and runs
    assert all(mmu._runs[key] is run for key, run in runs.items())

    recording = get_recorded("mali", "mnist")[0].recording
    replayer = boot(recording, "mali")
    mmu, memory = replayer.machine.gpu.mmu, replayer.machine.memory
    for seed in range(2):
        replayer.replay(inputs=seeded_inputs(recording, seed))
    runs, replaced = dict(mmu._runs), memory.replaced
    replayer.replay(inputs=seeded_inputs(recording, 2))
    assert memory.replaced == replaced and runs
    assert all(mmu._runs[key] is run for key, run in runs.items())
    replayer.cleanup()


def test_stores_skip_pages_that_hold_their_bytes():
    memory = PhysicalMemory(4 * MIB)
    writes = []
    memory.pages_hook = writes.extend
    memory.scrub_pages([0x1000, 0x2000, 0x3000])
    dump = DUMPS[0]
    for k in range(3):
        memory.store_pages([0x1000 * (k + 1)], dump.pages, k)
    # The zero page landed on a zero page: re-tagged, not copied.
    assert writes == [1, 2, 3, 1, 3]
    assert (memory.tags[2], memory.tag_pages[2]) == (dump.pages, 1)
    del writes[:]
    for k in range(3):
        memory.store_pages([0x1000 * (k + 1)], dump.pages, k)
    memory.scrub_pages([0x4000])
    memory.scrub_pages([0x4000])
    assert writes == [4]
    assert memory.tags[4] is ZERO
    # Equal bytes under another dump's tag are still copied.
    memory.store_pages([0x1000], DUMPS[3].pages, 0)
    assert writes == [4, 1]


# ---------------------------------------------------------------------------
# Through the nano driver.
# ---------------------------------------------------------------------------

VA = 0x100000
WEIGHTS = MemoryDump(VA, bytes(range(256)) * 48)   # three nonzero pages


@pytest.fixture
def booted():
    machine = Machine.create("hikey960", seed=131)
    nano = NanoGpuDriver(machine)
    nano.init_gpu()
    raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
    nano.map_gpu_mem(VA, 4, raw)
    nano.set_gpu_pgtable(0x4C)
    return machine, nano, raw


def copied_pages(memory, indices):
    """Of the pages a store (or a first write) names to the pages hook,
    those it copied: the ones left with a buffer of their own. The
    rest reference their bytes, or read zero."""
    return [index for index in indices
            if isinstance(memory.buffers.get(index), bytearray)]


def counting_writes(memory):
    """(pa, length) of every copy into ``memory``: plain writes, and
    the pages a tagged store copies (:func:`copied_pages`)."""
    writes = []
    real, hook = memory.write, memory.pages_hook
    memory.write = lambda pa, data: writes.append((pa, len(data))) \
        or real(pa, data)

    def pages(indices):
        writes.extend((index * PAGE_SIZE, PAGE_SIZE)
                      for index in copied_pages(memory, indices))
        hook(indices)
    memory.pages_hook = pages
    return writes


def test_a_gpu_store_into_a_weight_page_is_seen_and_recopied(booted):
    machine, nano, _raw = booted
    mmu = machine.gpu.mmu
    assert nano.upload(VA, WEIGHTS) == 3 * PAGE_SIZE
    for _ in range(2):
        view = mmu.gather_va(VA, 3 * PAGE_SIZE)
    assert isinstance(view, memoryview)
    mmu.write_va(VA + PAGE_SIZE + 4, b"gpu!")
    seen = bytes(mmu.gather_va(VA, 3 * PAGE_SIZE))
    assert seen[PAGE_SIZE + 4:PAGE_SIZE + 8] == b"gpu!"
    assert bytes(view) == bytes(WEIGHTS.data)   # the dump is untouched
    changed = mmu.translate(VA + PAGE_SIZE, "r")
    writes = counting_writes(machine.memory)
    # The store made the dump non-resident: the model pays for all of
    # it, the host copies the one page the GPU changed.
    assert nano.upload(VA, WEIGHTS) == 3 * PAGE_SIZE
    assert writes == [(changed, PAGE_SIZE)]
    again = mmu.gather_va(VA, 3 * PAGE_SIZE)
    assert isinstance(again, memoryview)
    assert bytes(again) == bytes(WEIGHTS.data)


def test_unmap_and_remap_of_the_same_va(booted):
    machine, nano, raw = booted
    mmu = machine.gpu.mmu
    nano.upload(VA, WEIGHTS)
    for _ in range(2):
        mmu.gather_va(VA, 3 * PAGE_SIZE)
    nano.unmap_gpu_mem(VA, 4)
    nano.map_gpu_mem(VA, 4, raw)
    for _ in range(2):
        assert bytes(mmu.gather_va(VA, 3 * PAGE_SIZE)) == \
            bytes(3 * PAGE_SIZE)
    other = MemoryDump(VA, b"\x09" * 3 * PAGE_SIZE)
    nano.upload(VA, other)
    for _ in range(2):
        assert bytes(mmu.gather_va(VA, 3 * PAGE_SIZE)) == bytes(other.data)
    assert_tags_hold(machine.memory)


@pytest.mark.parametrize("va, size", [(VA + 16, 100),
                                      (VA, PAGE_SIZE + 10),
                                      (VA + PAGE_SIZE // 2, PAGE_SIZE)])
def test_unaligned_uploads_take_the_plain_path(booted, va, size):
    machine, nano, _raw = booted
    data = bytes((7 * i) % 251 for i in range(size))
    first = machine.gpu.mmu.translate(VA, "r") // PAGE_SIZE
    assert nano.upload(va, data) == size
    assert nano.copy_from_gpu(va, size) == data
    assert machine.memory.tags.get(first) is None   # written, not tagged
    assert_tags_hold(machine.memory)


# ---------------------------------------------------------------------------
# Whole replays: the same as a twin that forgets every tag.
# ---------------------------------------------------------------------------


def forget_tags(memory):
    """What a memory without tags would know: nothing, and every source
    that tagged a page is told so."""
    for source in memory.tags.values():
        source.version += 1
    memory.tags.clear()


def boot(recording, family):
    clear_load_cache()
    replayer = Replayer(fresh_replay_machine(family, seed=41))
    replayer.init()
    replayer.load(recording)
    return replayer


def observed(replayer, result):
    machine = replayer.machine
    outputs = result.outputs
    if isinstance(outputs, list):      # a fused pass
        outputs = {f"{n}:{k}": v for n, member in enumerate(outputs)
                   for k, v in member.items()}
    return (list(machine.flight.ring),
            machine.require_gpu().counters.snapshot(), result.stats,
            result.duration_ns,
            {name: value.tobytes() for name, value in outputs.items()})


@pytest.fixture
def upload_copies(monkeypatch):
    """Bytes each memory copies inside an upload, through ``write`` or
    a tagged store of a range."""
    copies = {}
    real_upload, real_write = NanoGpuDriver.upload, PhysicalMemory.write
    inside = []

    def upload(self, va, data):
        inside.append(self.machine.memory)
        try:
            return real_upload(self, va, data)
        finally:
            inside.pop()

    def write(self, pa, data):
        if inside and inside[-1] is self:
            copies[id(self)] = copies.get(id(self), 0) + len(data)
        return real_write(self, pa, data)

    def store_pages(self, pas, source, k):
        # A tagged store of a range copies the pages it leaves with a
        # buffer of their own; the others reference their bytes.
        hook, stored = self.pages_hook, []
        if hook is not None:
            self.pages_hook = lambda indices: \
                stored.extend(indices) or hook(indices)
        try:
            count = real_store_pages(self, pas, source, k)
        finally:
            self.pages_hook = hook
        if inside and inside[-1] is self:
            copies[id(self)] = copies.get(id(self), 0) + PAGE_SIZE * len(
                copied_pages(self, stored))
        return count

    real_store_pages = PhysicalMemory.store_pages
    monkeypatch.setattr(NanoGpuDriver, "upload", upload)
    monkeypatch.setattr(PhysicalMemory, "write", write)
    monkeypatch.setattr(PhysicalMemory, "store_pages", store_pages)
    return copies


#: Pages a warm replay may still copy: the few that a different dump,
#: the GPU or an input deposit changed since the last replay.
WARM_COPY_CEILING = {("v3d", "mnist"): 64 * 1024,
                     ("adreno", "mnist"): 128 * 1024}


@pytest.mark.parametrize("pair", [("mali", "mnist"), ("v3d", "mnist"),
                                  ("adreno", "mnist"), ("mali", "alexnet"),
                                  ("mali", "dense-serve")], ids="/".join)
def test_warm_replays_equal_a_twin_without_tags(pair, upload_copies):
    recording = get_recorded(*pair)[0].recording
    main, twin = boot(recording, pair[0]), boot(recording, pair[0])
    memory = main.machine.memory
    for replay in range(11):
        inputs = seeded_inputs(recording, replay)
        forget_tags(twin.machine.memory)
        before = upload_copies.get(id(memory), 0)
        got = observed(main, main.replay(inputs=inputs))
        assert got == observed(twin, twin.replay(inputs=inputs)), replay
        copied = upload_copies.get(id(memory), 0) - before
        if replay and pair in WARM_COPY_CEILING:
            assert copied <= WARM_COPY_CEILING[pair], replay
    assert upload_copies[id(memory)] <= \
        upload_copies[id(twin.machine.memory)]
    for replayer in (main, twin):
        replayer.cleanup()


def test_vault_views_and_fused_batches_equal_a_twin(tmp_path):
    """Dumps that are read-only views into vault chunks, replayed solo
    and as a fused mega-batch, whose unbatched operands are gathered
    through the same views."""
    recording = get_recorded("mali", "mnist")[0].recording
    vault = Vault(str(tmp_path / "vault"))
    fetched = vault.fetch(vault.pack(recording).digest)
    assert all(isinstance(d.data, memoryview) for d in fetched.dumps)
    main, twin = boot(fetched, "mali"), boot(fetched, "mali")
    batch = [seeded_inputs(fetched, seed) for seed in (1, 2, 3)]
    for replay in range(4):
        forget_tags(twin.machine.memory)
        if replay % 2:
            got = observed(main, main.replay_mega(batch))
            assert got == observed(twin, twin.replay_mega(batch)), replay
            solo = {}
            for n, inputs in enumerate(batch):
                forget_tags(twin.machine.memory)
                twin.replay(inputs=inputs)
                for name, value in main.replay(inputs=inputs).outputs.items():
                    solo[f"{n}:{name}"] = value.tobytes()
            assert got[-1] == solo, replay
        else:
            got = observed(main, main.replay(inputs=batch[0]))
            assert got == observed(twin, twin.replay(inputs=batch[0]))
    for replayer in (main, twin):
        replayer.cleanup()
