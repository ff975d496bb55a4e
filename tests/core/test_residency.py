"""Residency decides as before: what an Upload moves and what it
skips does not depend on whether dumps are compared by identity or by
digest, on which executor runs, or on which decoded copy is loaded."""

import pytest

from repro.bench.workloads import fresh_replay_machine, get_recorded
from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recording import Recording, RecordingMeta
from repro.core.replay import seeded_inputs
from repro.core.replayer import LOAD_CACHE, Replayer, clear_load_cache
from repro.gpu import PERM_R, PERM_W
from repro.soc.memory import PAGE_SIZE

#: The ``replay_hot`` recordings, and per replay (first, second, third)
#: the ``(upload_bytes, upload_skipped_bytes)`` the parent commit
#: (26aa112) measured on both executors.
PINNED = {
    ("mali", "dense-serve"): [(5369856, 0), (45056, 5324800),
                              (45056, 5324800)],
    ("mali", "alexnet"): [(327680, 0), (139264, 188416),
                          (139264, 188416)],
    ("mali", "mnist"): [(143360, 0), (57344, 86016), (57344, 86016)],
    ("v3d", "mnist"): [(872448, 0), (786432, 86016), (786432, 86016)],
    ("adreno", "mnist"): [(1236992, 0), (1150976, 86016),
                          (1150976, 86016)],
}


def booted(family, recording, fast_path=True, seed=77):
    replayer = Replayer(fresh_replay_machine(family, seed=seed),
                        fast_path=fast_path)
    replayer.init()
    replayer.load(recording)
    return replayer


def moved(result):
    return result.stats.upload_bytes, result.stats.upload_skipped_bytes


@pytest.mark.parametrize("pair", PINNED, ids="/".join)
def test_three_replays_move_what_the_parent_moved(pair):
    recording = get_recorded(*pair)[0].recording
    inputs = seeded_inputs(recording, 5)
    tapes = {}
    for fast_path in (True, False):
        clear_load_cache()
        replayer = booted(pair[0], recording, fast_path)
        tape = replayer.machine.flight.start_capture()
        got = [moved(replayer.replay(inputs=inputs)) for _ in range(3)]
        assert got == PINNED[pair], fast_path
        tapes[fast_path] = list(tape)
        replayer.cleanup()
    assert tapes[True] == tapes[False]


def test_a_second_decoded_copy_still_skips_resident_weights():
    """Evict the load cache and load the same bytes decoded afresh:
    other ``MemoryDump`` objects, so residency falls back to digests."""
    pair = ("mali", "mnist")
    first = get_recorded(*pair)[0].recording
    inputs = seeded_inputs(first, 5)
    for fast_path in (True, False):
        clear_load_cache()
        replayer = booted(pair[0], first, fast_path)
        assert moved(replayer.replay(inputs=inputs)) == PINNED[pair][0]
        LOAD_CACHE.clear()
        again = Recording.from_bytes(first.to_bytes())
        assert all(a is not b for a, b in zip(again.dumps, first.dumps))
        replayer.load(again)
        assert replayer.last_load_info["cache"] == "miss"
        assert moved(replayer.replay(inputs=inputs)) == PINNED[pair][1]
        replayer.cleanup()


def test_forget_resident_forces_full_uploads():
    pair = ("v3d", "mnist")
    recording = get_recorded(*pair)[0].recording
    inputs = seeded_inputs(recording, 5)
    clear_load_cache()
    replayer = booted(pair[0], recording)
    for _ in range(3):
        replayer.nano.forget_resident()
        assert moved(replayer.replay(inputs=inputs)) == PINNED[pair][0]
    assert replayer.nano.resident_digest(
        recording.dumps[0].va) in {d.digest for d in recording.dumps}
    replayer.cleanup()


def test_weights_that_meet_no_other_dump_are_never_hashed(hashed_lengths):
    """A cold load + first replay hashes no dump but those that share
    an upload address with a different dump (a few descriptor pages):
    nothing the size of a weight tensor goes through SHA-256 after
    the fetch that verified it."""
    pair = ("mali", "dense-serve")
    recording = Recording.from_bytes(
        get_recorded(*pair)[0].recording.to_bytes())
    recording.digest()   # the load-cache key: the fetch's job
    del hashed_lengths[:]
    clear_load_cache()
    replayer = booted(pair[0], recording)
    result = replayer.replay(inputs=seeded_inputs(recording, 5))
    hashed = list(hashed_lengths)
    assert moved(result) == PINNED[pair][0]
    contested = {}
    for action in recording.actions:
        if isinstance(action, act.Upload):
            contested.setdefault(action.addr, set()).add(action.dump_index)
    shared = {index for indexes in contested.values()
              if len(indexes) > 1 for index in indexes}
    for index, dump in enumerate(recording.dumps):
        assert ("digest" in dump.__dict__) <= (index in shared), index
    assert max(hashed, default=0) <= PAGE_SIZE < max(
        dump.size for dump in recording.dumps)
    replayer.cleanup()


def remapping_recording():
    """Maps a VA, unmaps it, maps it again with another size; leaves a
    second mapping behind and removes a third."""
    common = dict(min_interval_ns=0, recorded_interval_ns=0, src="t",
                  job_index=0)
    flags = 0b1111   # valid | R | W | X in the Mali encoding
    actions = [
        act.MapGpuMem(addr=0x100000, num_pages=2, raw_pte_flags=flags,
                      **common),
        act.MapGpuMem(addr=0x200000, num_pages=1, raw_pte_flags=flags,
                      **common),
        act.MapGpuMem(addr=0x300000, num_pages=3, raw_pte_flags=flags,
                      **common),
        act.UnmapGpuMem(addr=0x100000, num_pages=2, **common),
        act.Upload(addr=0x200000, dump_index=0, **common),
        act.MapGpuMem(addr=0x100000, num_pages=5, raw_pte_flags=flags,
                      **common),
        act.UnmapGpuMem(addr=0x300000, num_pages=3, **common),
    ]
    meta = RecordingMeta(gpu_model="mali-g71", family="mali",
                         pte_format="mali", board="hikey960",
                         workload="remap", prologue_len=len(actions))
    return Recording(meta, actions, [MemoryDump(0x200000, b"\x07" * 64)])


def walked_maps(recording, before):
    """The per-action walk ``_note_session_maps`` used to do."""
    maps = dict(before)
    for action in recording.actions:
        if isinstance(action, act.MapGpuMem):
            maps[action.addr] = action.num_pages
        elif isinstance(action, act.UnmapGpuMem):
            maps.pop(action.addr, None)
    return maps


@pytest.mark.parametrize("fast_path", (True, False))
def test_session_maps_follow_the_recordings_map_effects(fast_path):
    recording = remapping_recording()
    clear_load_cache()
    replayer = Replayer(fresh_replay_machine("mali", seed=3),
                        fast_path=fast_path)
    replayer.init()
    for _session in range(2):
        replayer.load(recording)
        assert replayer._load_key(recording)[-1] == ()
        replayer.replay()
        want = walked_maps(recording, {})
        assert want == {0x200000: 1, 0x100000: 5}
        assert list(replayer._session_maps.items()) == list(want.items())
        assert replayer._load_key(recording)[-1] == \
            tuple(sorted(want.items()))
        replayer.reset_session()
    replayer.cleanup()


class CountingDict(dict):
    """A dict that counts ``d[key]`` reads."""

    gets = 0

    def __getitem__(self, key):
        self.gets += 1
        return super().__getitem__(key)


def test_a_store_after_a_large_dump_left_visits_its_neighbours_only():
    """Once the largest resident dump has left, the overlap check a GPU
    store runs looks at the dumps it overlaps plus at most one more,
    not at every base within the departed dump's size below it."""
    machine = fresh_replay_machine("mali", seed=9)
    nano = NanoGpuDriver(machine)
    nano.init_gpu()
    raw = machine.gpu.mmu.fmt.encode_pte(0, PERM_R | PERM_W)
    big, small = 0x1000000, 0x2000000
    nano.map_gpu_mem(big, 256, raw)
    nano.map_gpu_mem(small, 64, raw)
    nano.set_gpu_pgtable(machine.gpu.spec.required_memattr)
    nano.upload(big, bytes(256 * PAGE_SIZE))
    for k in range(64):
        nano.upload(small + k * PAGE_SIZE, bytes([k + 1]) * PAGE_SIZE)
    nano.copy_to_gpu(big, b"x")                 # the 1-MiB dump leaves
    assert nano.resident_digest(big) is None
    nano._resident = visits = CountingDict(nano._resident)
    store = small + 40 * PAGE_SIZE
    machine.gpu.mmu.write_va(store + 8, bytes(16))
    assert visits.gets <= 1 + 1
    assert nano.resident_digest(store) is None
    assert nano.resident_digest(store - PAGE_SIZE) is not None
    assert nano.resident_digest(store + PAGE_SIZE) is not None
