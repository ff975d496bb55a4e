"""Load-cache and compiled-program isolation across boards.

The process-wide load cache is keyed by recording digest *plus* the
board's register-map fingerprint, GPU family and the replayer's memory
policy. Two boards serving the same recording content must get two
cache entries and two compiled programs -- a compiled program resolves
register offsets against one MMIO layout, so sharing it across SKUs
would replay garbage with a perfectly healthy-looking cache.
"""

import pytest

from repro.bench.workloads import fresh_replay_machine, get_recorded
from repro.core.replayer import LOAD_CACHE, Replayer, clear_load_cache
from repro.errors import ReplayError
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, generate_requests)
from repro.units import MIB


@pytest.fixture()
def mali_recording():
    workload, _stack = get_recorded("mali", "mnist")
    return workload.recording


def _replayer(board: str, seed: int = 5, **kwargs) -> Replayer:
    machine = fresh_replay_machine("mali", seed=seed, board=board)
    replayer = Replayer(machine, **kwargs)
    replayer.init()
    return replayer


def test_same_digest_two_boards_two_entries(mali_recording):
    clear_load_cache()
    hikey = _replayer("hikey960")
    odroid = _replayer("odroid-n2")
    try:
        hikey.load(mali_recording)
        odroid.load(mali_recording)
        assert hikey._load_key(mali_recording) != \
            odroid._load_key(mali_recording)
        assert len(LOAD_CACHE) == 2
        assert hikey.program is not None
        assert odroid.program is not None
        assert hikey.program is not odroid.program
    finally:
        hikey.cleanup()
        odroid.cleanup()


def test_compiled_program_refuses_foreign_board(mali_recording):
    clear_load_cache()
    hikey = _replayer("hikey960")
    odroid = _replayer("odroid-n2")
    try:
        hikey.load(mali_recording)
        with pytest.raises(ReplayError):
            hikey.program.bind(odroid.nano, mali_recording.dumps)
    finally:
        hikey.cleanup()
        odroid.cleanup()


def test_memory_policy_is_part_of_the_key(mali_recording):
    clear_load_cache()
    default = _replayer("hikey960")
    bounded = _replayer("hikey960", seed=6, max_gpu_bytes=512 * MIB)
    try:
        default.load(mali_recording)
        bounded.load(mali_recording)
        assert default._load_key(mali_recording) != \
            bounded._load_key(mali_recording)
        assert len(LOAD_CACHE) == 2
    finally:
        default.cleanup()
        bounded.cleanup()


def test_server_never_shares_programs_across_boards(mali_recording):
    """Regression for the serving scenario: a pool with two different
    mali SKUs serving the same recording digest. The wrong-SKU worker
    must fail over (its register values diverge), and the cache must
    hold one compiled program per board, never one shared."""
    clear_load_cache()
    store = RecordingStore()
    store.add("mali", "mnist", mali_recording)
    requests = generate_requests(LoadgenConfig(
        requests=6, seed=12, mix=(("mali", "mnist"),),
        mean_interarrival_ns=0, deadline_ns=0))
    server = ReplayServer(store, ServerConfig(
        families=("mali", "mali"), boards=("hikey960", "odroid-n2"),
        seed=12, max_batch=4))
    report = server.serve(requests)
    server.close()

    assert report.lost == []
    assert all(r.status in ("ok", "degraded")
               for r in report.responses)
    # The odroid worker got work, failed, and the ladder absorbed it.
    counters = report.snapshot["counters"]
    assert counters.get("serve.worker_failures", 0) > 0
    assert counters.get("serve.retries", 0) > 0
    # One compiled program per board for the one digest served.
    digest = mali_recording.digest()
    programs = {id(program)
                for key, (_report, program) in LOAD_CACHE._entries.items()
                if key[0] == digest}
    assert len(programs) == 2
