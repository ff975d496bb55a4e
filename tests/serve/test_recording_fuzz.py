"""Recording round-trip fuzz: content addressing under corruption.

Three properties of the on-disk format and the digest that the serving
stack's caches key on:

- randomized recordings (random metadata, actions of every kind,
  dumps) survive ``to_bytes`` / ``from_bytes`` unchanged: same digest,
  byte-identical re-encoding, both compressed and raw;
- a single flipped bit anywhere in a serialized recording is either
  rejected at load (``SerializationError``), visible in the digest, or
  provably benign (the decoded recording re-encodes to the original
  canonical bytes -- the flip never reached the content);
- for corruption that slips past loading (a flipped dump byte is valid
  zlib after re-encoding), ``grr doctor`` localizes the divergence on
  every GPU family.
"""

import random

import numpy as np
import pytest

from repro.bench.workloads import board_for_family, fresh_replay_machine,\
    get_recorded
from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import IoBuffer, Recording, RecordingMeta
from repro.core.replayer import WARM_LOAD_NS, Replayer
from repro.errors import SerializationError


def _random_action(rng: random.Random) -> act.Action:
    common = {
        "min_interval_ns": rng.randrange(1 << 20),
        "recorded_interval_ns": rng.randrange(1 << 20),
        "src": rng.choice(("ioctl", "mmap", "irq", "")),
        "job_index": rng.randrange(8),
    }
    kind = rng.randrange(11)
    reg = f"REG_{rng.randrange(32)}"
    if kind == 0:
        return act.RegReadOnce(reg=reg, val=rng.randrange(1 << 32),
                               ignore=rng.random() < 0.2, **common)
    if kind == 1:
        return act.RegReadWait(reg=reg, mask=rng.randrange(1 << 32),
                               val=rng.randrange(1 << 32),
                               timeout_ns=rng.randrange(1 << 30),
                               **common)
    if kind == 2:
        return act.RegWrite(reg=reg, mask=rng.randrange(1 << 32),
                            val=rng.randrange(1 << 32),
                            is_job_kick=rng.random() < 0.1, **common)
    if kind == 3:
        return act.SetGpuPgtable(memattr=rng.randrange(1 << 48),
                                 **common)
    if kind == 4:
        return act.MapGpuMem(addr=rng.randrange(1 << 40) & ~0xFFF,
                             num_pages=rng.randrange(1, 64),
                             raw_pte_flags=rng.randrange(1 << 12),
                             **common)
    if kind == 5:
        return act.UnmapGpuMem(addr=rng.randrange(1 << 40) & ~0xFFF,
                               num_pages=rng.randrange(1, 64), **common)
    if kind == 6:
        return act.Upload(addr=rng.randrange(1 << 40) & ~0xFFF,
                          dump_index=rng.randrange(4), **common)
    if kind == 7:
        return act.CopyToGpu(gaddr=rng.randrange(1 << 40),
                             size=rng.randrange(1, 1 << 16),
                             buffer_name=f"buf{rng.randrange(4)}",
                             **common)
    if kind == 8:
        return act.CopyFromGpu(gaddr=rng.randrange(1 << 40),
                               size=rng.randrange(1, 1 << 16),
                               buffer_name=f"buf{rng.randrange(4)}",
                               **common)
    if kind == 9:
        return act.WaitIrq(timeout_ns=rng.randrange(1 << 30), **common)
    return rng.choice((act.IrqEnter, act.IrqExit))(**common)


def _random_io(rng: random.Random, name: str) -> IoBuffer:
    return IoBuffer(
        name=name, gaddr=rng.randrange(1 << 40),
        size=rng.randrange(4, 1 << 16),
        shape=tuple(rng.randrange(1, 8)
                    for _ in range(rng.randrange(4))),
        optional=rng.random() < 0.3)


def synthetic_recording(seed: int) -> Recording:
    rng = random.Random(seed)
    meta = RecordingMeta(
        gpu_model=f"gpu-{rng.randrange(100)}",
        family=rng.choice(("mali", "v3d", "adreno", "")),
        pte_format=rng.choice(("lpae", "armv8", "")),
        board=f"board-{rng.randrange(100)}",
        workload=f"wl-{rng.randrange(100)}",
        api=rng.choice(("opencl", "vulkan", "")),
        framework=rng.choice(("acl", "ncnn", "")),
        memattr=rng.randrange(1 << 32),
        n_jobs=rng.randrange(16),
        reg_io=rng.randrange(1 << 16),
        prologue_len=rng.randrange(32),
        inputs=[_random_io(rng, f"in{i}")
                for i in range(rng.randrange(3))],
        outputs=[_random_io(rng, f"out{i}")
                 for i in range(rng.randrange(3))],
        power_sequence=[(rng.randrange(1 << 32), rng.randrange(1 << 32),
                         rng.randrange(1 << 60))
                        for _ in range(rng.randrange(3))])
    actions = [_random_action(rng)
               for _ in range(rng.randrange(1, 60))]
    dumps = [MemoryDump(rng.randrange(1 << 40) & ~0xFFF,
                        rng.randbytes(rng.randrange(1, 1 << 12)))
             for _ in range(rng.randrange(4))]
    return Recording(meta, actions, dumps)


@pytest.mark.parametrize("seed", range(20))
def test_synthetic_round_trip(seed):
    recording = synthetic_recording(seed)
    if not recording.meta.family:
        # A file must name a known GPU family: refused, then given one.
        with pytest.raises(SerializationError):
            Recording.from_bytes(synthetic_recording(seed).to_bytes())
        recording.meta.family = "mali"
    for compress in (True, False):
        blob = recording.to_bytes(compress=compress)
        decoded = Recording.from_bytes(blob)
        assert decoded.digest() == recording.digest()
        assert decoded.to_bytes(compress=compress) == blob
        assert len(decoded.actions) == len(recording.actions)
        assert [d.data for d in decoded.dumps] == \
            [d.data for d in recording.dumps]


@pytest.mark.parametrize("seed", range(30))
def test_single_bit_flip_is_rejected_visible_or_benign(seed):
    rng = random.Random(7000 + seed)
    recording = synthetic_recording(rng.randrange(1 << 16))
    blob = recording.to_bytes(compress=rng.random() < 0.5)
    pos = rng.randrange(len(blob))
    flipped = bytearray(blob)
    flipped[pos] ^= 1 << rng.randrange(8)
    flipped = bytes(flipped)
    try:
        decoded = Recording.from_bytes(flipped)
    except SerializationError:
        return  # rejected at load
    if decoded.digest() != recording.digest():
        return  # corruption is visible to every digest-keyed cache
    # Benign: the flip never reached the content (e.g. an unused
    # header flag bit), so re-encoding gives the canonical bytes back.
    assert decoded.to_bytes() == recording.to_bytes()


def test_real_recording_survives_round_trip_and_warm_loads():
    workload, _stack = get_recorded("mali", "mnist")
    recording = workload.recording
    decoded = Recording.from_bytes(recording.to_bytes())
    assert decoded.digest() == recording.digest()

    machine = fresh_replay_machine("mali", seed=3)
    replayer = Replayer(machine)
    replayer.init()
    replayer.load(recording)
    inputs = {"input": np.random.default_rng(3)
              .standard_normal(recording.meta.inputs[0].shape)
              .astype(np.float32)}
    before = replayer.replay(inputs=inputs)
    # The round-tripped copy is the same content: it warm-loads (the
    # digest-keyed cache hits) and replays to the same outputs.
    replayer.reset_session()
    replayer.load(decoded)
    assert replayer.load_ns == WARM_LOAD_NS
    after = replayer.replay(inputs=inputs)
    for name, value in before.outputs.items():
        assert (after.outputs[name] == value).all()
    replayer.cleanup()


@pytest.mark.parametrize("family", ("mali", "v3d", "adreno"))
def test_doctor_localizes_flipped_dump_byte(family):
    from repro.obs.doctor import flip_dump_byte, run_doctor

    workload, _stack = get_recorded(family, "mnist")
    corrupted, dump_index, _offset = flip_dump_byte(workload.recording)
    # The flip changes the content, so the digest (and with it every
    # cache key) changes too.
    assert corrupted.digest() != workload.recording.digest()
    report = run_doctor(corrupted, board_for_family(family), seed=2026)
    assert report is not None, (
        f"{family}: doctor found no divergence in a recording with "
        f"dump #{dump_index} corrupted")
    assert report.action_index >= 0


def test_doctor_localizes_patched_register_read():
    from repro.obs.doctor import patch_reg_read, run_doctor

    workload, _stack = get_recorded("mali", "mnist")
    patched, action_index = patch_reg_read(workload.recording,
                                           after_index=10)
    report = run_doctor(patched, board_for_family("mali"), seed=2026)
    assert report is not None
    assert report.action_index == action_index
