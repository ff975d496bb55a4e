"""Fuzz the content-defined chunker and the chunked store round-trip.

The chunker's one hard invariant is losslessness: concatenating the
chunks reproduces the input byte-for-byte, for every input. On top of
that, the whole pack/fetch path must preserve ``Recording.digest()``
exactly -- the digest is what every cache and manifest keys on, so a
single silently-moved byte would poison the entire content-addressed
world.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoder import decode_skeleton, encode_skeleton
from repro.core.recording import MemoryDump, Recording, RecordingMeta
from repro.store import (CHUNK_AVG_BITS, CHUNK_MAX, CHUNK_MIN, Vault,
                         chunk_digest, split)
from repro.store.chunks import _BLOCK, GEAR, iter_boundaries
from tests.serve.test_recording_fuzz import synthetic_recording


def _random_blob(rng: random.Random) -> bytes:
    kind = rng.randrange(4)
    n = rng.randrange(1, 64 * 1024)
    if kind == 0:
        return rng.randbytes(n)
    if kind == 1:
        return bytes(n)  # all zeros: degenerate gear input
    if kind == 2:
        return bytes([rng.randrange(4)]) * n  # one repeated byte
    # structured: repeated motif with point mutations
    motif = rng.randbytes(rng.randrange(16, 512))
    data = bytearray((motif * (n // len(motif) + 1))[:n])
    for _ in range(rng.randrange(8)):
        data[rng.randrange(len(data))] ^= 0xFF
    return bytes(data)


class TestSplitInvariants:
    @pytest.mark.parametrize("seed", range(40))
    def test_lossless_and_bounded(self, seed):
        rng = random.Random(seed)
        data = _random_blob(rng)
        chunks = split(data)
        assert b"".join(chunks) == data
        assert all(chunks), "empty chunk emitted"
        for piece in chunks[:-1]:
            assert CHUNK_MIN <= len(piece) <= CHUNK_MAX
        assert len(chunks[-1]) <= CHUNK_MAX

    def test_empty_input(self):
        assert split(b"") == []

    def test_single_byte(self):
        assert split(b"\x42") == [b"\x42"]

    def test_sub_minimum_input_is_one_chunk(self):
        data = bytes(range(CHUNK_MIN - 1))
        assert split(data) == [data]

    def test_deterministic_across_calls(self):
        data = random.Random(3).randbytes(32 * 1024)
        first = split(data)
        assert split(data) == first
        assert [chunk_digest(c) for c in first] == \
            [chunk_digest(c) for c in split(data)]

    def test_boundaries_are_content_defined(self):
        """Shifting content must not shift every boundary: a prefix
        insertion leaves the tail chunks identical (the dedup
        property fixed-size chunking lacks)."""
        rng = random.Random(11)
        data = rng.randbytes(48 * 1024)
        shifted = rng.randbytes(7) + data
        tail = set(chunk_digest(c) for c in split(data)[2:])
        shifted_digests = set(chunk_digest(c) for c in split(shifted))
        assert len(tail & shifted_digests) >= len(tail) * 3 // 4

    @pytest.mark.parametrize("seed", range(10))
    def test_custom_bounds(self, seed):
        rng = random.Random(1000 + seed)
        data = _random_blob(rng)
        lo = rng.randrange(1, 512)
        hi = lo + rng.randrange(1, 4096)
        chunks = split(data, min_size=lo, max_size=hi)
        assert b"".join(chunks) == data
        for piece in chunks[:-1]:
            assert lo <= len(piece) <= hi


def reference_boundaries(data, min_size=CHUNK_MIN,
                         avg_bits=CHUNK_AVG_BITS, max_size=CHUNK_MAX):
    """The chunking rule as first written: one gear-hash step per
    byte, fingerprint restarted at every boundary. Far too slow to
    ship (5.8 MB/s); kept here as the model ``iter_boundaries`` must
    equal on every input."""
    mask = (1 << avg_bits) - 1
    out = []
    start = 0
    fingerprint = 0
    for index, byte in enumerate(data, 1):
        fingerprint = ((fingerprint << 1) + GEAR[byte]) \
            & 0xFFFF_FFFF_FFFF_FFFF
        length = index - start
        if (length >= min_size and fingerprint & mask == mask) \
                or length >= max_size:
            out.append(index)
            start = index
            fingerprint = 0
    if start < len(data):
        out.append(len(data))
    return out


def _sparse(rng: random.Random, size: int) -> bytes:
    """Whole pages, each zero, random, or zero but for a few bytes at
    its start or end (the bytes before a run of zero pages decide its
    first window)."""
    out = bytearray(size)
    for at in range(0, size, 4096):
        page = min(4096, size - at)
        cut = rng.randrange(1, 12)
        kind = rng.randrange(5)
        if kind == 1:
            out[at:at + page] = rng.randbytes(page)
        elif kind == 2:
            out[at + page - min(cut, page):at + page] = \
                rng.randbytes(min(cut, page))
        elif kind == 3:
            out[at:at + min(cut, page)] = rng.randbytes(min(cut, page))
    return bytes(out)


def _payload(kind: str, size: int, seed: int) -> bytes:
    rng = random.Random(seed)
    if kind == "zero":
        return bytes(size)
    if kind == "sparse":
        return _sparse(rng, size)
    if kind == "constant":
        return bytes([rng.randrange(256)]) * size
    if kind == "random":
        return rng.randbytes(size)
    page = rng.randbytes(4096)  # the same page over and over
    return (page * (size // 4096 + 1))[:size]


KINDS = ("zero", "constant", "random", "paged", "sparse")


def _edge_sizes(min_size, avg_bits, max_size):
    """Every length at which the blocked evaluation changes shape."""
    edges = {0, 1, 2 * _BLOCK + 5, 3 * _BLOCK}
    for centre, reach in ((min_size, 1), (max_size, 1),
                          (avg_bits, 1), (_BLOCK, avg_bits),
                          (2 * _BLOCK, avg_bits)):
        edges.update((centre - reach, centre - 1, centre, centre + 1,
                      centre + reach))
    return sorted(size for size in edges if size >= 0)


@st.composite
def chunk_params(draw):
    if draw(st.booleans()):
        return CHUNK_MIN, CHUNK_AVG_BITS, CHUNK_MAX
    # Custom bounds, on both sides of every regime: a window longer
    # than the minimum chunk, and fingerprints wider than 16/32 bits.
    min_size = draw(st.integers(1, 600))
    avg_bits = draw(st.sampled_from(
        (0, 1, 3, 8, 10, 15, 16, 17, 20, 31, 32, 33, 48, 63, 64)))
    max_size = min_size + draw(st.integers(0, 5000))
    return min_size, avg_bits, max_size


class TestEqualsPerByteReference:
    """The vectorised splitter against the loop it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(params=chunk_params(), kind=st.sampled_from(KINDS),
           seed=st.integers(0, 2 ** 32), data=st.data())
    def test_same_boundaries(self, params, kind, seed, data):
        size = data.draw(st.one_of(
            st.sampled_from(_edge_sizes(*params)),
            st.integers(0, 2 * _BLOCK + 4096)))
        payload = _payload(kind, size, seed)
        want = reference_boundaries(payload, *params)
        assert list(iter_boundaries(payload, *params)) == want
        assert list(iter_boundaries(memoryview(payload), *params)) \
            == want
        assert b"".join(split(payload, *params)) == payload

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_block_edge_at_default_parameters(self, kind):
        for size in _edge_sizes(CHUNK_MIN, CHUNK_AVG_BITS, CHUNK_MAX):
            payload = _payload(kind, size, size)
            assert list(iter_boundaries(payload)) == \
                reference_boundaries(payload), (kind, size)

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_heavy_buffers(self, seed):
        """The zero-page path (a constant fingerprint inside a run of
        zero pages) on 50 buffers per seed, at the default and at
        random parameters."""
        rng = random.Random(seed)
        for _ in range(50):
            params = (CHUNK_MIN, CHUNK_AVG_BITS, CHUNK_MAX) \
                if rng.random() < 0.5 else (
                    rng.randrange(1, 600), rng.choice((0, 1, 3, 10, 17)),
                    None)
            if params[2] is None:
                params = params[:2] + (params[0] + rng.randrange(5000),)
            payload = _sparse(rng, rng.randrange(1, 6 * 4096 + 100))
            assert list(iter_boundaries(payload, *params)) == \
                reference_boundaries(payload, *params), params

    @pytest.mark.parametrize("seed", range(10))
    def test_a_boundary_in_a_zero_runs_first_window(self, seed):
        """A zero run's first window still holds the bytes before it: a
        random page whose last nine bytes and the run's first zero are
        a boundary (with this gear table, the only offset into a run
        where one can be), then zero pages."""
        rng = random.Random(seed)
        mask = (1 << CHUNK_AVG_BITS) - 1
        while True:
            payload = rng.randbytes(4096) + bytes(3 * 4096)
            window = payload[4097 - CHUNK_AVG_BITS:4097]
            if sum(GEAR[byte] << k for k, byte in
                   enumerate(reversed(window))) & mask == mask:
                want = reference_boundaries(payload)
                if 4097 in want:    # not too near the boundary before
                    break
        assert list(iter_boundaries(payload)) == want

    def test_fingerprint_wider_than_64_bits_is_refused(self):
        with pytest.raises(ValueError):
            split(b"x" * 100, avg_bits=65)
        with pytest.raises(ValueError):
            split(b"x" * 100, min_size=10, max_size=9)


class TestSkeletonHooks:
    @pytest.mark.parametrize("seed", range(15))
    def test_skeleton_round_trip(self, seed):
        recording = synthetic_recording(seed)
        skeleton = encode_skeleton(recording)
        decoded = decode_skeleton(
            skeleton, [d.data for d in recording.dumps])
        assert decoded.digest() == recording.digest()

    def test_payload_count_mismatch_is_structured(self):
        from repro.errors import SerializationError
        recording = synthetic_recording(1)
        skeleton = encode_skeleton(recording)
        with pytest.raises(SerializationError):
            decode_skeleton(skeleton, [])
        with pytest.raises(SerializationError):
            decode_skeleton(
                skeleton,
                [d.data for d in recording.dumps] + [b"extra"])

    def test_payload_size_mismatch_is_structured(self):
        from repro.errors import SerializationError
        recording = synthetic_recording(2)
        if not recording.dumps:
            recording = synthetic_recording(3)
        assert recording.dumps
        payloads = [d.data for d in recording.dumps]
        payloads[0] = payloads[0] + b"\x00"
        with pytest.raises(SerializationError):
            decode_skeleton(encode_skeleton(recording), payloads)


def _store_round_trip(tmp_path, recording: Recording) -> Recording:
    vault = Vault(str(tmp_path / "vault"))
    manifest = vault.pack(recording)
    return vault.fetch(manifest.digest)


class TestStoreRoundTripFuzz:
    """Satellite contract: random chunk-boundary sizes, empty dumps,
    single-byte dumps -- ``Recording.digest()`` survives them all."""

    @pytest.mark.parametrize("seed", range(25))
    def test_synthetic_recordings(self, tmp_path, seed):
        recording = synthetic_recording(seed)
        fetched = _store_round_trip(tmp_path, recording)
        assert fetched.digest() == recording.digest()
        assert fetched.to_bytes() == recording.to_bytes()

    @pytest.mark.parametrize("sizes", [
        (0,),                       # empty dump
        (1,),                       # single byte
        (0, 1, 0),                  # empties interleaved
        (CHUNK_MIN - 1,),           # below the chunker minimum
        (CHUNK_MIN,), (CHUNK_MAX,),
        (CHUNK_MAX + 1,),           # forces a max-size boundary
        (CHUNK_MAX * 3 + 7, 1, 0, CHUNK_MIN),
    ])
    def test_chunk_boundary_sizes(self, tmp_path, sizes):
        rng = random.Random(sum(sizes))
        dumps = [MemoryDump(0x10000 * (i + 1), rng.randbytes(n))
                 for i, n in enumerate(sizes)]
        recording = Recording(RecordingMeta(workload="edge"), [], dumps)
        fetched = _store_round_trip(tmp_path, recording)
        assert fetched.digest() == recording.digest()
        assert [d.data for d in fetched.dumps] == \
            [d.data for d in recording.dumps]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_dump_sizes(self, tmp_path, seed):
        rng = random.Random(9000 + seed)
        dumps = [MemoryDump((i + 1) << 20,
                            rng.randbytes(rng.randrange(0, 3 * CHUNK_MAX)))
                 for i in range(rng.randrange(1, 6))]
        recording = Recording(RecordingMeta(workload=f"fuzz{seed}"),
                              [], dumps)
        fetched = _store_round_trip(tmp_path, recording)
        assert fetched.digest() == recording.digest()
