"""Content-defined chunking of dump payloads.

Dumps dominate recording size (Section 7.3), and a fleet's recordings
of the same model family overlap heavily: a cross-SKU patched variant
(Section 6.4) rewrites only PTE entries, leaving weights and shader
blobs untouched. Splitting on *content* rather than fixed offsets
makes those shared runs land in identical chunks even when the
surrounding bytes shift, so the vault stores them once.

The splitter is a gear rolling hash (Xia et al.'s FastCDC family): a
256-entry random table indexed by the incoming byte, folded into a
shift-and-add fingerprint ``fp = (fp << 1) + GEAR[byte]`` that restarts
at zero with every chunk. A boundary falls wherever the low
``CHUNK_AVG_BITS`` bits of the fingerprint are all ones -- on random
data that happens once every ``2**CHUNK_AVG_BITS`` bytes --
constrained to ``[CHUNK_MIN, CHUNK_MAX]``. Everything is seeded and
deterministic: the same payload always splits into the same chunks on
every machine, which is what lets two vendors' vaults agree on chunk
digests.

That rule is evaluated for a whole buffer at once, not byte by byte.
Byte ``i-k`` enters the fingerprint at position ``i`` as
``GEAR[byte] << k``, so the low ``avg_bits`` bits depend on the last
``avg_bits`` bytes only: they are ``avg_bits`` shifted adds over a
gather of the gear table, in an integer just wide enough to hold them
(wrap-around discards exactly the bits the mask ignores). And because
no boundary may fall before ``min_size >= avg_bits`` bytes into a
chunk, the restart at the chunk's first byte has left those bits by
the time they are tested -- the windowed value *is* the scalar one
everywhere a boundary can be. Positions whose low bits are all ones
are sparse; the min/max rule then walks them with a bisect per chunk.
(With ``min_size < avg_bits`` the few positions nearer the chunk start
than the window is long are hashed from the chunk start instead.)
The buffer is processed in blocks of ``_BLOCK`` bytes that overlap by
the window, so the temporaries are a few hundred KiB whatever the dump
size -- an unblocked pass over a multi-MiB dump showed up as +18% peak
RSS on a cold start. ``tests/store/test_chunks_fuzz.py`` keeps the
per-byte loop as the reference model and holds this module to it.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from bisect import bisect_left
from typing import Iterator, List, Tuple

import numpy as np

from repro.soc import PAGE_SIZE

#: Chunk-size bounds. Dumps are page-granular (often one 4-KiB page),
#: so the window is small: boundaries every ~1 KiB on average keep
#: single-page dumps at 2-6 chunks -- fine-grained enough that a
#: patched PTE run dirties one chunk, not the whole page.
CHUNK_MIN = 256
CHUNK_AVG_BITS = 10
CHUNK_MAX = 4096

#: Version tag of the chunking scheme (table seed + parameters). Two
#: vaults can only share chunks when their schemes match, so the
#: manifest records it and the compatibility index filters on it.
CHUNK_SCHEME = f"gear-v1/{CHUNK_MIN}-{1 << CHUNK_AVG_BITS}-{CHUNK_MAX}"

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

#: Bytes fingerprinted per vectorised pass (plus the window overlap).
_BLOCK = 1 << 16


def _gear_table(seed: int = 0x9E3779B9) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 64) for _ in range(256)]


#: The shared gear table. Module-level so every splitter in the
#: process (and every process, given the fixed seed) agrees.
GEAR = _gear_table()

#: The table's low 16/32/64 bits: a fingerprint is computed in the
#: narrowest of these that holds ``avg_bits`` bits.
_GEAR_LOW = {bits: np.array(GEAR, dtype=np.uint64).astype(dtype)
             for bits, dtype in ((16, np.uint16), (32, np.uint32),
                                 (64, np.uint64))}


def _candidate_blocks(data, avg_bits: int
                      ) -> Iterator[Tuple[List[int], int]]:
    """Per block of ``data``, the ascending end offsets at which the
    low ``avg_bits`` fingerprint bits of the last ``avg_bits`` bytes
    are all ones, and the offset the block ends at.

    Blocks are ``_BLOCK`` bytes, but for a run of whole zero pages:
    there the window holds nothing but zeros once it is ``avg_bits``
    bytes in, so the fingerprint is one constant -- a candidate at
    every such offset or at none -- and only the run's first window
    is hashed."""
    gear = _GEAR_LOW[next(b for b in (16, 32, 64) if avg_bits <= b)]
    mask = gear.dtype.type((1 << avg_bits) - 1)
    width = max(avg_bits, 1)
    window = width - 1
    octets = np.frombuffer(data, dtype=np.uint8)
    scratch = np.empty(min(len(octets), _BLOCK) + window, dtype=gear.dtype)

    def ends(base: int, stop: int) -> List[int]:
        lead = min(base, window)
        fingerprint = _window_sum(np.take(gear, octets[base - lead:stop]),
                                  width, scratch)
        fingerprint &= mask
        found = np.flatnonzero(fingerprint[lead:] == mask)
        found += base + 1
        return found.tolist()

    zero_run = GEAR[0] * ((1 << width) - 1) & int(mask) == mask
    base = 0
    for zero_start, zero_stop in _zero_runs(octets) + [(len(octets),) * 2]:
        for base in range(base, zero_start, _BLOCK):
            stop = min(base + _BLOCK, zero_start)
            yield ends(base, stop), stop
        if zero_start < zero_stop:
            # Zeros before the run (but not the buffer's start) make
            # its first window constant too.
            head = zero_start if window <= zero_start and not \
                octets[zero_start - window:zero_start].any() else \
                min(zero_start + window, zero_stop)
            found = ends(zero_start, head) if head > zero_start else []
            if zero_run:
                found += range(head + 1, zero_stop + 1)
            yield found, zero_stop
        base = zero_stop


def _zero_runs(octets) -> List[Tuple[int, int]]:
    """``[start, stop)`` of each maximal run of whole all-zero pages."""
    pages = len(octets) // PAGE_SIZE
    words = octets[:pages * PAGE_SIZE].view(np.uint64).reshape(
        pages, PAGE_SIZE // 8)
    maybe = np.flatnonzero(words[:, 0] == 0)
    runs: List[Tuple[int, int]] = []
    for page in maybe[~words[maybe].any(axis=1)].tolist() if len(maybe) \
            else ():
        start = page * PAGE_SIZE
        if runs and runs[-1][1] == start:
            start = runs.pop()[0]
        runs.append((start, (page + 1) * PAGE_SIZE))
    return runs


def _window_sum(terms, width: int, scratch):
    """``out[i]``: the sum of ``terms[i - k] << k`` over ``0 <= k <
    width`` and ``k <= i``, in log steps: ``terms`` is doubled in place
    to the sum over ``span`` = 1, 2, 4, ... terms, and ``out`` takes a
    doubled sum, shifted past what it covers, for each bit of
    ``width`` (4 shift-adds, not 9, at ``width`` 10)."""
    size = len(terms)

    def shift_add(into, by):
        shifted = scratch[:max(size - by, 0)]
        np.left_shift(terms[:len(shifted)], by, out=shifted)
        into[by:] += shifted

    out, covered, span = None, 0, 1
    while True:
        if width & span:
            if out is None:
                out = terms.copy()
            else:
                shift_add(out, covered)
            covered += span
        span <<= 1
        if span > width:
            return out
        shift_add(terms, span >> 1)


def _early_boundary(data, start: int, stop: int, min_size: int,
                    mask: int) -> int:
    """The first boundary in ``[start + min_size, stop]`` under the
    fingerprint restarted at ``start``, or 0: the positions of a chunk
    the window does not cover yet (``min_size < avg_bits`` only)."""
    fingerprint = 0
    for index in range(start, stop):
        fingerprint = ((fingerprint << 1) + GEAR[data[index]]) & _MASK64
        if index + 1 - start >= min_size and fingerprint & mask == mask:
            return index + 1
    return 0


def iter_boundaries(data: bytes,
                    min_size: int = CHUNK_MIN,
                    avg_bits: int = CHUNK_AVG_BITS,
                    max_size: int = CHUNK_MAX) -> Iterator[int]:
    """Yield the end offset of each chunk in ``data``, in order.

    The final boundary is always ``len(data)``; empty input yields
    nothing.
    """
    if min_size <= 0 or max_size < min_size:
        raise ValueError(f"bad chunk bounds [{min_size}, {max_size}]")
    if not 0 <= avg_bits <= 64:
        raise ValueError(f"avg_bits {avg_bits} outside the 64-bit "
                         f"fingerprint")
    n = len(data)
    mask = (1 << avg_bits) - 1
    start = 0
    for ends, block_end in _candidate_blocks(data, avg_bits):
        cursor = 0
        while start < n:
            first = start + min_size
            last = min(start + max_size, n)
            end = 0
            if first < last and min_size < avg_bits:
                end = _early_boundary(
                    data, start, min(start + avg_bits - 1, last),
                    min_size, mask)
                first = start + avg_bits
            if not end and first < last:
                if first > block_end:
                    break
                cursor = bisect_left(ends, first, cursor)
                if cursor < len(ends) and ends[cursor] <= last:
                    end = ends[cursor]
                elif last > block_end:
                    break
            yield end or last
            start = end or last


def split(data: bytes,
          min_size: int = CHUNK_MIN,
          avg_bits: int = CHUNK_AVG_BITS,
          max_size: int = CHUNK_MAX) -> List[bytes]:
    """Split ``data`` into content-defined chunks.

    Invariant: ``b"".join(split(data)) == data`` for every input,
    including ``b""`` (which splits into no chunks) and inputs shorter
    than ``min_size`` (one chunk).
    """
    out: List[bytes] = []
    start = 0
    for end in iter_boundaries(data, min_size, avg_bits, max_size):
        out.append(data[start:end])
        start = end
    return out


def chunk_digest(piece: bytes) -> str:
    """Content address of one chunk (hex SHA-256 of its raw bytes)."""
    return hashlib.sha256(piece).hexdigest()


def chunk_ends(dump) -> array:
    """The end offset of each chunk of a
    :class:`~repro.core.dumps.MemoryDump`'s bytes: split once per dump
    object and memoized on it, as its ``digest`` and ``pages`` are (a
    cross-SKU patch shares its parent's dumps). Four bytes a chunk: a
    recording keeps it as long as it lives."""
    ends = dump.__dict__.get("chunk_ends")
    if ends is None:
        ends = dump.__dict__["chunk_ends"] = array(
            "I", iter_boundaries(memoryview(dump.data).cast("B")))
    return ends
