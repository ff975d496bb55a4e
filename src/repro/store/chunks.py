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
from bisect import bisect_left
from typing import Iterator, List, Tuple

import numpy as np

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
    are all ones, and the offset the block ends at."""
    gear = _GEAR_LOW[next(b for b in (16, 32, 64) if avg_bits <= b)]
    mask = gear.dtype.type((1 << avg_bits) - 1)
    window = max(avg_bits - 1, 0)
    octets = np.frombuffer(data, dtype=np.uint8)
    scratch = np.empty(_BLOCK + window, dtype=gear.dtype)
    for base in range(0, len(octets), _BLOCK):
        lead = min(base, window)
        terms = gear[octets[base - lead:base + _BLOCK]]
        fingerprint = terms.copy()
        for k in range(1, min(avg_bits, len(terms))):
            shifted = scratch[:len(terms) - k]
            np.left_shift(terms[:-k], k, out=shifted)
            fingerprint[k:] += shifted
        fingerprint &= mask
        ends = np.flatnonzero(fingerprint[lead:] == mask)
        ends += base + 1
        yield ends.tolist(), min(base + _BLOCK, len(octets))


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
