"""Memory dumps: captured GPU memory contents.

A dump is a contiguous run of page contents anchored at the GPU
virtual address it must be restored to. Dumps dominate recording size
(72% on average for Mali, Section 7.3), so the recorder works hard to
shrink them and the file format compresses them with zlib.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Tuple

from repro.soc.memory import PAGE_SIZE


@dataclass(frozen=True)
class MemoryDump:
    """One contiguous region of captured GPU memory.

    ``data`` is any C-contiguous read-only buffer: ``bytes`` from the
    recorder/file loader, or a read-only ``memoryview`` into a
    vault-fetched chunk buffer (the zero-copy fetch path). Everything
    downstream must treat it as an opaque buffer and never assume
    ``bytes`` methods beyond len / slicing / hashing. Equality
    compares content either way.
    """

    va: int
    data: bytes  # or a read-only memoryview (buffer protocol)

    @property
    def size(self) -> int:
        return len(self.data)

    def end_va(self) -> int:
        return self.va + len(self.data)

    @cached_property
    def digest(self) -> str:
        """Content hash of the dump bytes (hex SHA-256): a residency
        key, computed on demand (the nano driver asks when two dump
        objects meet at one address) and memoized. Not an integrity
        check -- those are the chunk addresses and the body digest at
        fetch, and ``verify_recording`` at load.
        """
        return hashlib.sha256(self.data).hexdigest()


def coalesce_pages(pages: Iterable[Tuple[int, bytes]]) -> List[MemoryDump]:
    """Merge per-page captures into contiguous dumps.

    ``pages`` yields (va, page_bytes) for individual pages; adjacent
    VAs are merged so a 40-page shader blob becomes one Upload action
    instead of 40.
    """
    ordered = sorted(pages, key=lambda p: p[0])
    out: List[MemoryDump] = []
    run_va = None
    run_parts: List[bytes] = []
    cursor = 0
    for va, data in ordered:
        if run_va is not None and va == cursor:
            run_parts.append(data)
            cursor += len(data)
            continue
        if run_va is not None:
            out.append(MemoryDump(run_va, b"".join(run_parts)))
        run_va = va
        run_parts = [data]
        cursor = va + len(data)
    if run_va is not None:
        out.append(MemoryDump(run_va, b"".join(run_parts)))
    return out


def zero_page_ratio(dumps: List[MemoryDump]) -> float:
    """Fraction of dumped pages that are all-zero (compressibility)."""
    total = 0
    zero = 0
    zero_page = b"\x00" * PAGE_SIZE
    for dump in dumps:
        for off in range(0, len(dump.data), PAGE_SIZE):
            page = dump.data[off:off + PAGE_SIZE]
            total += 1
            if page == zero_page[:len(page)]:
                zero += 1
    return zero / total if total else 0.0
