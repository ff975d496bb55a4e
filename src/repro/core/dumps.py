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
from typing import List

from repro.soc.memory import PageSource


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

    @cached_property
    def pages(self) -> PageSource:
        """What physical memory tags this dump's pages with (and its
        zero-page map): one per dump object, built on first upload."""
        return PageSource(self.data)

    def __getstate__(self) -> dict:
        # A copy tags pages of its own: these tags name this object.
        return {k: v for k, v in self.__dict__.items() if k != "pages"}


def zero_page_ratio(dumps: List[MemoryDump]) -> float:
    """Fraction of dumped pages that are all-zero (compressibility)."""
    zero = [z for dump in dumps for z in dump.pages.zero]
    return sum(zero) / len(zero) if zero else 0.0
