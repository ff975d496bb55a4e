"""Input/output address discovery by magic-value taint (Section 4.4).

The recorder cannot track where the blackbox runtime copies the app's
input (it bypasses the kernel), nor where the GPU code reads it from
(shaders are opaque). Instead, the record harness injects *magic*
input -- synthetic high-entropy data -- and searches GPU memory for it:

- inputs are searched in a snapshot taken at the *first job kick*,
  before any GPU job could duplicate the data;
- outputs are searched in live GPU memory after the run;
- ambiguity (multiple matches) is resolved by repeating the run with
  different magic values and intersecting the match sets.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import TaintError


def make_magic_input(shape: Tuple[int, ...], seed: int) -> np.ndarray:
    """High-entropy float32 input that is vanishingly unlikely to
    coincide with unrelated GPU memory contents."""
    rng = np.random.default_rng(0xC0FFEE ^ seed)
    return rng.uniform(-3.0, 3.0, size=shape).astype(np.float32)


def scan_regions(regions: Iterable[Tuple[int, bytes]],
                 pattern: bytes) -> List[int]:
    """Find every GPU VA where ``pattern`` occurs in the given regions.

    ``regions`` yields (base_va, contents). Matches are aligned to
    4 bytes of absolute VA (tensors are float32)."""
    if not pattern:
        raise TaintError("cannot scan for an empty pattern")
    matches: List[int] = []
    for base_va, contents in regions:
        start = 0
        while True:
            index = contents.find(pattern, start)
            if index < 0:
                break
            if (base_va + index) % 4 == 0:
                matches.append(base_va + index)
            start = index + 4
    return matches


def intersect_matches(match_sets: Sequence[List[int]]) -> List[int]:
    """Addresses present in every run's match set."""
    if not match_sets:
        return []
    common: Set[int] = set(match_sets[0])
    for matches in match_sets[1:]:
        common &= set(matches)
    return sorted(common)


def resolve_unique(match_sets: Sequence[List[int]], what: str) -> int:
    """The single address surviving intersection, or a TaintError."""
    common = intersect_matches(match_sets)
    if len(common) == 1:
        return common[0]
    if not common:
        raise TaintError(f"{what}: no GPU address matched the magic data")
    raise TaintError(
        f"{what}: {len(common)} candidate addresses remain after "
        f"{len(match_sets)} runs: {[hex(a) for a in common]}")
