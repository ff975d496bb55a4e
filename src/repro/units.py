"""Time and size unit helpers used across the simulation.

All simulated time is integer nanoseconds on the virtual clock; all
simulated sizes are bytes. These constants keep call sites readable
(``clock.advance(5 * MS)``) without floating-point drift.
"""

from __future__ import annotations

# Time units (nanoseconds).
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# Size units (bytes).
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

#: Default histogram boundaries for durations (virtual nanoseconds).
LATENCY_BUCKETS_NS = (
    1 * US, 10 * US, 100 * US, 1 * MS, 10 * MS, 100 * MS, 1 * SEC,
    10 * SEC)

#: Default histogram boundaries for sizes (bytes).
SIZE_BUCKETS_BYTES = (
    4 * KIB, 64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB, 256 * MIB)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return value - (value % alignment)
