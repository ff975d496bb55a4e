"""``BENCHMARK.json`` is the one list of workloads, metrics, units,
directions and bounds; everything in ``ledger/`` reads it from here."""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Units of values the program counts rather than times: they repeat
#: exactly for a seed, like virtual nanoseconds (``vns``).
EXACT_UNITS = ("count", "ratio", "bytes")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def clock_of(unit: str) -> str:
    """``virtual``, ``exact`` or ``host``, from a metric's unit."""
    if unit == "vns":
        return "virtual"
    return "exact" if unit in EXACT_UNITS else "host"
