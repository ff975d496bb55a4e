"""Table 4: codebase comparison -- the stack vs GR's recorder/replayer.

The paper's point: the stack the app depends on shrinks from hundreds
of KSLoC + tens of MB to a few KSLoC / tens of KB. Our reproduction
measures the same structural claim over this repository: what the
deployable imports of ``repro.core`` against the full-stack components
it replaces.
"""

from __future__ import annotations

from repro.analysis.codebase import (REPLAY_ENTRY, REPLAYER,
                                     analyze_codebase)
from repro.bench.harness import ResultTable


def codebase_comparison() -> ResultTable:
    report = analyze_codebase()
    table = ResultTable(
        "Table 4: codebase comparison (measured over this repository)",
        ["component", "side", "files", "sloc", "bytes"])
    for row in report.table4_rows():
        table.add_row(**row)
    stack = report.stack_sloc()
    replayer = report.replayer_sloc()
    table.notes.append(
        f"stack={stack} SLoC vs replayer={replayer} SLoC "
        f"(ratio {stack / replayer:.2f}x; paper: ~500 KSLoC stack vs "
        "a few KSLoC replayer)")
    table.notes.append(
        f"{REPLAYER}: the {report.components[REPLAYER].files} "
        f"repro.core modules in the import closure of "
        f"`python -m {REPLAY_ENTRY}`")
    return table
