"""Table 4: codebase comparison -- the stack vs GR's recorder/replayer.

The paper's point: the stack the app depends on shrinks from hundreds
of KSLoC + tens of MB to a few KSLoC / tens of KB. Our reproduction
measures the same structural claim over this repository: the replayer
component is a small fraction of the full-stack components it
replaces.
"""

from __future__ import annotations

from repro.analysis.codebase import (REPLAY_ENTRY, analyze_codebase,
                                     import_closure, measure_files)
from repro.bench.harness import ResultTable


def codebase_comparison() -> ResultTable:
    report = analyze_codebase()
    table = ResultTable(
        "Table 4: codebase comparison (measured over this repository)",
        ["component", "side", "files", "sloc", "bytes"])
    for row in report.table4_rows():
        table.add_row(**row)
    # Beside the hand-named replayer row, the measured one: what a
    # fresh interpreter imports of repro.core for the deployable (a
    # replay adds nothing to it: tests/analysis/test_closure.py).
    core = {m: f for m, f in
            import_closure(["-c", f"import {REPLAY_ENTRY}"]).items()
            if m.startswith("repro.core")}
    measured = measure_files("replayer-measured", core.values())
    table.add_row(component=measured.name, side="ours",
                  files=measured.files, sloc=measured.sloc,
                  bytes=measured.bytes_on_disk, modules=sorted(core))
    stack = report.stack_sloc()
    replayer = report.replayer_sloc()
    table.notes.append(
        f"stack={stack} SLoC vs replayer={replayer} SLoC "
        f"(ratio {stack / replayer:.1f}x; paper: ~500 KSLoC stack vs "
        "a few KSLoC replayer)")
    table.notes.append(
        f"replayer-measured: the {measured.files} repro.core modules in "
        f"the import closure of `python -m {REPLAY_ENTRY}`")
    return table
