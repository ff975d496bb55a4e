"""Table 4: codebase comparison, measured over this repository.

Paper shape: the replayer an app depends on is a small fraction of the
stack it replaces; the recorder is light driver instrumentation.
"""

from repro.analysis.codebase import COMPONENT_PATHS
from repro.bench.experiments import codebase_comparison


def test_tab04_codebase(experiment):
    table = experiment(codebase_comparison)
    sloc = {row["component"]: row["sloc"] for row in table.rows}
    stack = sloc["frameworks"] + sloc["runtimes"] + sloc["drivers"]
    # Replayer << stack (the paper's ratio is ~100x on real code; our
    # simulated stack is compact, so assert the direction + margin).
    margin = stack - 2 * sloc["replayer"]
    assert margin > 0, (
        f"stack {stack} SLoC vs 2 x replayer {sloc['replayer']} SLoC: "
        f"margin {margin}")
    # Recorder instrumentation is lighter than the driver it taps
    # ("no more than 1K SLoC per GPU family", §3.1).
    assert sloc["recorder"] < sloc["drivers"]
    sides = {row["component"]: row["side"] for row in table.rows}
    assert sides["replayer"] == "ours"
    assert sides["drivers"] == "original stack"
    # The measured row: what a default replay actually imports of
    # repro.core is still smaller than the stack it replaces, and the
    # hand-named row above counts nothing the closure does not hold.
    measured = table.row_for("component", "replayer-measured")
    assert stack > measured["sloc"], (
        f"stack {stack} SLoC vs measured replayer closure "
        f"{measured['sloc']} SLoC")
    for rel in COMPONENT_PATHS["replayer"]:
        module = "repro." + rel[:-len(".py")].replace("/", ".")
        assert module in measured["modules"], module
