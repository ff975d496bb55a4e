"""``evaluation_report.txt`` is what ``python -m repro.bench.report``
prints on this tree, byte for byte: the published numbers are the
tree's, not an older tree's."""

import os
import subprocess
import sys

from repro.analysis.codebase import PACKAGE_ROOT

ROOT = os.path.dirname(os.path.dirname(PACKAGE_ROOT))
REGENERATE = ("PYTHONPATH=src python -m repro.bench.report "
              "> evaluation_report.txt")


def test_the_committed_report_is_this_trees_output():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    proc = subprocess.run([sys.executable, "-m", "repro.bench.report"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(os.path.join(ROOT, "evaluation_report.txt"),
              encoding="utf-8") as handle:
        committed = handle.read()
    assert proc.stdout == committed, (
        f"evaluation_report.txt is stale; regenerate it from the repo "
        f"root with: {REGENERATE}")
