"""Codebase accounting: the Table 4 comparison over this repository.

Counts source lines (non-blank, non-comment) of the components we
built, grouped the way Table 4 groups them: the original stack
(framework / runtime / driver) versus GR's recorder and replayer. The
point the table makes -- the replayer is orders of magnitude smaller
than the stack it replaces -- must hold for *our own tree* too, and
the codebase test suite asserts it. The replayer row is measured, not
listed: the ``repro.core`` modules a fresh interpreter imports for the
deployable.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import repro
from repro.errors import ReproError

#: The deployable whose measured import closure is Table 4's replayer
#: row (``python -m repro.core.replay``).
REPLAY_ENTRY = "repro.core.replay"
#: That row's name.
REPLAYER = "replayer-measured"

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Component -> package paths relative to the ``repro`` package.
COMPONENT_PATHS: Dict[str, List[str]] = {
    "frameworks": ["stack/framework"],
    "runtimes": ["stack/runtime"],
    "drivers": ["stack/driver"],
    "recorder": ["core/recorder.py", "core/taint.py", "core/harness.py"],
    "recording-format": ["core/recording.py", "core/encoder.py",
                         "core/actions.py", "core/dumps.py"],
    "gpu-hardware-model": ["gpu"],
    "soc-substrate": ["soc"],
    "environments": ["environments"],
}


@dataclass
class ComponentStats:
    name: str
    files: int = 0
    sloc: int = 0
    lines: int = 0
    bytes_on_disk: int = 0


@dataclass
class CodebaseReport:
    components: Dict[str, ComponentStats] = field(default_factory=dict)

    def sloc(self, name: str) -> int:
        return self.components[name].sloc

    def stack_sloc(self) -> int:
        return sum(self.sloc(n) for n in
                   ("frameworks", "runtimes", "drivers"))

    def replayer_sloc(self) -> int:
        return self.sloc(REPLAYER)

    def recorder_sloc(self) -> int:
        return self.sloc("recorder")

    def table4_rows(self) -> List[Dict[str, object]]:
        order = ["frameworks", "runtimes", "drivers", "recorder",
                 "recording-format", REPLAYER]
        return [
            {
                "component": name,
                "side": ("original stack" if name in
                         ("frameworks", "runtimes", "drivers")
                         else "ours"),
                "sloc": self.components[name].sloc,
                "files": self.components[name].files,
                "bytes": self.components[name].bytes_on_disk,
            }
            for name in order
        ]


def count_sloc(path: str) -> int:
    """Non-blank, non-comment source lines of one Python file."""
    sloc = 0
    in_docstring = False
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if in_docstring:
                if stripped.endswith('"""') or stripped.endswith("'''"):
                    in_docstring = False
                continue
            if not stripped or stripped.startswith("#"):
                continue
            if stripped.startswith('"""') or stripped.startswith("'''"):
                quote = stripped[:3]
                body = stripped[3:]
                if not (body.endswith(quote) and len(stripped) >= 6):
                    in_docstring = True
                continue
            sloc += 1
    return sloc


def _python_files(root: str) -> List[str]:
    if os.path.isfile(root):
        return [root] if root.endswith(".py") else []
    return glob.glob(os.path.join(root, "**", "*.py"), recursive=True)


def measure_files(name: str, paths: Iterable[str]) -> ComponentStats:
    stats = ComponentStats(name)
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        stats.files += 1
        stats.sloc += count_sloc(path)
        stats.lines += data.count(b"\n")
        stats.bytes_on_disk += len(data)
    return stats


def analyze_codebase() -> CodebaseReport:
    """Measure every component of this repository."""
    report = CodebaseReport()
    for component, rel_paths in COMPONENT_PATHS.items():
        report.components[component] = measure_files(component, (
            path for rel in rel_paths
            for path in _python_files(os.path.join(PACKAGE_ROOT, rel))))
    # What the deployable imports of repro.core (a replay adds nothing
    # to it: tests/analysis/test_closure.py).
    report.components[REPLAYER] = measure_files(REPLAYER, (
        path for module, path in
        import_closure(["-c", f"import {REPLAY_ENTRY}"]).items()
        if module.startswith("repro.core")))
    return report


def import_closure(argv: Sequence[str]) -> Dict[str, str]:
    """The ``repro`` modules (name -> file) a fresh interpreter imports
    while running ``python <argv>`` to completion, read off ``-X
    importtime``'s stderr: imports made at run time count, what this
    process has loaded does not. A ``-m`` module is added by name
    (runpy executes it without an import record)."""
    src = os.path.dirname(PACKAGE_ROOT)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], text=True,
        capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    log = proc.stderr.splitlines()
    if proc.returncode != 0:
        raise ReproError(f"python {' '.join(argv)} exited "
                         f"{proc.returncode}: {log[-5:]}")
    modules = {line.rpartition("|")[2].strip() for line in log
               if line.startswith("import time:")}
    modules.update(argv[1:2] if argv[0] == "-m" else ())
    closure = {}
    for module in sorted(m for m in modules if m.split(".")[0] == "repro"):
        base = os.path.join(src, *module.split("."))
        closure[module] = base + ".py" if os.path.isfile(base + ".py") \
            else os.path.join(base, "__init__.py")
    return closure
