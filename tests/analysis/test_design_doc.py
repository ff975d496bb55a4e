"""DESIGN.md describes the tree: every path and ``repro.`` name it
cites resolves, and every reference to one of its sections by name
from the code, the tests, README.md and EXPERIMENTS.md names a
heading or a bold label of it."""

import glob
import importlib
import os
import re

from repro.analysis.codebase import PACKAGE_ROOT

ROOT = os.path.dirname(os.path.dirname(PACKAGE_ROOT))
PATH = re.compile(r"\b(?:src|tests|benchmarks|docs)/[\w./-]*[\w/]")
NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
REFERENCE = re.compile(r'DESIGN\.md,? "([^"]+)"')


def _design() -> str:
    with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as handle:
        return handle.read()


def _resolves(name: str) -> bool:
    """``name`` is a module, or an attribute path under the longest
    importable module prefix of it."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


def _flat(text: str) -> str:
    """``text`` on one line: comment markers and runs of whitespace
    between lines become one space."""
    return re.sub(r"\s+", " ", re.sub(r"\n\s*#:?", " ", text))


def test_cited_paths_exist():
    paths = sorted(set(PATH.findall(_design())))
    assert len(paths) > 40
    assert [p for p in paths
            if not os.path.exists(os.path.join(ROOT, p.split("::")[0]))] \
        == []


def test_cited_names_resolve():
    names = sorted(set(NAME.findall(_design())))
    assert len(names) > 60
    assert [name for name in names if not _resolves(name)] == []


def test_references_name_a_section_or_label():
    text = _design()
    labels = {_flat(label).strip().rstrip(".:") for label in
              re.findall(r"^#+ (.+)$", text, re.M)
              + re.findall(r"\*\*(.+?)\*\*", text, re.S)}
    sources = glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                        recursive=True) \
        + glob.glob(os.path.join(ROOT, "tests", "**", "*.py"),
                    recursive=True) \
        + [os.path.join(ROOT, "README.md"),
           os.path.join(ROOT, "EXPERIMENTS.md")]
    references = set()
    for path in sources:
        with open(path, encoding="utf-8") as handle:
            for label in REFERENCE.findall(_flat(handle.read())):
                references.add((os.path.relpath(path, ROOT), label))
    assert len(references) > 5
    assert sorted((path, label) for path, label in references
                  if label not in labels) == []


#: DESIGN.md's length in lines; it may only ever be lowered (ROADMAP.md
#: aims at 800).
MAX_LINES = 969


def test_design_doc_does_not_grow():
    assert len(_design().splitlines()) <= MAX_LINES
