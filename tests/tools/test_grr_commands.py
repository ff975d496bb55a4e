"""Every ``grr`` command registers, and usage errors go to stderr."""

import argparse
import os
import subprocess
import sys

import pytest

from repro.analysis.codebase import PACKAGE_ROOT
from repro.tools.grr import build_parser, main

#: Every command path ``grr`` has: a sub-parser may move between
#: modules, none may go missing or appear unlisted.
PATHS = ("info", "actions", "verify", "replay", "trace", "stats",
         "inspect", "surgery", "surgery slice", "surgery compose",
         "surgery ls", "store", "store pack", "store ls", "store fetch",
         "store verify", "store gc", "store reindex", "bench", "serve",
         "fleet", "profile", "counters", "dash", "top", "attribute",
         "slo", "doctor", "patch")


def _paths(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield " ".join(prefix + (name,))
                yield from _paths(child, prefix + (name,))


def test_the_parser_has_exactly_the_listed_paths():
    assert list(_paths(build_parser())) == list(PATHS)


@pytest.mark.parametrize("path", ("",) + PATHS)
def test_help_exits_zero(path, capsys):
    with pytest.raises(SystemExit) as stop:
        main(path.split() + ["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: grr {path}".rstrip())


@pytest.fixture(scope="module")
def recording_path(tmp_path_factory, mali_mnist_recorded):
    path = str(tmp_path_factory.mktemp("usage") / "mnist.grr")
    mali_mnist_recorded[0].recording.save(path)
    return path


@pytest.mark.parametrize("entry", ("grr", "repro.core.replay"))
def test_an_unknown_board_is_a_usage_error_on_stderr(entry,
                                                      recording_path):
    argv = ["replay"] * (entry == "grr") + [recording_path, "--board",
                                           "ps5"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    module = "repro.tools.grr" if entry == "grr" else entry
    proc = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: unknown board 'ps5'; known: ")
