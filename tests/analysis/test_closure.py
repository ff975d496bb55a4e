"""The import-closure budget: what each layer's entry point loads.

The replayer's import closure is the product (PAPER.md Table 4: a
50-KB replayer in place of a 45-KSLoC stack), so it is *measured*,
not listed: every row below runs its entry in a fresh interpreter
under ``python -X importtime`` (``repro.analysis.codebase
.import_closure``) and checks the ``repro`` modules that run imported
against forbidden package prefixes and pinned ceilings.

A ceiling is only ever re-pinned downwards. If this test fails
because a closure grew, the fix is to cut the import, not to raise
the number (DESIGN.md, "Layering").
"""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys

import pytest

from repro.analysis.codebase import (PACKAGE_ROOT, REPLAY_ENTRY,
                                     import_closure, measure_files)
from repro.bench.workloads import get_recorded

#: Everything above ``core`` plus the stack: a replayer deployment
#: (the entry, the TEE, baremetal) may load none of it.
ABOVE_CORE = ("stack", "obs", "serve", "store", "fleet", "surgery",
              "bench", "tools", "analysis")
SERVING = ("stack", "bench", "surgery", "environments", "tools",
           "analysis")
REPLAYS = (("mali", "mnist"), ("v3d", "mnist"), ("adreno", "mnist"),
           ("mali", "alexnet"))
#: The simulated GPU: the device models and what only they import.
#: ``create_gpu`` loads one family's at machine boot.
DEVICE = ("gpu.mali", "gpu.v3d", "gpu.adreno", "gpu.device",
          "gpu.shader_exec", "gpu.isa", "gpu.mmu")

#: entry -> (forbidden packages, module / line / byte ceilings; None
#: is unpinned). Module ceilings are exactly what this tree measures;
#: lines and bytes (1,748 / 61,865, 6,940 / 266,219 for mali and
#: 3,308 / 129,272 measured) carry at most about half a percent of
#: slack so that a bug fix does not trip them. All may only shrink.
#: An entry is an import statement's module or a ``(family, model)``
#: recording replayed by ``python -m repro.core.replay``.
BUDGET = {
    "repro.soc.machine": (
        ("gpu", "core", "environments") + ABOVE_CORE, 13, 1757, 62175),
    **{replay: (("environments",) + ABOVE_CORE, 32, 6975, 266500)
       for replay in REPLAYS},
    "repro.core.replayer": (
        DEVICE + ("soc.machine", "soc.memory") + ABOVE_CORE, 14, 3380,
        129500),
    "repro.store": (
        ("stack", "serve", "fleet", "surgery", "bench", "environments",
         "tools", "analysis"), 24, None, None),
    "repro.serve": (SERVING, 49, None, None),
    "repro.fleet": (SERVING, 55, None, None),
    "repro.environments.tee": (ABOVE_CORE, 26, None, None),
    "repro.environments.baremetal": (ABOVE_CORE, 26, None, None),
}

#: What a default replay never loads, each behind the caller that asks
#: for it (DESIGN.md "Layering", the call-time-import table).
ON_DEMAND = {"repro.core.interpreter", "repro.core.checkpoints",
             "repro.core.mega", "repro.gpu.shader_batch"}


@pytest.fixture(scope="session")
def recording_files(tmp_path_factory):
    """The replay rows' recordings, recorded in *this* process and
    handed over as files: only the subprocess is measured, so the
    stack that made them never enters the count."""
    root = tmp_path_factory.mktemp("closure")
    paths = {}
    for family, model in REPLAYS:
        paths[family, model] = str(root / f"{family}-{model}.grr")
        get_recorded(family, model)[0].recording.save(
            paths[family, model])
    return paths


def check_budget(argv, forbidden, max_modules, max_lines, max_bytes):
    """Problems (empty when within budget) with the closure of
    ``python <argv>``."""
    modules = import_closure(argv)
    stats = measure_files("closure", modules.values())
    problems = [
        f"{module} is imported (no repro.{package} allowed here)"
        for module in modules for package in forbidden
        if module.startswith(f"repro.{package}.")
        or module == f"repro.{package}"]
    for what, got, ceiling in (("modules", stats.files, max_modules),
                               ("lines", stats.lines, max_lines),
                               ("bytes", stats.bytes_on_disk, max_bytes)):
        if ceiling is not None and got > ceiling:
            problems.append(f"{got} {what} > ceiling {ceiling}")
    return problems


@pytest.mark.parametrize("entry", BUDGET, ids=lambda e: "/".join(e)
                         if isinstance(e, tuple) else e)
def test_closure_within_budget(entry, recording_files):
    argv = ["-c", f"import {entry}"] if isinstance(entry, str) \
        else ["-m", REPLAY_ENTRY, recording_files[entry]]
    assert check_budget(argv, *BUDGET[entry]) == []


def test_a_replay_imports_nothing_the_entry_did_not(recording_files):
    """Table 4's measured row reads the entry's import closure; it is
    the whole replayer only while a replay loads nothing late but the
    simulated GPU ``create_gpu`` mounts: the board's device model and
    the modules only it imports."""
    entry = import_closure(["-c", f"import {REPLAY_ENTRY}"])
    replay = import_closure(["-m", REPLAY_ENTRY,
                             recording_files["v3d", "mnist"]])
    assert set(entry) <= set(replay)
    assert sorted(set(replay) - set(entry)) == [
        f"repro.gpu.{name}" for name in ("counters", "device", "isa",
                                         "jobs", "mmu", "perf",
                                         "shader_exec", "v3d")]


#: Replay once by default, then once more with ``{option}`` (which
#: leaves its answer in ``got``); print what the second one loaded.
_OPTION_REPLAY = """
import sys
from repro.core.recording import Recording
from repro.core.replay import boot_replayer, seeded_inputs
recording = Recording.load(sys.argv[1])
inputs = seeded_inputs(recording, 7)
machine, replayer = boot_replayer(recording, None, 7)
want = replayer.replay(inputs=inputs).outputs
assert not {on_demand!r} & set(sys.modules)
before = set(sys.modules)
{option}
assert list(got) == list(want)
assert all(got[k].tobytes() == want[k].tobytes() for k in want)
print(*sorted(m for m in set(sys.modules) - before
              if m.startswith("repro.")))
"""

#: option -> (what runs it, the modules it may load and must).
OPTIONS = {
    "default": ("got = replayer.replay(inputs=inputs).outputs", []),
    "fast_path=False": (
        "other = boot_replayer(recording, None, 7, fast_path=False)[1]\n"
        "got = other.replay(inputs=inputs).outputs",
        ["repro.core.interpreter"]),
    "use_recorded_intervals": (
        "got = replayer.replay(inputs=inputs,"
        " use_recorded_intervals=True).outputs",
        ["repro.core.interpreter"]),
    "checkpoint_policy": (
        "from repro.core.checkpoints import CheckpointPolicy\n"
        "from repro.core.replayer import Replayer\n"
        "from repro.soc.machine import fresh_replay_machine\n"
        "other = Replayer(fresh_replay_machine('v3d', seed=7),"
        " checkpoint_policy=CheckpointPolicy(every_n_jobs=4))\n"
        "other.init()\n"
        "other.load(recording)\n"
        "got = other.replay(inputs=inputs).outputs\n"
        "assert other.checkpoints.taken_count > 0",
        ["repro.core.checkpoints", "repro.core.interpreter"]),
    "replay_mega": (
        "fused = replayer.replay_mega([inputs, inputs]).outputs\n"
        "assert fused[0]['output'].tobytes()"
        " == want['output'].tobytes()\n"
        "got = fused[1]",
        ["repro.core.mega", "repro.gpu.shader_batch"]),
}


@pytest.mark.parametrize("option", OPTIONS)
def test_an_option_loads_its_module_and_only_then(option,
                                                  recording_files):
    """The on-demand modules are absent after a default replay; the
    option that needs one loads exactly it and answers with the
    default replay's bytes."""
    code, loads = OPTIONS[option]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    proc = subprocess.run(
        [sys.executable, "-c",
         _OPTION_REPLAY.format(on_demand=ON_DEMAND, option=code),
         recording_files["v3d", "mnist"]],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == loads


def test_a_server_holds_its_rungs_at_import_time():
    """``repro.serve`` runs the reference rung and fuses batches, so it
    imports both with itself; it never takes a checkpoint."""
    assert ON_DEMAND & set(import_closure(["-c", "import repro.serve"])) \
        == ON_DEMAND - {"repro.core.checkpoints"}


def test_guard_bites_on_an_injected_import(tmp_path, monkeypatch):
    """The same checker, the ``soc.machine`` row, one forbidden import
    added by a package on ``PYTHONPATH``: it must fail and say why."""
    package = tmp_path / "injected"
    package.mkdir()
    (package / "__init__.py").write_text(
        "import repro.soc.machine\nimport repro.obs.metrics\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    problems = check_budget(["-c", "import injected"],
                            *BUDGET["repro.soc.machine"])
    assert any("repro.obs.metrics is imported" in p for p in problems)
    assert any("modules > ceiling" in p for p in problems)


#: After ``import repro.serve``, serve 60 requests (30% faulted, some
#: poisoned) from a store filled from files; print what it loaded.
_FAULTED_SERVE = """
import sys
import repro.serve as serve
from repro.core.recording import Recording
store = serve.RecordingStore()
mix = (("mali", "mnist"), ("v3d", "mnist"))
for (family, model), path in zip(mix, sys.argv[1:3]):
    store.add(family, model, Recording.load(path))
requests = serve.generate_requests(serve.LoadgenConfig(
    requests=60, seed=5, mix=mix, fault_rate=0.3))
assert any(r.fault and r.fault.kind == "poison" for r in requests)
before = set(sys.modules)
server = serve.ReplayServer(store, serve.ServerConfig(
    families=("mali", "v3d"), seed=9, **eval(sys.argv[3])))
report = server.serve(requests)
server.close()
assert report.counts()["degraded"] > 0
print(*sorted(m for m in set(sys.modules) - before
              if m.startswith("repro.")))
"""


def test_a_faulted_serve_imports_only_the_cpu_ground_truth(
        recording_files):
    """No module loads on the serving timeline except ``repro.stack``,
    the CPU reference behind the degrade rung (a call-time import by
    design, see ``RecordingStore.reference_outputs``) -- fused batches
    or not -- and the device models: ``create_gpu`` mounts one per
    family when the pool boots, and the stack's drivers import all."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    for config in ({}, {"mega_batch": True, "max_batch": 4}):
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTED_SERVE,
             recording_files["mali", "mnist"],
             recording_files["v3d", "mnist"], repr(config)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded = proc.stdout.split()
        assert "repro.stack.reference" in loaded
        assert [m for m in loaded if not m.startswith("repro.stack")] \
            == ["repro.gpu.adreno", "repro.gpu.mali", "repro.gpu.v3d"]


# -- the package-level graph ------------------------------------------------

#: Import-time edges may only point down this order.
LAYERS = ("soc", "gpu", "core", "obs", "store", "serve", "fleet")


def _source_files():
    return sorted(glob.glob(os.path.join(PACKAGE_ROOT, "**", "*.py"),
                            recursive=True))


def _import_time_targets(tree):
    """``repro.*`` modules imported by statements that run at import
    time: not inside a function, not under ``if TYPE_CHECKING``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or (isinstance(node, ast.If)
                    and "TYPE_CHECKING" in ast.dump(node.test)):
            continue
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_import_time_edges_only_point_down_the_layers():
    upward = []
    for path in _source_files():
        rel = os.path.relpath(path, PACKAGE_ROOT)
        package = rel.split(os.sep)[0]
        if package not in LAYERS:
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for target in _import_time_targets(tree):
            parts = target.split(".")
            if parts[0] == "repro" and len(parts) > 1 \
                    and parts[1] in LAYERS \
                    and LAYERS.index(parts[1]) > LAYERS.index(package):
                upward.append(f"{rel} imports {target}")
    assert upward == []


def _call_time_targets(tree):
    """``repro.*`` modules imported by statements inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Import):
                    yield from (alias.name for alias in inner.names)
                elif isinstance(inner, ast.ImportFrom) and inner.module:
                    yield inner.module


def _design_call_time_table():
    """The edges of DESIGN.md's call-time table, as (source, target)
    pairs: ``a, b -> c, d`` is four edges."""
    with open(os.path.join(os.path.dirname(os.path.dirname(PACKAGE_ROOT)),
                           "DESIGN.md"), encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("\n|", text.index("**Call-time edges"))
    rows = text[start:text.index("\n\n", start)].strip().splitlines()
    edges = set()
    for row in rows[2:]:
        sources, targets = row.split("|")[1].replace("`", "").split("->")
        edges.update((source.strip(), target.strip())
                     for source in sources.split(",")
                     for target in targets.split(","))
    return edges


def test_call_time_edges_are_the_design_table():
    """Every function-level ``repro.*`` import in a layer -- up,
    sideways, down to a module heavy enough to defer, or to a sibling
    loaded on demand -- is a row of DESIGN.md's call-time table, and
    every row is one. A cross-package edge is named by its source
    package, a sibling edge by its source module."""
    edges = set()
    for path in _source_files():
        rel = os.path.relpath(path, PACKAGE_ROOT)[:-len(".py")]
        module = rel.replace(os.sep, ".").replace(".__init__", "")
        package = module.split(".")[0]
        if package not in LAYERS:
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for target in _call_time_targets(tree):
            parts = target.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                edges.add((module if parts[1] == package else package,
                           ".".join(parts[1:])))
    assert edges == _design_call_time_table()


def test_only_bench_and_tools_import_bench():
    """The experiment harness sits on top: nothing below it records the
    zoo, at import time or at call time."""
    importers = []
    for path in _source_files():
        rel = os.path.relpath(path, PACKAGE_ROOT)
        if rel.split(os.sep)[0] in ("bench", "tools"):
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            importers.extend(f"{rel} imports {name}" for name in names
                             if name.split(".")[:2] == ["repro", "bench"])
    assert importers == []


#: Imports each module first in a process of its own: a fork (three
#: at a time) of an interpreter that holds numpy and nothing of
#: ``repro``, so as fresh as a new interpreter where it matters and
#: far cheaper than 140 start-ups. ``import a.b`` always begins by
#: importing ``a``, so once the fork for package ``a`` has passed,
#: whatever that import loaded below ``a`` needs no fork of its own:
#: importing it first would run the very same statements.
_IMPORT_EACH = """
import importlib, os, sys
import numpy
names, covered, failed = sys.argv[1:], set(), []
for depth in range(max(n.count(".") for n in names) + 1):
    pending = [n for n in names
               if n.count(".") == depth and n not in covered]
    running = {}
    while pending or running:
        while pending and len(running) < 3:
            name = pending.pop()
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    importlib.import_module(name)
                except BaseException as error:
                    print(f"{name}: {error!r}", flush=True)
                    os._exit(1)
                os.write(write_end, " ".join(
                    m for m in sys.modules
                    if m.startswith(name + ".")).encode())
                os._exit(0)
            os.close(write_end)
            running[pid] = name, read_end
        pid, status = os.wait()
        name, read_end = running.pop(pid)
        with os.fdopen(read_end) as pipe:
            covered.update(pipe.read().split())
        if status:
            failed.append(name)
print(len(names) - len(covered), "forked", file=sys.stderr)
sys.exit(1 if failed else 0)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_every_module_imports_on_its_own():
    """No module relies on another having been imported first -- the
    property two lazy ``__init__``s could have broken."""
    names = []
    for path in _source_files():
        rel = os.path.relpath(path, os.path.dirname(PACKAGE_ROOT))
        name = rel[:-len(".py")].replace(os.sep, ".")
        names.append(name[:-len(".__init__")]
                     if name.endswith(".__init__") else name)
    assert len(names) > 140
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(PACKAGE_ROOT))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_EACH, *names],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
