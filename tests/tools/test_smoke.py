"""The smoke runner (``python -m repro.tools.smoke``): every scenario
passes, the parent comparison passes on an equal tree, fails by name
on a changed one and is skipped on a declared re-pin, and CI's smoke
matrix stays equal to the scenario table."""

import os
import shutil
from pathlib import Path

import pytest
import yaml

from repro.tools.smoke import (SCENARIOS, SRC, Run, SmokeFailure,
                               compare_with_parent, main, smoke)

CI = Path(__file__).resolve().parents[2] / ".github" / "workflows" \
    / "ci.yml"

#: Files each scenario must leave behind, its forensics among them.
OUTPUTS = {
    "replay": ("mnist.grr", "timeline.json", "metrics.json",
               "flight-ring.json", "stats.json", "doctor-report.json",
               "flight-window.json", "flight-trace.json",
               "replay-imports.log"),
    "vault": ("vault-stats.json", "verify-report.json",
              "doctor-report.json", "serve-summary.json"),
    "surgery": ("jobs.json", "kernel-slice.grr.manifest.json",
                "composed.grr.manifest.json", "plan.json",
                "serve-summary.json"),
    "serve": ("events.jsonl",),
    "serve-mega": ("events.jsonl",),
    "fleet": ("events.jsonl", "routing.jsonl"),
    "profile": ("events.jsonl", "trace.json", "prof.folded", "ts.jsonl",
                "metrics.txt"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_passes(name, tmp_path, capsys):
    assert smoke(name, str(tmp_path)) == 0
    assert f"SMOKE OK {name}" in capsys.readouterr().out
    for output in OUTPUTS[name]:
        assert (tmp_path / output).stat().st_size > 0, output


def test_outputs_table_covers_every_scenario():
    assert set(OUTPUTS) == set(SCENARIOS)


def test_unknown_scenario_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exit_:
        main(["no-such-scenario", str(tmp_path)])
    assert exit_.value.code == 2


@pytest.fixture(scope="module")
def replay_run(tmp_path_factory):
    """One replay scenario, compared below against parent trees."""
    run = Run(str(tmp_path_factory.mktemp("replay")))
    SCENARIOS["replay"].run(run)
    return run


def _parent_tree(root: Path, edit=None) -> str:
    """A checkout-shaped copy of this tree's package: ROOT/src/repro."""
    shutil.copytree(os.path.join(SRC, "repro"), root / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        path = root / "src" / "repro" / edit[0]
        text = path.read_text()
        assert edit[1] in text
        path.write_text(text.replace(edit[1], edit[2]))
    return str(root)


def test_parent_check_passes_on_an_equal_tree(replay_run, tmp_path,
                                               capsys):
    compare_with_parent(SCENARIOS["replay"], replay_run,
                        _parent_tree(tmp_path), changed=[])
    assert "parent check: 1 output(s) equal" in capsys.readouterr().out


def test_parent_check_names_the_output_that_differs(replay_run,
                                                   tmp_path):
    parent = _parent_tree(tmp_path, ("obs/session.py",
                                     '"replay.actions"',
                                     '"replay.actions_run"'))
    with pytest.raises(SmokeFailure,
                       match="differs from the parent: stats.json$"):
        compare_with_parent(SCENARIOS["replay"], replay_run, parent,
                            changed=[])


def test_a_storage_change_fails_the_vault_parent_check(tmp_path):
    (tmp_path / "run").mkdir()
    run = Run(str(tmp_path / "run"))
    SCENARIOS["vault"].run(run)
    parent = _parent_tree(tmp_path / "tree", (
        "store/vault.py", "OBJECT_ZLIB_LEVEL = 6", "OBJECT_ZLIB_LEVEL = 1"))
    with pytest.raises(SmokeFailure,
                       match="differs from the parent: vault-stats.json$"):
        compare_with_parent(SCENARIOS["vault"], run, parent, changed=[])


def test_a_declared_repin_skips_the_parent_check(replay_run, capsys):
    # The parent tree does not exist: a skipped check never runs it.
    compare_with_parent(SCENARIOS["replay"], replay_run,
                        "/nonexistent-parent",
                        changed=["README.md", "docs/METRICS.md"])
    out = capsys.readouterr().out
    assert "parent check skipped" in out and "docs/METRICS.md" in out


# --- CI drift guard -----------------------------------------------------

def _jobs():
    with open(CI) as handle:
        return yaml.safe_load(handle)["jobs"]


def _steps_text(job) -> str:
    return "\n".join(str(step.get(key, "")) for step in job["steps"]
                     for key in ("name", "run"))


def test_ci_smoke_matrix_names_exactly_the_scenarios():
    matrix = _jobs()["smoke"]["strategy"]["matrix"]["scenario"]
    assert sorted(matrix) == sorted(SCENARIOS)
    assert len(matrix) == len(set(matrix))


def test_ci_jobs_that_need_the_parent_fetch_it():
    for name, job in _jobs().items():
        text = _steps_text(job)
        if "--parent" not in text and "git worktree add" not in text:
            continue
        depths = [step.get("with", {}).get("fetch-depth")
                  for step in job["steps"]
                  if str(step.get("uses", "")).startswith(
                      "actions/checkout")]
        assert depths == [2], (name, depths)


def test_ci_names_no_deleted_smoke_module():
    for name, job in _jobs().items():
        text = _steps_text(job)
        for module in ("repro.obs.smoke", "repro.store.smoke",
                       "repro.surgery.smoke"):
            assert module not in text, (name, module)
