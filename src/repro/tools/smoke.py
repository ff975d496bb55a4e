"""One smoke runner: a table of end-to-end scenarios, one CI matrix job.

    python -m repro.tools.smoke NAME OUTDIR [--parent DIR]

Scenarios (``SCENARIOS``):

- ``replay``: record MNIST, ``grr trace`` it to a validated timeline,
  replay with obs on and check the replay counters, ``grr stats
  --json``, flip one dump byte and check the doctor names the first
  diverging action, then replay through the deployable under ``-X
  importtime`` and keep the import log;
- ``vault``: pack two families plus a cross-SKU patch into a vault,
  corrupt one chunk inside its pack and check ``store verify`` names
  it and the doctor localizes it, restore, gc the pack-rewrite path,
  then serve 50 requests out of the vault;
- ``surgery``: slice one kernel with the equivalence check, compose
  three job slices with the differential check, serve 50 synthetic
  requests, pack the lot and check job-level chunk sharing;
- ``serve`` / ``serve-mega``: 200 faulted requests on 3 workers
  (plain, and mega-batched), every answer checked against the CPU
  reference;
- ``fleet``: 300 Zipf-skewed faulted requests on 3 nodes;
- ``profile``: a mega-batched serve with every obs export on, the
  exports validated.

Every file a scenario writes lands in OUTDIR as it runs, so OUTDIR is
also the failure-forensics bundle (doctor reports, flight ring,
metrics snapshot, verify report, job analysis, plan, manifests).

``--parent DIR`` reruns the scenario's parent-compared commands --
``grr`` ones as ``python -m repro.tools.grr``, and the vault
scenario's ``VAULT_STATS`` program -- with ``DIR/src`` on
``PYTHONPATH`` (outputs under ``OUTDIR/parent/``; recordings they read
as version 1 copies, which every tree reads) and compares them with
this tree's: file bytes, or the digest of a ``.grr`` recording.
Both sides run in fresh processes. The comparison is skipped when
``git diff --name-only HEAD~1 HEAD`` names one of the scenario's
re-pin files: the commit declares that the outputs change.

Exit code 0 when every check holds; 1 names the check that did not.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import functools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: The directory holding this tree's ``repro`` package.
SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SEED = 2026

#: Counters a successful MNIST replay must have incremented.
REQUIRED_NONZERO = ("replay.reg_writes", "replay.irq_waits",
                    "replay.upload_bytes", "replay.actions")

#: The two-family zoo corpus the vault scenario packs and serves.
VAULT_MIX = (("mali", "mnist"), ("mali", "kws"), ("v3d", "mnist"))

SERVE_REPINS = ("BENCH_serve.json", "BENCH_fleet.json")

#: ``python -c`` program: a vault's storage accounting as JSON. It
#: reads only ``Vault.stats()``, so it runs on a parent tree as well.
VAULT_STATS = """import json, sys
from repro.store import Vault
stats = Vault.open(sys.argv[1]).stats()
print(json.dumps({key: getattr(stats, key) for key in (
    "recordings", "chunk_refs", "unique_chunks", "disk_bytes",
    "logical_bytes")}, indent=1))"""


class SmokeFailure(Exception):
    """A smoke check that did not hold."""


def check(condition, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def python(src: str, argv: Sequence[str], cwd=None, stdout=None,
           stderr=None) -> int:
    """``python ARGV`` in a fresh process on the tree whose package
    is under ``src``; ``stdout`` / ``stderr`` name files that catch
    those streams. Returns the exit code."""
    with contextlib.ExitStack() as stack:
        streams = [stack.enter_context(open(path, "w")) if path else None
                   for path in (stdout, stderr)]
        return subprocess.run(
            [sys.executable, *argv],
            env=dict(os.environ, PYTHONPATH=src), cwd=cwd,
            stdout=streams[0], stderr=streams[1]).returncode


@dataclass
class Run:
    """One scenario's output directory and the commands it lists for
    the parent comparison: ``(python argv, outputs, stdout)``."""

    out: str
    compared: List[Tuple[Tuple[str, ...], Tuple[str, ...],
                         Optional[str]]] = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def grr(self, *argv: str) -> None:
        """``grr ARGV`` in this process; it must exit 0."""
        from repro.tools import grr

        code = grr.main(list(argv))
        check(code == 0, f"grr {' '.join(argv)} exited {code}")

    def compared_grr(self, argv: Sequence[str], outputs: Sequence[str],
                     stdout: Optional[str] = None) -> None:
        """``grr ARGV`` in a fresh process; see :meth:`compared_python`."""
        self.compared_python(("-m", "repro.tools.grr", *argv), outputs,
                             stdout)

    def compared_python(self, argv: Sequence[str],
                        outputs: Sequence[str],
                        stdout: Optional[str] = None) -> None:
        """``python ARGV`` in a fresh process; it must exit 0, and
        ``--parent`` reruns it on the parent tree and compares
        ``outputs``. ``{dst}`` in ARGV is the directory the outputs go
        to; ``stdout`` names the output that catches standard out."""
        self.compared.append((tuple(argv), tuple(outputs), stdout))
        here = _at(argv, self.out)
        code = python(SRC, here, stdout=stdout and self.path(stdout))
        check(code == 0, f"python {' '.join(here)} exited {code}")


def _at(argv: Sequence[str], dst: str) -> List[str]:
    return [arg.replace("{dst}", dst) for arg in argv]


def _for_parent(argv: Sequence[str], dst: str) -> List[str]:
    """``argv`` on the parent tree, each recording this tree wrote and
    the command reads handed over as a version 1 copy under
    ``dst/inputs``: the logical body, uncompressed, which every tree
    reads (a tree from before a format change cannot read the new
    one)."""
    from repro.core.recording import Recording

    out = _at(argv, dst)
    for i, arg in enumerate(out):
        if arg.endswith(".grr") and os.path.isfile(arg) and \
                not arg.startswith(dst):
            out[i] = os.path.join(dst, "inputs", os.path.basename(arg))
            os.makedirs(os.path.dirname(out[i]), exist_ok=True)
            Recording.load(arg).save(out[i], compress=False)
    return out


def _same_output(mine: str, theirs: str) -> bool:
    """Byte-equal files; for a recording, equal digests."""
    if not mine.endswith(".grr"):
        return filecmp.cmp(mine, theirs, shallow=False)
    from repro.core.recording import Recording

    return Recording.load(mine).digest() == Recording.load(theirs).digest()


def flip_object_byte(vault, digest: str) -> str:
    """Invert the middle byte of one object's stored bytes, inside
    its pack; returns the pack's path. The one fault injector the
    vault scenario and the test suites share."""
    path, offset, length = vault.object_location(digest)
    with open(path, "r+b") as handle:
        handle.seek(offset + length // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return path


def _record(run: Run, name: str, family: str, model: str, *variant):
    """Record a zoo workload into ``OUTDIR/name``; (path, recording)."""
    from repro.bench.workloads import get_recorded

    workload, _stack = get_recorded(family, model, *variant)
    workload.recording.save(run.path(name))
    return run.path(name), workload.recording


def _dump_json(run: Run, name: str, value, **options) -> None:
    with open(run.path(name), "w") as handle:
        json.dump(value, handle, indent=1, **options)


def _serve_and_verify(run: Run, store, families, mix) -> dict:
    """Serve 50 seeded requests; every one must be answered cleanly
    and match the store's reference. Writes serve-summary.json."""
    from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                             generate_requests, verify_report)

    server = ReplayServer(store, ServerConfig(families=families,
                                              seed=SEED))
    report = server.serve(generate_requests(LoadgenConfig(
        mix=mix, requests=50, seed=SEED)))
    server.close()
    counts = report.counts()
    check(not (report.lost or counts["shed"] or counts["degraded"]),
          f"serve was not clean: {counts}, lost={report.lost}")
    mismatches = verify_report(report, store)
    check(not mismatches, f"{len(mismatches)} served outputs disagree "
          f"with the reference: {mismatches[:5]}")
    _dump_json(run, "serve-summary.json", report.summary(),
               sort_keys=True)
    return counts


def replay(run: Run) -> str:
    from repro.core.recording import Recording
    from repro.core.replay import (boot_replayer, fresh_replay,
                                   seeded_inputs)
    from repro.errors import ReplayError
    from repro.obs import enable_observability, validate_chrome_trace
    from repro.obs.chrome_trace import event_to_dict
    from repro.obs.doctor import flip_dump_byte, run_doctor

    print("recording mnist on the mali stack ...")
    rec_path, _recording = _record(run, "mnist.grr", "mali", "mnist")

    print("grr trace -> timeline.json ...")
    run.grr("trace", rec_path, "--out", run.path("timeline.json"))
    with open(run.path("timeline.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    errors = validate_chrome_trace(trace)
    check(not errors, f"timeline.json invalid: {errors[:5]}")

    print("replay with obs on: metrics.json, flight-ring.json ...")
    recording = Recording.load(rec_path)
    machine, replayer, _result = fresh_replay(
        recording, recording.meta.board, SEED,
        prepare=enable_observability)
    replayer.cleanup()
    snapshot = machine.obs.snapshot()
    _dump_json(run, "metrics.json", snapshot, sort_keys=True)
    _dump_json(run, "flight-ring.json",
               [event_to_dict(event) for event in machine.flight.ring])
    for name in REQUIRED_NONZERO:
        check(snapshot["counters"].get(name, 0) > 0,
              f"counter {name} is zero after replay; snapshot: "
              f"{snapshot['counters']}")
    check(machine.flight.seq > 0,
          "flight recorder saw no events during replay")

    print("grr stats --json -> stats.json ...")
    run.compared_grr(["stats", rec_path, "--json"], ["stats.json"],
                   stdout="stats.json")

    print("corrupt one dump byte; the doctor must localize it ...")
    corrupted, dump_index, offset = flip_dump_byte(recording)
    # Ground truth: where does the reference interpreter first fail?
    _machine, gt_replayer = boot_replayer(
        corrupted, recording.meta.board, SEED, fast_path=False)
    try:
        gt_replayer.replay(inputs=seeded_inputs(corrupted, SEED),
                           max_attempts=1)
        raise SmokeFailure("corrupted recording replayed without error")
    except ReplayError as error:
        truth_index = error.action_index
    report = run_doctor(corrupted, recording.meta.board, seed=SEED)
    check(report is not None,
          "doctor found no divergence in a corrupted replay")
    check(report.action_index == truth_index,
          f"doctor localized action #{report.action_index}, first "
          f"failure is #{truth_index} (dump #{dump_index} byte {offset})")
    check(report.event_index >= 0 and report.flight_window,
          "report carries no flight window/event index")
    report.save(run.path("doctor-report.json"))
    _dump_json(run, "flight-window.json", report.flight_window)

    print("grr trace on the saved doctor report ...")
    run.grr("trace", run.path("doctor-report.json"),
            "--out", run.path("flight-trace.json"))

    print("the deployable replays mnist.grr; import log ...")
    code = python(SRC, ["-X", "importtime", "-m", "repro.core.replay",
                        rec_path], stderr=run.path("replay-imports.log"))
    check(code == 0, f"python -m repro.core.replay exited {code}")
    return (f"{len(trace['traceEvents'])} trace events, doctor "
            f"localized action #{report.action_index}")


def _descriptor_chunk(vault, recording) -> str:
    """The chunk object holding the first job's descriptor chain."""
    from repro.obs.doctor import first_kick_chain_va

    manifest = vault.load_manifest(recording.digest())
    chain_va = first_kick_chain_va(recording)
    for va, size, chunk_list in manifest.dumps:
        if va <= chain_va < va + size:
            offset = chain_va - va
            acc = 0
            for digest, csize in chunk_list:
                if acc <= offset < acc + csize:
                    return digest
                acc += csize
    raise SmokeFailure("no chunk covers the first job chain")


def vault(run: Run) -> str:
    from repro.core.patching import patch_recording_for_sku
    from repro.serve import VaultRecordingStore
    from repro.store import Vault
    from repro.tools import grr

    vault_dir = run.path("vault")
    print("recording two families + a g71 patch; packing ...")
    paths, recordings = [], []
    for family, model in VAULT_MIX:
        path, recording = _record(run, f"{family}-{model}.grr",
                                  family, model)
        paths.append(path)
        recordings.append(recording)
    base_path, base = _record(run, "mali-mnist-g31.grr", "mali",
                              "mnist", True, "monolithic", "odroid-c4")
    patched, _report = patch_recording_for_sku(base, "g71")
    patched.save(run.path("mali-mnist-g71.grr"))
    paths += [base_path, run.path("mali-mnist-g71.grr")]
    recordings += [base, patched]
    run.compared_grr(["store", "pack", "{dst}/vault", *paths], ())

    print("dedup + pristine verify ...")
    vault = Vault(vault_dir)
    patched_stats = vault.recording_stats(patched.digest())
    check(patched_stats["shared_chunks"],
          f"g71 patch shares no chunks with its base: {patched_stats}")
    run.grr("store", "verify", vault_dir)
    run.compared_python(("-c", VAULT_STATS, "{dst}/vault"),
                        ["vault-stats.json"], stdout="vault-stats.json")

    print("corrupting a descriptor chunk on disk ...")
    victim = recordings[0]
    chunk = _descriptor_chunk(vault, victim)
    pack_path = vault.object_location(chunk)[0]
    pristine = run.path("pack.pristine")
    shutil.copy(pack_path, pristine)
    flip_object_byte(vault, chunk)
    code = grr.main(["store", "verify", vault_dir])
    check(code == 1, f"verify of corrupt vault exited {code}, want 1")
    problems = vault.verify(victim.digest())
    _dump_json(run, "verify-report.json", [
        {"recording": p.recording_digest, "chunk": p.chunk_digest,
         "dump": p.dump_index, "va": p.dump_va,
         "offset": p.dump_offset, "error": str(p)} for p in problems])
    check(problems and problems[0].chunk_digest == chunk,
          f"verify did not name the damaged chunk {chunk[:12]}: "
          f"{problems}")
    report = vault.diagnose(victim.digest())
    check(report is not None and report.action_index >= 0,
          "doctor did not localize the corrupt-chunk damage")
    report.save(run.path("doctor-report.json"))
    print(f"      verify flagged chunk {chunk[:12]}, doctor localized "
          f"action #{report.action_index}")

    print("restoring the pack; re-verify ...")
    shutil.move(pristine, pack_path)
    run.grr("store", "verify", vault_dir)

    print("removing the g31 base; gc rewrites its pack ...")
    base_pack = vault.object_location(
        vault.load_manifest(base.digest()).skeleton_digest)[0]
    kept = set(vault.load_manifest(patched.digest()).chunk_refs())
    check(any(vault.object_location(c)[0] == base_pack for c in kept),
          "the g71 patch keeps nothing of its base's pack alive -- the "
          "corpus no longer exercises pack rewrite")
    vault.remove(base.digest())
    run.grr("store", "gc", vault_dir)
    check(not os.path.exists(base_pack),
          "gc left the partially-live pack in place")
    run.grr("store", "verify", vault_dir)

    print("serving 50 requests out of the vault ...")
    counts = _serve_and_verify(
        run, VaultRecordingStore(vault, list(VAULT_MIX)),
        ("mali", "mali", "v3d"), list(VAULT_MIX))
    return (f"{counts['ok']} requests served from the vault, doctor "
            f"localized action #{report.action_index}")


def surgery(run: Run) -> str:
    from repro.store import Vault
    from repro.surgery import (SyntheticRecordingStore,
                               analyze_recording, generate_plan)

    family, model, plan_seed = "mali", "mnist", 7
    print(f"recording {family} {model}; surgery table ...")
    parent_path, parent = _record(run, f"{family}-{model}.grr",
                                  family, model)
    run.grr("surgery", "ls", parent_path)
    analysis = analyze_recording(parent)
    _dump_json(run, "jobs.json",
               [info.to_dict() for info in analysis.jobs])
    n_jobs = len(analysis.jobs)
    check(n_jobs >= 3, f"parent has only {n_jobs} jobs, need >= 3")
    mid = n_jobs // 2

    print(f"slicing kernel 0 of job {mid} with the equivalence check "
          f"...")
    run.compared_grr(["surgery", "slice", parent_path, "--job", str(mid),
                      "--kernel", "0", "--check",
                      "-o", "{dst}/kernel-slice.grr"],
                     ["kernel-slice.grr", "kernel-slice.grr.manifest.json"])

    print("slicing 3 jobs; composing an interleaved session with the "
          "differential check ...")
    jobs = (0, mid, n_jobs - 1)
    names = [f"job{job}.grr" for job in jobs]
    for job, name in zip(jobs, names):
        run.compared_grr(["surgery", "slice", parent_path, "--job",
                          str(job), "-o", f"{{dst}}/{name}"],
                         [name, f"{name}.manifest.json"])
    run.compared_grr(["surgery", "compose"]
                     + [f"{{dst}}/{name}" for name in names]
                     + ["--op", "interleave", "--rounds", "1", "--check",
                        "-o", "{dst}/composed.grr"],
                     ["composed.grr", "composed.grr.manifest.json"])

    print("serving 50 requests of seeded synthetic sessions ...")
    generate_plan(family, {model: n_jobs}, sessions=3,
                  seed=plan_seed).save(run.path("plan.json"))
    store = SyntheticRecordingStore()
    store.populate(family, {model: parent}, sessions=3, seed=plan_seed)
    counts = _serve_and_verify(run, store, (family, family), store.mix())

    print("packing parent + slices; job-level sharing ...")
    vault_dir = run.path("vault")
    run.grr("store", "pack", vault_dir, parent_path,
            run.path("composed.grr"), *map(run.path, names))
    sharing = Vault(vault_dir).job_sharing_stats()
    check(sharing["micro_recordings"] >= 4
          and sharing["shared_chunk_refs"],
          f"no job-level sharing visible: {sharing}")
    return (f"{counts['ok']} synthetic requests served, "
            f"{sharing['micro_recordings']} micro-recordings sharing "
            f"{sharing['dump_chunk_dedup']:.0%} of dump chunks")


def serve(flags: Tuple[str, ...], run: Run) -> str:
    run.compared_grr(["serve", "--requests", "200", "--workers", "3",
                      "--fault-rate", "0.15", "--seed", str(SEED), *flags,
                      "--trace-out", "{dst}/events.jsonl"],
                     ["events.jsonl"])
    run.grr("top", run.path("events.jsonl"), "--limit", "10")
    return "200 requests served and verified"


def fleet(run: Run) -> str:
    run.compared_grr(["fleet", "--nodes", "3", "--requests", "300",
                      "--fault-rate", "0.15", "--seed", str(SEED),
                      "--shape", "diurnal", "--popularity", "zipf",
                      "--trace-out", "{dst}/events.jsonl",
                      "--routing-out", "{dst}/routing.jsonl"],
                     ["events.jsonl", "routing.jsonl"])
    run.grr("top", run.path("events.jsonl"), "--limit", "10")
    return "300 requests served on 3 nodes and verified"


def profile(run: Run) -> str:
    from repro.obs.prof import validate_folded
    from repro.obs.timeseries import validate_openmetrics

    run.compared_grr(["serve", "--requests", "96", "--workers", "3",
                      "--max-batch", "4", "--seed", str(SEED), "--mega",
                      "--trace-out", "{dst}/events.jsonl",
                      "--trace-chrome", "{dst}/trace.json",
                      "--profile-out", "{dst}/prof.folded",
                      "--timeseries-out", "{dst}/ts.jsonl",
                      "--openmetrics", "{dst}/metrics.txt"],
                     ["events.jsonl", "trace.json", "prof.folded",
                      "ts.jsonl", "metrics.txt"])
    # grr profile also checks exclusive-time conservation.
    run.grr("profile", run.path("events.jsonl"), "--limit", "15")
    run.grr("dash", run.path("ts.jsonl"))
    with open(run.path("prof.folded")) as handle:
        folded = handle.read()
    with open(run.path("metrics.txt")) as handle:
        problems = validate_folded(folded) \
            + validate_openmetrics(handle.read())
    check(not problems, f"invalid exports: {problems[:5]}")
    check(folded.count("\n") > 5,
          f"prof.folded holds {folded.count(chr(10))} stacks, want > 5")
    return "every obs export valid"


@dataclass(frozen=True)
class Scenario:
    run: Callable[[Run], str]
    #: A commit that touches one of these declares that the
    #: parent-compared outputs change; the comparison is skipped.
    repins: Tuple[str, ...] = ()


SCENARIOS = {
    "replay": Scenario(replay, ("docs/METRICS.md",)),
    "vault": Scenario(vault),
    "surgery": Scenario(surgery, ("BENCH_surgery.json",)),
    "serve": Scenario(functools.partial(serve, ()), SERVE_REPINS),
    "serve-mega": Scenario(functools.partial(
        serve, ("--mega", "--max-batch", "8")), SERVE_REPINS),
    "fleet": Scenario(fleet, SERVE_REPINS),
    "profile": Scenario(profile, ("BENCH_serve.json", "BENCH_obs.json",
                                  "docs/METRICS.md")),
}


def changed_files() -> List[str]:
    """The files this checkout's commit changes."""
    done = subprocess.run(["git", "diff", "--name-only", "HEAD~1",
                           "HEAD"], cwd=os.path.dirname(SRC),
                          capture_output=True, text=True)
    check(done.returncode == 0,
          f"git diff HEAD~1 HEAD failed: {done.stderr.strip()}")
    return done.stdout.split()


def compare_with_parent(scenario: Scenario, run: Run, parent: str,
                        changed: Optional[Sequence[str]] = None) -> None:
    """Rerun ``run``'s parent-compared commands on the tree at
    ``parent``; every output must match this tree's."""
    if scenario.repins:
        changed = changed_files() if changed is None else changed
        repinned = sorted(set(scenario.repins) & set(changed))
        if repinned:
            print(f"parent check skipped: the commit touches "
                  f"{', '.join(repinned)}, a declared re-pin")
            return
    parent = os.path.abspath(parent)
    dst = run.path("parent")
    os.makedirs(dst, exist_ok=True)
    differ = []
    for argv, outputs, stdout in run.compared:
        theirs = _for_parent(argv, dst)
        code = python(os.path.join(parent, "src"), theirs, cwd=parent,
                      stdout=stdout and os.path.join(dst, stdout))
        check(code == 0, f"parent: python {' '.join(theirs)} "
              f"exited {code}")
        differ += [name for name in outputs if not _same_output(
            run.path(name), os.path.join(dst, name))]
    check(not differ, f"differs from the parent: {', '.join(differ)}")
    print(f"parent check: {sum(len(c[1]) for c in run.compared)} "
          f"output(s) equal to {parent}'s")


def smoke(name: str, outdir: str, parent: Optional[str] = None) -> int:
    """Run one scenario (then its parent comparison); exit code."""
    scenario = SCENARIOS[name]
    run = Run(os.path.abspath(outdir))
    os.makedirs(run.out, exist_ok=True)
    try:
        summary = scenario.run(run)
        if parent is not None:
            compare_with_parent(scenario, run, parent)
    except SmokeFailure as failure:
        print(f"FAIL {name}: {failure}")
        return 1
    print(f"SMOKE OK {name} ({summary}, outputs in {outdir}/)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.smoke",
        description="Run one end-to-end smoke scenario.")
    parser.add_argument("name", choices=sorted(SCENARIOS))
    parser.add_argument("outdir")
    parser.add_argument("--parent", metavar="DIR",
                        help="a checkout of the parent commit: rerun "
                        "the scenario's grr commands there and compare")
    args = parser.parse_args(argv)
    return smoke(args.name, args.outdir, args.parent)


if __name__ == "__main__":
    sys.exit(main())
