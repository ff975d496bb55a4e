"""CI smoke run: record MNIST, replay it, export + validate a timeline,
then force a divergence and assert the doctor localizes it.

Exercises the full observability path end to end::

    python -m repro.obs.smoke [artifact-dir]

1. bring up the Mali stack, record an MNIST inference;
2. ``grr trace`` the recording -> ``timeline.json`` (validated Chrome
   trace JSON, the artifact CI archives);
3. replay once more with obs enabled and assert the metrics snapshot
   carries nonzero replay counters;
4. ``grr stats --json`` for CLI coverage;
5. flip one dump byte, replay, and assert the doctor's
   DivergenceReport names the exact first diverging action (checked
   against a reference-interpreter ground-truth run); save the report;
6. ``grr trace`` the saved report -> the flight window as a Chrome
   trace.

``--forensics DIR`` instead dumps a post-failure forensics bundle
(flight ring, doctor report, metrics snapshot) into DIR -- the mode CI
jobs run on tier-1 or bench-guard failure so the artifacts explain
what went wrong.

Exit code 0 on success; any failure prints the reason and exits 1.
"""

from __future__ import annotations

import json
import os
import sys

#: Counters a successful MNIST replay must have incremented.
REQUIRED_NONZERO = ("replay.reg_writes", "replay.irq_waits",
                    "replay.upload_bytes", "replay.actions")


def _record_mnist(rec_path: str):
    from repro.bench.workloads import get_recorded

    recording = get_recorded("mali", "mnist")[0].recording
    recording.save(rec_path)
    return recording


def forensics_bundle(outdir: str) -> int:
    """Produce a post-failure forensics bundle in ``outdir``.

    Runs a deliberately corrupted replay so the bundle always contains
    a populated flight ring, a DivergenceReport and a metrics
    snapshot -- CI uploads the directory when a guarded job fails,
    giving the investigating human something better than a log tail.
    """
    from repro.core.replay import boot_replayer, seeded_inputs
    from repro.errors import ReplayError
    from repro.obs.doctor import (event_to_dict, flip_dump_byte,
                                  report_from_error)

    os.makedirs(outdir, exist_ok=True)
    recording = _record_mnist(os.path.join(outdir, "mnist.grr"))
    corrupted, _dump, _off = flip_dump_byte(recording)
    from repro.obs import enable_observability
    machine, replayer = boot_replayer(corrupted, None, 2026)
    enable_observability(machine)
    try:
        replayer.replay(inputs=seeded_inputs(corrupted, 2026),
                        max_attempts=1)
        print("FORENSICS: corrupted replay unexpectedly succeeded")
        return 1
    except ReplayError as error:
        report = report_from_error(machine, corrupted, error)
    report.save(os.path.join(outdir, "doctor-report.json"))
    with open(os.path.join(outdir, "flight-ring.json"), "w") as handle:
        json.dump([event_to_dict(event) for event in machine.flight.ring],
                  handle, indent=1)
    with open(os.path.join(outdir, "metrics.json"), "w") as handle:
        json.dump(machine.obs.snapshot(), handle, indent=1,
                  sort_keys=True)
    print(f"forensics bundle in {outdir}/: doctor-report.json, "
          f"flight-ring.json, metrics.json")
    return 0


def main(argv=None) -> int:
    from repro.core.recording import Recording
    from repro.core.replay import (boot_replayer, fresh_replay,
                                   seeded_inputs)
    from repro.errors import ReplayError
    from repro.obs import enable_observability, validate_chrome_trace
    from repro.obs.doctor import flip_dump_byte, run_doctor
    from repro.tools import grr

    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--forensics":
        return forensics_bundle(argv[1] if len(argv) > 1
                                else "forensics-artifacts")
    outdir = argv[0] if argv else "smoke-artifacts"
    os.makedirs(outdir, exist_ok=True)
    rec_path = os.path.join(outdir, "mnist.grr")
    timeline_path = os.path.join(outdir, "timeline.json")
    report_path = os.path.join(outdir, "doctor-report.json")
    flight_path = os.path.join(outdir, "flight-window.json")

    print("[1/6] recording mnist on the mali stack ...")
    _record_mnist(rec_path)

    print("[2/6] grr trace -> timeline.json ...")
    code = grr.main(["trace", rec_path, "--out", timeline_path])
    if code != 0:
        print(f"FAIL: grr trace exited {code}")
        return 1
    with open(timeline_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    errors = validate_chrome_trace(trace)
    if errors:
        print(f"FAIL: timeline.json invalid: {errors[:5]}")
        return 1

    print("[3/6] replay with obs on; checking metric snapshot ...")
    recording = Recording.load(rec_path)
    machine, replayer, _result = fresh_replay(
        recording, recording.meta.board, 2026,
        prepare=enable_observability)
    replayer.cleanup()
    counters = machine.obs.snapshot()["counters"]
    for name in REQUIRED_NONZERO:
        if counters.get(name, 0) <= 0:
            print(f"FAIL: counter {name} is zero after replay; "
                  f"snapshot: {counters}")
            return 1
    if machine.flight.seq <= 0:
        print("FAIL: flight recorder saw no events during replay")
        return 1

    print("[4/6] grr stats --json ...")
    code = grr.main(["stats", rec_path, "--json"])
    if code != 0:
        print(f"FAIL: grr stats exited {code}")
        return 1

    print("[5/6] corrupt one dump byte; doctor must localize it ...")
    corrupted, dump_index, offset = flip_dump_byte(recording)
    # Ground truth: where does the reference interpreter first fail?
    gt_machine, gt_replayer = boot_replayer(
        corrupted, recording.meta.board, 2026, fast_path=False)
    try:
        gt_replayer.replay(inputs=seeded_inputs(corrupted, 2026),
                           max_attempts=1)
        print("FAIL: corrupted recording replayed without error")
        return 1
    except ReplayError as error:
        truth_index = error.action_index
    report = run_doctor(corrupted, recording.meta.board, seed=2026)
    if report is None:
        print("FAIL: doctor found no divergence in a corrupted replay")
        return 1
    if report.action_index != truth_index:
        print(f"FAIL: doctor localized action #{report.action_index}, "
              f"first failure is #{truth_index} "
              f"(dump #{dump_index} byte {offset})")
        return 1
    if report.event_index < 0 or not report.flight_window:
        print("FAIL: report carries no flight window/event index")
        return 1
    report.save(report_path)
    with open(flight_path, "w") as handle:
        json.dump(report.flight_window, handle, indent=1)

    print("[6/6] grr trace on the saved doctor report ...")
    code = grr.main(["trace", report_path,
                     "--out", os.path.join(outdir, "flight-trace.json")])
    if code != 0:
        print(f"FAIL: grr trace on the report exited {code}")
        return 1

    print(f"SMOKE OK ({len(trace['traceEvents'])} trace events, doctor "
          f"localized action #{report.action_index}, artifacts in "
          f"{outdir}/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
