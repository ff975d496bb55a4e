"""``grr`` -- inspect, verify and patch GPUReplay recording files.

Subcommands::

    grr info <file>                       summary + metadata + sizes
    grr actions <file> [--limit N]        the replay-action stream
    grr verify <file> --board BOARD       run the §5.1 static verifier
    grr patch <file> --target-sku SKU -o OUT   cross-SKU patch (§6.4)
    grr trace <file> [--out timeline.json]  replay + export a Perfetto-
                                          loadable Chrome trace timeline
    grr stats <file> [--json]             replay + print the metrics
                                          snapshot (counters/gauges/
                                          histograms)
    grr inspect <file> [--digest] [--dumps]  content addressing: the
                                          recording digest the load
                                          cache keys on, per-dump hashes
    grr inspect <file-or-digest> --store VAULT  chunk-level view inside
                                          a vault: chunk count, dedup
                                          ratio, chunks shared with
                                          other recordings
    grr inspect <file> --jobs             surgery analysis: per-job
                                          kernel chains, dump-closure
                                          sizes, VA footprints
    grr surgery slice <file> --job J [--kernel K] [-o OUT]
                                          extract one job (or one
                                          kernel of its chain) into a
                                          standalone micro-recording
                                          plus a .manifest.json sidecar
    grr surgery compose <slice...> --op repeat|reorder|interleave
                                          stitch micro-recordings into
                                          one synthetic session with
                                          per-instance VA rebasing
    grr surgery ls <file...>              per-job surgery table over
                                          recording files
    grr store pack <vault> <file...>      chunk + dedup recordings into
                                          a content-addressed vault
                                          (reports job-level sharing
                                          across micro-recordings)
    grr store ls <vault> [--family F]     the compatibility index
    grr store fetch <vault> <digest> -o OUT  verified reassembly
    grr store verify <vault> [digest] [--doctor]  scrub the integrity
                                          chain; --doctor localizes
                                          what each corruption breaks
    grr store gc <vault>                  delete unreferenced chunks
    grr bench [--suite fastpath|serve|store|obs|fleet|surgery]
              [--json] [--check PIN]      benchmark suites (no
                                          recording file needed)
    grr serve [--requests N] [--workers N] [--fault-rate P]
              [--synthetic K] [--trace-out events.jsonl]
              [--trace-chrome trace.json]
                                          run the concurrent replay
                                          serving engine on a seeded
                                          synthetic load (--synthetic
                                          serves K composed surgery
                                          sessions per family instead
                                          of the zoo models); verifies
                                          every answer against the CPU
                                          reference and can export the
                                          per-request trace event log
    grr top <events.jsonl> [--limit N]    post-hoc dashboard over a
                                          serve trace: slowest requests
                                          with per-stage breakdowns
    grr attribute <events.jsonl> [--p-lo 99]  tail-latency attribution:
                                          decompose a percentile band
                                          into exclusive per-stage time
    grr slo <events.jsonl> [--strict]     evaluate latency/availability
                                          objectives with burn-rate
                                          alerts over the event log
    grr stats --diff <a.json> <b.json>    structured comparison of two
                                          saved metrics snapshots
    grr profile <events.jsonl> [-o prof.folded] [--chrome flame.json]
                                          fold a serve trace into a
                                          flamegraph.pl-compatible
                                          profile (exclusive virtual
                                          time per frame stack)
    grr counters <file> [--json]          replay + print the emulated
                                          GPU performance-counter tape
                                          (instructions, FLOPs, bytes,
                                          TLB hits/misses, MMIO writes)
    grr dash <timeseries.jsonl> [--series NAME,...]
                                          terminal sparkline dashboard
                                          over a serve time-series log
    grr doctor <file> [--vs-reference]    diagnose a failing replay:
                                          localize the first diverging
                                          chokepoint, emit a
                                          DivergenceReport

Exit codes: 0 success, 1 replay/verification failure, 2 usage errors
(missing or corrupt recording file, unknown board).

Runs entirely offline on the recording file; ``verify`` builds the
target board's machine only to obtain its register map, and ``trace``/
``stats``/``replay`` build a fresh board and feed random inputs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import actions as act
from repro.core.patching import patch_recording_for_sku
from repro.core.recording import Recording
from repro.core.replay import (add_replay_arguments, fresh_replay,
                               resolve_board)
from repro.core.verifier import verify_recording
from repro.errors import (ReproError, SerializationError,
                          StoreLayoutError, StoreNotFoundError,
                          VerificationError)
from repro.soc import BOARDS, Machine
from repro.units import GIB, KIB, MIB, MS, SEC, US


def fmt_ns(ns: int) -> str:
    """Render a nanosecond duration as a human-readable string."""
    if ns >= SEC:
        return f"{ns / SEC:.3f} s"
    if ns >= MS:
        return f"{ns / MS:.3f} ms"
    if ns >= US:
        return f"{ns / US:.3f} us"
    return f"{ns} ns"


def fmt_bytes(n: int) -> str:
    """Render a byte count as a human-readable string."""
    if n >= GIB:
        return f"{n / GIB:.2f} GiB"
    if n >= MIB:
        return f"{n / MIB:.2f} MiB"
    if n >= KIB:
        return f"{n / KIB:.2f} KiB"
    return f"{n} B"


def _usage(message: str) -> int:
    """Say what is wrong with the command line; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _describe_action(action: act.Action) -> str:
    name = type(action).__name__
    if isinstance(action, act.RegWrite):
        detail = (f"{action.reg} <- {action.val:#x}"
                  + (" [KICK]" if action.is_job_kick else ""))
    elif isinstance(action, act.RegReadOnce):
        detail = f"{action.reg} == {action.val:#x}" \
            + (" (ignored)" if action.ignore else "")
    elif isinstance(action, act.RegReadWait):
        detail = (f"{action.reg} & {action.mask:#x} == {action.val:#x} "
                  f"within {fmt_ns(action.timeout_ns)}")
    elif isinstance(action, act.MapGpuMem):
        detail = f"va {action.addr:#x} x{action.num_pages} pages " \
            f"(pte flags {action.raw_pte_flags:#x})"
    elif isinstance(action, act.UnmapGpuMem):
        detail = f"va {action.addr:#x} x{action.num_pages} pages"
    elif isinstance(action, act.Upload):
        detail = f"dump #{action.dump_index} -> va {action.addr:#x}"
    elif isinstance(action, act.WaitIrq):
        detail = f"timeout {fmt_ns(action.timeout_ns)}"
    elif isinstance(action, act.SetGpuPgtable):
        detail = f"memattr {action.memattr:#x}"
    elif isinstance(action, (act.CopyToGpu, act.CopyFromGpu)):
        detail = f"{action.buffer_name} @ {action.gaddr:#x} " \
            f"({action.size} B)"
    else:
        detail = ""
    pace = f" +{fmt_ns(action.min_interval_ns)}" \
        if action.min_interval_ns else ""
    return f"{name:<14} {detail}{pace}"


def cmd_info(args) -> int:
    recording = Recording.load(args.file)
    meta = recording.meta
    print(f"recording: {args.file}")
    print(f"  workload:   {meta.workload} "
          f"({meta.framework} + {meta.api})")
    print(f"  recorded on: {meta.gpu_model} / {meta.board} "
          f"(page tables: {meta.pte_format}, memattr {meta.memattr:#x})")
    print(f"  jobs:       {meta.n_jobs}")
    print(f"  actions:    {len(recording.actions)} "
          f"(prologue {meta.prologue_len})")
    print(f"  reg I/O:    {meta.reg_io}")
    print(f"  dumps:      {len(recording.dumps)} "
          f"({fmt_bytes(recording.dump_bytes())})")
    print(f"  GPU memory: "
          f"{fmt_bytes(recording.peak_gpu_pages() * 4096)} peak")
    print(f"  size:       {fmt_bytes(recording.size_unzipped())} raw, "
          f"{fmt_bytes(recording.size_zipped())} zipped")
    for io in meta.inputs:
        kind = "optional input" if io.optional else "input"
        print(f"  {kind:>14}: {io.name} @ {io.gaddr:#x} "
              f"({io.size} B, shape {io.shape})")
    for io in meta.outputs:
        print(f"  {'output':>14}: {io.name} @ {io.gaddr:#x} "
              f"({io.size} B, shape {io.shape})")
    if meta.power_sequence:
        print(f"  firmware power sequence: "
              f"{len(meta.power_sequence)} calls (baremetal bring-up)")
    return 0


def cmd_actions(args) -> int:
    recording = Recording.load(args.file)
    actions = recording.actions[:args.limit] if args.limit else \
        recording.actions
    for index, action in enumerate(actions):
        job = f"j{action.job_index:<3}" if action.job_index else "    "
        print(f"{index:5d} {job} {_describe_action(action)}")
    remaining = len(recording.actions) - len(actions)
    if remaining > 0:
        print(f"... {remaining} more (raise --limit)")
    return 0


def cmd_verify(args) -> int:
    recording = Recording.load(args.file)
    board = resolve_board(args, recording)
    if board is None:
        return 2
    machine = Machine.create(board, seed=0)
    register_names = {d.name for d in machine.gpu.regs.defs()}
    max_bytes = args.max_gpu_mb * MIB if args.max_gpu_mb else None
    try:
        report = verify_recording(recording, register_names,
                                  max_gpu_bytes=max_bytes)
    except VerificationError as error:
        print(f"REJECTED: {error}")
        return 1
    print(f"OK: {report.actions} actions verified against "
          f"{machine.gpu.model_name}")
    print(f"  registers used: {len(report.registers_used)}")
    print(f"  peak GPU memory: {fmt_bytes(report.peak_mapped_bytes)}")
    for warning in report.warnings:
        print(f"  warning: {warning}")
    return 0


def cmd_replay(args) -> int:
    """Replay a recording on a fresh simulated board with random input."""
    recording = Recording.load(args.file)
    board = resolve_board(args, recording)
    if board is None:
        return 2
    machine, replayer, result = fresh_replay(recording, board, args.seed)
    print(f"replayed {recording.meta.workload} on "
          f"{machine.gpu.model_name}: {result.stats.jobs_kicked} jobs, "
          f"{result.stats.actions_executed} actions in "
          f"{fmt_ns(result.duration_ns)} virtual "
          f"(attempt {result.attempts})")
    for name, value in result.outputs.items():
        flat = value.reshape(-1)
        preview = ", ".join(f"{v:.4f}" for v in flat[:6])
        suffix = ", ..." if flat.size > 6 else ""
        print(f"  output {name} {tuple(value.shape)}: "
              f"[{preview}{suffix}]")
    replayer.cleanup()
    return 0


def _trace_from_report(args) -> Optional[int]:
    """If ``args.file`` is a saved DivergenceReport, export its flight
    window as a Chrome trace; None means it is not a report."""
    import json

    from repro.obs import validate_chrome_trace
    from repro.obs.doctor import DivergenceReport

    try:
        report = DivergenceReport.load(args.file)
    except (ReproError, OSError, UnicodeDecodeError,
            json.JSONDecodeError):
        return None
    trace = report.flight_chrome_trace()
    errors = validate_chrome_trace(trace)
    if errors:
        print(f"INVALID trace ({len(errors)} problems):")
        for problem in errors[:10]:
            print(f"  {problem}")
        return 1
    with open(args.out, "w") as handle:
        json.dump(trace, handle, indent=1)
    print(f"wrote {args.out}: flight window of a {report.kind} report "
          f"({len(report.flight_window)} events, divergence at action "
          f"#{report.action_index}); load it at "
          f"https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_trace(args) -> int:
    """Replay with observability on and export a Chrome trace JSON.

    Also accepts a saved ``grr doctor`` report, exporting its flight
    window instead of replaying."""
    from repro.obs import enable_observability, validate_chrome_trace

    try:
        recording = Recording.load(args.file)
    except SerializationError:
        handled = _trace_from_report(args)
        if handled is None:
            raise
        return handled
    board = resolve_board(args, recording)
    if board is None:
        return 2
    machine, replayer, result = fresh_replay(
        recording, board, args.seed, prepare=enable_observability)
    replayer.cleanup()
    trace = machine.obs.export_timeline(args.out)
    errors = validate_chrome_trace(trace)
    if errors:
        print(f"INVALID trace ({len(errors)} problems):")
        for problem in errors[:10]:
            print(f"  {problem}")
        return 1
    events = trace["traceEvents"]
    spans = sum(1 for e in events if e.get("ph") in ("B", "X"))
    print(f"wrote {args.out}: {len(events)} events ({spans} spans) "
          f"over {fmt_ns(result.duration_ns)} of replay; load it at "
          f"https://ui.perfetto.dev or chrome://tracing")
    return 0


def _print_snapshot(snapshot) -> None:
    for name in sorted(snapshot["counters"]):
        print(f"  {name:<36} {snapshot['counters'][name]}")
    for name in sorted(snapshot["gauges"]):
        print(f"  {name:<36} {snapshot['gauges'][name]}")
    for name in sorted(snapshot["histograms"]):
        hist = snapshot["histograms"][name]
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        quantiles = "".join(
            f" {q}={hist[q]:.0f}" for q in ("p50", "p95", "p99")
            if q in hist)
        print(f"  {name:<36} count={hist['count']} "
              f"sum={hist['sum']:.0f} mean={mean:.1f}{quantiles}")


def _print_snapshot_diff(diff) -> None:
    for kind in ("counters", "gauges"):
        section = diff[kind]
        for name in sorted(section["changed"]):
            change = section["changed"][name]
            # "delta" is absent when either side is non-numeric (a
            # hand-edited or cross-version snapshot); JSON-loaded
            # deltas may be floats, so never format with :+d.
            delta = f" (delta {change['delta']:+g})" \
                if "delta" in change else ""
            print(f"  {name:<36} {change['before']} -> "
                  f"{change['after']}{delta}")
        for name in sorted(section["added"]):
            print(f"  {name:<36} (new) {section['added'][name]}")
        for name in sorted(section["removed"]):
            print(f"  {name:<36} (gone, was "
                  f"{section['removed'][name]})")
    hists = diff["histograms"]
    for name in sorted(hists["changed"]):
        change = hists["changed"][name]
        if "count_delta" not in change:
            # Degraded entry: one side was not a histogram dict.
            print(f"  {name:<36} {change.get('before')} -> "
                  f"{change.get('after')}")
            continue
        shifts = "".join(
            f" {q} {change[q]['before']:.0f}->{change[q]['after']:.0f}"
            for q in ("p50", "p95", "p99") if q in change)
        print(f"  {name:<36} count {change['count_delta']:+g} "
              f"sum {change['sum_delta']:+g} "
              f"overflow {change['overflow_delta']:+g}{shifts}")
    for name in sorted(hists["added"]):
        print(f"  {name:<36} (new histogram)")
    for name in sorted(hists["removed"]):
        print(f"  {name:<36} (gone)")


def cmd_stats(args) -> int:
    """Replay with observability on and print the metrics snapshot.

    With ``--diff A B`` no replay happens: the two saved snapshot JSON
    files are compared structurally instead (what moved, what appeared,
    what vanished) -- the forensic half of the CI regression sentry.
    """
    import json

    if args.diff:
        from repro.obs.metrics import snapshot_diff

        with open(args.diff[0]) as handle:
            before = json.load(handle)
        with open(args.diff[1]) as handle:
            after = json.load(handle)
        diff = snapshot_diff(before, after)
        if args.json:
            print(json.dumps(diff, indent=1, sort_keys=True))
            return 0
        print(f"snapshot diff {args.diff[0]} -> {args.diff[1]}:")
        _print_snapshot_diff(diff)
        return 0
    if args.file is None:
        return _usage("a recording file is required unless --diff is "
                      "given")
    from repro.obs import enable_observability

    recording = Recording.load(args.file)
    board = resolve_board(args, recording)
    if board is None:
        return 2
    machine, replayer, result = fresh_replay(
        recording, board, args.seed, prepare=enable_observability)
    replayer.cleanup()
    snapshot = machine.obs.snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=1, sort_keys=True))
        return 0
    print(f"metrics after replaying {recording.meta.workload} "
          f"({fmt_ns(result.duration_ns)} virtual):")
    _print_snapshot(snapshot)
    return 0


def _inspect_store(args) -> int:
    """Chunk-level view of one recording inside a vault."""
    import os

    from repro.store import Vault

    vault = Vault.open(args.store)
    if os.path.exists(args.file):
        digest = Recording.load(args.file).digest()
        if digest not in vault:
            return _usage(f"{args.file} (digest {digest[:12]}) is not "
                          f"packed in {args.store}")
    else:
        digest = vault.resolve(args.file)
    stats = vault.recording_stats(digest)
    print(f"recording {digest[:12]} ({stats['workload']}) "
          f"in {args.store}:")
    print(f"  dump bytes:    {fmt_bytes(stats['dump_bytes'])}")
    print(f"  chunks:        {stats['chunks']} "
          f"({stats['unique_chunks']} distinct)")
    print(f"  shared chunks: {stats['shared_chunks']} "
          f"(dedup ratio {stats['dedup_ratio']:.1%})")
    for other, count in stats["shared_with"].items():
        entry = vault.index.entries.get(other)
        label = f" ({entry.workload} on {entry.board})" if entry else ""
        print(f"    {count:4d} shared with {other[:12]}{label}")
    return 0


def cmd_inspect(args) -> int:
    """Content-addressing view: recording digest, per-dump hashes."""
    if args.store:
        return _inspect_store(args)
    recording = Recording.load(args.file)
    if args.jobs:
        return _inspect_jobs(args.file, recording)
    if args.digest and not args.dumps:
        print(recording.digest())
        return 0
    print(f"recording: {args.file}")
    print(f"  digest: {recording.digest()}")
    print(f"  actions: {len(recording.actions)}  "
          f"dumps: {len(recording.dumps)} "
          f"({fmt_bytes(recording.dump_bytes())})")
    if args.dumps:
        for index, dump in enumerate(recording.dumps):
            print(f"  dump #{index:<3} va {dump.va:#010x} "
                  f"{fmt_bytes(dump.size):>10}  sha256 {dump.digest}")
    return 0


def _inspect_jobs(path: str, recording: Recording) -> int:
    """The surgery view: per-job kernel chains, closures, footprints."""
    from repro.surgery import analyze_recording

    analysis = analyze_recording(recording)
    meta = recording.meta
    print(f"recording: {path}")
    print(f"  workload {meta.workload}  family {meta.family}  "
          f"{meta.gpu_model} on {meta.board}  "
          f"jobs {len(analysis.jobs)}")
    for info in analysis.jobs:
        lo, hi = info.va_footprint
        print(f"  job {info.job_index:<3} kick @#{info.kick_index:<4} "
              f"kernels {len(info.kernels)}  "
              f"closure {fmt_bytes(info.closure_bytes):>9} "
              f"({len(info.closure)} ranges, "
              f"{fmt_bytes(info.dump_covered_bytes)} dump-covered)  "
              f"va {lo:#x}..{hi:#x}")
        for kernel in info.kernels:
            print(f"      kernel {kernel.index}: "
                  f"desc {kernel.desc_va:#x} "
                  f"shader {kernel.shader_va:#x}"
                  f"+{kernel.shader_size}  "
                  f"ops {'+'.join(kernel.ops)}")
    return 0


def cmd_store_pack(args) -> int:
    """Chunk + dedup recording files into a vault."""
    from repro.store import Vault

    vault = Vault(args.vault)
    for path in args.files:
        recording = Recording.load(path)
        manifest = vault.pack(recording)
        print(f"packed {path} -> {manifest.digest[:12]} "
              f"({recording.meta.workload} on {manifest.board}, "
              f"{len(manifest.chunk_refs())} chunks)")
    stats = vault.stats()
    print(f"vault {args.vault}: {stats.recordings} recordings, "
          f"{stats.unique_chunks} chunks for {stats.chunk_refs} refs "
          f"({stats.shared_chunk_ratio:.1%} shared), "
          f"{fmt_bytes(stats.disk_bytes)} on disk for "
          f"{fmt_bytes(stats.logical_bytes)} logical")
    job_stats = vault.job_sharing_stats()
    if job_stats["micro_recordings"]:
        print(f"  job-level sharing: {job_stats['micro_recordings']} "
              f"micro-recordings, "
              f"{job_stats['shared_chunk_refs']}/"
              f"{job_stats['chunk_refs']} dump-chunk refs shared "
              f"({job_stats['dump_chunk_dedup']:.1%} dedup)")
        for entry in job_stats["per_recording"]:
            siblings = ",".join(d[:12] for d in entry["shared_with"])
            line = (f"    {entry['digest'][:12]} "
                    f"{entry['workload']:<28} "
                    f"{entry['shared_chunks']}/{entry['chunks']} "
                    f"chunks shared")
            if siblings:
                line += f" (with {siblings})"
            print(line)
    return 0


def cmd_store_ls(args) -> int:
    """List the compatibility index."""
    from repro.store import Vault

    vault = Vault.open(args.vault)
    entries = vault.index.list(family=args.family)
    if not entries:
        print("(empty vault)" if args.family is None
              else f"(no {args.family} recordings)")
        return 0
    for entry in entries:
        clock = f"{entry.clock_hz / 1e6:.0f} MHz" if entry.clock_hz \
            else "?"
        print(f"{entry.digest[:12]}  {entry.family:<6} "
              f"{entry.workload:<12} {entry.gpu_model:<10} "
              f"{entry.board:<12} {clock:>8}  "
              f"{fmt_bytes(entry.body_bytes)}")
    return 0


def cmd_store_fetch(args) -> int:
    """Reassemble a recording out of the vault, verified by default."""
    from repro.store import Vault

    vault = Vault.open(args.vault)
    digest = vault.resolve(args.digest)
    recording = vault.fetch(digest, verify=not args.no_verify)
    recording.save(args.output)
    state = "unverified" if args.no_verify else "verified"
    print(f"fetched {digest[:12]} ({recording.meta.workload}) "
          f"-> {args.output} ({state})")
    return 0


def cmd_store_verify(args) -> int:
    """Scrub the integrity chain; exit 1 when anything is corrupt."""
    from repro.store import Vault

    vault = Vault.open(args.vault)
    digest = vault.resolve(args.digest) if args.digest else None
    problems = vault.verify(digest)
    checked = 1 if digest else len(vault.digests())
    if not problems:
        print(f"OK: {checked} recordings verified, integrity chain "
              f"intact")
        return 0
    print(f"CORRUPT: {len(problems)} of {checked} recordings damaged:")
    for error in problems:
        print(f"  {error}")
    if args.doctor:
        for error in problems:
            if not error.recording_digest:
                continue
            report = vault.diagnose(error.recording_digest,
                                    board=args.board)
            if report is None:
                print(f"  doctor: {error.recording_digest[:12]} still "
                      f"replays (damage not on any executed path)")
            else:
                print(f"  doctor: {error.recording_digest[:12]} "
                      f"diverges at action #{report.action_index}")
                print(report.render())
    return 1


def cmd_store_gc(args) -> int:
    """Delete chunks no manifest references."""
    from repro.store import Vault

    vault = Vault.open(args.vault)
    removed, freed = vault.gc()
    print(f"gc: removed {removed} unreferenced objects, "
          f"freed {fmt_bytes(freed)}")
    return 0


def cmd_store_reindex(args) -> int:
    """Rebuild every object index from the packs."""
    from repro.store import Vault

    vault = Vault.open(args.vault)
    vault.reindex()
    print(f"reindex: {len(vault.digests())} object indexes rebuilt")
    return 0


def cmd_surgery_slice(args) -> int:
    """Extract one job (or one kernel) into a micro-recording."""
    from repro.surgery import analyze_recording, slice_job, verify_slice
    from repro.surgery.analyze import ranges_bytes

    parent = Recording.load(args.file)
    analysis = analyze_recording(parent)
    slice_ = slice_job(parent, args.job, kernel_index=args.kernel,
                       input_seed=args.input_seed, board=args.board,
                       analysis=analysis)
    out = args.output
    if out is None:
        out = f"{args.file}.job{args.job}"
        if args.kernel is not None:
            out += f".k{args.kernel}"
        out += ".grr"
    slice_.recording.save(out)
    manifest_path = out + ".manifest.json"
    slice_.manifest.save(manifest_path)
    manifest = slice_.manifest
    what = f"job {manifest.job_index}"
    if manifest.kernel_index >= 0:
        what += f" kernel {manifest.kernel_index}"
    print(f"sliced {manifest.parent_workload} {what} -> {out}")
    print(f"  digest {manifest.slice_digest[:12]}  family "
          f"{manifest.family}  board {manifest.board}")
    closure = [tuple(r) for r in manifest.closure]
    print(f"  closure {fmt_bytes(ranges_bytes(closure))} over "
          f"{len(closure)} ranges; dumps "
          f"{fmt_bytes(slice_.recording.dump_bytes())} "
          f"(parent carries {fmt_bytes(parent.dump_bytes())})")
    print(f"  outputs {', '.join(o['name'] for o in manifest.outputs)}"
          f"  manifest -> {manifest_path}")
    if args.check:
        if verify_slice(parent, slice_, board=args.board,
                        analysis=analysis):
            print("  equivalence: slice write-set is byte-identical "
                  "to the parent's")
        else:
            print("error: slice write-set diverges from the parent "
                  "session", file=sys.stderr)
            return 1
    return 0


def _load_slice(path: str):
    """A slice file plus its required .manifest.json sidecar."""
    from repro.surgery import Slice, SliceManifest

    recording = Recording.load(path)
    manifest = SliceManifest.load(path + ".manifest.json")
    if manifest.slice_digest != recording.digest():
        raise VerificationError(
            f"{path}: manifest sidecar is for digest "
            f"{manifest.slice_digest[:12]}, file is "
            f"{recording.digest()[:12]}")
    return Slice(recording, manifest)


def cmd_surgery_compose(args) -> int:
    """Stitch micro-recordings into one synthetic session."""
    import numpy as np

    from repro.surgery import interleave, reorder, repeat

    slices = [_load_slice(path) for path in args.slices]
    if args.op == "repeat":
        if len(slices) != 1:
            return _usage("--op repeat takes exactly one slice")
        composed = repeat(slices[0], args.n)
    elif args.op == "reorder":
        composed = reorder(slices, args.order_seed)
    else:
        composed = interleave(slices, rounds=args.rounds)
    composed.recording.save(args.output)
    manifest_path = args.output + ".manifest.json"
    composed.manifest.save(manifest_path)
    manifest = composed.manifest
    print(f"composed {manifest.op}: {len(manifest.schedule)} jobs over "
          f"{len(manifest.instances)} instances -> {args.output}")
    print(f"  digest {manifest.composed_digest[:12]}  family "
          f"{manifest.family}  schedule {manifest.schedule}")
    for index, inst in enumerate(manifest.instances):
        print(f"  instance {index}: {inst['workload']} "
              f"[{str(inst['slice_digest'])[:12]}] at "
              f"delta {inst['delta']:#x}")
    print(f"  manifest -> {manifest_path}")
    if args.check:
        from repro.surgery import cpu_reference_outputs
        from repro.surgery.composer import replay_composed_outputs

        expected = manifest.expected_output_arrays()
        cpu = cpu_reference_outputs(composed.recording)
        gpu = replay_composed_outputs(composed, args.board)
        bad = [name for name, want in sorted(expected.items())
               if not (np.array_equal(
                   want.reshape(-1),
                   np.asarray(cpu[name], np.float32).reshape(-1))
                   and np.array_equal(
                       want.reshape(-1),
                       np.asarray(gpu[name], np.float32).reshape(-1)))]
        if bad:
            print(f"error: {len(bad)} outputs disagree across "
                  f"manifest/CPU/GPU: {bad[:10]}", file=sys.stderr)
            return 1
        print(f"  differential: all {len(expected)} outputs agree "
              f"(GPU replay == CPU reference == manifest)")
    return 0


def cmd_surgery_ls(args) -> int:
    """Per-job surgery table over recording files."""
    for path in args.files:
        _inspect_jobs(path, Recording.load(path))
    return 0


def cmd_bench(args) -> int:
    """Measure one pinned suite once: print its table (or, with
    ``--json``, exactly its pin) and check it against a pin file."""
    import json as json_mod

    from repro.bench.harness import SUITES, check, pin_of

    suite = SUITES.get(args.suite)
    if suite is None:
        return _usage(f"unknown suite {args.suite!r}; known: "
                      f"{', '.join(SUITES)}")
    measured = suite.measure()
    # --json keeps stdout the pin alone, so the table goes to stderr.
    print(suite.table(measured).render(),
          file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(json_mod.dumps(pin_of(measured), indent=2, sort_keys=True))
    if args.check:
        with open(args.check) as handle:
            differences = check(json_mod.load(handle), measured)
        for difference in differences:
            print(f"  {difference}", file=sys.stderr)
        if differences:
            print(f"error: {len(differences)} value(s) of the {args.suite} "
                  f"suite differ from {args.check}", file=sys.stderr)
            return 1
        print(f"{args.suite}: {args.check} holds exactly", file=sys.stderr)
    return 0


def _serving_store(args):
    """``(families, store)`` for ``grr serve`` / ``grr fleet`` from
    ``--families``, ``--models`` and ``--synthetic``; None (said why)
    on an unknown family."""
    from repro.serve import RecordingStore
    from repro.soc.boards import board_for_family

    families = tuple(f.strip() for f in args.families.split(",")
                     if f.strip())
    models = tuple(m.strip() for m in args.models.split(",")
                   if m.strip())
    for family in families:
        try:
            board_for_family(family)
        except ReproError:
            print(f"unknown family {family!r}", file=sys.stderr)
            return None
    if not args.synthetic:
        return families, RecordingStore.from_zoo(tuple(
            (family, model)
            for family in sorted(set(families)) for model in models))
    # The synthetic workload source: composed surgery sessions
    # drawn from a seeded plan, served exactly like zoo models.
    from repro.surgery import SyntheticRecordingStore

    store = SyntheticRecordingStore()
    for family in sorted(set(families)):
        store.populate_from_models(
            family, list(models), sessions=args.synthetic,
            seed=args.synthetic_seed)
    return families, store


def _verify_served(args, report, store) -> int:
    """Exit code after checking every answer against the CPU
    reference (skipped under ``--no-verify``)."""
    from repro.serve import verify_report

    if args.no_verify:
        return 0
    mismatches = verify_report(report, store)
    if mismatches:
        print(f"error: {len(mismatches)} outputs disagree with the "
              f"CPU reference:", file=sys.stderr)
        for mismatch in mismatches[:10]:
            print(f"  {mismatch}", file=sys.stderr)
        return 1
    counts = report.counts()
    print(f"  verified: all {counts['ok'] + counts['degraded']} answered "
          f"outputs match the CPU reference",
          file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_serve(args) -> int:
    """Run the serving engine against a seeded synthetic load."""
    import json as json_mod

    from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                             generate_requests)

    if args.no_trace and (args.trace_out or args.trace_chrome
                          or args.profile_out):
        return _usage("--trace-out/--trace-chrome/--profile-out "
                      "require tracing (drop --no-trace)")
    if args.no_timeseries and (args.timeseries_out or args.openmetrics):
        return _usage("--timeseries-out/--openmetrics require the "
                      "time-series collector (drop --no-timeseries)")
    served = _serving_store(args)
    if served is None:
        return 2
    families, store = served
    worker_families = tuple(families[i % len(families)]
                            for i in range(args.workers))
    load_cfg = LoadgenConfig(
        requests=args.requests, seed=args.seed, mix=tuple(store.mix()),
        fault_rate=args.fault_rate)
    requests = generate_requests(load_cfg)
    server = ReplayServer(store, ServerConfig(
        families=worker_families, seed=args.seed,
        queue_depth=args.queue_depth, max_batch=args.max_batch,
        mega_batch=args.mega, trace=not args.no_trace,
        timeseries=not args.no_timeseries,
        gpu_counters=not args.no_counters))
    # Stamp the load shape into the event log so a saved trace is
    # self-describing (no-op when tracing is off).
    server.rtrace.meta("loadgen", args=load_cfg.to_dict())
    report = server.serve(requests)
    server.close()

    aux = sys.stderr if args.json else sys.stdout
    if args.trace_out or args.trace_chrome or args.profile_out:
        from repro.obs.prof import chrome_flame, folded_stacks, \
            to_folded_text
        from repro.obs.rtrace import (events_to_chrome, events_to_jsonl,
                                      validate_events)

        events = report.trace_events
        problems = validate_events(
            events, expected_rids={r.rid for r in report.responses})
        for problem in problems[:5]:
            print(f"warning: trace incomplete: {problem}",
                  file=sys.stderr)
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                handle.write(events_to_jsonl(events))
            print(f"wrote {args.trace_out} ({len(events)} events, "
                  f"{len(report.responses)} request traces)", file=aux)
        if args.trace_chrome:
            trace_doc = events_to_chrome(events)
            # The continuous profile rides the same timeline document
            # as a flamegraph track (one slice per frame stack).
            trace_doc["traceEvents"].extend(
                chrome_flame(folded_stacks(events)))
            with open(args.trace_chrome, "w") as handle:
                json_mod.dump(trace_doc, handle,
                              indent=1, sort_keys=True)
            print(f"wrote {args.trace_chrome} (load in Perfetto / "
                  f"chrome://tracing)", file=aux)
        if args.profile_out:
            stacks = folded_stacks(events)
            with open(args.profile_out, "w") as handle:
                handle.write(to_folded_text(stacks))
            print(f"wrote {args.profile_out} ({len(stacks)} frame "
                  f"stacks; render with flamegraph.pl or `grr "
                  f"profile`)", file=aux)
    if args.timeseries_out or args.openmetrics:
        if args.timeseries_out:
            with open(args.timeseries_out, "w") as handle:
                handle.write(report.timeseries.to_jsonl())
            print(f"wrote {args.timeseries_out} "
                  f"({len(report.timeseries.series)} series; feed to "
                  f"`grr dash`)", file=aux)
        if args.openmetrics:
            with open(args.openmetrics, "w") as handle:
                handle.write(report.timeseries.to_openmetrics())
            print(f"wrote {args.openmetrics} (OpenMetrics text "
                  f"exposition)", file=aux)

    counts = report.counts()
    counters = report.snapshot["counters"]
    percentiles = report.latency_percentiles()
    if args.json:
        summary = report.summary()
        summary["percentiles"] = percentiles
        print(json_mod.dumps(summary, indent=1, sort_keys=True))
    else:
        print(f"served {report.submitted} requests on "
              f"{args.workers} workers ({', '.join(worker_families)}) "
              f"in {fmt_ns(report.makespan_ns)} virtual")
        print(f"  ok {counts['ok']}  degraded {counts['degraded']}  "
              f"shed {counts['shed']}  lost {len(report.lost)}")
        print(f"  retries {counters.get('serve.retries', 0)}  "
              f"worker failures "
              f"{counters.get('serve.worker_failures', 0)}  "
              f"cpu fallbacks "
              f"{counters.get('serve.cpu_fallbacks', 0)}")
        if args.mega:
            print(f"  mega batches "
                  f"{counters.get('serve.mega.batches', 0)} "
                  f"({counters.get('serve.mega.requests', 0)} fused "
                  f"requests, "
                  f"{counters.get('serve.mega.fallbacks', 0)} "
                  f"fallbacks)")
        print(f"  latency p50 {fmt_ns(int(percentiles['p50']))}  "
              f"p95 {fmt_ns(int(percentiles['p95']))}  "
              f"p99 {fmt_ns(int(percentiles['p99']))}")
        print(f"  throughput {report.throughput_rps():.1f} requests/s "
              f"(virtual)")
        totals = report.gpu_counters.get("totals", {})
        if totals.get("kernels"):
            print(f"  gpu counters: {totals.get('kernels', 0):.0f} "
                  f"kernels, {totals.get('instructions', 0):.0f} "
                  f"instructions, {totals.get('flops', 0):.3g} flops, "
                  f"{totals.get('mmio_writes', 0):.0f} mmio writes, "
                  f"tlb {totals.get('tlb_hits', 0):.0f}/"
                  f"{totals.get('tlb_misses', 0):.0f} hit/miss")
    if report.lost:
        print(f"error: {len(report.lost)} requests lost: "
              f"{report.lost[:10]}", file=sys.stderr)
        return 1
    return _verify_served(args, report, store)


def cmd_fleet(args) -> int:
    """Serve a seeded synthetic load on a simulated multi-node fleet."""
    import json as json_mod

    from repro.fleet import Fleet, FleetConfig
    from repro.serve import LoadgenConfig, generate_requests

    if args.no_trace and args.trace_out:
        return _usage("--trace-out requires tracing (drop --no-trace)")
    served = _serving_store(args)
    if served is None:
        return 2
    families, store = served
    quotas = []
    for spec in args.quota or ():
        tenant, _, cap = spec.partition("=")
        if not tenant or not cap.isdigit():
            return _usage(f"--quota wants TENANT=N, got {spec!r}")
        quotas.append((tenant, int(cap)))
    load_cfg = LoadgenConfig(
        requests=args.requests, seed=args.seed, mix=tuple(store.mix()),
        fault_rate=args.fault_rate, shape=args.shape,
        popularity=args.popularity,
        tenants=tuple(t.strip() for t in args.tenants.split(",")
                      if t.strip()) if args.tenants else ())
    requests = generate_requests(load_cfg)
    fleet = Fleet(store, FleetConfig(
        nodes=args.nodes, node_families=families, seed=args.seed,
        queue_depth=args.queue_depth, max_batch=args.max_batch,
        workers_max=args.max_workers, trace=not args.no_trace,
        quotas=tuple(quotas)))
    fleet.rtrace.meta("loadgen", args=load_cfg.to_dict())
    report = fleet.serve(requests)
    fleet.close()

    aux = sys.stderr if args.json else sys.stdout
    if args.routing_out:
        with open(args.routing_out, "w") as handle:
            for decision in report.routing:
                handle.write(json_mod.dumps(decision, sort_keys=True))
                handle.write("\n")
        print(f"wrote {args.routing_out} ({len(report.routing)} "
              f"routing decisions)", file=aux)
    if args.trace_out:
        from repro.obs.rtrace import events_to_jsonl

        with open(args.trace_out, "w") as handle:
            handle.write(events_to_jsonl(report.trace_events))
        print(f"wrote {args.trace_out} "
              f"({len(report.trace_events)} events across "
              f"{args.nodes} nodes)", file=aux)

    counts = report.counts()
    counters = report.snapshot["counters"]
    gauges = report.snapshot["gauges"]
    percentiles = report.latency_percentiles()
    if args.json:
        summary = report.summary()
        summary["percentiles"] = percentiles
        print(json_mod.dumps(summary, indent=1, sort_keys=True))
    else:
        print(f"served {report.submitted} requests on {args.nodes} "
              f"nodes ({', '.join(families)} per node) in "
              f"{fmt_ns(report.makespan_ns)} virtual")
        print(f"  ok {counts['ok']}  degraded {counts['degraded']}  "
              f"shed {counts['shed']}  lost {len(report.lost)}  "
              f"duplicates {len(report.duplicates)}")
        print(f"  routing: affinity "
              f"{counters.get('fleet.router.affinity_hits', 0)}  "
              f"p2c {counters.get('fleet.router.p2c_picks', 0)}  "
              f"spills "
              f"{counters.get('fleet.router.overload_spills', 0)}")
        print(f"  autoscale: up "
              f"{counters.get('fleet.autoscale.up', 0)}  down "
              f"{counters.get('fleet.autoscale.down', 0)}  peak "
              f"workers {gauges.get('fleet.workers.peak', 0):.0f}")
        if counters.get("fleet.replication.peer_fetches"):
            print(f"  replication: peer fetches "
                  f"{counters.get('fleet.replication.peer_fetches', 0)}"
                  f"  corrupt chunks "
                  f"{counters.get('fleet.replication.corrupt_chunks', 0)}")
        print(f"  latency p50 {fmt_ns(int(percentiles['p50']))}  "
              f"p95 {fmt_ns(int(percentiles['p95']))}  "
              f"p99 {fmt_ns(int(percentiles['p99']))}")
        print(f"  throughput {report.throughput_rps():.1f} requests/s "
              f"(virtual)")
    failed = False
    if report.lost:
        print(f"error: {len(report.lost)} requests lost: "
              f"{report.lost[:10]}", file=sys.stderr)
        failed = True
    if report.duplicates:
        print(f"error: {len(report.duplicates)} requests answered "
              f"more than once: {report.duplicates[:10]}",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    return _verify_served(args, report, store)


def _read_events(path: str):
    """Load a trace event log, or None (+ message) if unreadable."""
    from repro.obs.rtrace import load_events

    try:
        return load_events(path)
    except ValueError as error:
        print(f"error: {path} is not a trace event log: {error}",
              file=sys.stderr)
        return None


def cmd_top(args) -> int:
    """Post-hoc dashboard over a serve trace: slowest requests first."""
    from repro.obs.metrics import percentile
    from repro.obs.rtrace import span_trees, validate_events

    events = _read_events(args.file)
    if events is None:
        return 2
    problems = validate_events(events)
    for problem in problems[:5]:
        print(f"warning: {problem}", file=sys.stderr)
    roots = span_trees(events)
    if not roots:
        print("(no request traces in log)")
        return 0

    rows = []
    for rid in sorted(roots):
        root = roots[rid]
        status = str(root.args.get("status", "?"))
        stages = {}
        for node in root.walk():
            stages[node.name] = stages.get(node.name, 0) \
                + node.exclusive_ns
        rows.append((rid, status, root.duration_ns, stages))

    answered = [lat for _, status, lat, _ in rows if status != "shed"]
    counts: dict = {}
    for _, status, _, _ in rows:
        counts[status] = counts.get(status, 0) + 1

    summary = "  ".join(f"{status} {counts[status]}"
                        for status in sorted(counts))
    print(f"{len(rows)} request(s): {summary}")
    if answered:
        print("answered latency " + "  ".join(
            f"p{q} {fmt_ns(percentile(answered, q))}"
            for q in (50, 95, 99)))
    print(f"{'rid':>5} {'status':<9} {'latency':>12}  breakdown "
          "(exclusive virtual time)")
    rows.sort(key=lambda row: (-row[2], row[0]))
    for rid, status, latency, stages in rows[:args.limit]:
        parts = sorted(stages.items(), key=lambda kv: (-kv[1], kv[0]))
        breakdown = "  ".join(
            f"{name} {fmt_ns(ns)}" for name, ns in parts[:4] if ns)
        print(f"{rid:>5} {status:<9} {fmt_ns(latency):>12}  "
              f"{breakdown or '-'}")
    if len(rows) > args.limit:
        print(f"  ... {len(rows) - args.limit} more "
              f"(raise --limit to see them)")
    return 0


def cmd_attribute(args) -> int:
    """Decompose a latency percentile band into per-stage time."""
    import json as json_mod

    from repro.obs.attribution import attribute

    if not 0.0 <= args.p_lo <= args.p_hi <= 100.0:
        return _usage(f"bad percentile band [{args.p_lo:g}, "
                      f"{args.p_hi:g}]: want 0 <= --p-lo <= --p-hi <= 100")
    events = _read_events(args.file)
    if events is None:
        return 2
    statuses = None
    if args.status:
        statuses = tuple(s.strip() for s in args.status.split(",")
                         if s.strip())
    report = attribute(events, p_lo=args.p_lo, p_hi=args.p_hi,
                       statuses=statuses)
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=1,
                             sort_keys=True))
    else:
        print(report.render())
    return 0


def cmd_slo(args) -> int:
    """Evaluate SLOs with burn-rate alerts against an event log."""
    import json as json_mod

    from repro.obs.slo import (SloSpec, default_slos, evaluate_slos,
                               slo_report)
    from repro.units import MS

    # Exit 1 is a missed SLO under --strict; a bad flag is not one.
    if args.target is not None and not 0.0 < args.target < 1.0:
        return _usage(f"--target {args.target:g} is not in (0, 1)")
    events = _read_events(args.file)
    if events is None:
        return 2
    specs = default_slos(deadline_ns=int(args.latency_ms * MS))
    if args.target is not None:
        specs = [SloSpec(name=spec.name, target=args.target,
                         latency_ns=spec.latency_ns,
                         window_ns=spec.window_ns,
                         burn_threshold=spec.burn_threshold)
                 for spec in specs]
    results = evaluate_slos(events, specs)
    if args.json:
        print(json_mod.dumps(slo_report(events, specs), indent=1,
                             sort_keys=True))
    else:
        for result in results:
            print(result.render())
    if args.strict and any(not r.met for r in results):
        missed = ", ".join(r.spec.name for r in results if not r.met)
        print(f"error: SLO(s) missed: {missed}", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    """Fold a serve trace into a flamegraph-ready profile.

    The invariant checked here is the one the profiler is built on:
    every frame's *exclusive* virtual time sums back to the end-to-end
    virtual time of the traced requests. A violation means the span
    trees are malformed (exit 1), not a rendering nit.
    """
    from repro.obs.prof import (chrome_flame, folded_stacks,
                                request_total_ns, to_folded_text,
                                total_ns, validate_folded)

    events = _read_events(args.file)
    if events is None:
        return 2
    stacks = folded_stacks(events)
    if not stacks:
        print("error: no complete request spans in log",
              file=sys.stderr)
        return 1
    text = to_folded_text(stacks)
    problems = validate_folded(text)
    profiled = total_ns(stacks)
    end_to_end = request_total_ns(events)
    if profiled != end_to_end:
        problems.append(
            f"exclusive time sums to {profiled} ns but requests span "
            f"{end_to_end} ns end to end")
    if problems:
        print(f"INVALID profile ({len(problems)} problems):",
              file=sys.stderr)
        for problem in problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out} ({len(stacks)} frame stacks, "
              f"{fmt_ns(profiled)} exclusive virtual time; render "
              f"with flamegraph.pl)")
    if args.chrome:
        import json as json_mod

        with open(args.chrome, "w") as handle:
            json_mod.dump({"traceEvents": chrome_flame(stacks),
                           "displayTimeUnit": "ms"}, handle,
                          indent=1, sort_keys=True)
        print(f"wrote {args.chrome} (flamegraph layout; load in "
              f"Perfetto / chrome://tracing)")
    if not args.out and not args.chrome:
        limit = args.limit or len(stacks)
        width = max(len(stack) for stack in stacks)
        for stack, ns in sorted(stacks.items(),
                                key=lambda kv: (-kv[1], kv[0]))[:limit]:
            share = ns / profiled if profiled else 0.0
            print(f"{stack:<{min(width, 72)}} {fmt_ns(ns):>12} "
                  f"{share:6.1%}")
        if len(stacks) > limit:
            print(f"... {len(stacks) - limit} more frame stacks "
                  f"(raise --limit, or -o for the full .folded)")
    return 0


def cmd_counters(args) -> int:
    """Replay a recording and print the GPU performance-counter tape."""
    import json as json_mod

    recording = Recording.load(args.file)
    board = resolve_board(args, recording)
    if board is None:
        return 2
    machine, replayer, result = fresh_replay(recording, board, args.seed)
    replayer.cleanup()
    snapshot = machine.gpu.counters.snapshot()
    if args.json:
        print(json_mod.dumps(snapshot, indent=1, sort_keys=True))
        return 0
    totals = snapshot["totals"]
    print(f"gpu counters after replaying {recording.meta.workload} "
          f"on {machine.gpu.model_name} "
          f"({fmt_ns(result.duration_ns)} virtual, "
          f"attempt {result.attempts}):")
    for field in ("replays", "kernels", "instructions", "flops",
                  "bytes_touched", "mmio_writes", "tlb_hits",
                  "tlb_misses", "upload_skipped_bytes", "mega_fanout"):
        value = totals.get(field, 0)
        rendered = f"{value:.4g}" if isinstance(value, float) \
            else str(value)
        print(f"  {field:<22} {rendered}")
    print(f"  per-kernel rows ({sum(1 for r in snapshot['rows'] if r['kernel'] >= 0)}):")
    for row in snapshot["rows"]:
        if row["kernel"] < 0:
            continue
        print(f"    j{row['job']:<3} k{row['kernel']:<3} "
              f"{row['name']:<16} instr {row['instructions']:<8} "
              f"flops {row['flops']:<12.4g} "
              f"bytes {row['bytes_touched']:<10} "
              f"tlb {row['tlb_hits']}/{row['tlb_misses']}")
    if snapshot["dropped_rows"]:
        print(f"  ({snapshot['dropped_rows']} rows dropped at the "
              f"{len(snapshot['rows'])}-row cap)")
    return 0


#: Eight-level unicode sparkline ramp (lowest to highest).
_SPARKS = "▁▂▃▄▅▆▇█"

#: Series `grr dash` shows when --series is not given (curves the
#: serving engine derives or that move request by request).
_DASH_DEFAULT = ("serve.queue.depth", "serve.requests.submitted",
                 "serve.shed.rate", "serve.cache.hit_ratio",
                 "serve.mega.fanout", "serve.latency_ns.p95")


def _sparkline(values, width: int) -> str:
    if len(values) > width:
        # Downsample by striding from the tail: the recent end of the
        # curve is the interesting part of a dashboard.
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1,
                    int((v - lo) / span * len(_SPARKS)))]
        for v in values)


def cmd_dash(args) -> int:
    """Terminal sparkline dashboard over a time-series JSONL log."""
    from repro.obs.timeseries import parse_jsonl

    try:
        with open(args.file) as handle:
            series = parse_jsonl(handle.read())
    except (ValueError, KeyError, TypeError) as error:
        return _usage(f"{args.file} is not a time-series JSONL log: "
                      f"{error}")
    if not series:
        print("(no samples in log)")
        return 0
    if args.series:
        wanted = [s.strip() for s in args.series.split(",") if s.strip()]
        missing = [name for name in wanted if name not in series]
        if missing:
            return _usage(f"series not in log: {', '.join(missing)}; "
                          f"available: {', '.join(sorted(series))}")
        names = wanted
    else:
        names = [name for name in _DASH_DEFAULT if name in series]
        if not names:
            names = sorted(series)[:8]
    t_lo = min(t for rows in series.values() for t, _ in rows)
    t_hi = max(t for rows in series.values() for t, _ in rows)
    print(f"{args.file}: {len(series)} series, "
          f"{sum(len(r) for r in series.values())} samples over "
          f"{fmt_ns(t_hi - t_lo)} virtual")
    for name in names:
        values = [value for _, value in series[name]]
        lo, hi, last = min(values), max(values), values[-1]
        print(f"  {name:<26} {_sparkline(values, args.width)}  "
              f"min {lo:g}  max {hi:g}  last {last:g}")
    return 0


def cmd_doctor(args) -> int:
    """Diagnose a failing replay and localize the first divergence."""
    from repro.obs.doctor import run_doctor

    recording = Recording.load(args.file)
    board = resolve_board(args, recording)
    if board is None:
        return 2
    report = run_doctor(recording, board, seed=args.seed,
                        vs_reference=args.vs_reference,
                        ref_seed=args.ref_seed)
    if report is None:
        mode = "fast path and reference agree" if args.vs_reference \
            else "replay is healthy"
        print(f"no divergence: {mode} on {board}")
        return 0
    print(report.render())
    if args.out:
        report.save(args.out)
        print(f"wrote {args.out} (load with `grr trace {args.out}`)")
    return 1


def cmd_patch(args) -> int:
    recording = Recording.load(args.file)
    patched, report = patch_recording_for_sku(
        recording, args.target_sku,
        patch_affinity=not args.no_affinity)
    patched.save(args.output)
    print(f"patched {report.source_sku} -> {report.target_sku}: "
          f"{report.pte_entries_rewritten} PTE entries, "
          f"memattr={'yes' if report.memattr_patched else 'no'}, "
          f"{report.affinity_writes_patched} affinity writes")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grr", description="GPUReplay recording tool")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="summarize a recording")
    info.add_argument("file")
    info.set_defaults(func=cmd_info)

    actions = sub.add_parser("actions", help="list replay actions")
    actions.add_argument("file")
    actions.add_argument("--limit", type=int, default=40)
    actions.set_defaults(func=cmd_actions)

    verify = sub.add_parser("verify", help="run the static verifier")
    verify.add_argument("file")
    verify.add_argument("--board", required=True,
                        help=", ".join(sorted(BOARDS)))
    verify.add_argument("--max-gpu-mb", type=int, default=None)
    verify.set_defaults(func=cmd_verify)

    replay = sub.add_parser(
        "replay", help="replay on a fresh simulated board")
    add_replay_arguments(replay)
    replay.set_defaults(func=cmd_replay)

    trace_cmd = sub.add_parser(
        "trace", help="replay + export a Chrome trace timeline")
    add_replay_arguments(trace_cmd)
    trace_cmd.add_argument("--out", default="timeline.json")
    trace_cmd.set_defaults(func=cmd_trace)

    stats = sub.add_parser(
        "stats", help="replay + print the metrics snapshot, or "
        "compare two saved snapshots with --diff")
    add_replay_arguments(stats, nargs="?", default=None)
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output")
    stats.add_argument("--diff", nargs=2, default=None,
                       metavar=("BEFORE_JSON", "AFTER_JSON"),
                       help="compare two saved snapshot JSON files "
                       "instead of replaying")
    stats.set_defaults(func=cmd_stats)

    inspect = sub.add_parser(
        "inspect", help="content addressing: digests of the recording "
        "and its dumps")
    inspect.add_argument("file")
    inspect.add_argument("--digest", action="store_true",
                         help="print only the recording digest")
    inspect.add_argument("--dumps", action="store_true",
                         help="per-dump VA, size and content hash")
    inspect.add_argument("--store", default=None, metavar="VAULT",
                         help="chunk-level view inside a vault; FILE "
                         "may be a recording file or a digest prefix")
    inspect.add_argument("--jobs", action="store_true",
                         help="surgery analysis: per-job kernel "
                         "chains, dump closures, VA footprints")
    inspect.set_defaults(func=cmd_inspect)

    surgery = sub.add_parser(
        "surgery", help="recording surgery: slice one job/kernel into "
        "a micro-recording, compose slices into synthetic sessions")
    surgery_sub = surgery.add_subparsers(dest="surgery_command",
                                         required=True)

    sslice = surgery_sub.add_parser(
        "slice", help="extract one job (or one kernel of its chain) "
        "into a standalone micro-recording + manifest sidecar")
    sslice.add_argument("file")
    sslice.add_argument("--job", type=int, required=True,
                        help="job index to extract (see `grr surgery "
                        "ls`)")
    sslice.add_argument("--kernel", type=int, default=None,
                        help="only this kernel of the job's chain")
    sslice.add_argument("--input-seed", type=int, default=0,
                        help="seed for the parent's input deposit "
                        "baked into the slice (default 0)")
    sslice.add_argument("--board", default=None,
                        help="capture-replay board (defaults to the "
                        "recording's)")
    sslice.add_argument("-o", "--output", default=None,
                        help="output path (default "
                        "FILE.jobJ[.kK].grr)")
    sslice.add_argument("--check", action="store_true",
                        help="replay both sides and verify the slice "
                        "is byte-identical to the job in its parent")
    sslice.set_defaults(func=cmd_surgery_slice)

    scompose = surgery_sub.add_parser(
        "compose", help="stitch micro-recordings into one synthetic "
        "session (VA-rebased per instance)")
    scompose.add_argument("slices", nargs="+",
                          help="slice files (each needs its "
                          ".manifest.json sidecar)")
    scompose.add_argument("--op", required=True,
                          choices=("repeat", "reorder", "interleave"))
    scompose.add_argument("-n", type=int, default=3,
                          help="repeat count (repeat op, default 3)")
    scompose.add_argument("--rounds", type=int, default=1,
                          help="round-robin rounds (interleave op)")
    scompose.add_argument("--order-seed", type=int, default=0,
                          help="shuffle seed (reorder op)")
    scompose.add_argument("-o", "--output", required=True)
    scompose.add_argument("--board", default=None,
                          help="--check replay board (defaults to the "
                          "slices')")
    scompose.add_argument("--check", action="store_true",
                          help="replay the composed session and "
                          "verify GPU == CPU reference == manifest")
    scompose.set_defaults(func=cmd_surgery_compose)

    sls = surgery_sub.add_parser(
        "ls", help="per-job surgery table over recording files")
    sls.add_argument("files", nargs="+")
    sls.set_defaults(func=cmd_surgery_ls)

    store = sub.add_parser(
        "store", help="the content-addressed recording vault: pack, "
        "list, fetch, verify, gc")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    pack = store_sub.add_parser(
        "pack", help="chunk + dedup recording files into a vault "
        "(created on first use)")
    pack.add_argument("vault")
    pack.add_argument("files", nargs="+")
    pack.set_defaults(func=cmd_store_pack)

    ls = store_sub.add_parser(
        "ls", help="list the compatibility index")
    ls.add_argument("vault")
    ls.add_argument("--family", default=None,
                    help="only this GPU family")
    ls.set_defaults(func=cmd_store_ls)

    fetch = store_sub.add_parser(
        "fetch", help="reassemble a recording (verified by default)")
    fetch.add_argument("vault")
    fetch.add_argument("digest", help="full digest or unique prefix")
    fetch.add_argument("-o", "--output", required=True)
    fetch.add_argument("--no-verify", action="store_true",
                       help="skip integrity checks (forensics only)")
    fetch.set_defaults(func=cmd_store_fetch)

    sverify = store_sub.add_parser(
        "verify", help="scrub the integrity chain")
    sverify.add_argument("vault")
    sverify.add_argument("digest", nargs="?", default=None,
                         help="limit to one recording (digest prefix)")
    sverify.add_argument("--doctor", action="store_true",
                         help="replay each corrupt recording with the "
                         "damage in place and localize the divergence")
    sverify.add_argument("--board", default=None,
                         help="doctor board (defaults to the "
                         "recording's)")
    sverify.set_defaults(func=cmd_store_verify)

    gc = store_sub.add_parser(
        "gc", help="delete chunks no manifest references")
    gc.add_argument("vault")
    gc.set_defaults(func=cmd_store_gc)

    reindex = store_sub.add_parser(
        "reindex", help="rebuild the per-recording object indexes by "
        "scanning the pack files")
    reindex.add_argument("vault")
    reindex.set_defaults(func=cmd_store_reindex)

    bench = sub.add_parser(
        "bench", help="measure a pinned benchmark suite once: print "
        "its table, its pin (--json) and/or check a pin (--check)")
    bench.add_argument("--suite", default="fastpath",
                       help="fastpath, serve, fleet, obs, store or "
                       "surgery (default fastpath)")
    bench.add_argument("--json", action="store_true",
                       help="print exactly the pin (re-pin with "
                       "--json > BENCH_<suite>.json)")
    bench.add_argument("--check", default=None, metavar="PINNED_JSON",
                       help="exit 1 naming every value that differs "
                       "from the pin, either way")
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the concurrent replay serving engine "
        "against a seeded synthetic load (no recording file needed)")
    serve.add_argument("--requests", type=int, default=200)
    serve.add_argument("--workers", type=int, default=3)
    serve.add_argument("--families", default="mali,mali,v3d",
                       help="comma list; assigned to workers "
                       "cyclically (default mali,mali,v3d)")
    serve.add_argument("--models", default="mnist,kws",
                       help="comma list of zoo models in the mix")
    serve.add_argument("--seed", type=int, default=2026)
    serve.add_argument("--synthetic", type=int, default=0, metavar="K",
                       help="serve K composed surgery sessions per "
                       "family (sliced + recomposed from the zoo "
                       "models) instead of the models themselves")
    serve.add_argument("--synthetic-seed", type=int, default=7,
                       help="surgery-plan seed (default 7)")
    serve.add_argument("--fault-rate", type=float, default=0.0,
                       help="probability a request carries an injected "
                       "fault (transient/sticky/poison)")
    serve.add_argument("--max-batch", type=int, default=4)
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--mega", action="store_true",
                       help="fuse same-digest fast-path batches into "
                       "one mega-batch replay (falls back to "
                       "per-request replay on divergence)")
    serve.add_argument("--json", action="store_true",
                       help="machine-readable run summary")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip checking served outputs against the "
                       "CPU reference")
    serve.add_argument("--no-trace", action="store_true",
                       help="disable request-scoped tracing")
    serve.add_argument("--trace-out", default=None,
                       metavar="EVENTS_JSONL",
                       help="write the request trace event log "
                       "(schema rtrace.v1, one JSON event per line; "
                       "feed to `grr top` / `grr attribute` / "
                       "`grr slo`)")
    serve.add_argument("--trace-chrome", default=None,
                       metavar="TRACE_JSON",
                       help="write a Perfetto-loadable Chrome trace "
                       "of all request timelines (with the folded "
                       "profile merged in as a flamegraph track)")
    serve.add_argument("--profile-out", default=None,
                       metavar="PROF_FOLDED",
                       help="write the continuous profile as "
                       "flamegraph.pl-compatible folded stacks "
                       "(exclusive virtual time per frame stack)")
    serve.add_argument("--timeseries-out", default=None,
                       metavar="TS_JSONL",
                       help="write the time-series samples as JSONL "
                       "(feed to `grr dash`)")
    serve.add_argument("--openmetrics", default=None,
                       metavar="METRICS_TXT",
                       help="write the time-series samples as "
                       "OpenMetrics text exposition")
    serve.add_argument("--no-timeseries", action="store_true",
                       help="disable the periodic metrics scraper")
    serve.add_argument("--no-counters", action="store_true",
                       help="disable the GPU performance-counter tape")
    serve.set_defaults(func=cmd_serve)

    fleet = sub.add_parser(
        "fleet", help="serve a seeded synthetic load on a simulated "
        "multi-node cluster (digest-affinity routing, queue-depth "
        "autoscaling)")
    fleet.add_argument("--nodes", type=int, default=3)
    fleet.add_argument("--requests", type=int, default=300)
    fleet.add_argument("--families", default="mali,v3d",
                       help="comma list of board families every node "
                       "hosts a pool for (default mali,v3d)")
    fleet.add_argument("--models", default="mnist,kws",
                       help="comma list of zoo models in the mix")
    fleet.add_argument("--seed", type=int, default=2026)
    fleet.add_argument("--synthetic", type=int, default=0, metavar="K",
                       help="serve K composed surgery sessions per "
                       "family instead of the zoo models")
    fleet.add_argument("--synthetic-seed", type=int, default=7,
                       help="surgery-plan seed (default 7)")
    fleet.add_argument("--fault-rate", type=float, default=0.0,
                       help="probability a request carries an injected "
                       "fault (transient/sticky/poison)")
    fleet.add_argument("--shape", default="poisson",
                       choices=("poisson", "diurnal", "spike"),
                       help="arrival shape (default poisson)")
    fleet.add_argument("--popularity", default="uniform",
                       choices=("uniform", "zipf"),
                       help="model popularity over the mix "
                       "(default uniform)")
    fleet.add_argument("--tenants", default=None,
                       help="comma list of tenant names to stamp on "
                       "requests (round-robin by the loadgen RNG)")
    fleet.add_argument("--quota", action="append", metavar="TENANT=N",
                       help="cap a tenant's fleet-wide in-flight "
                       "requests (repeatable)")
    fleet.add_argument("--max-workers", type=int, default=3,
                       help="autoscaler ceiling per family per node "
                       "(default 3)")
    fleet.add_argument("--max-batch", type=int, default=4)
    fleet.add_argument("--queue-depth", type=int, default=256,
                       help="per-node admission queue bound")
    fleet.add_argument("--json", action="store_true",
                       help="machine-readable run summary")
    fleet.add_argument("--no-verify", action="store_true",
                       help="skip checking served outputs against the "
                       "CPU reference")
    fleet.add_argument("--no-trace", action="store_true",
                       help="disable request-scoped tracing")
    fleet.add_argument("--trace-out", default=None,
                       metavar="EVENTS_JSONL",
                       help="write the fleet-wide request trace event "
                       "log (router hops and node spans on one "
                       "timeline)")
    fleet.add_argument("--routing-out", default=None,
                       metavar="DECISIONS_JSONL",
                       help="write the router's decision log (one "
                       "JSON decision per line)")
    fleet.set_defaults(func=cmd_fleet)

    profile = sub.add_parser(
        "profile", help="fold a serve trace event log into a "
        "flamegraph-ready profile of exclusive virtual time")
    profile.add_argument("file", help="event log from `grr serve "
                         "--trace-out`")
    profile.add_argument("-o", "--out", default=None,
                         metavar="PROF_FOLDED",
                         help="write flamegraph.pl-compatible folded "
                         "stacks instead of printing a table")
    profile.add_argument("--chrome", default=None, metavar="FLAME_JSON",
                         help="also write a Perfetto-loadable "
                         "flamegraph layout")
    profile.add_argument("--limit", type=int, default=20,
                         help="table rows to print when not writing "
                         "a file (default 20)")
    profile.set_defaults(func=cmd_profile)

    counters = sub.add_parser(
        "counters", help="replay a recording and print the emulated "
        "GPU performance-counter tape")
    add_replay_arguments(counters)
    counters.add_argument("--json", action="store_true",
                          help="machine-readable gpucounters.v1 "
                          "snapshot")
    counters.set_defaults(func=cmd_counters)

    dash = sub.add_parser(
        "dash", help="terminal sparkline dashboard over a serve "
        "time-series JSONL log")
    dash.add_argument("file", help="JSONL from `grr serve "
                      "--timeseries-out`")
    dash.add_argument("--series", default=None,
                      help="comma list of series names (default: the "
                      "interesting serving curves present in the log)")
    dash.add_argument("--width", type=int, default=60,
                      help="sparkline width in cells (default 60)")
    dash.set_defaults(func=cmd_dash)

    top = sub.add_parser(
        "top", help="post-hoc dashboard over a serve trace event log: "
        "slowest requests with per-stage breakdowns")
    top.add_argument("file", help="event log from `grr serve "
                     "--trace-out`")
    top.add_argument("--limit", type=int, default=15,
                     help="rows to show (default 15)")
    top.set_defaults(func=cmd_top)

    attr = sub.add_parser(
        "attribute", help="tail-latency attribution: fold a latency "
        "percentile band's span trees into ranked exclusive per-stage "
        "virtual time (sums to end-to-end by construction)")
    attr.add_argument("file", help="event log from `grr serve "
                      "--trace-out`")
    attr.add_argument("--p-lo", type=float, default=99.0,
                      help="band lower percentile (default 99)")
    attr.add_argument("--p-hi", type=float, default=100.0,
                      help="band upper percentile (default 100)")
    attr.add_argument("--status", default=None,
                      help="comma list of terminal statuses to "
                      "include (default: all but shed)")
    attr.add_argument("--json", action="store_true",
                      help="machine-readable report")
    attr.set_defaults(func=cmd_attribute)

    slo = sub.add_parser(
        "slo", help="evaluate latency/error-budget objectives with "
        "sliding-window burn-rate alerts against an event log")
    slo.add_argument("file", help="event log from `grr serve "
                     "--trace-out`")
    slo.add_argument("--latency-ms", type=float, default=100.0,
                     help="latency SLO cutoff in virtual ms "
                     "(default 100)")
    slo.add_argument("--target", type=float, default=None,
                     help="override every objective's target fraction")
    slo.add_argument("--strict", action="store_true",
                     help="exit 1 if any objective is missed")
    slo.add_argument("--json", action="store_true",
                     help="machine-readable slo.v1 report")
    slo.set_defaults(func=cmd_slo)

    doctor = sub.add_parser(
        "doctor", help="diagnose a failing replay: localize the first "
        "diverging chokepoint, emit a DivergenceReport")
    add_replay_arguments(doctor)
    doctor.add_argument("--vs-reference", action="store_true",
                        help="run the compiled fast path and the "
                        "reference interpreter in lockstep and localize "
                        "the first chokepoint where they disagree")
    doctor.add_argument("--ref-seed", type=int, default=None,
                        help="seed the reference arm differently "
                        "(diagnose environment sensitivity)")
    doctor.add_argument("--out", default=None, metavar="REPORT_JSON",
                        help="also save the DivergenceReport as JSON")
    doctor.set_defaults(func=cmd_doctor)

    patch = sub.add_parser("patch", help="cross-SKU patch (Mali)")
    patch.add_argument("file")
    patch.add_argument("--target-sku", required=True)
    patch.add_argument("--no-affinity", action="store_true")
    patch.add_argument("-o", "--output", required=True)
    patch.set_defaults(func=cmd_patch)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SerializationError, StoreNotFoundError,
            StoreLayoutError) as error:
        # A file that is not a recording -- or a vault/digest that is
        # not there, or a directory in the retired vault layout -- is
        # a usage error, like a missing file or an unknown board:
        # exit 2, not 1. Store *corruption* stays a
        # verification failure (StoreError -> ReproError -> exit 1).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
