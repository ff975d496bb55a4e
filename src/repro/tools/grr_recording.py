"""``grr`` commands over one recording file: ``info``, ``actions``,
``verify``, ``replay``, ``trace``, ``stats``, ``inspect``,
``counters``, ``doctor`` and ``patch``.

Nothing here needs more than the file: ``verify`` builds the target
board's machine only for its register map, and the commands that
replay build a fresh board (the recording's own unless ``--board``)
and feed it ``--seed``'s inputs (:func:`repro.core.replay
.fresh_replay`).
"""

from __future__ import annotations

import json

from repro.core import actions as act
from repro.core.recording import Recording
from repro.core.replay import (add_replay_arguments, fresh_replay,
                               resolve_board)
from repro.errors import ReproError, SerializationError, VerificationError
from repro.soc import BOARDS, Machine
from repro.tools.grr import (command, fmt_bytes, fmt_ns, invalid,
                             print_json, usage)
from repro.tools.grr_surgery import inspect_jobs
from repro.units import MIB

_PERFETTO = "load it at https://ui.perfetto.dev or chrome://tracing"


def replayable(args):
    """``args.file``'s recording and the board to replay it on."""
    recording = Recording.load(args.file)
    return recording, resolve_board(args, recording)


def replayed(args, prepare=None):
    """Replay ``args.file`` once on a fresh board, then clean up:
    ``(recording, machine, result)``."""
    recording, board = replayable(args)
    machine, replayer, result = fresh_replay(recording, board, args.seed,
                                             prepare=prepare)
    replayer.cleanup()
    return recording, machine, result


def add_info(sub) -> None:
    parser = command(sub, "info", cmd_info, help="summarize a recording")
    parser.add_argument("file")


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


def add_actions(sub) -> None:
    parser = command(sub, "actions", cmd_actions,
                     help="list replay actions")
    parser.add_argument("file")
    parser.add_argument("--limit", type=int, default=40)


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


def add_verify(sub) -> None:
    parser = command(sub, "verify", cmd_verify,
                     help="run the static verifier")
    parser.add_argument("file")
    parser.add_argument("--board", required=True,
                        help=", ".join(sorted(BOARDS)))
    parser.add_argument("--max-gpu-mb", type=int, default=None)


def cmd_verify(args) -> int:
    from repro.core.verifier import verify_recording

    recording, board = replayable(args)
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


def add_replay(sub) -> None:
    add_replay_arguments(command(
        sub, "replay", cmd_replay,
        help="replay on a fresh simulated board"))


def cmd_replay(args) -> int:
    """Replay a recording on a fresh simulated board with random input."""
    recording, machine, result = replayed(args)
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
    return 0


def add_trace(sub) -> None:
    parser = command(sub, "trace", cmd_trace,
                     help="replay + export a Chrome trace timeline")
    add_replay_arguments(parser)
    parser.add_argument("--out", default="timeline.json")


def cmd_trace(args) -> int:
    """Replay with observability on and export a Chrome trace JSON.

    Also accepts a saved ``grr doctor`` report, exporting its flight
    window instead of replaying."""
    from repro.obs import enable_observability, validate_chrome_trace
    from repro.obs.doctor import DivergenceReport

    try:
        recording, machine, result = replayed(
            args, prepare=enable_observability)
    except SerializationError as error:
        try:
            report = DivergenceReport.load(args.file)
        except (ReproError, OSError, UnicodeDecodeError,
                json.JSONDecodeError):
            raise error from None
        trace = report.flight_chrome_trace()
        if invalid("trace", validate_chrome_trace(trace)):
            return 1
        with open(args.out, "w") as handle:
            json.dump(trace, handle, indent=1)
        print(f"wrote {args.out}: flight window of a {report.kind} "
              f"report ({len(report.flight_window)} events, divergence "
              f"at action #{report.action_index}); {_PERFETTO}")
        return 0
    trace = machine.obs.export_timeline(args.out)
    if invalid("trace", validate_chrome_trace(trace)):
        return 1
    events = trace["traceEvents"]
    spans = sum(1 for e in events if e.get("ph") in ("B", "X"))
    print(f"wrote {args.out}: {len(events)} events ({spans} spans) "
          f"over {fmt_ns(result.duration_ns)} of replay; {_PERFETTO}")
    return 0


def add_stats(sub) -> None:
    parser = command(sub, "stats", cmd_stats,
                     help="replay + print the metrics snapshot, or "
                     "compare two saved snapshots with --diff")
    add_replay_arguments(parser, nargs="?", default=None)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--diff", nargs=2, default=None,
                        metavar=("BEFORE_JSON", "AFTER_JSON"),
                        help="compare two saved snapshot JSON files "
                        "instead of replaying")


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
    if args.diff:
        from repro.obs.metrics import snapshot_diff

        snapshots = []
        for path in args.diff:
            with open(path) as handle:
                try:
                    snapshot = json.load(handle)
                except ValueError:
                    snapshot = None
            if not isinstance(snapshot, dict):
                raise usage(f"{path} is not a JSON metrics snapshot")
            snapshots.append(snapshot)
        diff = snapshot_diff(*snapshots)
        if args.json:
            print_json(diff)
            return 0
        print(f"snapshot diff {args.diff[0]} -> {args.diff[1]}:")
        _print_snapshot_diff(diff)
        return 0
    if args.file is None:
        raise usage("a recording file is required unless --diff is "
                    "given")
    from repro.obs import enable_observability

    recording, machine, result = replayed(
        args, prepare=enable_observability)
    snapshot = machine.obs.snapshot()
    if args.json:
        print_json(snapshot)
        return 0
    print(f"metrics after replaying {recording.meta.workload} "
          f"({fmt_ns(result.duration_ns)} virtual):")
    _print_snapshot(snapshot)
    return 0


def add_inspect(sub) -> None:
    parser = command(sub, "inspect", cmd_inspect,
                     help="content addressing: digests of the recording "
                     "and its dumps")
    parser.add_argument("file")
    parser.add_argument("--digest", action="store_true",
                        help="print only the recording digest")
    parser.add_argument("--dumps", action="store_true",
                        help="per-dump VA, size and content hash")
    parser.add_argument("--store", default=None, metavar="VAULT",
                        help="chunk-level view inside a vault; FILE "
                        "may be a recording file or a digest prefix")
    parser.add_argument("--jobs", action="store_true",
                        help="surgery analysis: per-job kernel "
                        "chains, dump closures, VA footprints")


def _inspect_store(args) -> int:
    """Chunk-level view of one recording inside a vault."""
    import os

    from repro.store import Vault

    vault = Vault.open(args.store)
    if os.path.exists(args.file):
        digest = Recording.load(args.file).digest()
        if digest not in vault:
            raise usage(f"{args.file} (digest {digest[:12]}) is not "
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
        return inspect_jobs(args.file, recording)
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


def add_counters(sub) -> None:
    parser = command(sub, "counters", cmd_counters,
                     help="replay a recording and print the emulated "
                     "GPU performance-counter tape")
    add_replay_arguments(parser)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable gpucounters.v1 snapshot")


def cmd_counters(args) -> int:
    """Replay a recording and print the GPU performance-counter tape."""
    recording, machine, result = replayed(args)
    snapshot = machine.gpu.counters.snapshot()
    if args.json:
        print_json(snapshot)
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
    rows = [row for row in snapshot["rows"] if row["kernel"] >= 0]
    print(f"  per-kernel rows ({len(rows)}):")
    for row in rows:
        print(f"    j{row['job']:<3} k{row['kernel']:<3} "
              f"{row['name']:<16} instr {row['instructions']:<8} "
              f"flops {row['flops']:<12.4g} "
              f"bytes {row['bytes_touched']:<10} "
              f"tlb {row['tlb_hits']}/{row['tlb_misses']}")
    if snapshot["dropped_rows"]:
        print(f"  ({snapshot['dropped_rows']} rows dropped at the "
              f"{len(snapshot['rows'])}-row cap)")
    return 0


def add_doctor(sub) -> None:
    parser = command(sub, "doctor", cmd_doctor,
                     help="diagnose a failing replay: localize the first "
                     "diverging chokepoint, emit a DivergenceReport")
    add_replay_arguments(parser)
    parser.add_argument("--vs-reference", action="store_true",
                        help="run the compiled fast path and the "
                        "reference interpreter in lockstep and localize "
                        "the first chokepoint where they disagree")
    parser.add_argument("--ref-seed", type=int, default=None,
                        help="seed the reference arm differently "
                        "(diagnose environment sensitivity)")
    parser.add_argument("--out", default=None, metavar="REPORT_JSON",
                        help="also save the DivergenceReport as JSON")


def cmd_doctor(args) -> int:
    """Diagnose a failing replay and localize the first divergence."""
    from repro.obs.doctor import run_doctor

    recording, board = replayable(args)
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


def add_patch(sub) -> None:
    parser = command(sub, "patch", cmd_patch,
                     help="cross-SKU patch (Mali)")
    parser.add_argument("file")
    parser.add_argument("--target-sku", required=True)
    parser.add_argument("--no-affinity", action="store_true")
    parser.add_argument("-o", "--output", required=True)


def cmd_patch(args) -> int:
    from repro.core.patching import patch_recording_for_sku

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
