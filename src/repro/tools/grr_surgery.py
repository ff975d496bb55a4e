"""``grr surgery slice | compose | ls``: cut one job (or one kernel of
its chain) out of a recording into a standalone micro-recording with a
``.manifest.json`` sidecar, and stitch such slices into one synthetic
session, each instance VA-rebased (:mod:`repro.surgery`)."""

from __future__ import annotations

import sys

from repro.core.recording import Recording
from repro.errors import VerificationError
from repro.tools.grr import command, fmt_bytes, usage


def add_surgery(sub) -> None:
    surgery = sub.add_parser(
        "surgery", help="recording surgery: slice one job/kernel into "
        "a micro-recording, compose slices into synthetic sessions")
    surgery_sub = surgery.add_subparsers(dest="surgery_command",
                                         required=True)

    sslice = command(
        surgery_sub, "slice", cmd_surgery_slice,
        help="extract one job (or one kernel of its chain) "
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

    scompose = command(
        surgery_sub, "compose", cmd_surgery_compose,
        help="stitch micro-recordings into one synthetic "
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

    command(surgery_sub, "ls", cmd_surgery_ls,
            help="per-job surgery table over recording files"
            ).add_argument("files", nargs="+")


def inspect_jobs(path: str, recording: Recording) -> int:
    """The surgery view: per-job kernel chains, closures, footprints
    (``grr surgery ls``, ``grr inspect --jobs``)."""
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


def cmd_surgery_ls(args) -> int:
    """Per-job surgery table over recording files."""
    for path in args.files:
        inspect_jobs(path, Recording.load(path))
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
        kernel = "" if args.kernel is None else f".k{args.kernel}"
        out = f"{args.file}.job{args.job}{kernel}.grr"
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
            raise usage("--op repeat takes exactly one slice")
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
               if not all(np.array_equal(
                   want.reshape(-1),
                   np.asarray(got[name], np.float32).reshape(-1))
                   for got in (cpu, gpu))]
        if bad:
            print(f"error: {len(bad)} outputs disagree across "
                  f"manifest/CPU/GPU: {bad[:10]}", file=sys.stderr)
            return 1
        print(f"  differential: all {len(expected)} outputs agree "
              f"(GPU replay == CPU reference == manifest)")
    return 0
