"""``grr store pack | ls | fetch | verify | gc | reindex``: the
content-addressed recording vault (:mod:`repro.store`). A vault or
digest that is not there is a usage error (exit 2); corruption that
``verify`` finds is a failure (exit 1)."""

from __future__ import annotations

from repro.core.recording import Recording
from repro.tools.grr import command, fmt_bytes


def add_store(sub) -> None:
    store = sub.add_parser(
        "store", help="the content-addressed recording vault: pack, "
        "list, fetch, verify, gc")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    pack = command(store_sub, "pack", cmd_store_pack,
                   help="chunk + dedup recording files into a vault "
                   "(created on first use)")
    pack.add_argument("vault")
    pack.add_argument("files", nargs="+")

    ls = command(store_sub, "ls", cmd_store_ls,
                 help="list the compatibility index")
    ls.add_argument("vault")
    ls.add_argument("--family", default=None,
                    help="only this GPU family")

    fetch = command(store_sub, "fetch", cmd_store_fetch,
                    help="reassemble a recording (verified by default)")
    fetch.add_argument("vault")
    fetch.add_argument("digest", help="full digest or unique prefix")
    fetch.add_argument("-o", "--output", required=True)
    fetch.add_argument("--no-verify", action="store_true",
                       help="skip integrity checks (forensics only)")

    sverify = command(store_sub, "verify", cmd_store_verify,
                      help="scrub the integrity chain")
    sverify.add_argument("vault")
    sverify.add_argument("digest", nargs="?", default=None,
                         help="limit to one recording (digest prefix)")
    sverify.add_argument("--doctor", action="store_true",
                         help="replay each corrupt recording with the "
                         "damage in place and localize the divergence")
    sverify.add_argument("--board", default=None,
                         help="doctor board (defaults to the "
                         "recording's)")

    command(store_sub, "gc", cmd_store_gc,
            help="delete chunks no manifest references"
            ).add_argument("vault")
    command(store_sub, "reindex", cmd_store_reindex,
            help="rebuild the per-recording object indexes by "
            "scanning the pack files").add_argument("vault")


def _open(args):
    from repro.store import Vault

    return Vault.open(args.vault)


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
    entries = _open(args).index.list(family=args.family)
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
    vault = _open(args)
    digest = vault.resolve(args.digest)
    recording = vault.fetch(digest, verify=not args.no_verify)
    recording.save(args.output)
    state = "unverified" if args.no_verify else "verified"
    print(f"fetched {digest[:12]} ({recording.meta.workload}) "
          f"-> {args.output} ({state})")
    return 0


def cmd_store_verify(args) -> int:
    """Scrub the integrity chain; exit 1 when anything is corrupt."""
    vault = _open(args)
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
    removed, freed = _open(args).gc()
    print(f"gc: removed {removed} unreferenced objects, "
          f"freed {fmt_bytes(freed)}")
    return 0


def cmd_store_reindex(args) -> int:
    """Rebuild every object index from the packs."""
    vault = _open(args)
    vault.reindex()
    print(f"reindex: {len(vault.digests())} object indexes rebuilt")
    return 0
