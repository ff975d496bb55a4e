"""CI smoke run for the recording vault, end to end::

    python -m repro.store.smoke [artifact-dir]

1. record zoo workloads for two families (mali: mnist + kws, v3d:
   mnist) plus a g71 cross-SKU patch, and ``grr store pack`` them
   into a fresh vault;
2. assert the patched variant actually dedups against its base and
   ``grr store verify`` passes on the pristine vault;
3. corrupt one chunk inside its pack -- the one holding the first
   job's descriptor chain -- and assert ``grr store verify`` exits 1
   naming that exact chunk, and that the doctor handoff
   (``vault.diagnose``) localizes the divergence to an action;
4. restore the pack, re-verify clean;
5. remove the g31 base the g71 patch dedups against and ``grr store
   gc``: the base's pack is partially live, so gc must rewrite it,
   and ``grr store verify`` must still pass on what is left;
6. serve 50 requests out of the vault (``VaultRecordingStore``) and
   check every answer against the CPU reference.

``--forensics DIR`` instead dumps a vault forensics bundle (the
corrupt-chunk verify report, the doctor's DivergenceReport, vault
stats) into DIR -- what CI uploads when the store-smoke job fails.

Exit code 0 on success; any failure prints the reason and exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

#: The two-family zoo corpus the smoke packs and serves.
SMOKE_MIX = (("mali", "mnist"), ("mali", "kws"), ("v3d", "mnist"))


def _write_corpus(outdir: str):
    """Record the corpus; returns (paths, recordings, g71 path)."""
    from repro.bench.workloads import get_recorded
    from repro.core.patching import patch_recording_for_sku

    paths, recordings = [], []
    for family, model in SMOKE_MIX:
        workload, _stack = get_recorded(family, model)
        path = os.path.join(outdir, f"{family}-{model}.grr")
        workload.recording.save(path)
        paths.append(path)
        recordings.append(workload.recording)
    base_wl, _stack = get_recorded("mali", "mnist", True,
                                   "monolithic", "odroid-c4")
    patched, _report = patch_recording_for_sku(base_wl.recording, "g71")
    base_path = os.path.join(outdir, "mali-mnist-g31.grr")
    patched_path = os.path.join(outdir, "mali-mnist-g71.grr")
    base_wl.recording.save(base_path)
    patched.save(patched_path)
    paths += [base_path, patched_path]
    recordings += [base_wl.recording, patched]
    return paths, recordings


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
    raise AssertionError("no chunk covers the first job chain")


def flip_object_byte(vault, digest: str) -> str:
    """Invert the middle byte of one object's stored bytes, inside
    its pack; returns the pack's path. The one fault injector the
    smoke, the forensics bundle and the test suites share."""
    path, offset, length = vault.object_location(digest)
    with open(path, "r+b") as handle:
        handle.seek(offset + length // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return path


def forensics_bundle(outdir: str) -> int:
    """A vault forensics bundle: pack, corrupt a descriptor chunk,
    capture the verify report + doctor localization + vault stats."""
    from repro.store import Vault

    os.makedirs(outdir, exist_ok=True)
    _paths, recordings = _write_corpus(outdir)
    vault = Vault(os.path.join(outdir, "vault"))
    for recording in recordings:
        vault.pack(recording)
    victim = recordings[0]
    chunk = _descriptor_chunk(vault, victim)
    flip_object_byte(vault, chunk)
    problems = vault.verify()
    with open(os.path.join(outdir, "verify-report.json"), "w") as f:
        json.dump([{"recording": p.recording_digest,
                    "chunk": p.chunk_digest, "dump": p.dump_index,
                    "va": p.dump_va, "offset": p.dump_offset,
                    "error": str(p)} for p in problems], f, indent=1)
    report = vault.diagnose(victim.digest())
    if report is not None:
        report.save(os.path.join(outdir, "doctor-report.json"))
    stats = vault.stats()
    with open(os.path.join(outdir, "vault-stats.json"), "w") as f:
        json.dump({"recordings": stats.recordings,
                   "chunk_refs": stats.chunk_refs,
                   "unique_chunks": stats.unique_chunks,
                   "disk_bytes": stats.disk_bytes,
                   "logical_bytes": stats.logical_bytes}, f, indent=1)
    print(f"forensics bundle in {outdir}/: verify-report.json, "
          f"doctor-report.json, vault-stats.json")
    return 0


def main(argv=None) -> int:
    from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                             VaultRecordingStore, generate_requests,
                             verify_report)
    from repro.store import Vault
    from repro.tools import grr

    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--forensics":
        return forensics_bundle(argv[1] if len(argv) > 1
                                else "forensics-artifacts")
    outdir = argv[0] if argv else "store-smoke-artifacts"
    os.makedirs(outdir, exist_ok=True)
    vault_dir = os.path.join(outdir, "vault")

    print("[1/6] recording two families + a g71 patch; packing ...")
    paths, recordings = _write_corpus(outdir)
    code = grr.main(["store", "pack", vault_dir] + paths)
    if code != 0:
        print(f"FAIL: grr store pack exited {code}")
        return 1

    print("[2/6] dedup + pristine verify ...")
    vault = Vault(vault_dir)
    patched_stats = vault.recording_stats(recordings[-1].digest())
    if not patched_stats["shared_chunks"]:
        print(f"FAIL: g71 patch shares no chunks with its base: "
              f"{patched_stats}")
        return 1
    code = grr.main(["store", "verify", vault_dir])
    if code != 0:
        print(f"FAIL: pristine vault failed verify (exit {code})")
        return 1

    print("[3/6] corrupting a descriptor chunk on disk ...")
    victim = recordings[0]
    chunk = _descriptor_chunk(vault, victim)
    pack_path = vault.object_location(chunk)[0]
    pristine = os.path.join(outdir, "pack.pristine")
    shutil.copy(pack_path, pristine)
    flip_object_byte(vault, chunk)
    code = grr.main(["store", "verify", vault_dir])
    if code != 1:
        print(f"FAIL: verify of corrupt vault exited {code}, want 1")
        return 1
    problems = vault.verify(victim.digest())
    if not problems or problems[0].chunk_digest != chunk:
        print(f"FAIL: verify did not name the damaged chunk "
              f"{chunk[:12]}: {problems}")
        return 1
    report = vault.diagnose(victim.digest())
    if report is None or report.action_index < 0:
        print("FAIL: doctor did not localize the corrupt-chunk damage")
        return 1
    report.save(os.path.join(outdir, "doctor-report.json"))
    print(f"      verify flagged chunk {chunk[:12]}, doctor localized "
          f"action #{report.action_index}")

    print("[4/6] restoring the pack; re-verify ...")
    shutil.move(pristine, pack_path)
    code = grr.main(["store", "verify", vault_dir])
    if code != 0:
        print(f"FAIL: restored vault failed verify (exit {code})")
        return 1

    print("[5/6] removing the g31 base; gc rewrites its pack ...")
    base, patched = recordings[-2], recordings[-1]
    base_pack = vault.object_location(
        vault.load_manifest(base.digest()).skeleton_digest)[0]
    kept = set(vault.load_manifest(patched.digest()).chunk_refs())
    if not any(vault.object_location(c)[0] == base_pack for c in kept):
        print("FAIL: the g71 patch keeps nothing of its base's pack "
              "alive -- the corpus no longer exercises pack rewrite")
        return 1
    vault.remove(base.digest())
    if grr.main(["store", "gc", vault_dir]) != 0 \
            or os.path.exists(base_pack):
        print("FAIL: gc left the partially-live pack in place")
        return 1
    code = grr.main(["store", "verify", vault_dir])
    if code != 0:
        print(f"FAIL: vault failed verify after gc (exit {code})")
        return 1

    print("[6/6] serving 50 requests out of the vault ...")
    store = VaultRecordingStore(vault, list(SMOKE_MIX))
    server = ReplayServer(store, ServerConfig(
        families=("mali", "mali", "v3d"), seed=2026))
    stream = generate_requests(LoadgenConfig(
        mix=list(SMOKE_MIX), requests=50, seed=2026))
    serve_report = server.serve(stream)
    server.close()
    counts = serve_report.counts()
    if serve_report.lost or counts["shed"] or counts["degraded"]:
        print(f"FAIL: vault serve was not clean: {counts}, "
              f"lost={serve_report.lost}")
        return 1
    mismatches = verify_report(serve_report, store)
    if mismatches:
        print(f"FAIL: {len(mismatches)} served outputs disagree with "
              f"the CPU reference: {mismatches[:5]}")
        return 1
    with open(os.path.join(outdir, "serve-summary.json"), "w") as f:
        json.dump(serve_report.summary(), f, indent=1, sort_keys=True)

    print(f"SMOKE OK ({counts['ok']} requests served from the vault, "
          f"doctor localized action #{report.action_index}, artifacts "
          f"in {outdir}/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
