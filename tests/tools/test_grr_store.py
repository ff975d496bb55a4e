"""``grr store`` and ``grr inspect --store``: the vault CLI surface.

Exit-code contract: 0 success, 1 integrity failure (corruption), 2
usage errors (missing vault, unknown digest) -- same convention as
the rest of grr.
"""

import pytest

from repro.core.recording import Recording
from repro.store import Vault
from repro.store.smoke import flip_object_byte
from repro.tools.grr import main


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Two recording files (g31 base + g71 patch) and a vault path."""
    from repro.bench.workloads import get_recorded
    from repro.core.patching import patch_recording_for_sku
    tmp = tmp_path_factory.mktemp("storecli")
    workload, _stack = get_recorded("mali", "mnist", True,
                                    "monolithic", "odroid-c4")
    base = workload.recording
    patched, _report = patch_recording_for_sku(base, "g71")
    base_path = tmp / "mnist-g31.grr"
    patched_path = tmp / "mnist-g71.grr"
    base.save(str(base_path))
    patched.save(str(patched_path))
    return {"base": base, "patched": patched,
            "base_path": str(base_path),
            "patched_path": str(patched_path),
            "vault": str(tmp / "vault")}


@pytest.fixture(scope="module")
def packed(fleet):
    rc = main(["store", "pack", fleet["vault"],
               fleet["base_path"], fleet["patched_path"]])
    assert rc == 0
    return fleet


class TestPackLs:
    def test_pack_reports_dedup(self, packed, capsys):
        assert main(["store", "pack", packed["vault"],
                     packed["base_path"]]) == 0
        out = capsys.readouterr().out
        assert "2 recordings" in out
        assert "shared" in out

    def test_ls_shows_index(self, packed, capsys):
        assert main(["store", "ls", packed["vault"]]) == 0
        out = capsys.readouterr().out
        assert packed["base"].digest()[:12] in out
        assert "mali-g31" in out and "mali-g71" in out
        assert "650 MHz" in out and "546 MHz" in out

    def test_ls_family_filter(self, packed, capsys):
        assert main(["store", "ls", packed["vault"],
                     "--family", "v3d"]) == 0
        assert "no v3d recordings" in capsys.readouterr().out

    def test_ls_missing_vault_exits_2(self, tmp_path, capsys):
        assert main(["store", "ls", str(tmp_path / "none")]) == 2
        assert "no vault" in capsys.readouterr().err


class TestFetch:
    def test_fetch_by_prefix_is_byte_identical(self, packed, tmp_path):
        out = str(tmp_path / "out.grr")
        digest = packed["base"].digest()
        assert main(["store", "fetch", packed["vault"], digest[:10],
                     "-o", out]) == 0
        assert Recording.load(out).to_bytes() == \
            packed["base"].to_bytes()

    def test_unknown_digest_exits_2(self, packed, tmp_path, capsys):
        assert main(["store", "fetch", packed["vault"], "ffff",
                     "-o", str(tmp_path / "x.grr")]) == 2
        assert "no recording matching" in capsys.readouterr().err


class TestInspectStore:
    def test_chunk_sharing_reported(self, packed, capsys):
        assert main(["inspect", packed["patched_path"],
                     "--store", packed["vault"]]) == 0
        out = capsys.readouterr().out
        assert "chunks:" in out
        assert "shared with " + packed["base"].digest()[:12] in out

    def test_digest_prefix_accepted(self, packed, capsys):
        assert main(["inspect", packed["base"].digest()[:10],
                     "--store", packed["vault"]]) == 0
        assert "dedup ratio" in capsys.readouterr().out

    def test_unpacked_file_exits_2(self, packed, tmp_path, capsys):
        stray = Recording(packed["base"].meta, [], [])
        path = tmp_path / "stray.grr"
        stray.save(str(path))
        assert main(["inspect", str(path),
                     "--store", packed["vault"]]) == 2


class TestVerifyGcCorruption:
    @pytest.fixture
    def corrupt_vault(self, fleet, tmp_path):
        """A fresh vault with one chunk object damaged on disk."""
        root = str(tmp_path / "vault")
        vault = Vault(root)
        manifest = vault.pack(fleet["base"])
        chunk = manifest.dumps[0][2][0][0]
        flip_object_byte(vault, chunk)
        return root

    def test_verify_clean_exits_0(self, packed, capsys):
        assert main(["store", "verify", packed["vault"]]) == 0
        assert "integrity chain intact" in capsys.readouterr().out

    def test_verify_corrupt_exits_1_and_localizes(self, corrupt_vault,
                                                  capsys):
        assert main(["store", "verify", corrupt_vault]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert "chunk" in out and "dump #" in out

    def test_corrupt_fetch_exits_1(self, corrupt_vault, fleet,
                                   tmp_path, capsys):
        assert main(["store", "fetch", corrupt_vault,
                     fleet["base"].digest()[:10],
                     "-o", str(tmp_path / "x.grr")]) == 1
        assert "error" in capsys.readouterr().err

    def test_gc_after_remove(self, fleet, tmp_path, capsys):
        root = str(tmp_path / "vault")
        vault = Vault(root)
        vault.pack(fleet["base"])
        vault.remove(fleet["base"].digest())
        assert main(["store", "gc", root]) == 0
        out = capsys.readouterr().out
        assert "removed 0" not in out
        # everything is gone; a second gc is a no-op
        assert main(["store", "gc", root]) == 0
        assert "removed 0" in capsys.readouterr().out


class TestBenchSuite:
    def test_store_suite_check_passes_against_pin(self):
        """The CI guard: measured dedup must hold the pinned floor."""
        assert main(["bench", "--suite", "store",
                     "--check", "BENCH_store.json"]) == 0
