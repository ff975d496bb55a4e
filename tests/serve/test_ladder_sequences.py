"""Every fault kind walks its exact rung sequence.

One request per server, so nothing batches with it and nothing else
competes for a worker: the ordered ``ladder`` marks in its trace and
the response's ``path`` / ``status`` / ``attempts`` / ``retries`` are
then a pure function of the fault and the pool. ``attempts`` sums the
worker-internal §5.4 attempts over every dispatch (a failed fast-path
dispatch spends all three, a reference-path dispatch one).
"""

import pytest

from repro.core.replayer import clear_load_cache
from repro.serve import (FaultSpec, RecordingStore, ReplayServer,
                         ServeRequest, ServerConfig, VaultRecordingStore)
from repro.store import Vault
from repro.store.smoke import flip_object_byte


def _walk(store, families, fault=None, family="mali", model="mnist"):
    clear_load_cache()
    server = ReplayServer(store, ServerConfig(families=families, seed=11))
    request = ServeRequest(rid=0, family=family, model=model,
                           arrival_ns=0, input_seed=5,
                           fault=FaultSpec(fault) if fault else None)
    report = server.serve([request])
    server.close()
    (response,) = report.responses
    rungs = [e["args"]["rung"] for e in report.trace_events
             if e["ev"] == "mark" and e["name"] == "ladder"]
    return (rungs, response.path, response.status, response.attempts,
            response.retries, response.shed_reason)


@pytest.fixture(scope="module")
def zoo_store():
    return RecordingStore.from_zoo((("mali", "mnist"),))


TWO_WORKERS = ("mali", "mali")
ONE_WORKER = ("mali",)


@pytest.mark.parametrize("families,fault,expected", [
    (TWO_WORKERS, None, ([], "fast", "ok", 1, 0, "")),
    # The worker's own re-execution absorbs the core collapse.
    (TWO_WORKERS, "gpu-transient", ([], "fast", "ok", 3, 0, "")),
    (TWO_WORKERS, "gpu-sticky",
     (["other-worker"], "fast", "ok", 4, 1, "")),
    (TWO_WORKERS, "poison",
     (["other-worker", "reference", "cpu"], "cpu", "degraded", 7, 1,
      "replay-rejected")),
    # With no other worker of the family, the retry rung is skipped.
    (ONE_WORKER, "gpu-sticky",
     (["reference"], "reference", "degraded", 4, 0, "")),
    (ONE_WORKER, "poison",
     (["reference", "cpu"], "cpu", "degraded", 4, 0,
      "replay-rejected")),
])
def test_fault_walks_its_rungs(zoo_store, families, fault, expected):
    assert _walk(zoo_store, families, fault) == expected


@pytest.fixture(scope="module")
def damaged_vault(tmp_path_factory):
    """A vault holding mali/mnist with every chunk object damaged (the
    skeleton survives) and no mali/kws at all."""
    root = str(tmp_path_factory.mktemp("ladder") / "vault")
    vault = Vault(root)
    VaultRecordingStore.pack_zoo(vault, [("mali", "mnist")])
    digest = vault.digests()[0]
    for chunk_digest in set(vault.load_manifest(digest).chunk_refs()):
        flip_object_byte(vault, chunk_digest)
    return root


def test_store_miss_goes_straight_to_cpu(damaged_vault):
    store = VaultRecordingStore(Vault(damaged_vault),
                                [("mali", "mnist"), ("mali", "kws")])
    assert _walk(store, TWO_WORKERS) == \
        ([], "cpu", "degraded", 0, 0, "store-miss")


def test_store_lost_is_shed_at_admission(damaged_vault):
    store = VaultRecordingStore(Vault(damaged_vault),
                                [("mali", "mnist"), ("mali", "kws")])
    assert _walk(store, TWO_WORKERS, model="kws") == \
        ([], "", "shed", 0, 0, "store-lost")
