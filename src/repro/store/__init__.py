"""``repro.store`` -- the content-addressed recording vault.

The deployment story of the paper (record once at the vendor, ship
recordings to client devices) needs recordings to be real *artifacts*:
packed, deduplicated, integrity-checked and queryable by the board
they were recorded for. This package provides that registry layer:

- :mod:`repro.store.chunks`: deterministic content-defined chunking of
  dump payloads (gear rolling hash, evaluated a buffer at a time),
  so recordings of the same model family share storage;
- :mod:`repro.store.vault`: the on-disk object store -- pack files of
  chunk objects with a per-recording object index, per-recording JSON
  manifests forming an integrity chain, verification, refcounted
  garbage collection, and a fetch path that reconstructs
  byte-identical recordings;
- :mod:`repro.store.index`: the compatibility index keyed on
  (family, board, clock rate, schema versions) that lets a serve
  fleet ask "best recording for this board".
"""

from repro.store.chunks import (CHUNK_AVG_BITS, CHUNK_MAX, CHUNK_MIN,
                                CHUNK_SCHEME, chunk_digest, split)
from repro.store.index import CompatEntry, CompatIndex, gpu_clock_hz
from repro.store.vault import Manifest, Vault, VaultStats

__all__ = [
    "CHUNK_AVG_BITS",
    "CHUNK_MAX",
    "CHUNK_MIN",
    "CHUNK_SCHEME",
    "CompatEntry",
    "CompatIndex",
    "Manifest",
    "Vault",
    "VaultStats",
    "chunk_digest",
    "gpu_clock_hz",
    "split",
]
