"""The compatibility index: which recording fits which board.

Recordings are board- and clockrate-specific (Section 4): a serve
fleet holding a vault needs to answer "best recording for this board"
without decoding manifests one by one. The index is a small JSON
document the vault keeps next to its objects, one entry per packed
recording, keyed on everything replay compatibility depends on:

- GPU ``family`` (mali / v3d / adreno) -- hard requirement;
- ``board`` and GPU ``clock_hz`` -- exact match preferred, same-SKU
  fallback allowed (the paper's cross-board replay, Section 6.4);
- ``schema`` (the recording file format version) and ``chunk_scheme``
  (the CDC parameters) -- hard requirements: a reader that does not
  speak the schema cannot replay, a vault that chunks differently
  cannot share objects.

Queries are deterministic: candidates are scored, ties broken by pack
order then digest, so every fleet node resolves the same digest for
the same board.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import StoreError
from repro.store.chunks import CHUNK_SCHEME

#: Layout of the logical body a vault keeps (skeleton and dump bytes),
#: which ``.grr`` versions 1 and 2 share.
RECORDING_SCHEMA = 1


@dataclass
class CompatEntry:
    """One packed recording's compatibility coordinates."""

    digest: str
    family: str
    board: str
    gpu_model: str
    clock_hz: int
    workload: str
    schema: int = RECORDING_SCHEMA
    chunk_scheme: str = CHUNK_SCHEME
    #: Monotone pack order, the deterministic tie-breaker.
    seq: int = 0
    #: Raw (uncompressed body) size, for capacity planning.
    body_bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompatEntry":
        return cls(**data)


@dataclass
class CompatIndex:
    """The queryable registry of every recording in a vault."""

    entries: Dict[str, CompatEntry] = field(default_factory=dict)
    next_seq: int = 0

    # -- mutation ------------------------------------------------------------

    def add(self, entry: CompatEntry) -> CompatEntry:
        """Register ``entry`` (idempotent on digest; keeps first seq)."""
        existing = self.entries.get(entry.digest)
        if existing is not None:
            return existing
        entry.seq = self.next_seq
        self.next_seq += 1
        self.entries[entry.digest] = entry
        return entry

    def remove(self, digest: str) -> bool:
        return self.entries.pop(digest, None) is not None

    # -- queries -------------------------------------------------------------

    def resolve(self, prefix: str) -> str:
        """Expand a digest prefix to the unique full digest."""
        matches = sorted(d for d in self.entries
                         if d.startswith(prefix))
        if not matches:
            raise StoreError(f"no recording matching {prefix!r}")
        if len(matches) > 1:
            raise StoreError(
                f"ambiguous digest prefix {prefix!r}: "
                f"{', '.join(m[:12] for m in matches)}")
        return matches[0]

    def best_for(self, family: str, board: Optional[str] = None,
                 workload: Optional[str] = None,
                 schema: int = RECORDING_SCHEMA,
                 chunk_scheme: str = CHUNK_SCHEME
                 ) -> Optional[CompatEntry]:
        """The best-matching recording for a board, or None.

        Hard filters: family, schema, chunk scheme, and workload when
        given. Preference order among survivors: exact board match
        (which implies the exact clock rate), then same GPU model
        (same SKU and clock on a different board), then anything in
        the family -- the recording a cross-SKU patch could start
        from. Ties go to the earliest packed entry.
        """
        candidates = [e for e in self.entries.values()
                      if e.family == family
                      and e.schema == schema
                      and e.chunk_scheme == chunk_scheme
                      and (workload is None or e.workload == workload)]
        if board:
            clock = max((e.clock_hz for e in candidates
                         if e.board == board), default=None)

            def score(e: CompatEntry):
                exact_board = e.board == board
                same_clock = clock is not None and e.clock_hz == clock
                return (not exact_board, not same_clock, e.seq, e.digest)
        else:
            def score(e: CompatEntry):
                return (e.seq, e.digest)
        return min(candidates, key=score) if candidates else None

    def list(self, family: Optional[str] = None) -> List[CompatEntry]:
        entries = [e for e in self.entries.values()
                   if family is None or e.family == family]
        return sorted(entries, key=lambda e: (e.seq, e.digest))

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "next_seq": self.next_seq,
            "entries": [e.to_dict() for e in
                        sorted(self.entries.values(),
                               key=lambda e: (e.seq, e.digest))],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompatIndex":
        if data.get("schema") != 1:
            raise StoreError(
                f"unsupported index schema {data.get('schema')!r}")
        index = cls(next_seq=int(data.get("next_seq", 0)))
        for raw in data.get("entries", []):
            entry = CompatEntry.from_dict(raw)
            index.entries[entry.digest] = entry
        return index

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "CompatIndex":
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return cls()
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreError(f"corrupt index at {path}: {exc}")
        return cls.from_dict(data)
