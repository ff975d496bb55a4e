"""A small LRU cache shared by the replay fast path.

Three users with the same needs: the replayer's content-addressed
*load cache* (digest-keyed verification reports + compiled action
programs) and its bound executors, which must stay bounded under a
long-lived serve loop, and the bench harness's recording cache
(:func:`repro.bench.harness.cached`), which memoizes expensive
record-side work across experiments. Each wants get-or-produce
semantics and a capacity bound with least-recently-used eviction;
callers that count hits, misses or evictions count them themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Tuple

_MISSING = object()


class LruCache:
    """Key/value store of at most ``capacity`` entries, evicting the
    least recently *used* entry first."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, "
                             f"got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def lookup(self, key: Hashable) -> Tuple[object, bool]:
        """Return ``(value, hit)``."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return None, False
        self._entries.move_to_end(key)
        return value, True

    def put(self, key: Hashable, value: object) -> int:
        """Store ``value``; the number of entries evicted for it."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def get_or_produce(self, key: Hashable,
                       produce: Callable[[], object]) -> object:
        """Return the cached value, producing (and storing) on a miss."""
        value, hit = self.lookup(key)
        if hit:
            return value
        value = produce()
        self.put(key, value)
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
