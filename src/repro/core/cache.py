"""A small LRU cache shared by the replay fast path.

Two users with the same needs:

- the replayer's content-addressed *load cache* (digest-keyed
  verification reports + compiled action programs), which must stay
  bounded under a long-lived serve loop;
- the bench harness's :class:`~repro.bench.harness.RecordingCache`,
  which memoizes expensive record-side work across experiments.

Both want get-or-produce semantics, hit/miss/eviction accounting, and
a capacity bound with least-recently-used eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

#: Cache entries kept when no capacity is given.
DEFAULT_CAPACITY = 64

_MISSING = object()


class LruCache:
    """Bounded key/value store with LRU eviction and accounting.

    ``capacity=None`` means unbounded (the pre-fast-path behaviour of
    the bench recording cache); any positive integer bounds the entry
    count, evicting the least recently *used* entry first.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"cache capacity must be positive, "
                             f"got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- core operations ----------------------------------------------------

    def lookup(self, key: Hashable) -> Tuple[object, bool]:
        """Return ``(value, hit)``; counts the hit or miss."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            return None, False
        self._entries.move_to_end(key)
        self._hits += 1
        return value, True

    def put(self, key: Hashable, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while self._capacity is not None and \
                len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

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
        """Drop every entry; accounting survives (it is cumulative)."""
        self._entries.clear()

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions
