"""A bounded, thread-safe memo with least-recently-used eviction.

Every bounded memo of :mod:`repro.quantum` (pair-state statistics, operator
embeddings, observable projectors, Pauli mixtures, stabilizer distributions)
is a :class:`BoundedMemo`, so bound, eviction and locking are decided once.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from typing import Any, TypeVar

__all__ = ["BoundedMemo"]

_T = TypeVar("_T")


class BoundedMemo:
    """At most *max_entries* computed values, evicting the least recently used.

    A hit moves its entry to the end of the dict and a miss that finds the
    memo full drops the front one, so entries every caller shares survive a
    stream of one-off keys.  One lock makes each hit's move and each miss's
    eviction and insertion one step; *compute* runs outside it, so racing
    misses may each compute (the computes must be deterministic) and the last
    insertion wins.  A ``None`` result is not kept, so it is computed again.
    ``hits`` and ``misses`` count lookups.
    """

    __slots__ = ("max_entries", "hits", "misses", "_entries", "_lock")

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (the counters keep counting)."""
        with self._lock:
            self._entries.clear()

    def get(self, key: Hashable, compute: Callable[..., _T], *args: Any) -> _T:
        """The value kept under *key*, else ``compute(*args)``, kept under *key*."""
        entries = self._entries
        with self._lock:
            value = entries.pop(key, None)
            if value is not None:
                entries[key] = value
                self.hits += 1
                return value
            self.misses += 1
        value = compute(*args)
        if value is None:
            return value
        with self._lock:
            if key not in entries and len(entries) >= self.max_entries:
                del entries[next(iter(entries))]
            entries[key] = value
        return value
