"""The serve layer's result cache, and the store's view tier in its stats.

Correct caching over a live store falls out of the storage contract:
sealed segments are immutable, and the only thing that ever changes is
the manifest's committed segment list (one generation per commit).  Two
tiers serve repeated and changing reads:

* **view tier** — owned by the store: one column view per row kind
  (:class:`~repro.store.view.KindView`), each column concatenated over
  the kind's committed segments.  An append commit extends a view by
  the new segments alone, and a pinned snapshot reads a prefix of it, so
  every query after a generation advance scans memory plus the newest
  segments.  A replacement commit (compaction) drops the views it
  invalidates and the next query rebuilds them.
* **result tier** — keyed ``(generation, query fragment)``, holding the
  final JSON payload of a request as an :class:`EncodedPayload`: the
  payload dict Python callers get, with its response body encoded once
  when the entry is put, so the server writes a hit's bytes as they
  are.  A generation advance orphans these
  (the segment list they summarise is no longer the served one); the
  :class:`~repro.serve.snapshot.SnapshotManager` evicts non-current
  generations on every swap, and clears the tier on a replacement
  commit.

The result tier is LRU-bounded and thread-safe (many reader threads, one
refresh worker).  :meth:`ServeCache.stats` reports both tiers for
``/v1/stats`` and the benchmarks.  Its ``"segment"`` section keeps the
keys it had when it described a per-(segment, query fragment) tier, now
filled from the view tier: ``entries`` is the number of live views
(``max_entries`` one per row kind), ``hits`` counts scans a kept view
served as it was or extended, ``misses`` the scans that built a view
from scratch; ``segments`` and ``bytes`` say how many segments the views
cover and how much memory they hold.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Optional

from repro import obs

__all__ = ["EncodedPayload", "ServeCache"]


class EncodedPayload(dict):
    """A result-tier payload: the dict itself, plus ``body``, its JSON
    response body (``json.dumps(payload).encode()``), encoded once."""

    __slots__ = ("body",)

    def __init__(self, payload: dict) -> None:
        super().__init__(payload)
        self.body = json.dumps(payload).encode("utf-8")


class _LruTier:
    """One bounded LRU mapping with hit/miss accounting (thread-safe)."""

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = max_entries
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any, *, count_miss: bool = True) -> Optional[Any]:
        """The entry under ``key``, or ``None``; a miss is counted only
        when ``count_miss`` (a caller that will not compute the entry
        leaves the miss to the attempt that does)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                if count_miss:
                    self.misses += 1
                    obs.count(f"serve.cache_{self.name}_misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            obs.count(f"serve.cache_{self.name}_hits")
            return value

    def __contains__(self, key: Any) -> bool:
        """Membership, with no hit/miss counted and no LRU touch."""
        with self._lock:
            return key in self._entries

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def evict(self, predicate) -> int:
        """Drop entries whose key matches ``predicate``; returns how many."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {"entries": len(self._entries), "max_entries": self.max_entries,
                "hits": self.hits, "misses": self.misses}


class ServeCache:
    """The result tier of one serve instance, plus its store's view stats."""

    def __init__(self, *, max_result_entries: int = 256) -> None:
        self._results = _LruTier("result", max_result_entries)
        #: The store whose views the ``"segment"`` stats describe
        #: (:meth:`attach`).
        self._store = None

    def attach(self, store) -> None:
        """Report ``store``'s column views in :meth:`stats`."""
        self._store = store

    # -- result tier ---------------------------------------------------- #
    def get_result(self, generation: int, fragment: str, *,
                   count_miss: bool = True) -> Optional[dict]:
        return self._results.get((generation, fragment),
                                 count_miss=count_miss)

    def has_result(self, generation: int, fragment: str) -> bool:
        """Whether the tier holds the entry (uncounted; see ``get``)."""
        return (generation, fragment) in self._results

    def put_result(self, generation: int, fragment: str,
                   payload: dict) -> EncodedPayload:
        """Hold ``payload``, encoded once; returns the held entry."""
        entry = EncodedPayload(payload)
        self._results.put((generation, fragment), entry)
        return entry

    # -- lifecycle ------------------------------------------------------ #
    def evict_generations(self, keep: int) -> int:
        """Drop result-tier entries of every generation except ``keep``."""
        return self._results.evict(lambda key: key[0] != keep)

    def clear(self) -> None:
        """Drop the result tier (the compaction/replacement response)."""
        self._results.clear()

    def stats(self) -> dict:
        """JSON-able hit/size accounting of both tiers (``/v1/stats``)."""
        views = (self._store.view_stats() if self._store is not None
                 else {"entries": 0, "max_entries": 0, "hits": 0,
                       "misses": 0, "segments": 0, "bytes": 0})
        return {"segment": views, "result": self._results.stats()}
