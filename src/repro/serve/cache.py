"""The serve layer's two-tier result cache.

Correct caching over a live store falls out of the storage contract:
sealed segments are immutable, and the only thing that ever changes is
the manifest's committed segment list (one generation per commit).  So
the cache has two tiers with different lifetimes:

* **segment tier** — keyed ``(segment name, query fragment)``, holding
  the masked column arrays one query evaluated over one segment.  Sealed
  segments never change, so these entries *cannot* go stale within a
  generation history, and they survive generation advances.  A query
  re-run after new seals reuses them only while they are still in the
  LRU: every cold query inserts one entry per segment it scans, so the
  tier helps only when (distinct cold queries x segments) fits in
  ``max_segment_entries``.  When it does not, the older segments'
  entries are evicted before they are asked for again and a re-run
  rescans every segment.  The ``serve_live`` benchmark mix is such a
  case: ~78 distinct cold queries per generation over 48-68 segments
  insert ~4.5k entries per generation against the default 1,024, for a
  hit ratio near 0.01.
* **result tier** — keyed ``(generation, query fragment)``, holding the
  final JSON payload of a request.  A generation advance orphans these
  (the segment list they summarise is no longer the served one); the
  :class:`~repro.serve.snapshot.SnapshotManager` evicts non-current
  generations on every swap.

Compaction is the one event that invalidates the segment tier: a
replacement commit drops segment files, so the worker clears everything
when it observes one (detected as a served-prefix mismatch).

Both tiers are LRU-bounded and thread-safe (many reader threads, one
refresh worker).  Hit/miss counts feed :mod:`repro.obs` counters so the
``/v1/stats`` endpoint and the benchmark gates can see cache behaviour.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

from repro import obs
from repro.store.query import Query, QueryStats

__all__ = ["ServeCache", "CachedQuery"]


class _LruTier:
    """One bounded LRU mapping with hit/miss accounting (thread-safe)."""

    def __init__(self, name: str, max_entries: int) -> None:
        self.name = name
        self.max_entries = max_entries
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Optional[Any]:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                obs.count(f"serve.cache_{self.name}_misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            obs.count(f"serve.cache_{self.name}_hits")
            return value

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
    """Segment-tier + result-tier caches of one serve instance."""

    def __init__(self, *, max_segment_entries: int = 1024,
                 max_result_entries: int = 256) -> None:
        self._segments = _LruTier("segment", max_segment_entries)
        self._results = _LruTier("result", max_result_entries)

    # -- segment tier --------------------------------------------------- #
    def get_segment(self, segment: str, fragment: str
                    ) -> Optional[tuple[Optional[dict], int]]:
        """Cached evaluation of one (segment, fragment); miss = ``None``.

        Entries are the ``(payload, matched)`` pairs the query engine's
        per-segment hook produces — payload ``None`` when the segment was
        pruned or matched nothing (cache-worthy outcomes too, stored as
        ``(None, 0)`` so they stay distinguishable from a miss).
        """
        return self._segments.get((segment, fragment))

    def put_segment(self, segment: str, fragment: str,
                    payload: Optional[dict], matched: int) -> None:
        self._segments.put((segment, fragment), (payload, int(matched)))

    # -- result tier ---------------------------------------------------- #
    def get_result(self, generation: int, fragment: str) -> Optional[dict]:
        return self._results.get((generation, fragment))

    def put_result(self, generation: int, fragment: str,
                   payload: dict) -> None:
        self._results.put((generation, fragment), payload)

    # -- lifecycle ------------------------------------------------------ #
    def evict_generations(self, keep: int) -> int:
        """Drop result-tier entries of every generation except ``keep``."""
        return self._results.evict(lambda key: key[0] != keep)

    def clear(self) -> None:
        """Drop both tiers (the compaction/replacement response)."""
        self._segments.clear()
        self._results.clear()

    def stats(self) -> dict:
        """JSON-able hit/size accounting of both tiers (``/v1/stats``)."""
        return {"segment": self._segments.stats(),
                "result": self._results.stats()}


class CachedQuery(Query):
    """A :class:`~repro.store.query.Query` with segment-tier memoisation.

    Identical semantics to the plain query — it overrides the single
    per-segment evaluation hook
    (:meth:`~repro.store.query.Query._segment_result`) and routes every
    cache miss through the base implementation — but a segment already
    evaluated under the same ``(predicates, columns, coded)`` fragment is
    answered from memory without touching its column arrays.  Results
    (including row counts and coded group-key parts) are therefore
    bit-identical to the uncached path by construction; only
    :attr:`stats` differs (``segments_cached`` instead of
    ``segments_scanned``).  Because the hook is the one override, the
    cache composes with parallel thread scans unchanged (the tiers are
    lock-protected); process scans bypass it — workers cannot see the
    coordinator's cache — and simply scan.
    """

    def __init__(self, store, kind, *, cache: ServeCache,
                 fragment: str) -> None:
        super().__init__(store, kind)
        self._cache = cache
        #: Canonical request-fragment prefix (kind + predicates + shape);
        #: the per-call column/coded sets are appended per lookup.
        self._fragment = fragment

    def _segment_result(self, meta, columns: tuple, coded: frozenset
                        ) -> tuple[Optional[dict], int, QueryStats]:
        fragment = f"{self._fragment}|cols={','.join(columns)}"
        if coded:
            fragment += f"|coded={','.join(sorted(coded))}"
        entry = self._cache.get_segment(meta.name, fragment)
        if entry is not None:
            payload, matched = entry
            return payload, matched, QueryStats(segments_total=1,
                                                segments_cached=1)
        payload, matched, delta = super()._segment_result(meta, columns,
                                                          coded)
        self._cache.put_segment(meta.name, fragment, payload, matched)
        return payload, matched, delta
