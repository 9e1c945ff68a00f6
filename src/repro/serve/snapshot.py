"""Generation management: which snapshot the service is serving right now.

:class:`SnapshotManager` owns the live :class:`~repro.store.store.
ResultStore` and publishes one immutable, generation-pinned
:class:`~repro.store.store.StoreSnapshot` at a time.  Every request reads
that snapshot once and evaluates entirely against it, so a request never
observes a half-committed manifest even while a
:class:`~repro.store.writer.StoreWriter` seals segments into the same
directory — the store's committed-prefix contract makes the swap a
pure pointer exchange.

:meth:`SnapshotManager.poll` (driven by the :class:`~repro.serve.worker.
RefreshWorker`) re-reads the manifest and, when the generation advanced,
pins a fresh snapshot and trims the result cache to the new generation.
A replacement commit (compaction) is detected as the served segment list
no longer being a prefix of the new one; that clears the result cache,
because segment files were rewritten (the store itself drops the column
views the commit invalidated).
"""

from __future__ import annotations

import threading

from repro import obs
from repro.store.store import ResultStore, StoreSnapshot

__all__ = ["SnapshotManager"]


class SnapshotManager:
    """Publishes one pinned snapshot per generation."""

    def __init__(self, store: ResultStore, *, cache=None) -> None:
        self.store = store
        self.cache = cache
        if cache is not None:
            cache.attach(store)
        self._lock = threading.Lock()
        store.refresh()
        self._snapshot = store.open_snapshot()
        self.polls = 0
        self.advances = 0
        #: Replacement commits observed (each one cleared the result cache).
        self.invalidations = 0

    @property
    def generation(self) -> int:
        """Generation currently served."""
        return self._snapshot.generation

    def current(self) -> StoreSnapshot:
        """The pinned snapshot; callers hold it for the whole request."""
        with self._lock:
            return self._snapshot

    def poll(self) -> bool:
        """Re-read the manifest; swap in the new generation if it advanced.

        Returns ``True`` when the served generation changed.  Safe to call
        from the refresh worker while reader threads execute requests: the
        readers keep whatever snapshot they already took from
        :meth:`current`, and pinned snapshots stay valid across append commits because the
        old segment list is a committed prefix of the new one.
        """
        self.polls += 1
        obs.count("serve.refresh_polls")
        old_names = [meta.name for meta in self._snapshot.segments]
        self.store.refresh()
        if self.store.generation == self._snapshot.generation:
            return False
        snapshot = self.store.open_snapshot()
        new_names = [meta.name for meta in snapshot.segments]
        replaced = new_names[:len(old_names)] != old_names
        if self.cache is not None:
            if replaced:
                self.cache.clear()
                self.invalidations += 1
                obs.count("serve.cache_invalidations")
            else:
                self.cache.evict_generations(snapshot.generation)
        with self._lock:
            self._snapshot = snapshot
        self.advances += 1
        obs.count("serve.generation_advances")
        return True

    def stats(self) -> dict:
        """Poll/advance accounting for ``/v1/stats``."""
        return {"served_generation": self.generation, "polls": self.polls,
                "advances": self.advances,
                "invalidations": self.invalidations}
