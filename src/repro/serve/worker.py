"""Background refresh/compaction worker advancing the served generation.

One daemon thread per serve instance.  Every ``interval_s`` it polls the
:class:`~repro.serve.snapshot.SnapshotManager` (picking up generations a
concurrent :class:`~repro.store.writer.StoreWriter` committed) and, when a
``compact_segments`` threshold is configured and some row kind's committed
segment count exceeds it, runs :func:`~repro.store.compact.compact_store`
in-process — the store drops the column views the replacement commit
invalidated, and the manager's next poll clears the result cache.  Compaction stays opt-in: pinned snapshots from
*before* a replacement commit reference deleted files, so only enable it
when clients tolerate a mid-flight request failing and retrying against
the new generation.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro import obs

__all__ = ["RefreshWorker"]


class RefreshWorker(threading.Thread):
    """Daemon thread that keeps the served generation fresh."""

    def __init__(self, manager, *, interval_s: float = 1.0,
                 compact_segments: Optional[int] = None) -> None:
        super().__init__(name="repro-serve-refresh", daemon=True)
        self.manager = manager
        self.interval_s = interval_s
        self.compact_segments = compact_segments
        self.compactions = 0
        self._stop_event = threading.Event()

    def run(self) -> None:  # pragma: no cover - exercised via serve tests
        while not self._stop_event.wait(self.interval_s):
            self.tick()

    def tick(self) -> None:
        """One poll (+ optional compaction); also callable synchronously."""
        try:
            self.manager.poll()
            if self.compact_segments is not None and self._oversharded():
                from repro.store.compact import compact_store

                compact_store(self.manager.store)
                self.compactions += 1
                obs.count("serve.compactions")
                self.manager.poll()
        except Exception:
            # The server must outlive a transient refresh failure (e.g. a
            # manifest read racing a slow filesystem); the next tick retries.
            obs.count("serve.refresh_errors")

    def _oversharded(self) -> bool:
        counts: dict[str, int] = {}
        for meta in self.manager.store.segments:
            counts[meta.kind] = counts.get(meta.kind, 0) + 1
        return any(count > self.compact_segments for count in counts.values())

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout)

    def stats(self) -> dict:
        return {"interval_s": self.interval_s,
                "compact_segments": self.compact_segments,
                "compactions": self.compactions,
                "running": self.is_alive()}
