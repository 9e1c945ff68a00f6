"""The collector: one process's telemetry state, stitchable across pools.

A :class:`Collector` owns three things — deterministic counters,
wall-clock value stats, and finished span records — plus a *per-thread*
parent stack that gives spans their nesting.  All shared state is under
one lock; the parent stack is thread-local so concurrent pool threads
nest their spans independently.

Cross-boundary stitching mirrors how ``MergeStats`` flows out of shard
workers today:

- **process pools** (the campaign coordinator's shard processes, the
  only process fan-out) — the worker installs a fresh collector, runs its
  chunk, and ships back a :class:`~repro.obs.metrics.TelemetrySnapshot`;
  the coordinator calls :meth:`absorb`, which adds counters, folds value
  stats, and grafts the worker's span tree under the coordinator span
  that submitted the chunk (remapping worker-local span ids into this
  collector's id space so they can't collide).
- **thread pools** — worker threads share the coordinator's collector
  directly; :meth:`push_parent` seeds each worker thread's empty parent
  stack with the submitting span's id so the chunk's spans parent
  correctly without any remapping.

Both paths live in :func:`repro.runtime.pool.iter_mapped_chunks`, the
repo's single fan-out point.
"""

from __future__ import annotations

import threading
from typing import List

from repro.obs.metrics import (TelemetrySnapshot, merge_counters,
                               merge_values)
from repro.obs.tracing import Span, SpanRecord

__all__ = ["Collector"]


class Collector:
    """Process-local telemetry registry; see module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._values: dict[str, list] = {}
        self._spans: List[SpanRecord] = []
        self._next_id = 1
        self._local = threading.local()

    # ------------------------------------------------------------------
    # metrics
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a **deterministic** integer counter.

        Only record values here whose total is an exact sum of per-item
        contributions — anything order-, timing-, or chunking-dependent
        belongs in :meth:`observe`.
        """
        n = int(n)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one **wall-clock** observation (duration, rate, delta)."""
        value = float(value)
        with self._lock:
            stat = self._values.get(name)
            if stat is None:
                self._values[name] = [1, value, value, value]
            else:
                stat[0] += 1
                stat[1] += value
                if value < stat[2]:
                    stat[2] = value
                if value > stat[3]:
                    stat[3] = value

    # ------------------------------------------------------------------
    # spans
    def span(self, name: str, *, shard: int = -1, items: int = 0,
             detail: str = "") -> Span:
        """A new span bound to this collector (enter it with ``with``)."""
        return Span(name, collector=self, shard=shard, items=items,
                    detail=detail)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> int:
        """The innermost open span on this thread (``0`` if none)."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def push_parent(self, parent_id: int) -> int:
        """Seed this thread's parent stack (pool-thread stitching).

        Returns a token for :meth:`pop_parent`, which restores the stack
        to its pre-push depth even if spans inside leaked an unbalanced
        enter/exit.
        """
        stack = self._stack()
        stack.append(parent_id)
        return len(stack)

    def pop_parent(self, token: int) -> None:
        """Undo :meth:`push_parent`."""
        stack = self._stack()
        del stack[token - 1:]

    def _alloc_ids(self, n: int) -> int:
        """Reserve ``n`` consecutive span ids; returns the first."""
        with self._lock:
            first = self._next_id
            self._next_id += n
            return first

    def _enter_span(self) -> tuple[int, int]:
        span_id = self._alloc_ids(1)
        stack = self._stack()
        parent_id = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent_id

    def _exit_span(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        record = span.record()
        with self._lock:
            self._spans.append(record)

    # ------------------------------------------------------------------
    # snapshot / stitch
    def snapshot(self) -> TelemetrySnapshot:
        """A picklable copy of everything recorded so far."""
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                values={name: list(stat)
                        for name, stat in self._values.items()},
                spans=list(self._spans),
            )

    def absorb(self, snapshot: TelemetrySnapshot, *,
               parent_id: int = 0) -> None:
        """Stitch a worker's snapshot into this collector.

        Counters add exactly; value stats fold.  The worker's span ids
        (allocated in *its* collector's id space) are remapped into a
        freshly reserved block of this collector's ids, and its root
        spans — ``parent_id == 0`` over there — are re-parented under
        ``parent_id`` here, so the report-time tree shows worker spans
        beneath the coordinator span that dispatched them.
        """
        spans = snapshot.spans
        remapped: List[SpanRecord] = []
        if spans:
            base = self._alloc_ids(len(spans))
            mapping = {record.span_id: base + index
                       for index, record in enumerate(spans)}
            for record in spans:
                new_parent = mapping.get(record.parent_id)
                if new_parent is None:
                    new_parent = parent_id
                remapped.append(SpanRecord(
                    span_id=mapping[record.span_id], parent_id=new_parent,
                    name=record.name, start_s=record.start_s,
                    duration_s=record.duration_s, shard=record.shard,
                    items=record.items, detail=record.detail))
        with self._lock:
            merge_counters(self._counters, snapshot.counters)
            merge_values(self._values, snapshot.values)
            self._spans.extend(remapped)
