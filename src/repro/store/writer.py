"""Streaming ingestion into a :class:`~repro.store.store.ResultStore`.

The writer accepts pipeline objects (:class:`ExecutionResult`,
:class:`ModelRecord`, :class:`AppRecord`, :class:`ScenarioResult`), raw
rows, or — the fleet-scale fast path — whole **column batches**
(:meth:`StoreWriter.append_batch`), buffers them per row kind, and seals a
segment whenever a buffer reaches ``rows_per_segment`` (and at
:meth:`flush`/:meth:`close`).  Sealing follows the commit protocol of
:mod:`repro.store.segment`:

1. pivot any buffered row dicts into one column chunk
   (:func:`~repro.store.segment.build_columns`) and concatenate the kind's
   buffered chunks;
2. write each ``rows_per_segment`` slice as a packed columnar segment
   (:func:`~repro.store.segment.write_columnar_segment`), atomically and
   checksummed — the one on-disk format every write seals, with no
   derived state beside it;
3. atomically rewrite ``MANIFEST.json`` to reference the new segments.

Only step 3 makes rows visible, so a crash at any point loses at most the
rows buffered since the last seal — never previously committed data, and
never a torn segment.  Row and batch appends may be mixed freely, even for
the same kind: buffered rows become one column chunk, in append order,
before the next batch is buffered behind them, so ingestion order is
preserved exactly and both modes share one seal path.  (JSONL segments are
written only by ``store export --format jsonl`` and
``compact_store(output_format="jsonl")``.)

The row path validates each row against a precomputed frozen column-name
set (one set comparison per row: missing and unknown columns are both
rejected, as on the batch path) and pivots its buffered dicts once per
seal; the batch path validates once per batch, vectorised over the arrays
— no per-row dicts at all, stats straight off the column arrays.
``benchmarks/test_bench_ingest.py`` gates batch ingestion at >= 10x
per-row JSONL ingestion and records ``append_row``'s rate beside it.
Buffering is O(1) per append: a running row count per kind decides when
to seal, so a stream of many small batches costs no more bookkeeping per
batch than one large batch (the buffered chunks are concatenated once, at
the seal).

The writer is the sweep's ``on_result`` sink: pass ``writer.append``
directly as the callback, or use
:meth:`~repro.runtime.sweep.SweepRunner.run_to_store`.

Each seal takes its segment's name from the store handle, never from a
counter cached by the writer.  Separate handles allocate from their own
view of the manifest, so it is one writer per store at a time
(single-writer, many-reader is the supported regime).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Union

import numpy as np

from repro import obs
from repro.store.columnar import coerce_batch
from repro.store.schema import RowKind, kind_for, kind_of_object
from repro.store.segment import (SegmentMeta, build_columns, segment_bytes,
                                 write_columnar_segment)
from repro.store.store import ResultStore

__all__ = ["StoreWriter", "ingest_snapshot"]


class StoreWriter:
    """Append-only, batching writer over one open store."""

    def __init__(self, store: ResultStore, *, rows_per_segment: int = 4096,
                 compress: bool = False) -> None:
        if rows_per_segment <= 0:
            raise ValueError("rows_per_segment must be positive")
        self.store = store
        self.rows_per_segment = rows_per_segment
        #: zlib-compress columnar segment sections when that wins.
        self.compress = compress
        #: kind -> row dicts appended since the kind's last chunk boundary.
        self._pending_rows: dict[str, list[dict]] = {}
        #: kind -> buffered column chunks (schema-coerced batches and
        #: pivoted row runs, in append order).
        self._pending_batches: dict[str, list[dict[str, np.ndarray]]] = {}
        #: kind -> rows in ``_pending_batches`` (a running count, so an
        #: append costs O(1) however many chunks are buffered).  Rows still
        #: in ``_pending_rows`` are not included.
        self._batch_rows: dict[str, int] = {}
        self._closed = False
        #: Rows committed (sealed + manifest-visible) by this writer.
        self.rows_committed = 0
        #: Segments sealed by this writer.
        self.segments_sealed = 0

    # ------------------------------------------------------------------ #
    # Appends
    # ------------------------------------------------------------------ #
    def append(self, obj: Any) -> None:
        """Append one pipeline object, dispatching on its type."""
        kind = kind_of_object(obj)
        self.append_row(kind, kind.to_row(obj))

    def append_row(self, kind: Union[str, RowKind], row: Mapping) -> None:
        """Append one already-flattened row of an explicit kind.

        The row must name exactly the kind's columns: a missing column or
        an unknown (e.g. misspelt) one raises :class:`ValueError`, as
        :func:`~repro.store.columnar.coerce_batch` does for batches.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        if isinstance(kind, str):
            kind = kind_for(kind)
        if row.keys() != kind.column_name_set:
            missing = [c.name for c in kind.columns if c.name not in row]
            if missing:
                raise ValueError(
                    f"row for kind {kind.name!r} is missing columns "
                    f"{missing}")
            extra = sorted(set(row) - kind.column_name_set)
            raise ValueError(
                f"row for kind {kind.name!r} has unknown columns {extra}")
        pending = self._pending_rows.setdefault(kind.name, [])
        pending.append(dict(row))
        if len(pending) + self._batch_rows.get(kind.name, 0) \
                >= self.rows_per_segment:
            self._flush(kind.name, seal_partial_batches=False)

    def append_batch(self, kind: Union[str, RowKind],
                     columns: Mapping[str, Any]) -> int:
        """Append one column batch (``{column: array-like}``); returns its rows.

        The batch-native ingestion path: every schema column maps to a 1-D
        array of equal length, validated and dtype-coerced **once per
        batch** (:func:`~repro.store.columnar.coerce_batch`) instead of once
        per row.  Buffered chunks seal by concatenation into a packed
        columnar segment — no per-row dicts, no per-row JSON — once
        ``rows_per_segment`` rows have accumulated (and at
        :meth:`flush`/:meth:`close`).  The buffered-row count is kept
        running, so an append costs O(1) however many chunks are waiting.

        A seal takes each string column's width from everything buffered
        at that moment, so producers that merge many small batches into one
        (:func:`~repro.fleet.simulator.append_block`, one batch per
        simulated block instead of one per user) reproduce the small
        appends' segment bytes by cutting where those would have sealed
        (see :meth:`batch_rows_pending`).  Batches whose arrays are
        read-only through their whole base chain are buffered as they are,
        without a defensive copy.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        if isinstance(kind, str):
            kind = kind_for(kind)
        batch = coerce_batch(kind, columns)
        rows = next(iter(batch.values())).size if batch else 0
        if not rows:
            return 0
        self._chunk_rows(kind)  # rows appended earlier stay ahead of it
        self._pending_batches.setdefault(kind.name, []).append(batch)
        pending = self._batch_rows.get(kind.name, 0) + rows
        self._batch_rows[kind.name] = pending
        if pending >= self.rows_per_segment:
            # Seal only full rows_per_segment slices; the remainder stays
            # buffered so mid-stream segments never under- (or over-) shoot
            # the configured size.
            self._flush(kind.name, seal_partial_batches=False)
        return rows

    def batch_rows_pending(self, kind: Union[str, RowKind]) -> int:
        """Rows of one kind buffered but not yet sealed (either append mode).

        Always below ``rows_per_segment``: the next append seals once the
        running total reaches it.
        """
        name = kind if isinstance(kind, str) else kind.name
        return len(self._pending_rows.get(name, ())) \
            + self._batch_rows.get(name, 0)

    def append_many(self, objects: Iterable[Any]) -> int:
        """Append a stream of pipeline objects; returns how many."""
        count = 0
        for obj in objects:
            self.append(obj)
            count += 1
        return count

    @property
    def rows_pending(self) -> int:
        """Rows buffered but not yet committed (row and batch buffers)."""
        return sum(len(rows) for rows in self._pending_rows.values()) \
            + sum(self._batch_rows.values())

    # ------------------------------------------------------------------ #
    # Sealing
    # ------------------------------------------------------------------ #
    def _chunk_rows(self, kind: RowKind) -> None:
        """Pivot a kind's buffered row dicts into one buffered column chunk.

        The chunk queues behind the kind's earlier chunks, so append order
        is kept.  Each string column is as wide as its longest buffered
        value — what the rows pivot to through ``np.array``.
        """
        rows = self._pending_rows.get(kind.name)
        if not rows:
            return
        self._pending_batches.setdefault(kind.name, []).append(
            build_columns(kind, rows))
        self._batch_rows[kind.name] = \
            self._batch_rows.get(kind.name, 0) + len(rows)
        self._pending_rows[kind.name] = []

    def _concatenated(self, kind: RowKind,
                      chunks: list[dict[str, np.ndarray]]
                      ) -> dict[str, np.ndarray]:
        """One array per column over all buffered chunks of a kind."""
        if len(chunks) == 1:
            return chunks[0]
        return {
            column.name: np.concatenate(
                [chunk[column.name] for chunk in chunks])
            for column in kind.columns
        }

    def _seal_batches(self, kind: RowKind, *,
                      seal_partial: bool) -> list[SegmentMeta]:
        """Seal a kind's buffered rows and chunks in rows_per_segment slices.

        Every mid-stream segment holds exactly ``rows_per_segment`` rows (so
        per-segment pruning stats stay sharp and crash-loss granularity
        honours the knob); only a final seal (``seal_partial``) writes the
        sub-size tail, and a remainder left behind stays buffered as one
        pre-concatenated chunk.
        """
        self._chunk_rows(kind)
        chunks = self._pending_batches.get(kind.name)
        if not chunks:
            return []
        columns = self._concatenated(kind, chunks)
        total = columns[kind.columns[0].name].size
        sealed: list[SegmentMeta] = []
        start = 0
        while total - start >= self.rows_per_segment or \
                (seal_partial and start < total):
            stop = min(start + self.rows_per_segment, total)
            sealed.append(write_columnar_segment(
                self.store.segments_dir, self.store._allocate_name(kind.name),
                kind, {name: array[start:stop]
                       for name, array in columns.items()},
                compress=self.compress))
            start = stop
        self._pending_batches[kind.name] = [] if start >= total else \
            [{name: array[start:] for name, array in columns.items()}]
        self._batch_rows[kind.name] = total - start
        return sealed

    def flush(self, kind: Optional[str] = None) -> None:
        """Seal everything pending (of one kind, or all) and commit."""
        self._flush(kind, seal_partial_batches=True)

    def _flush(self, kind: Optional[str], *,
               seal_partial_batches: bool) -> None:
        collector = obs.get_collector()
        span = (collector.span("store.flush", detail=kind or "")
                if collector is not None and self.rows_pending else obs.NO_SPAN)
        with span:
            kinds = [kind] if kind is not None else \
                list({**self._pending_rows, **self._pending_batches})
            sealed: list[SegmentMeta] = []
            for name in kinds:
                sealed.extend(self._seal_batches(
                    kind_for(name), seal_partial=seal_partial_batches))
            if sealed:
                self.store._commit(sealed)
                rows_sealed = sum(meta.rows for meta in sealed)
                self.segments_sealed += len(sealed)
                self.rows_committed += rows_sealed
                if collector is not None:
                    # Segment payloads are a pure function of the row
                    # stream and writer config, so all three totals are
                    # deterministic-class despite being I/O-shaped.
                    collector.count("store.segments_sealed", len(sealed))
                    collector.count("store.rows_committed", rows_sealed)
                    collector.count("store.bytes_written", sum(
                        segment_bytes(self.store.segments_dir, meta)
                        for meta in sealed))

    def close(self) -> None:
        """Flush everything pending and refuse further appends."""
        if not self._closed:
            self.flush()
            self._closed = True

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Commit what was ingested even when the producing loop failed —
        # partial campaigns are queryable and resumable by design.
        self.close()


def ingest_snapshot(sink: Union[ResultStore, StoreWriter], analysis) -> int:
    """Persist a snapshot analysis (app + model rows) into a store.

    ``analysis`` is a :class:`~repro.core.records.SnapshotAnalysis`; its app
    and model records become ``apps`` / ``models`` rows, giving store-backed
    reports (e.g. the Fig. 15 cloud-API table) the same population the
    in-memory path sees.  Returns the number of rows written.
    """
    if isinstance(sink, StoreWriter):
        count = sink.append_many(analysis.apps)
        count += sink.append_many(analysis.models)
        return count
    with sink.writer() as writer:
        return ingest_snapshot(writer, analysis)
