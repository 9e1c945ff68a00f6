"""Segment compaction: merge many small committed segments into few.

Streaming ingestion (sweeps, fleet simulations) seals a segment every
``rows_per_segment`` rows, so a long campaign accumulates many small
segments — each one a file pair to open, a manifest entry to check and a
column cache to load.  Compaction rewrites a kind's committed rows, **in
exactly their current order**, into the minimal number of fresh segments and
atomically swaps the manifest over to them:

* query results are **bit-for-bit identical** before and after — rows,
  order, checksummed content and column dtypes all round-trip through the
  same segment writers that sealed them originally;
* the swap is one atomic manifest rewrite, so readers see either the old
  layout or the new one, never a mixture; a crash mid-compaction leaves the
  old manifest in force (fresh segment files without a manifest entry are
  invisible and get cleaned up by the next successful compaction);
* old segment files are deleted only after the new manifest is durable.

Compaction is also the **row -> columnar converter**: with
``output_format`` the rewritten segments seal in the requested format
(``"columnar"`` packs the concatenated column arrays directly — no pivot
through row dicts).  By default each kind converges to columnar as soon as
any of its segments already is (mixed kinds end up uniform), while
pure-JSONL kinds stay JSONL — compacting a pre-v3 store never silently
changes its format.  The opposite direction (columnar -> JSONL) is
:func:`~repro.store.export.export_store`'s job.

The store names the replacement segments and swaps them in with its one
commit function, which owns the splice rule.  Compaction takes the
single-writer seat: like :class:`~repro.store.writer.StoreWriter`, it must
not run beside a writer on another handle of the same store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.store.schema import kind_for
from repro.store.segment import (FORMAT_COLUMNAR, FORMAT_JSONL, SegmentMeta,
                                 segment_bytes, write_columnar_segment,
                                 write_segment)
from repro.store.store import ResultStore

__all__ = ["CompactionStats", "compact_store", "reseal_kind"]

#: Accepted ``output_format`` values (``None`` = per-kind convergence).
_OUTPUT_FORMATS = (FORMAT_JSONL, FORMAT_COLUMNAR)


@dataclass(frozen=True)
class CompactionStats:
    """What one compaction pass did."""

    segments_before: int
    segments_after: int
    rows_rewritten: int
    kinds_compacted: tuple[str, ...]
    files_removed: int
    #: Old segment bytes removed (data files + npz caches) minus new
    #: segment bytes written.  Negative when compaction grew the store (e.g. a
    #: JSONL -> columnar conversion of incompressible data).
    bytes_reclaimed: int = 0


def _plan_chunks(total_rows: int, rows_per_segment: Optional[int]) -> int:
    """How many segments a kind's rows compact into."""
    if rows_per_segment is None:
        return 1 if total_rows else 0
    return (total_rows + rows_per_segment - 1) // rows_per_segment


def reseal_kind(store: ResultStore, name: str, *,
                rows_per_segment: Optional[int], output_format: str,
                into: Optional[ResultStore] = None,
                compress: bool = False) -> list[SegmentMeta]:
    """Rewrite one kind's committed rows, in order, into fresh segments.

    The shared rewrite core of :func:`compact_store` (which seals into
    ``store`` itself) and :func:`~repro.store.export.export_store` (which
    seals into the fresh store ``into``).  The segments are named by the
    store they seal into and stay uncommitted.  Columnar output
    concatenates the column arrays across the source segments — no pivot
    through per-row dicts; JSONL output gathers the rows.  Returns the
    sealed metas.
    """
    if output_format not in _OUTPUT_FORMATS:
        raise ValueError(
            f"unknown output format {output_format!r} (have {_OUTPUT_FORMATS})")
    into = store if into is None else into
    kind = kind_for(name)
    sealed: list[SegmentMeta] = []
    if output_format == FORMAT_COLUMNAR:
        parts = [store.columns_for(meta) for meta in store.segments_for(name)]
        columns = {
            column.name: np.concatenate(
                [part[column.name] for part in parts]) if parts
            else np.empty(0, dtype=column.numpy_dtype)
            for column in kind.columns
        }
        total = store.num_rows(name)
        chunk = rows_per_segment if rows_per_segment is not None \
            else max(1, total)
        for start in range(0, total, chunk):
            sealed.append(write_columnar_segment(
                into.segments_dir, into._allocate_name(name), kind,
                {col: array[start:start + chunk]
                 for col, array in columns.items()}, compress=compress))
        return sealed
    rows: list[dict] = []
    for meta in store.segments_for(name):
        rows.extend(store.rows_for(meta))
    chunk = rows_per_segment if rows_per_segment is not None \
        else max(1, len(rows))
    for start in range(0, len(rows), chunk):
        sealed.append(write_segment(
            into.segments_dir, into._allocate_name(name), kind,
            rows[start:start + chunk]))
    return sealed


def compact_store(store: Union[ResultStore, str, Path], *,
                  rows_per_segment: Optional[int] = None,
                  kinds: Optional[Sequence[str]] = None,
                  output_format: Optional[str] = None,
                  compress: bool = False) -> CompactionStats:
    """Merge a store's small segments; returns what changed.

    ``rows_per_segment`` of ``None`` merges each kind into a single segment;
    otherwise rows re-chunk at that size.  ``kinds`` restricts the pass to
    the named row kinds (default: every kind in the store).
    ``output_format`` forces the rewritten segments' format (``"jsonl"`` or
    ``"columnar"``); ``None`` converges each kind to columnar if any of its
    segments already is, and keeps pure-JSONL kinds JSONL.  ``compress``
    zlib-deflates the rewritten columnar segments' column sections.  Kinds
    already at (or below) the target segment count *and* uniformly in the
    target format are left untouched — their existing files and checksums
    stay exactly as committed.
    """
    if rows_per_segment is not None and rows_per_segment <= 0:
        raise ValueError("rows_per_segment must be positive when given")
    if output_format is not None and output_format not in _OUTPUT_FORMATS:
        raise ValueError(
            f"unknown output format {output_format!r} (have {_OUTPUT_FORMATS})")
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    wanted = set(kinds) if kinds is not None else None
    if wanted is not None:
        for name in wanted:
            kind_for(name)  # unknown kinds fail fast

    segments_before = len(store.segments)
    to_compact: dict[str, str] = {}  # kind -> target format
    for name in store.kinds():
        if wanted is not None and name not in wanted:
            continue
        metas = store.segments_for(name)
        target = output_format
        if target is None:
            target = FORMAT_COLUMNAR if any(m.is_columnar for m in metas) \
                else FORMAT_JSONL
        oversharded = len(metas) > _plan_chunks(store.num_rows(name),
                                                rows_per_segment)
        mixed = any(meta.format != target for meta in metas)
        if oversharded or mixed:
            to_compact[name] = target
    if not to_compact:
        return CompactionStats(segments_before, segments_before, 0, (), 0)

    # Seal the replacement segments first; they stay invisible until the
    # commit swaps them in where each kind's first old segment sat.
    new_segments: list[SegmentMeta] = []
    for name, target in to_compact.items():
        new_segments.extend(reseal_kind(
            store, name, rows_per_segment=rows_per_segment,
            output_format=target, compress=compress))
    old_segments = [meta for meta in store.segments
                    if meta.kind in to_compact]
    old_bytes = sum(segment_bytes(store.segments_dir, meta)
                    for meta in old_segments)
    store._commit(new_segments, replacing=old_segments)

    files_removed = 0
    for meta in old_segments:
        for filename in meta.filenames:
            try:
                (store.segments_dir / filename).unlink()
                files_removed += 1
            except FileNotFoundError:  # derived cache never written
                pass

    return CompactionStats(
        segments_before=segments_before,
        segments_after=len(store.segments),
        rows_rewritten=sum(meta.rows for meta in new_segments),
        kinds_compacted=tuple(to_compact),
        files_removed=files_removed,
        bytes_reclaimed=old_bytes - sum(
            segment_bytes(store.segments_dir, meta) for meta in new_segments),
    )
