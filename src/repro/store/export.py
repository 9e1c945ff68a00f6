"""Whole-store format conversion: rewrite a campaign in the other format.

:func:`export_store` copies every committed row of a source store into a
**new** store directory, sealing the destination's segments in the requested
format — ``"jsonl"`` to turn packed columnar campaigns back into the
line-oriented, ``grep``-able interchange format (the ``store export``
CLI's default), or ``"columnar"`` to convert a legacy row-oriented store to
the batch-native fast format wholesale.  Rows are preserved in exactly
their committed per-kind order and the destination commits a fresh manifest
through the same atomic protocol every writer uses, so queries and report
tables over the exported store are **bit-for-bit identical** to the source.

The source is never modified; the destination must not already hold a
committed store (exports never silently merge into existing data).  For
in-place conversion of a store's segments use
:func:`~repro.store.compact.compact_store` with ``output_format``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.store.compact import _OUTPUT_FORMATS, reseal_kind
from repro.store.schema import kind_for
from repro.store.segment import (FORMAT_COLUMNAR, FORMAT_JSONL, SegmentMeta,
                                 segment_bytes, write_columnar_segment,
                                 write_segment)
from repro.store.store import ResultStore

__all__ = ["ExportStats", "export_store"]


@dataclass(frozen=True)
class ExportStats:
    """What one export wrote."""

    kinds: tuple[str, ...]
    segments: int
    rows: int
    output_format: str
    #: Exported kinds' on-disk bytes in the source store.
    source_bytes: int = 0
    #: Bytes the destination's fresh segments occupy.  ``source_bytes -
    #: output_bytes`` is what the conversion reclaimed (negative = grew).
    output_bytes: int = 0


def export_store(source: Union[ResultStore, str, Path],
                 dest: Union[str, Path], *,
                 output_format: str = FORMAT_JSONL,
                 rows_per_segment: Optional[int] = None,
                 kinds: Optional[Sequence[str]] = None,
                 compress: bool = False) -> ExportStats:
    """Rewrite ``source``'s committed rows into a fresh store at ``dest``.

    ``rows_per_segment`` of ``None`` keeps the source's segment boundaries
    (each source segment exports as one destination segment); a value
    re-chunks each kind at that size.  ``kinds`` restricts the export to the
    named row kinds (default: every kind in the source).  ``compress``
    zlib-deflates columnar output's column sections.
    """
    if output_format not in _OUTPUT_FORMATS:
        raise ValueError(
            f"unknown output format {output_format!r} (have {_OUTPUT_FORMATS})")
    if rows_per_segment is not None and rows_per_segment <= 0:
        raise ValueError("rows_per_segment must be positive when given")
    if not isinstance(source, ResultStore):
        source = ResultStore(source)
    wanted = set(kinds) if kinds is not None else None
    if wanted is not None:
        for name in wanted:
            kind_for(name)  # unknown kinds fail fast

    destination = ResultStore(dest)
    if destination.segments:
        raise ValueError(
            f"export destination {destination.root} already holds a "
            f"committed store; exports never merge")

    sealed: list[SegmentMeta] = []
    exported_kinds: list[str] = []
    for name in source.kinds():
        if wanted is not None and name not in wanted:
            continue
        exported_kinds.append(name)
        kind = kind_for(name)
        if rows_per_segment is None:
            # Mirror the source's segment boundaries one to one.
            for meta in source.segments_for(name):
                segment_name = destination._allocate_name(name)
                if output_format == FORMAT_COLUMNAR:
                    sealed.append(write_columnar_segment(
                        destination.segments_dir, segment_name, kind,
                        source.columns_for(meta), compress=compress))
                else:
                    sealed.append(write_segment(
                        destination.segments_dir, segment_name, kind,
                        source.rows_for(meta)))
        else:
            # Re-chunking a whole kind is exactly compaction's rewrite,
            # just sealed into the destination store.
            sealed.extend(reseal_kind(
                source, name, rows_per_segment=rows_per_segment,
                output_format=output_format, into=destination,
                compress=compress))

    if sealed:
        destination._commit(sealed)

    source_metas = [meta for name in exported_kinds
                    for meta in source.segments_for(name)]
    return ExportStats(
        kinds=tuple(exported_kinds), segments=len(sealed),
        rows=sum(meta.rows for meta in sealed), output_format=output_format,
        source_bytes=sum(segment_bytes(source.segments_dir, meta)
                         for meta in source_metas),
        output_bytes=sum(segment_bytes(destination.segments_dir, meta)
                         for meta in sealed))
