"""Persistent, queryable results store with streaming sweep ingestion.

The paper's deliverable is a campaign — ~1,600 unique models x 6 devices x 7
backends x batch/thread configs — and a campaign's results need to outlive
the process that measured them.  This package is that durability layer:

* :class:`~repro.store.store.ResultStore` — an append-only, sharded,
  column-oriented store (packed columnar segments, checksummed, crash-safe
  via atomic segment rotation; legacy JSONL row logs still read);
* :class:`~repro.store.writer.StoreWriter` — the streaming ingestion sink
  that :class:`~repro.runtime.sweep.SweepRunner` and
  :class:`~repro.core.benchmarker.DeviceBenchmarker` feed; its
  :meth:`~repro.store.writer.StoreWriter.append_batch` is the batch-native
  fast path the fleet/cloud simulators stream column arrays through, and
  row appends seal the same packed binary columnar segments (format
  version 3) — stores mixing them with legacy JSONL segments query
  bit-identically;
* :class:`~repro.store.query.Query` — vectorised filters/aggregations with
  per-segment predicate pushdown;
* :class:`~repro.store.serving.ReportServer` — store-backed versions of
  the reports-layer figure tables, read through :class:`Query`.

See the README's "Results store" section for the on-disk layout and usage.
"""

from repro.store.compact import CompactionStats, compact_store
from repro.store.diff import (DIFF_SPECS, DiffSpec, KindDiff, MetricSpec,
                              StoreDiff, diff_kind, diff_kind_reference,
                              diff_stores)
from repro.store.export import ExportStats, export_store
from repro.store.merge import MergeStats, adopt_segments, merge_stores
from repro.store.query import Query, QueryStats
from repro.store.schema import ROW_KINDS, RowKind, kind_for
from repro.store.segment import (FORMAT_COLUMNAR, FORMAT_JSONL, SegmentMeta,
                                 StoreCorruptionError)
from repro.store.serving import ReportServer
from repro.store.store import ResultStore, StoreSnapshot
from repro.store.writer import StoreWriter, ingest_snapshot

__all__ = [
    "ResultStore",
    "StoreSnapshot",
    "StoreWriter",
    "Query",
    "QueryStats",
    "ReportServer",
    "SegmentMeta",
    "StoreCorruptionError",
    "RowKind",
    "ROW_KINDS",
    "kind_for",
    "ingest_snapshot",
    "compact_store",
    "CompactionStats",
    "export_store",
    "ExportStats",
    "merge_stores",
    "adopt_segments",
    "MergeStats",
    "FORMAT_JSONL",
    "FORMAT_COLUMNAR",
    "DiffSpec",
    "MetricSpec",
    "KindDiff",
    "StoreDiff",
    "DIFF_SPECS",
    "diff_stores",
    "diff_kind",
    "diff_kind_reference",
]
