"""Legacy JSONL segments for the tests of the v2 read path.

Writers seal only packed columnar segments.  JSONL segments (row log plus
npz column cache) are still read, and are written by exports
(``store export --format jsonl``) and ``compact_store(output_format=
"jsonl")`` — which is how these helpers lay them down.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterable, Mapping

from repro.store import ResultStore, compact_store, merge_stores


def jsonl_store(root: Path, kind: str, rows: Iterable[Mapping], *,
                rows_per_segment: int) -> ResultStore:
    """A store holding ``rows`` as JSONL segments of ``rows_per_segment``."""
    store = ResultStore(root)
    with store.writer(rows_per_segment=rows_per_segment) as writer:
        for row in rows:
            writer.append_row(kind, row)
    if store.segments:
        compact_store(store, rows_per_segment=rows_per_segment,
                      output_format="jsonl")
    return store


def append_jsonl(store: ResultStore, kind: str, rows: Iterable[Mapping], *,
                 rows_per_segment: int) -> None:
    """Commit ``rows`` after ``store``'s segments as JSONL segments."""
    staging = store.root.with_name(store.root.name + ".jsonl-staging")
    merge_stores(store, [jsonl_store(staging, kind, rows,
                                     rows_per_segment=rows_per_segment)])
    shutil.rmtree(staging, ignore_errors=True)
