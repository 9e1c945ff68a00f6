"""Store-level merge by segment adoption — no row ever rewritten.

The campaign coordinator's merge step: segments sealed in shard-local
stores are *adopted* into a destination store by hard-linking (falling
back to copying) their immutable data files under names the destination
allocates, then committing every adopted segment in **one** manifest
generation.  Because a segment's checksum covers only its payload bytes —
never its name — adoption needs no re-hash and no row rewrite: merging a
10M-row shard costs one ``link(2)`` per segment file plus a manifest
write, independent of row count.  That is the ≥5x-over-re-ingestion win
``benchmarks/test_bench_campaign.py`` gates.

Crash safety inherits the store's single-commit-point design:

* every adopted file lands via tmp-name + ``os.replace`` — never a torn
  file under a final name;
* the manifest commit is the *only* visibility switch.  A crash after
  some (or all) files were adopted but before the commit leaves the
  destination reading exactly its previously committed segments — the
  orphaned files are invisible;
* the destination names adopted segments from its committed
  ``sequence`` counter, which a crashed merge left unchanged on disk, so
  a retry from a fresh handle allocates the *same* target names and
  ``os.replace`` converges the orphans instead of leaking duplicates.

Derived state (``.npz`` column caches of JSONL segments) is never
adopted — the destination rebuilds it lazily on first read, exactly as
after a crash that lost a cache.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import obs
from repro.store.segment import (SegmentMeta, StoreCorruptionError,
                                 _fsync_directory, verify_segment)
from repro.store.store import ResultStore

__all__ = ["MergeStats", "adopt_segments", "merge_stores"]


@dataclass(frozen=True)
class MergeStats:
    """What one merge did, for operators and the CLI."""

    #: Source stores merged.
    sources: int
    #: Segments adopted into the destination.
    segments_adopted: int
    #: Rows those segments carry (no row was rewritten to move them).
    rows_adopted: int
    #: Row kinds adopted, in first-seen order.
    kinds: tuple[str, ...]
    #: Segment files adopted by hard link (same filesystem, zero copy).
    files_linked: int
    #: Segment files adopted by byte copy (cross-device fallback).
    files_copied: int


def _adopt_file(source: Path, dest: Path) -> bool:
    """Place ``source``'s bytes at ``dest`` atomically; True if hard-linked.

    A hard link is the fast path — the shard store and merged store then
    share one on-disk copy, so deleting the shard store afterwards costs
    no data.  Cross-device sources fall back to a byte copy.  Either way
    the bytes land under a tmp name first and ``os.replace`` publishes
    them, so a retry after a crash converges (the tmp is re-created, the
    replace is idempotent).
    """
    tmp = dest.with_name(dest.name + ".adopt-tmp")
    tmp.unlink(missing_ok=True)
    try:
        os.link(source, tmp)
        linked = True
    except OSError:
        shutil.copy2(source, tmp)
        linked = False
    os.replace(tmp, dest)
    return linked


def adopt_segments(dest: ResultStore,
                   sources: Sequence[Union[ResultStore, str, Path]], *,
                   kinds: Optional[Sequence[str]] = None,
                   verify: bool = False
                   ) -> tuple[list[SegmentMeta], MergeStats]:
    """Adopt every committed segment of ``sources`` into ``dest`` — uncommitted.

    Files are placed and fsynced but **nothing is committed**: the caller
    receives the adopted metas (renamed to names ``dest`` allocated for
    its pending commit) and decides what else joins the same manifest
    generation (the campaign coordinator
    seals its merged ``fleet_load`` grid into the same commit).  Source
    order is preserved — segments adopt in source-list order, commit
    order within a source — which is what makes a sharded campaign's
    merged event order match the unsharded run's.

    ``kinds`` restricts adoption to those row kinds; ``verify`` re-hashes
    each adopted file against its manifest checksum after placement.
    """
    dest.root.mkdir(parents=True, exist_ok=True)
    dest.segments_dir.mkdir(parents=True, exist_ok=True)
    wanted = set(kinds) if kinds is not None else None
    adopted: list[SegmentMeta] = []
    seen_kinds: dict[str, None] = {}
    linked = copied = 0
    with obs.span("store.adopt", items=len(sources)):
        for source in sources:
            store = source if isinstance(source, ResultStore) \
                else ResultStore(source)
            if store.root.resolve() == dest.root.resolve():
                raise ValueError("cannot merge a store into itself")
            for meta in store.segments:
                if wanted is not None and meta.kind not in wanted:
                    continue
                new_meta = dataclasses.replace(
                    meta, name=dest._allocate_name(meta.kind))
                for src_name, dst_name in zip(meta.filenames,
                                              new_meta.filenames):
                    src_path = store.segments_dir / src_name
                    if not src_path.exists():
                        if src_name == meta.data_filename:
                            raise StoreCorruptionError(
                                f"segment {meta.name!r} is in the manifest "
                                f"but its {meta.format} data file {src_path} "
                                f"is missing")
                        continue  # derived caches may legitimately be absent
                    if _adopt_file(src_path, dest.segments_dir / dst_name):
                        linked += 1
                    else:
                        copied += 1
                if verify:
                    verify_segment(dest.segments_dir, new_meta)
                adopted.append(new_meta)
                seen_kinds.setdefault(meta.kind, None)
        _fsync_directory(dest.segments_dir)
    stats = MergeStats(sources=len(sources), segments_adopted=len(adopted),
                       rows_adopted=sum(meta.rows for meta in adopted),
                       kinds=tuple(seen_kinds), files_linked=linked,
                       files_copied=copied)
    # Adoption totals are a pure function of the committed source
    # segments — deterministic-class.  Link-vs-copy is filesystem luck,
    # so it stays a wall-clock observation.
    obs.count("store.segments_adopted", stats.segments_adopted)
    obs.count("store.rows_adopted", stats.rows_adopted)
    obs.observe("store.files_linked", linked)
    obs.observe("store.files_copied", copied)
    return adopted, stats


def merge_stores(dest: ResultStore,
                 sources: Sequence[Union[ResultStore, str, Path]], *,
                 kinds: Optional[Sequence[str]] = None,
                 verify: bool = False) -> MergeStats:
    """Merge ``sources`` into ``dest`` in one atomic manifest commit.

    The standalone merge entry point (the ``repro store merge`` CLI):
    adopt every segment, then commit them all at once.  Readers of
    ``dest`` see either none of the merge or all of it.
    """
    adopted, stats = adopt_segments(dest, sources, kinds=kinds,
                                    verify=verify)
    if adopted:
        dest._commit(adopted)
    return stats
