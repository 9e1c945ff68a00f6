"""The persistent results store: manifest, segments and read-side cache.

Layout on disk::

    campaign.store/
      MANIFEST.json          # the only mutable file; updated atomically
      segments/
        executions-000001.colseg   # packed columnar segment (format v3;
        fleet_events-000002.colseg # the payload itself is the checksummed
        ...                        # durable artifact) — what writers seal
        executions-000007.jsonl    # legacy/export only: immutable row log
        executions-000007.npz      # and its derived column cache

The manifest is the commit point: a segment exists for readers if and only if
it is listed there.  Both segment seals and manifest updates are atomic
(tmp-file + fsync + rename), so a crash at any instant leaves the store at
the last committed manifest — partially written files are simply never
referenced and are overwritten by the next seal under the same name.

The store owns both halves of that protocol: segment names are allocated
from the committed ``sequence`` counter (``{kind}-{sequence:06d}``), and
one commit function writes ``MANIFEST.json`` for every writer, compaction,
export and merge.

Queries read through one column view per row kind
(:class:`~repro.store.view.KindView`): segments are immutable and append
commits only add to the list, so the view holds each column over every
committed segment of the kind and an append extends it by the new segments
alone.  That is what makes repeated queries and reports over a growing
campaign incremental — only segments committed since the last read touch
the filesystem.  A replacement commit drops the views it invalidates.

Every manifest commit advances a **generation** counter, and append commits
record the committed segment-prefix length of each generation in a bounded
log.  That makes the manifest's committed-prefix semantics first-class:
:meth:`ResultStore.open_snapshot` pins an immutable
:class:`StoreSnapshot` — a read-only view whose segment list never changes,
even while a writer keeps appending and sealing — and a past generation can
be reopened as long as its entry is still in the log and no replacement
commit (compaction) has rewritten the list since.  Snapshot isolation is
what lets :mod:`repro.serve` answer queries consistently over a store a
campaign is still ingesting into.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.store import segment as segment_io
from repro.store.query import KindSegments, Query
from repro.store.schema import ROW_KINDS, RowKind, kind_for
from repro.store.segment import SegmentMeta, StoreCorruptionError
from repro.store.view import KindView, ViewRows

__all__ = ["ResultStore", "StoreSnapshot", "StoreCorruptionError"]

MANIFEST_NAME = "MANIFEST.json"
SEGMENTS_DIR = "segments"
#: Bumped whenever the on-disk contract changes, so stores written by a
#: *newer* build fail an older build's version gate with a clear error
#: instead of a KeyError deep inside a column scan (v2: fleet_events gained
#: region/wait_ms and the shed/queued targets; v3: segments may be sealed
#: in the packed binary columnar format next to JSONL ones).
FORMAT_VERSION = 3

#: Manifest versions this build reads.  v2 stores are a strict subset of v3
#: (every v2 segment is a JSONL segment), so they open unchanged; the
#: manifest is rewritten at version 3 on the next commit.
READABLE_VERSIONS = (2, FORMAT_VERSION)

#: How many (generation, committed-prefix-length) entries the manifest keeps.
#: Bounds the manifest size on long campaigns; snapshots older than the
#: window simply stop being reopenable by generation number.
GENERATION_LOG_CAP = 1024


class ResultStore:
    """An append-only, sharded, column-oriented store of campaign results.

    Opening a path that holds no manifest yields an empty store; nothing is
    written until a :class:`~repro.store.writer.StoreWriter` commits its first
    segment.  The store object is cheap to hold open across ingestion —
    :meth:`refresh` picks up newly committed segments and keeps the column
    views of those already read.
    """

    def __init__(self, root: Union[str, Path], *,
                 verify: bool = False) -> None:
        self.root = Path(root)
        #: Checksum every segment read, and check at each manifest read
        #: that every listed data file exists.
        self.verify = verify
        #: The committed manifest's header (the list is ``_segments``).
        self._manifest: dict = {"format_version": FORMAT_VERSION,
                                "sequence": 0, "generation": 0,
                                "generations": []}
        self._segments: tuple[SegmentMeta, ...] = ()
        #: ``(segment list, {kind: KindSegments})``: per-kind sublists of
        #: one committed list (:meth:`kind_segments`).
        self._kind_memo: tuple[tuple, dict] = ((), {})
        #: kind -> the column view queries scan (:meth:`view_rows`).
        self._views: dict[str, KindView] = {}
        self._views_lock = threading.Lock()
        #: View accounting: queries served by a kept view (as it was, or
        #: extended) vs. views built from scratch.
        self._view_hits = 0
        self._view_misses = 0
        #: Names handed out by :meth:`_allocate_name` since the last commit.
        self._allocated = 0
        #: name -> (meta, its compact manifest JSON): entries are immutable,
        #: so each is encoded once, not once per commit.
        self._encoded: dict[str, tuple[SegmentMeta, str]] = {}
        self.refresh()

    # ------------------------------------------------------------------ #
    # Manifest plumbing
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        """Path of the manifest file."""
        return self.root / MANIFEST_NAME

    @property
    def segments_dir(self) -> Path:
        """Directory holding the segment files."""
        return self.root / SEGMENTS_DIR

    def refresh(self) -> None:
        """Re-read the manifest, picking up newly committed segments."""
        try:
            data = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            return
        version = data.get("format_version")
        if version not in READABLE_VERSIONS:
            raise StoreCorruptionError(
                f"store at {self.root} has format version {version!r}; "
                f"this build reads versions {READABLE_VERSIONS}")
        # A held meta is kept when its entry still names the same file
        # content, so derived structures (the column views, the encoded
        # entries) keep comparing identical objects.
        held = {meta.name: meta for meta in self._segments}
        kept = []
        for entry in data.pop("segments"):
            meta = held.get(entry["name"])
            if (meta is None or meta.sha256 != entry["sha256"]
                    or meta.rows != int(entry["rows"])):
                meta = SegmentMeta.from_json(entry)
            kept.append(meta)
        segments = tuple(kept)
        # Stores written before generations existed: derive a monotone
        # generation from the sequence counter and pin the current list as
        # the only reopenable prefix (rewritten properly on the next commit).
        if "generation" not in data:
            data["generation"] = int(data.get("sequence", 0))
            data["generations"] = [[data["generation"], len(segments)]]
        if self.verify:
            missing = [meta.name for meta in segments if not
                       (self.segments_dir / meta.data_filename).exists()]
            if missing:
                raise StoreCorruptionError(
                    f"segments {missing} are in the manifest but their data "
                    f"files are missing from {self.segments_dir}")
        self._manifest = data
        self._segments = segments
        self._evict_dropped()

    def _evict_dropped(self) -> None:
        """Drop the encoded entries of segments no longer in the committed
        list, and the views that no longer describe a prefix of it."""
        live = {meta.name for meta in self._segments}
        for name in [name for name in self._encoded if name not in live]:
            del self._encoded[name]
        with self._views_lock:
            for kind, view in list(self._views.items()):
                if not view.follows(self.segments_for(kind)):
                    del self._views[kind]

    def _allocate_name(self, kind: str) -> str:
        """Name a new segment of ``kind`` for this handle's pending commit.

        Names number on from the committed ``sequence``, and the next
        :meth:`_commit` advances ``sequence`` past every name handed out
        since the last one, so names never repeat.  A crash before that
        commit leaves ``sequence`` unchanged on disk: a retry from a fresh
        handle allocates the same names, and its atomic renames converge
        the orphaned files instead of leaking duplicates.
        """
        self._allocated += 1
        return f"{kind}-{self.sequence + self._allocated:06d}"

    def _entry_json(self, meta: SegmentMeta) -> str:
        cached = self._encoded.get(meta.name)
        if cached is None or cached[0] is not meta:
            cached = self._encoded[meta.name] = (
                meta, json.dumps(meta.to_json(), separators=(",", ":")))
        return cached[1]

    def _commit(self, segments: Sequence[SegmentMeta], *,
                replacing: Sequence[SegmentMeta] = ()) -> None:
        """Atomically commit ``segments``; the one writer of the manifest.

        Without ``replacing`` the segments append to the committed list and
        the generation log records the new prefix.  Otherwise the
        ``replacing`` segments leave the list, each kind's new segments take
        the place of its first replaced one (so every kind keeps its scan
        order), and the generation log restarts: the old prefixes no longer
        describe the list.  Caches of dropped segments are evicted.
        """
        generation = self.generation + 1
        dropped = {meta.name for meta in replacing}
        if dropped:
            unknown = dropped - {meta.name for meta in self._segments}
            if unknown:
                raise ValueError(
                    f"cannot replace uncommitted segments {sorted(unknown)}")
            by_kind: dict[str, list[SegmentMeta]] = {}
            for meta in segments:
                by_kind.setdefault(meta.kind, []).append(meta)
            spliced: list[SegmentMeta] = []
            for meta in self._segments:
                if meta.name not in dropped:
                    spliced.append(meta)
                else:
                    spliced.extend(by_kind.pop(meta.kind, ()))
            spliced.extend(meta for meta in segments if meta.kind in by_kind)
            committed = tuple(spliced)
            generations = [[generation, len(committed)]]
        else:
            committed = self._segments + tuple(segments)
            generations = [list(entry) for entry in
                           self._manifest.get("generations", ())]
            generations.append([generation, len(committed)])
        manifest = {
            "format_version": FORMAT_VERSION,
            "sequence": self.sequence + self._allocated,
            "generation": generation,
            "generations": generations[-GENERATION_LOG_CAP:],
        }
        # Compact JSON, with each immutable segment entry encoded once.
        head = json.dumps(manifest, separators=(",", ":"))
        body = ",".join(self._entry_json(meta) for meta in committed)
        self.root.mkdir(parents=True, exist_ok=True)
        segment_io.atomic_write_bytes(
            self.manifest_path,
            f'{head[:-1]},"segments":[{body}]}}\n'.encode("utf-8"))
        self._manifest = manifest
        self._segments = committed
        self._allocated = 0
        if dropped:
            self._evict_dropped()

    @property
    def sequence(self) -> int:
        """Committed segment sequence number (new names number on from it)."""
        return int(self._manifest.get("sequence", 0))

    @property
    def generation(self) -> int:
        """Monotonic manifest-commit counter (+1 per commit of any kind)."""
        return int(self._manifest.get("generation", 0))

    def generations(self) -> dict[int, int]:
        """Reopenable generations: ``{generation: committed prefix length}``.

        Append commits extend the log; replacement commits (compaction)
        restart it, because the old prefixes no longer describe the new
        segment list.  Bounded at :data:`GENERATION_LOG_CAP` entries.
        """
        return {int(gen): int(length)
                for gen, length in self._manifest.get("generations", ())}

    def open_snapshot(self, generation: Optional[int] = None
                      ) -> "StoreSnapshot":
        """Pin an immutable read view of one committed generation.

        With no argument, pins whatever this handle currently sees (call
        :meth:`refresh` first to pin the latest on-disk commit).  Passing a
        ``generation`` reopens that committed prefix, as long as it is still
        in the manifest's generation log — a :class:`KeyError` otherwise.
        The snapshot shares this store's column views, so segments already
        read are served from memory.
        """
        if generation is None or generation == self.generation:
            return StoreSnapshot(self, self.generation, self._segments)
        prefix = self.generations().get(generation)
        if prefix is None or prefix > len(self._segments):
            raise KeyError(
                f"generation {generation} is not reopenable (store is at "
                f"generation {self.generation}; the log keeps "
                f"{len(self.generations())} append generations)")
        return StoreSnapshot(self, generation, self._segments[:prefix])

    def info_payload(self) -> dict:
        """Machine-readable store summary (``store info --json``, /v1/stats).

        Everything in it is JSON-native: identity (root, format/manifest
        state), the per-kind :meth:`format_summary`, and the committed
        segment list.  CI assertions and the serve layer's ``/v1/stats``
        endpoint both read this shape.
        """
        return {
            "root": str(self.root),
            "format_version": int(self._manifest.get("format_version",
                                                     FORMAT_VERSION)),
            "sequence": self.sequence,
            "generation": self.generation,
            "segments": len(self._segments),
            "rows": self.num_rows(),
            "kinds": {kind: self.num_rows(kind) for kind in self.kinds()},
            "summary": self.format_summary(),
            "segment_list": [
                {"name": meta.name, "kind": meta.kind, "format": meta.format,
                 "rows": meta.rows, "sha256": meta.sha256}
                for meta in self._segments
            ],
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def segments(self) -> tuple[SegmentMeta, ...]:
        """Committed segments, in commit order."""
        return self._segments

    def segments_for(self, kind: Union[str, RowKind]) -> tuple[SegmentMeta, ...]:
        """Committed segments of one row kind, in commit order."""
        return self.kind_segments(kind).metas

    def kind_segments(self, kind: Union[str, RowKind]) -> KindSegments:
        """One row kind's committed segments and their pruning stats.

        Built once per committed segment list and kind, and dropped with
        the list: the next commit or refresh starts a fresh memo.
        """
        name = kind if isinstance(kind, str) else kind.name
        segments, memo = self._kind_memo
        if segments is not self._segments:
            segments = self._segments
            memo = {}
            self._kind_memo = (segments, memo)
        found = memo.get(name)
        if found is None:
            found = memo[name] = KindSegments(
                tuple(meta for meta in segments if meta.kind == name))
        return found

    def kinds(self) -> tuple[str, ...]:
        """Row kinds with at least one committed segment, in first-commit order."""
        seen: dict[str, None] = {}
        for meta in self._segments:
            seen.setdefault(meta.kind, None)
        return tuple(seen)

    def num_rows(self, kind: Optional[str] = None) -> int:
        """Committed row count, overall or for one kind."""
        return sum(meta.rows for meta in self._segments
                   if kind is None or meta.kind == kind)

    def format_summary(self) -> dict[str, dict]:
        """Per-kind segment format mix, row counts and on-disk bytes.

        One entry per committed row kind:
        ``{"segments": n, "rows": n, "bytes": n, "formats": {fmt: count}}``
        where ``bytes`` sums every file each segment owns on disk (row log
        + column cache for JSONL segments, the packed payload for columnar
        ones; missing derived files count as 0).  The ``store info`` CLI
        prints this so operators can see what a campaign actually wrote.
        """
        summary: dict[str, dict] = {}
        for meta in self._segments:
            entry = summary.setdefault(meta.kind, {
                "segments": 0, "rows": 0, "bytes": 0, "formats": {}})
            entry["segments"] += 1
            entry["rows"] += meta.rows
            entry["formats"][meta.format] = \
                entry["formats"].get(meta.format, 0) + 1
            entry["bytes"] += segment_io.segment_bytes(self.segments_dir, meta)
        return summary

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def columns_for(self, meta: SegmentMeta) -> Mapping[str, np.ndarray]:
        """Column arrays of one committed segment, read on every call.

        A columnar segment is mapped read-only and its columns decode on
        first subscript (raw ones zero-copy); a JSONL segment reads its
        npz cache (:func:`~repro.store.segment.load_columns`).  Nothing is
        cached here: the column views are the query cache, and compaction
        and export read each segment once.
        """
        return segment_io.load_columns(
            self.segments_dir, meta, kind_for(meta.kind), verify=self.verify)

    def view_rows(self, kind: RowKind, metas: Sequence[SegmentMeta],
                  names: Sequence[str], ranges: Sequence[tuple[int, int]]
                  ) -> ViewRows:
        """Row ``ranges`` of ``kind``'s column view over ``metas``.

        ``metas`` is the kind's segment list as a query source sees it
        (this store's, or a pinned snapshot's), ``ranges`` are row ranges
        over their concatenation, and ``names`` the columns to read.  The
        kind's kept view serves every list that is a prefix of it or
        extends it; a list from before a replacement commit gets a view
        of its own that is not kept.  Segments the view lacks are read
        one after another, on the calling thread.
        """
        with self._views_lock:
            view = self._views.get(kind.name)
            if view is not None and view.follows(metas):
                self._view_hits += 1
            else:
                view = KindView(kind)
                self._view_misses += 1
                if tuple(metas) == self.segments_for(kind)[:len(metas)]:
                    self._views[kind.name] = view
        return view.rows(metas, names, ranges, self.columns_for)

    def view_stats(self) -> dict:
        """Accounting of the kept column views (``/v1/stats``).

        ``entries`` views are kept (at most ``max_entries``, one per row
        kind), covering ``segments`` segments in ``bytes`` of buffers;
        ``hits`` counts scans a kept view served, as it was or extended,
        and ``misses`` scans that built a view from scratch.
        """
        views = list(self._views.values())
        return {"entries": len(views), "max_entries": len(ROW_KINDS),
                "hits": self._view_hits, "misses": self._view_misses,
                "segments": sum(view.segments for view in views),
                "bytes": sum(view.nbytes for view in views)}

    def rows_for(self, meta: SegmentMeta) -> list[dict]:
        """Rows of one committed segment, whichever format it was sealed in."""
        return segment_io.load_rows(self.segments_dir, meta, verify=self.verify)

    def iter_rows(self, kind: str) -> Iterator[dict]:
        """Every committed row of a kind, in ingestion order."""
        for meta in self.segments_for(kind):
            yield from self.rows_for(meta)

    def query(self, kind: str) -> Query:
        """Start a :class:`~repro.store.query.Query` over one row kind.

        The query scans the kind's column view once, on the calling
        thread.
        """
        return Query(self, kind_for(kind))

    # ------------------------------------------------------------------ #
    # Writes / integrity
    # ------------------------------------------------------------------ #
    def writer(self, *, rows_per_segment: int = 4096,
               compress: bool = False) -> "StoreWriter":
        """A streaming writer appending new segments to this store.

        ``compress`` applies per-column zlib compression to the columnar
        segments this writer seals (recorded in each segment's header;
        readers need no flag).
        """
        from repro.store.writer import StoreWriter

        return StoreWriter(self, rows_per_segment=rows_per_segment,
                           compress=compress)

    def verify_integrity(self) -> int:
        """Check every committed segment against its checksum.

        Returns the number of segments verified; raises
        :class:`StoreCorruptionError` on the first mismatch.
        """
        for meta in self._segments:
            segment_io.verify_segment(self.segments_dir, meta)
        return len(self._segments)

    def __repr__(self) -> str:
        per_kind = ", ".join(f"{kind}={self.num_rows(kind)}"
                             for kind in self.kinds()) or "empty"
        return f"ResultStore({str(self.root)!r}: {per_kind})"


class StoreSnapshot:
    """An immutable, generation-pinned read view of a :class:`ResultStore`.

    Behaves like the read side of a store — :meth:`query`, the report
    servers and the fleet/cloud report functions all accept one — but its
    segment list is frozen at construction: commits landing after the pin
    are invisible, so every read over the snapshot is consistent even while
    a writer appends concurrently.  :meth:`refresh` is deliberately a no-op.

    Column reads delegate to the parent store, sharing its column views
    (sealed segments are immutable and appends only extend a view, so a
    snapshot reads a prefix of the same view).  The one hazard is
    *replacement* commits: compaction deletes the files of dropped
    segments, so a snapshot pinned before a compaction may fail reads
    afterwards — pin-across-append is the supported regime.
    """

    def __init__(self, store: ResultStore, generation: int,
                 segments: Sequence[SegmentMeta]) -> None:
        self._store = store
        #: The pinned manifest generation (constant for the snapshot's life).
        self.generation = generation
        self._segments = tuple(segments)
        self._kind_memo: tuple[tuple, dict] = ((), {})
        self.root = store.root

    @property
    def segments_dir(self) -> Path:
        """Directory holding the segment files (the parent store's)."""
        return self._store.segments_dir

    @property
    def segments(self) -> tuple[SegmentMeta, ...]:
        """The pinned committed segments, in commit order."""
        return self._segments

    def refresh(self) -> None:
        """No-op: a snapshot never sees commits made after its pin."""

    def columns_for(self, meta: SegmentMeta) -> Mapping[str, np.ndarray]:
        """Column arrays of one pinned segment, read through the parent."""
        return self._store.columns_for(meta)

    def rows_for(self, meta: SegmentMeta) -> list[dict]:
        """Rows of one pinned segment, whichever format it was sealed in."""
        return self._store.rows_for(meta)

    def view_rows(self, kind: RowKind, metas: Sequence[SegmentMeta],
                  names: Sequence[str], ranges: Sequence[tuple[int, int]]
                  ) -> ViewRows:
        """Row ranges of the parent store's column view (a prefix of it)."""
        return self._store.view_rows(kind, metas, names, ranges)

    # Pure segment-list reads are identical to the store's; share the
    # implementations so the two views can never diverge.
    segments_for = ResultStore.segments_for
    kind_segments = ResultStore.kind_segments
    kinds = ResultStore.kinds
    num_rows = ResultStore.num_rows
    format_summary = ResultStore.format_summary
    iter_rows = ResultStore.iter_rows
    query = ResultStore.query

    def __repr__(self) -> str:
        per_kind = ", ".join(f"{kind}={self.num_rows(kind)}"
                             for kind in self.kinds()) or "empty"
        return (f"StoreSnapshot({str(self.root)!r}@g{self.generation}: "
                f"{per_kind})")
