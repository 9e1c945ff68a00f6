"""Immutable store segments: JSONL row logs and binary columnar payloads.

A segment is the unit of durability and of query pruning.  Two on-disk
formats coexist, chosen per segment at seal time and recorded in the
manifest entry:

* a **columnar segment** (format ``"columnar"``, ``<name>.colseg``) makes
  the packed per-column payload of :mod:`repro.store.columnar` the
  checksummed durable artifact itself: one contiguous little-endian buffer
  per schema column behind a JSON header, sealed in a single
  ``tobytes``-and-write and opened as zero-copy ``frombuffer`` views.  It
  is the one format :class:`~repro.store.writer.StoreWriter` seals, for
  row and batch appends alike — no per-row JSON encode on ingest, no
  pivot on read;
* a **JSONL segment** (format ``"jsonl"``) keeps the row log
  (``<name>.jsonl``, one JSON object per line) as the checksummed source of
  truth plus a derived, rebuildable NumPy column cache (``<name>.npz``)
  for vectorised scans — the row-oriented format every store before format
  version 3 wrote.  It is export/legacy only: :func:`write_segment` serves
  ``store export --format jsonl`` and ``compact_store(output_format=
  "jsonl")``, and the read path keeps decoding v2 stores.

Both formats seal through the same tmp-file + fsync + atomic-rename
protocol, carry the same manifest stats (per-column min/max for numeric
columns, distinct-value sets for low-cardinality strings) and decode to
bit-identical column arrays, so queries never care which format a segment
was written in.  Segments are append-only at the store level — once sealed,
a segment file is never modified, so readers can cache its columns
indefinitely.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap as mmap_module
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from repro.store import columnar
from repro.store.schema import RowKind, kind_for

__all__ = ["SegmentMeta", "StoreCorruptionError", "write_segment",
           "write_columnar_segment", "load_rows", "load_columns",
           "build_columns", "rows_from_columns", "column_stats",
           "verify_segment", "segment_bytes", "atomic_write_bytes",
           "FORMAT_JSONL", "FORMAT_COLUMNAR"]

#: Segment format names recorded in the manifest.
FORMAT_JSONL = "jsonl"
FORMAT_COLUMNAR = "columnar"

#: File suffix of a columnar segment's packed payload.
COLUMNAR_SUFFIX = ".colseg"

#: String columns with at most this many distinct values record them in the
#: manifest stats, enabling equality pushdown; beyond it only row counts are
#: kept (the set would bloat the manifest without helping selectivity).
MAX_DISTINCT_TRACKED = 64


class StoreCorruptionError(RuntimeError):
    """A committed segment does not match its manifest checksum."""


@dataclass(frozen=True)
class SegmentMeta:
    """Manifest entry describing one sealed, immutable segment."""

    name: str
    kind: str
    rows: int
    sha256: str
    #: ``{column: {"min": x, "max": y}}`` for numeric columns and
    #: ``{column: {"values": [...]}}`` for tracked string columns.
    stats: Mapping[str, Mapping] = field(default_factory=dict)
    #: On-disk format: :data:`FORMAT_JSONL` or :data:`FORMAT_COLUMNAR`.
    format: str = FORMAT_JSONL

    @property
    def is_columnar(self) -> bool:
        """Whether the durable artifact is the packed columnar payload."""
        return self.format == FORMAT_COLUMNAR

    @property
    def log_filename(self) -> str:
        """Row-log file name within the segments directory (JSONL format)."""
        return f"{self.name}.jsonl"

    @property
    def cache_filename(self) -> str:
        """Column-cache file name within the segments directory (JSONL format)."""
        return f"{self.name}.npz"

    @property
    def data_filename(self) -> str:
        """The checksummed durable artifact's file name for this format."""
        return f"{self.name}{COLUMNAR_SUFFIX}" if self.is_columnar \
            else self.log_filename

    @property
    def filenames(self) -> tuple[str, ...]:
        """Every file this segment may own in the segments directory."""
        if self.is_columnar:
            return (self.data_filename,)
        return (self.log_filename, self.cache_filename)

    def to_json(self) -> dict:
        """Manifest-serialisable form."""
        return {"name": self.name, "kind": self.kind, "rows": self.rows,
                "sha256": self.sha256, "stats": dict(self.stats),
                "format": self.format}

    @classmethod
    def from_json(cls, data: Mapping) -> "SegmentMeta":
        """Rebuild a meta from its manifest entry.

        Entries written before format version 3 carry no ``format`` key;
        they are JSONL segments by definition.
        """
        return cls(name=data["name"], kind=data["kind"], rows=int(data["rows"]),
                   sha256=data["sha256"], stats=dict(data.get("stats", {})),
                   format=data.get("format", FORMAT_JSONL))


# --------------------------------------------------------------------------- #
# Atomic file plumbing
# --------------------------------------------------------------------------- #
def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via tmp-file + fsync + atomic rename.

    After this returns the file is either fully present with the new content
    or (if the process died earlier) entirely absent/unchanged — never a
    partial write under the final name.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to the directory entry (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


# --------------------------------------------------------------------------- #
# Column building and stats
# --------------------------------------------------------------------------- #
def build_columns(kind: RowKind, rows: Sequence[Mapping]) -> dict[str, np.ndarray]:
    """Pivot rows into one read-only NumPy array per schema column."""
    columns: dict[str, np.ndarray] = {}
    for column in kind.columns:
        values = [row[column.name] for row in rows]
        if column.dtype == "str":
            array = np.array(values, dtype=np.str_)
        else:
            array = np.array(values, dtype=column.numpy_dtype)
        array.setflags(write=False)
        columns[column.name] = array
    return columns


def rows_from_columns(kind: RowKind,
                      columns: Mapping[str, np.ndarray]) -> list[dict]:
    """Pivot column arrays back into plain-scalar row dicts.

    The inverse of :func:`build_columns`: values come back as native Python
    scalars (``.item()``), so a row pivoted out of a columnar segment
    compares ``==`` to the dict the equivalent JSONL row parses to.
    """
    ordered = [(column.name, columns[column.name]) for column in kind.columns]
    length = ordered[0][1].size if ordered else 0
    return [{name: array[i].item() for name, array in ordered}
            for i in range(length)]


def column_stats(kind: RowKind, columns: Mapping[str, np.ndarray], *,
                 distinct: Optional[Mapping[str, np.ndarray]] = None) -> dict:
    """Per-column pruning stats recorded in the manifest.

    Numeric columns record their min/max; string columns record their distinct
    values when few enough to be useful for equality pushdown.  ``distinct``
    optionally supplies precomputed per-column distinct-value arrays (the
    columnar sealer gets them for free from its dictionary encoding) so the
    ``np.unique`` pass is not repeated.
    """
    stats: dict[str, dict] = {}
    for column in kind.columns:
        array = columns[column.name]
        if array.size == 0:
            continue
        if column.is_numeric:
            stats[column.name] = {"min": array.min().item(),
                                  "max": array.max().item()}
        elif column.dtype == "str":
            values = distinct.get(column.name) if distinct is not None else None
            if values is None:
                values = np.unique(array)
            if values.size <= MAX_DISTINCT_TRACKED:
                stats[column.name] = {"values": [str(v) for v in values]}
    return stats


# --------------------------------------------------------------------------- #
# Segment IO
# --------------------------------------------------------------------------- #
def write_segment(directory: Path, name: str, kind: RowKind,
                  rows: Sequence[Mapping]) -> SegmentMeta:
    """Seal ``rows`` into an immutable segment and return its manifest entry.

    The row log is written atomically first (it is the durable artefact);
    the column cache is written second and is recoverable, so a crash between
    the two leaves a valid, rebuildable segment.  The segment only becomes
    *visible* once the caller commits the returned meta to the manifest.
    """
    directory.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    for row in rows:
        buffer.write(json.dumps(row, sort_keys=True).encode("utf-8"))
        buffer.write(b"\n")
    payload = buffer.getvalue()
    digest = hashlib.sha256(payload).hexdigest()

    meta = SegmentMeta(name=name, kind=kind.name, rows=len(rows), sha256=digest)
    atomic_write_bytes(directory / meta.log_filename, payload)

    columns = build_columns(kind, rows)
    meta = SegmentMeta(name=name, kind=kind.name, rows=len(rows),
                       sha256=digest, stats=column_stats(kind, columns))
    _write_cache(directory / meta.cache_filename, digest, columns)
    return meta


def write_columnar_segment(directory: Path, name: str, kind: RowKind,
                           columns: Mapping[str, np.ndarray], *,
                           compress: bool = False) -> SegmentMeta:
    """Seal a validated column batch into an immutable columnar segment.

    The packed per-column payload *is* the checksummed durable artifact —
    there is no separate row log or derived cache to keep consistent, so a
    seal is one atomic write.  ``columns`` must already be schema-coerced
    (:func:`repro.store.columnar.coerce_batch`); the manifest stats come
    from the same arrays via the vectorised :func:`column_stats`.  With
    ``compress`` each column section is zlib-deflated when that wins
    (recorded per column in the payload header; the manifest checksum
    always covers the bytes actually on disk).  As with
    :func:`write_segment`, the segment only becomes *visible* once the
    caller commits the returned meta to the manifest.
    """
    directory.mkdir(parents=True, exist_ok=True)
    distinct: dict[str, np.ndarray] = {}
    payload = columnar.pack_columns(kind, columns, distinct_out=distinct,
                                    compress=compress)
    digest = hashlib.sha256(payload).hexdigest()
    rows = next(iter(columns.values())).size if columns else 0
    meta = SegmentMeta(name=name, kind=kind.name, rows=int(rows),
                       sha256=digest,
                       stats=column_stats(kind, columns, distinct=distinct),
                       format=FORMAT_COLUMNAR)
    atomic_write_bytes(directory / meta.data_filename, payload)
    return meta


def _write_cache(path: Path, log_sha256: str,
                 columns: Mapping[str, np.ndarray]) -> None:
    """Write the npz column cache, tagged with the row log's checksum."""
    buffer = io.BytesIO()
    np.savez(buffer, __log_sha256__=np.array(log_sha256),
             **{name: array for name, array in columns.items()})
    atomic_write_bytes(path, buffer.getvalue())


def _read_payload(directory: Path, meta: SegmentMeta, *,
                  verify: bool) -> Union[bytes, mmap_module.mmap]:
    """A segment's durable artifact, optionally verified against its checksum.

    The artifact is the bytes the manifest's sha256 covers.  A columnar
    segment's packed payload is mapped read-only in place: its raw columns
    decode as zero-copy views of the mapped pages, and a read touches only
    the pages of the columns it decodes.  A JSONL segment's row log is
    read resident.  ``verify`` hashes those same bytes.
    """
    path = directory / meta.data_filename
    try:
        if meta.is_columnar:
            with open(path, "rb") as handle:
                payload = mmap_module.mmap(handle.fileno(), 0,
                                           access=mmap_module.ACCESS_READ)
        else:
            payload = path.read_bytes()
    except FileNotFoundError:
        raise StoreCorruptionError(
            f"segment {meta.name!r} is in the manifest but its "
            f"{meta.format} data file {path} is missing") from None
    except ValueError as error:  # mmap refuses an empty file
        raise StoreCorruptionError(
            f"segment {meta.name!r} columnar payload cannot be mapped: "
            f"{error}") from None
    if verify and hashlib.sha256(payload).hexdigest() != meta.sha256:
        raise StoreCorruptionError(
            f"segment {meta.name!r} {meta.format} data does not match its "
            f"manifest checksum — the store is corrupt")
    return payload


def verify_segment(directory: Path, meta: SegmentMeta) -> None:
    """Check one committed segment's data file against its manifest checksum.

    Raises :class:`StoreCorruptionError` when the file is missing or does
    not hash to the manifest's sha256.
    """
    _read_payload(directory, meta, verify=True)


def segment_bytes(directory: Path, meta: SegmentMeta) -> int:
    """Bytes the files of one segment occupy in ``directory``.

    Sums the packed payload of a columnar segment, or the row log plus
    column cache of a JSONL one; a missing derived cache counts as 0.
    """
    total = 0
    for filename in meta.filenames:
        try:
            total += (directory / filename).stat().st_size
        except FileNotFoundError:
            pass  # derived caches may legitimately be absent
    return total


def load_rows(directory: Path, meta: SegmentMeta, *,
              verify: bool = False) -> list[dict]:
    """Load a committed segment's rows, whichever format it was sealed in.

    JSONL segments parse their row log; columnar segments pivot their
    column arrays back into plain-scalar dicts (:func:`rows_from_columns`),
    which compare ``==`` to the dicts the equivalent JSONL rows parse to.
    """
    if meta.is_columnar:
        kind = kind_for(meta.kind)
        return rows_from_columns(
            kind, load_columns(directory, meta, kind, verify=verify))
    payload = _read_payload(directory, meta, verify=verify)
    rows = [json.loads(line) for line in payload.splitlines() if line]
    if len(rows) != meta.rows:
        raise StoreCorruptionError(
            f"segment {meta.name!r} holds {len(rows)} rows, manifest "
            f"says {meta.rows}")
    return rows


def load_columns(directory: Path, meta: SegmentMeta, kind: RowKind, *,
                 verify: bool = False) -> Mapping[str, np.ndarray]:
    """Load a segment's column arrays, rebuilding the cache if needed.

    A columnar segment's durable artifact already *is* the column payload,
    so a load maps it read-only (:func:`_read_payload`) and returns lazy
    views (:class:`_SegmentColumns`): the payload structure is validated
    eagerly, a column decodes on first access (raw ones as zero-copy
    ``frombuffer`` views of the mapped pages), and dict-encoded columns
    also expose their codes + vocabulary through ``.coded`` for the query
    engine.  A malformed payload raises :class:`StoreCorruptionError` at
    open for structural damage and at column access for per-column
    damage; there is no row log to rebuild from.  The mapping stays open
    while any of its columns is referenced.

    A JSONL segment trusts its npz cache only when the cache's embedded
    checksum matches the manifest entry; otherwise (missing file, torn
    write, stale generation) the columns are rebuilt from the row log and
    the cache is rewritten.  ``verify`` checksums the durable artifact
    (the mapped payload, or the row log even when the cache is valid) —
    the paranoid mode for auditing a copied store.
    """
    if meta.is_columnar:
        payload = _read_payload(directory, meta, verify=verify)
        try:
            lazy = columnar.open_columns(payload, kind,
                                         expected_rows=meta.rows)
        except (ValueError, TypeError, KeyError) as error:
            raise StoreCorruptionError(
                f"segment {meta.name!r} columnar payload is corrupt: "
                f"{error}") from None
        return _SegmentColumns(meta.name, lazy)
    if verify:
        _read_payload(directory, meta, verify=True)
    path = directory / meta.cache_filename
    if path.exists():
        try:
            with np.load(path) as archive:
                if str(archive["__log_sha256__"]) == meta.sha256:
                    columns = {}
                    for column in kind.columns:
                        array = archive[column.name]
                        array.setflags(write=False)
                        columns[column.name] = array
                    if all(a.shape == (meta.rows,) for a in columns.values()):
                        return columns
        except (OSError, ValueError, KeyError):
            pass  # fall through to a rebuild from the row log
    # Rebuild from the row log; load_rows re-verifies the row count against
    # meta.rows and raises StoreCorruptionError on mismatch, so a stale or
    # misshapen cache can never be silently replaced by equally-wrong data.
    rows = load_rows(directory, meta, verify=verify)
    columns = build_columns(kind, rows)
    _write_cache(path, meta.sha256, columns)
    return columns


class _SegmentColumns(Mapping):
    """A segment's lazily-decoded columns with the store's error contract.

    Wraps :class:`repro.store.columnar.LazyColumns` so that a decode
    failure at column-access time (a bad compressed section or dictionary)
    surfaces as :class:`StoreCorruptionError` — the same
    exception the eager load path raises — instead of the codec's raw
    :class:`ValueError`.
    """

    __slots__ = ("_name", "_lazy")

    def __init__(self, name: str, lazy: "columnar.LazyColumns") -> None:
        self._name = name
        self._lazy = lazy

    def __getitem__(self, column: str) -> np.ndarray:
        try:
            return self._lazy[column]
        except (ValueError, TypeError) as error:
            raise StoreCorruptionError(
                f"segment {self._name!r} columnar payload is corrupt: "
                f"{error}") from None

    def coded(self, column: str) -> Optional["columnar.CodedColumn"]:
        """Codes + vocabulary of a dict-encoded column (``None`` otherwise).

        The query engine's coded read path
        (:meth:`repro.store.columnar.LazyColumns.coded`), under the same
        :class:`StoreCorruptionError` contract as ``__getitem__``.
        """
        try:
            return self._lazy.coded(column)
        except (ValueError, TypeError) as error:
            raise StoreCorruptionError(
                f"segment {self._name!r} columnar payload is corrupt: "
                f"{error}") from None

    def __contains__(self, column) -> bool:
        return column in self._lazy

    def __iter__(self) -> Iterator[str]:
        return iter(self._lazy)

    def __len__(self) -> int:
        return len(self._lazy)
