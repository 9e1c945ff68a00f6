"""Per-kind column views: the one array a query scans per column.

A :class:`~repro.store.store.ResultStore` keeps one :class:`KindView` per
row kind it has answered queries for.  The view holds, for every column a
query has read, one array over the kind's committed segments in manifest
order, so a query evaluates its predicates and gathers once over a row
range instead of once per segment.

* **Append commits extend.**  The committed segment list only ever grows
  by appends between replacement commits, so the view covers a prefix of
  it; covering new segments loads only those segments and writes them
  after the rows already held (buffers grow geometrically, so an append
  costs its own rows, not the view's).
* **Snapshots read a prefix.**  A :class:`~repro.store.store.
  StoreSnapshot` pinned at an older generation reads the first ``rows``
  rows of the same view; rows written later lie beyond every earlier
  reader's range, so extending never changes what a reader sees.
* **Replacement commits rebuild.**  Compaction rewrites the segment list;
  the store drops a view that is no longer a prefix of its committed list
  and the next query builds a fresh one.  A snapshot pinned before the
  replacement gets a view of its own that is not kept.
* **Coded string columns.**  Every string column is held as codes into
  one sorted vocabulary of the whole view, at the narrowest unsigned
  width (:func:`repro.store.columnar._codes_dtype`).  Segment
  vocabularies merge into it as the view extends
  (:func:`repro.store.kernels.merge_vocabularies`); when a segment brings
  new values, the held codes are remapped into a new buffer.  Because the
  vocabulary is sorted, code order is string order, and grouping on a
  coded column is :func:`~repro.store.kernels.dense_unique` over codes
  that are already global.

Columns are built lazily: a view covers every segment of its prefix, but
only the columns some query asked for.  Segment payloads are read to
build or extend the view and then dropped; the view *is* the cache of
the segments it covers.  The view holds no reference to its store.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.store import kernels
from repro.store.columnar import CodedColumn, _codes_dtype
from repro.store.schema import RowKind
from repro.store.segment import SegmentMeta

__all__ = ["KindView", "ViewRows"]

#: Buffer growth factor: an append that overflows a buffer reallocates it
#: at this multiple of the rows needed, so appends cost O(new rows)
#: amortised.
_GROWTH = 1.5


class _Column(NamedTuple):
    """One view column: a buffer with spare capacity, plus the vocabulary
    of a coded string column (``None`` for numeric and bool columns)."""

    data: np.ndarray
    values: Optional[np.ndarray]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + (0 if self.values is None
                                   else self.values.nbytes)


class _State(NamedTuple):
    """What a view holds at one moment; replaced, never mutated."""

    metas: tuple
    rows: int
    columns: dict


def _local_codes(part) -> CodedColumn:
    """A segment's string column as codes + its own sorted vocabulary."""
    if isinstance(part, CodedColumn):
        return part
    values, codes = np.unique(part, return_inverse=True)
    return CodedColumn(codes, values)


def _reserve(data: np.ndarray, held: int, need: int, dtype) -> np.ndarray:
    """``data`` if it can take ``need`` rows of ``dtype``, else a larger copy
    holding its first ``held`` rows."""
    if data.dtype == dtype and data.size >= need:
        return data
    grown = np.empty(max(need, int(need * _GROWTH)), dtype=dtype)
    grown[:held] = data[:held]
    return grown


def _append(column: Optional[_Column], held: int, parts: list,
            is_str: bool) -> _Column:
    """``column``'s first ``held`` rows followed by ``parts``.

    Rows are written past ``held`` in place when the buffer has room:
    readers of earlier states never look beyond their own row count, so
    the write is invisible to them.  Anything that would change a held
    row (a wider dtype, codes remapped into a grown vocabulary) goes to a
    new buffer instead.
    """
    if not is_str:
        need = held + sum(part.size for part in parts)
        if column is None:
            data = np.concatenate(parts)
        else:
            dtype = np.result_type(column.data, *parts)
            data = _reserve(column.data, held, need, dtype)
            position = held
            for part in parts:
                data[position:position + len(part)] = part
                position += len(part)
        return _Column(data, None)
    local = [_local_codes(part) for part in parts]
    need = held + sum(part.codes.size for part in local)
    old_values = (column.values if column is not None
                  else np.empty(0, dtype=np.str_))
    vocabulary, lookups = kernels.merge_vocabularies(
        [old_values] + [part.values for part in local])
    dtype = np.dtype(_codes_dtype(vocabulary.size))
    if column is None:
        data = np.empty(need, dtype=dtype)
    elif vocabulary.size != old_values.size:
        # New values shift the sorted positions of old ones: remap every
        # held code into a fresh buffer.
        data = np.empty(max(need, int(need * _GROWTH)), dtype=dtype)
        data[:held] = lookups[0][column.data[:held]]
    else:
        vocabulary = old_values
        data = _reserve(column.data, held, need, dtype)
    position = held
    for part, lookup in zip(local, lookups[1:]):
        data[position:position + part.codes.size] = lookup[part.codes]
        position += part.codes.size
    vocabulary.setflags(write=False)
    return _Column(data, vocabulary)


class ViewRows:
    """Row ranges of one view state: the columns a scan evaluates.

    Numeric and bool columns come back by subscript as arrays (a
    read-only slice of the view for one range, a concatenation for
    several); string columns come back from :meth:`coded` as codes + the
    view's vocabulary.
    """

    __slots__ = ("_columns", "_ranges", "rows")

    def __init__(self, columns: Mapping[str, _Column],
                 ranges: Sequence[tuple[int, int]]) -> None:
        self._columns = columns
        self._ranges = tuple(ranges)
        self.rows = sum(stop - start for start, stop in self._ranges)

    def _pick(self, data: np.ndarray) -> np.ndarray:
        if len(self._ranges) == 1:
            start, stop = self._ranges[0]
            window = data[start:stop]
            window.setflags(write=False)
            return window
        return np.concatenate([data[start:stop]
                               for start, stop in self._ranges])

    def coded(self, name: str) -> Optional[CodedColumn]:
        """A string column's codes and vocabulary; ``None`` otherwise."""
        column = self._columns[name]
        if column.values is None:
            return None
        return CodedColumn(self._pick(column.data), column.values)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._pick(self._columns[name].data)


class KindView:
    """One row kind's columns over a prefix of its committed segments."""

    def __init__(self, kind: RowKind) -> None:
        self.kind = kind
        self._state = _State((), 0, {})
        self._lock = threading.Lock()

    @property
    def segments(self) -> int:
        """How many segments the view covers."""
        return len(self._state.metas)

    @property
    def nbytes(self) -> int:
        """Bytes held by the view's buffers and vocabularies."""
        return sum(column.nbytes for column in self._state.columns.values())

    def follows(self, metas: Sequence[SegmentMeta]) -> bool:
        """Whether the view and ``metas`` are one segment list's prefixes."""
        held = self._state.metas
        shorter = min(len(held), len(metas))
        return held[:shorter] == tuple(metas[:shorter])

    def rows(self, metas: Sequence[SegmentMeta], names: Sequence[str],
             ranges: Sequence[tuple[int, int]],
             load: Callable[[SegmentMeta], Mapping]) -> ViewRows:
        """``ranges`` of the rows of ``metas``, with ``names`` built.

        ``metas`` must be a prefix of the view's segment list or extend it
        (:meth:`follows`).  Missing segments and columns are read through
        ``load`` and added.
        """
        state = self._state
        if len(metas) <= len(state.metas) \
                and all(name in state.columns for name in names):
            return ViewRows(state.columns, ranges)
        with self._lock:
            state = self._state
            new = tuple(metas[len(state.metas):])
            missing = [name for name in dict.fromkeys(names)
                       if name not in state.columns]
            if new or missing:
                state = self._extend(state, new, missing, load)
                self._state = state
        return ViewRows(state.columns, ranges)

    def _extend(self, state: _State, new: tuple, missing: list,
                load: Callable) -> _State:
        """A state covering ``new`` segments too, with ``missing`` columns."""
        # Old segments are read again only for columns they lack.
        reads = (state.metas if missing else ()) + new
        loaded = [load(meta) for meta in reads]
        fresh = loaded[len(reads) - len(new):]
        held = state.rows
        columns = {}
        for name, column in state.columns.items():
            columns[name] = (_append(column, held,
                                     [_part(seg, name) for seg in fresh],
                                     column.values is not None)
                             if fresh else column)
        is_str = {column.name: column.dtype == "str"
                  for column in self.kind.columns}
        for name in missing:
            columns[name] = _append(None, 0,
                                    [_part(seg, name) for seg in loaded],
                                    is_str[name])
        return _State(state.metas + new,
                      held + sum(meta.rows for meta in new), columns)


def _part(loaded: Mapping, name: str):
    """One segment's column: codes + vocabulary where the segment has
    them (dict-encoded columnar), else the decoded array."""
    coded = getattr(loaded, "coded", None)
    if coded is not None:
        part = coded(name)
        if part is not None:
            return part
    return loaded[name]
