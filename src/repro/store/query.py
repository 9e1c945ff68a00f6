"""Vectorised queries over the column-oriented store.

A :class:`Query` is a small builder — ``where`` filters, ``group_by`` keys,
``agg`` reductions — evaluated in one pass over the kind's column view
(:mod:`repro.store.view`: each column concatenated over the committed
segments), so a million-row filter is a handful of array comparisons
rather than a Python loop, and the number of segments costs no Python
calls beyond pruning.  Two levels of work avoidance apply before any
array math:

* **predicate pushdown** — every predicate is first tested against the
  manifest stats of each segment (numeric min/max, string distinct sets); a
  segment whose stats prove it cannot contain a matching row becomes an
  excluded row range of the view, so its rows are never evaluated;
* **column pruning** — only the columns referenced by predicates, group keys,
  aggregations or an explicit ``arrays(...)`` projection are materialised
  (and only those are built into the view).

The execution engine adds two layers on top, each held bit-identical
to the decoded/per-group semantics it replaces:

* **dictionary-coded predicates + late materialisation** — every string
  column of a view is held as codes into one sorted vocabulary, so
  predicates evaluate once against the (tiny) vocabulary and mask the
  integer codes; ``mask(vocabulary)[codes]`` equals
  ``mask(vocabulary[codes])`` for every elementwise operator, so
  filtered-out rows never pay the unicode gather and only surviving rows
  are decoded.  Group-by over such columns counts the codes and decodes
  only group representatives.  A decoded string column comes back at the
  width of the view's vocabulary (its longest value);
* **grouped reduction kernels** — :meth:`Query.aggregate` evaluates its
  groups through the vectorised kernels of :mod:`repro.store.kernels`
  (``bincount`` sums, ``reduceat`` extrema, sorted-segment order
  statistics); ``aggregate(engine="reference")`` keeps the per-group
  loop as the enforced semantic reference (see that module for the
  row-order float discipline both paths share).

**Columnar results.**  :meth:`Query.aggregate_arrays` is the grouped
terminal: one array per group key and per reduction, in ascending
group-key order, straight from the kernels.  :meth:`Query.aggregate` is
that result zipped into row dicts (one ``tolist()`` per column), so row
dicts exist only where a caller wants rows — the JSON edge; consumers that
sort, cumulate or reduce further (``battery_drain_ecdf``) read the arrays.

**Pinned reads.**  A query reads the segment list its source holds when
the terminal runs: a live :class:`~repro.store.store.ResultStore` at the
generation it last loaded, a :class:`~repro.store.store.StoreSnapshot` at
its pin.  A result assembled from several queries (a report payload) must
pin once — ``store.open_snapshot()`` — and run every query over that
snapshot, so all of its parts read the one generation it reports.

Execution statistics (segments skipped vs scanned, rows matched) are exposed
on :attr:`Query.stats` after any terminal call, so tests and the CLI can
assert pushdown actually happened.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.store import kernels
from repro.store.columnar import CodedColumn
from repro.store.schema import Column, RowKind
from repro.store.segment import SegmentMeta
from repro.store.view import ViewRows

__all__ = ["Predicate", "Query", "QueryStats", "AGGREGATIONS",
           "parse_predicate", "parse_agg_expr"]

_OPS = ("==", "!=", "<", "<=", ">", ">=", "in")


def _extremum(a: np.ndarray, *, last: bool):
    """``min``/``max`` of a 1-D array as a native scalar.

    NumPy has no min/max loop for unicode arrays, so a string column
    reads the end of its sorted values instead — what
    :meth:`~repro.store.kernels.GroupedReducer.reduce_array` answers for
    a single group.
    """
    if a.dtype.kind == "U":
        return np.sort(a)[-1 if last else 0].item()
    return (a.max() if last else a.min()).item()


#: Reduction name -> NumPy implementation over a 1-D array.  These define
#: the *ungrouped* aggregation semantics; grouped aggregation is defined
#: by :data:`repro.store.kernels.REFERENCE_REDUCERS` (identical except for
#: float sum/mean/std, which are row-order sequential there).
AGGREGATIONS: dict[str, Callable[[np.ndarray], float]] = {
    "count": lambda a: int(a.size),
    "sum": lambda a: a.sum().item(),
    "mean": lambda a: np.mean(a).item(),
    "median": lambda a: np.median(a).item(),
    "min": lambda a: _extremum(a, last=False),
    "max": lambda a: _extremum(a, last=True),
    "std": lambda a: np.std(a).item(),
    # Tail percentiles (fleet tail-latency reports under load).
    "p50": lambda a: np.quantile(a, 0.50).item(),
    "p90": lambda a: np.quantile(a, 0.90).item(),
    "p99": lambda a: np.quantile(a, 0.99).item(),
    "p999": lambda a: np.quantile(a, 0.999).item(),
}

#: The mixed-radix group key must stay inside int64; ``aggregate`` raises
#: once the product of the group columns' cardinalities exceeds this.
_MAX_KEY_SPACE = 2 ** 62

#: Group-key spaces up to ``max(rows, this)`` are indexed by counting
#: (:func:`repro.store.kernels.dense_unique`) instead of ``np.unique``.
_DENSE_KEY_SPACE = 2 ** 16


@dataclass(frozen=True)
class Predicate:
    """One column filter of a query."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown operator {self.op!r} (have {_OPS})")
        if self.op == "in" and not isinstance(self.value, (list, tuple, set,
                                                           frozenset)):
            raise ValueError("'in' predicates need a collection value")

    # -- pushdown ------------------------------------------------------- #
    def may_match(self, meta: SegmentMeta, column: Column) -> bool:
        """Whether the segment's stats admit any matching row.

        Conservative: returns ``True`` whenever the stats cannot prove the
        segment empty of matches (missing stats, untracked string column,
        inequality over strings).
        """
        stats = meta.stats.get(self.column)
        if not stats:
            return True
        if column.is_numeric and "min" in stats:
            low, high = stats["min"], stats["max"]
            if self.op == "==":
                return low <= self.value <= high
            if self.op == "<":
                return low < self.value
            if self.op == "<=":
                return low <= self.value
            if self.op == ">":
                return high > self.value
            if self.op == ">=":
                return high >= self.value
            if self.op == "in":
                return any(low <= v <= high for v in self.value)
            # "!=": an all-equal segment (min == max == value) provably
            # holds no other value and is the one case stats can prune.
            return not (low == high == self.value)
        if "values" in stats:
            present = set(stats["values"])
            if self.op == "==":
                return self.value in present
            if self.op == "in":
                return bool(present.intersection(self.value))
            if self.op == "!=":
                return present != {self.value}
        return True

    # -- evaluation ----------------------------------------------------- #
    def mask(self, array: np.ndarray) -> np.ndarray:
        """Boolean match mask over one segment's column array.

        Every operator is elementwise, so for a dictionary-encoded column
        ``mask(vocabulary)[codes]`` is exactly ``mask(vocabulary[codes])``
        — the identity the coded fast path rests on.
        """
        if self.op == "==":
            return array == self.value
        if self.op == "!=":
            return array != self.value
        if self.op == "<":
            return array < self.value
        if self.op == "<=":
            return array <= self.value
        if self.op == ">":
            return array > self.value
        if self.op == ">=":
            return array >= self.value
        return np.isin(array, list(self.value))


def _exact_float(value: Any) -> Optional[float]:
    """``value`` as a float that compares exactly as ``value`` does, or
    ``None`` (a non-number, or an int float64 cannot hold)."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    try:
        converted = float(value)
    except OverflowError:
        return None
    return converted if converted == value or converted != converted \
        else None


class _ColumnStats(NamedTuple):
    """One column's manifest stats over a kind's segments, as arrays.

    :meth:`Predicate.may_match` compares some segments by min/max
    (``low``/``high``; ``None`` when some bound has no exact float64
    form) and tests others against a distinct-value set:
    ``member[i, vocab[v]]`` says whether segment ``i`` holds ``v``,
    ``single[i]`` whether that set has one value.  ``not_ranged`` and
    ``not_tracked`` mark the segments outside each test, which admit
    every predicate it would decide (``None``: no segment takes it).
    """

    not_ranged: Optional[np.ndarray]
    low: Optional[np.ndarray]
    high: Optional[np.ndarray]
    not_tracked: Optional[np.ndarray]
    vocab: dict
    member: np.ndarray
    single: np.ndarray


class KindSegments:
    """One row kind's committed segments, pruned without a per-segment loop.

    A store and each snapshot keep one per kind and committed segment
    list (:meth:`~repro.store.store.ResultStore.kind_segments`), so the
    per-kind sublist and the stats arrays are built once per list, not
    once per query, and go away with it.  :meth:`prune` answers exactly
    what testing every segment with :meth:`Predicate.may_match` answers,
    which stays the reference: a predicate whose values or bounds
    float64 cannot compare exactly is pruned by that loop.
    """

    def __init__(self, metas: tuple[SegmentMeta, ...]) -> None:
        self.metas = metas
        self._columns: dict[str, _ColumnStats] = {}

    @functools.cached_property
    def rows(self) -> int:
        """Rows over all the segments."""
        return sum(meta.rows for meta in self.metas)

    def prune(self, predicates: Sequence[Predicate], kind: RowKind
              ) -> tuple[list[tuple[int, int]], int, int]:
        """``(row ranges to scan, segments skipped, rows scanned)``.

        A segment is skipped when some predicate's :meth:`Predicate.
        may_match` rules it out; the kept segments become row ranges of
        the view, runs that meet end to start merged into one.
        """
        if not self.metas:
            return [], 0, 0
        keep = None
        for predicate in predicates:
            admits = self._admits(predicate, kind.column(predicate.column))
            if admits is not None:
                keep = admits if keep is None else keep & admits
        if keep is None or keep.all():
            return [(0, self.rows)], 0, self.rows
        offsets = np.zeros(len(self.metas) + 1, dtype=np.int64)
        np.cumsum([meta.rows for meta in self.metas], out=offsets[1:])
        edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
        ranges: list[tuple[int, int]] = []
        for start, stop in zip(offsets[edges[0::2]].tolist(),
                               offsets[edges[1::2]].tolist()):
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], stop)
            else:
                ranges.append((start, stop))
        scanned = int(np.diff(offsets)[keep].sum())
        return ranges, keep.size - int(np.count_nonzero(keep)), scanned

    def _stats(self, column: Column) -> _ColumnStats:
        found = self._columns.get(column.name)
        if found is None:
            found = self._columns[column.name] = self._build(column)
        return found

    def _build(self, column: Column) -> _ColumnStats:
        count = len(self.metas)
        numeric = np.zeros(count, dtype=bool)
        tracked = np.zeros(count, dtype=bool)
        bounds: list = []
        sets: list = []
        for index, meta in enumerate(self.metas):
            stats = meta.stats.get(column.name)
            if not stats:
                continue
            if column.is_numeric and "min" in stats:
                numeric[index] = True
                bounds.append((index, stats["min"], stats["max"]))
            elif "values" in stats:
                tracked[index] = True
                sets.append((index, set(stats["values"])))
        low = high = None
        exact = [(_exact_float(lo), _exact_float(hi)) for _, lo, hi in bounds]
        if all(lo is not None and hi is not None for lo, hi in exact):
            low, high = np.zeros(count), np.zeros(count)
            for (index, _, _), (lo, hi) in zip(bounds, exact):
                low[index], high[index] = lo, hi
        vocab: dict = {}
        for _, present in sets:
            for value in present:
                vocab.setdefault(value, len(vocab))
        member = np.zeros((count, len(vocab)), dtype=bool)
        single = np.zeros(count, dtype=bool)
        for index, present in sets:
            member[index, [vocab[value] for value in present]] = True
            single[index] = len(present) == 1
        return _ColumnStats(~numeric if bounds else None, low, high,
                            ~tracked if sets else None, vocab, member,
                            single)

    def _admits(self, predicate: Predicate, column: Column
                ) -> Optional[np.ndarray]:
        """Per segment, whether ``predicate.may_match`` holds (``None``:
        everywhere)."""
        stats = self._stats(column)
        admits = None
        if stats.not_ranged is not None:
            ranged = self._ranged(predicate, stats)
            if ranged is None:
                return np.array([predicate.may_match(meta, column)
                                 for meta in self.metas], dtype=bool)
            admits = ranged | stats.not_ranged
        if stats.not_tracked is not None \
                and predicate.op in ("==", "!=", "in"):
            values = (predicate.value if predicate.op == "in"
                      else (predicate.value,))
            columns = [stats.vocab[value] for value in values
                       if value in stats.vocab]
            held = stats.member[:, columns].any(axis=1)
            if predicate.op == "!=":
                held = ~(held & stats.single)
            held |= stats.not_tracked
            admits = held if admits is None else admits & held
        return admits

    @staticmethod
    def _ranged(predicate: Predicate, stats: _ColumnStats
                ) -> Optional[np.ndarray]:
        """The min/max test of every segment, or ``None`` when float64
        cannot decide it exactly."""
        values = (predicate.value if predicate.op == "in"
                  else (predicate.value,))
        exact = [_exact_float(value) for value in values]
        if stats.low is None or any(value is None for value in exact):
            return None
        low, high, op = stats.low, stats.high, predicate.op
        if op == "in":
            admits = np.zeros(low.size, dtype=bool)
            for value in exact:
                admits |= (low <= value) & (value <= high)
            return admits
        value = exact[0]
        if op == "==":
            return (low <= value) & (value <= high)
        if op == "<":
            return low < value
        if op == "<=":
            return low <= value
        if op == ">":
            return high > value
        if op == ">=":
            return high >= value
        return ~((low == high) & (high == value))


#: Comparison operators accepted in textual predicate expressions, longest
#: first so ``<=`` is not parsed as ``<`` against ``=value``.
_EXPR_OPS = ("<=", ">=", "!=", "==", "<", ">", "=")


def _parse_value(raw: str) -> object:
    """A textual predicate value as int, then float, then string."""
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def parse_predicate(expression: str) -> tuple[str, str, object]:
    """Parse ``device_name=S21`` / ``latency_ms<5`` into ``(column, op, value)``.

    The one textual predicate grammar shared by the CLI's ``--where`` flags
    and the serve layer's ``where=`` query parameters, so a filter behaves
    identically however it reaches the engine.  Values parse as int, then
    float, then string.  Set membership is spelled ``column in a|b|c``
    (spaces around ``in``, values ``|``-separated) and reaches the same
    ``np.isin`` evaluation and distinct-set pushdown as a programmatic
    ``where(column, "in", (...))``.  Raises :class:`ValueError` on a
    malformed expression.
    """
    column, separator, raw = expression.partition(" in ")
    if separator and column.strip() and raw.strip() \
            and not any(op in column for op in _EXPR_OPS):
        values = tuple(_parse_value(v.strip())
                       for v in raw.split("|") if v.strip())
        if not values:
            raise ValueError(
                f"invalid where expression {expression!r} "
                f"('in' needs at least one |-separated value)")
        return column.strip(), "in", values
    for op in _EXPR_OPS:
        if op in expression:
            column, raw = expression.split(op, 1)
            column, raw = column.strip(), raw.strip()
            if not column or not raw:
                break
            return column, "==" if op == "=" else op, _parse_value(raw)
    raise ValueError(
        f"invalid where expression {expression!r} (expected column<op>value "
        f"with one of {', '.join(_EXPR_OPS)}, or 'column in a|b|c')")


def parse_agg_expr(expression: str) -> tuple[str, list[str]]:
    """Parse ``latency_ms:mean,median`` into ``(column, [functions])``.

    Shared by the CLI's ``--agg`` flags and the serve layer's ``agg=``
    query parameters.  Raises :class:`ValueError` on a malformed
    expression.
    """
    column, separator, fns = expression.partition(":")
    parsed = [fn.strip() for fn in fns.split(",") if fn.strip()]
    if not separator or not column.strip() or not parsed:
        raise ValueError(
            f"invalid agg expression {expression!r} "
            f"(expected column:fn[,fn...])")
    return column.strip(), parsed


@dataclass
class QueryStats:
    """Work accounting of one query execution."""

    segments_total: int = 0
    segments_skipped: int = 0
    segments_scanned: int = 0
    #: Always 0: no cache answers segments without a scan any more (kept
    #: because trace readers record every field).
    segments_cached: int = 0
    rows_scanned: int = 0
    rows_matched: int = 0


def _evaluate_segment(loaded: ViewRows, predicates: Sequence[Predicate],
                      columns: Sequence[str],
                      coded: frozenset) -> tuple[Optional[dict], int]:
    """Mask the loaded rows and materialise the survivors.

    A pure function of the loaded columns — the single evaluation point,
    run once over a query's row ranges of the column view.  Dict-coded
    columns (every string column of a view: ``loaded.coded`` answers
    codes + vocabulary) evaluate predicates against their vocabulary and
    mask the integer codes; only rows surviving *all* masks are ever
    decoded (columns named in ``coded`` are not decoded at all — they
    come back as :class:`~repro.store.columnar.CodedColumn` for the
    group-by kernels).  The combined mask becomes row indices once, and
    every numeric column and code array is gathered from them with
    ``take`` — on a dense mask several times cheaper than one boolean
    mask pass per column; a mask that keeps every row gathers nothing
    (the view's arrays come back as they are).  Returns
    ``(payload, matched)``; payload is ``None`` when nothing matched.
    """
    mask: Optional[np.ndarray] = None
    for predicate in predicates:
        view = loaded.coded(predicate.column)
        if view is not None:
            part = predicate.mask(view.values)[view.codes]
        else:
            part = predicate.mask(loaded[predicate.column])
        mask = part if mask is None else (mask & part)
    matched = (int(np.count_nonzero(mask)) if mask is not None
               else loaded.rows)
    if matched == 0:
        return None, 0
    rows = (np.flatnonzero(mask) if mask is not None and matched < loaded.rows
            else None)
    payload: dict[str, Any] = {}
    for name in columns:
        view = loaded.coded(name)
        if view is not None:
            kept = view.codes if rows is None else view.codes.take(rows)
            payload[name] = (CodedColumn(kept, view.values) if name in coded
                             else view.values.take(kept))
        else:
            array = loaded[name]
            payload[name] = array if rows is None else array.take(rows)
    return payload, matched


class Query:
    """Filter / group / aggregate builder over one row kind of a store."""

    def __init__(self, store, kind: RowKind) -> None:
        self.store = store
        self.kind = kind
        self._predicates: list[Predicate] = []
        self._group_by: tuple[str, ...] = ()
        self._aggregations: dict[str, tuple[str, str]] = {}
        #: Derived bin columns: label -> (source column, bin width).
        self._bins: dict[str, tuple[str, float]] = {}
        #: Populated by the terminal methods.
        self.stats = QueryStats()

    # ------------------------------------------------------------------ #
    # Builder steps
    # ------------------------------------------------------------------ #
    def where(self, column: Optional[str] = None, op: str = "==",
              value: Any = None, **equalities: Any) -> "Query":
        """Add predicates: ``where("latency_ms", "<", 5)`` or ``where(device_name="S21")``."""
        if column is not None:
            self._predicates.append(
                Predicate(column, op, self._coerce(column, op, value)))
        for name, wanted in equalities.items():
            self._predicates.append(
                Predicate(name, "==", self._coerce(name, "==", wanted)))
        return self

    def bin(self, column: str, width: float,
            label: Optional[str] = None) -> "Query":
        """Derive a fixed-width bin column usable as a group key.

        ``bin("time_s", 900)`` adds an int64 ``time_s_bin`` column holding
        ``floor(time_s / 900)`` — the store-side half of the cloud layer's
        time-binned load aggregation (same convention as
        :func:`repro.analysis.stats.time_bin_indices`, so a query over
        persisted ``fleet_events`` reproduces a :class:`LoadProfile` bin for
        bin).  Declare bins before referencing their label in
        :meth:`group_by`.
        """
        spec = self.kind.column(column)
        if not spec.is_numeric:
            raise ValueError(f"column {column!r} is not numeric; cannot bin")
        if width <= 0:
            raise ValueError("bin width must be positive")
        name = label or f"{column}_bin"
        if name in self.kind.column_names:
            raise ValueError(
                f"bin label {name!r} collides with a schema column")
        self._bins[name] = (column, float(width))
        return self

    def group_by(self, *columns: str) -> "Query":
        """Group aggregation output by schema columns and/or declared bins."""
        for name in columns:
            if name not in self._bins:
                self.kind.column(name)  # validate early
        self._group_by = self._group_by + columns
        return self

    def agg(self, **named: tuple[str, str]) -> "Query":
        """Declare reductions: ``agg(mean_ms=("latency_ms", "mean"))``."""
        for out_name, (column, fn) in named.items():
            self.kind.column(column)
            if fn not in AGGREGATIONS:
                raise ValueError(
                    f"unknown aggregation {fn!r} (have {sorted(AGGREGATIONS)})")
            self._aggregations[out_name] = (column, fn)
        return self

    def _coerce(self, column: str, op: str, value: Any) -> Any:
        """Validate and normalise a predicate value against the column type.

        Raises :class:`ValueError` for values the column can never hold (e.g.
        a string against a numeric column) so malformed filters fail here,
        with a clear message, rather than deep inside a stats comparison.
        """
        spec = self.kind.column(column)  # raises on unknown column
        if op == "in":
            return tuple(self._coerce(column, "==", v) for v in value)
        if hasattr(value, "value") and spec.dtype == "str":
            return value.value  # enums (Backend, Modality) compare by value
        if spec.is_numeric:
            if isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)):
                raise ValueError(
                    f"column {column!r} is numeric; cannot compare against "
                    f"{value!r}")
        elif spec.dtype == "bool":
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(
                    f"column {column!r} is boolean; cannot compare against "
                    f"{value!r}")
        elif not isinstance(value, str):
            raise ValueError(
                f"column {column!r} holds strings; cannot compare against "
                f"{value!r}")
        return value

    # ------------------------------------------------------------------ #
    # Execution core
    # ------------------------------------------------------------------ #
    def _scan(self, columns: Sequence[str], coded: frozenset = frozenset()
              ) -> tuple[Optional[dict], int]:
        """Prune, then evaluate once over the kind's column view.

        Segments whose stats rule a predicate out become excluded row
        ranges; the surviving ranges of the view (one range, a zero-copy
        slice, when nothing is pruned) are evaluated by one
        :func:`_evaluate_segment` call.  Returns ``(payload, matched)``
        and sets :attr:`stats`: per-segment counts from pruning.
        """
        segments = self.store.kind_segments(self.kind)
        metas = segments.metas
        predicates = self._predicates
        ranges, skipped, scanned_rows = segments.prune(predicates, self.kind)
        columns = tuple(columns)
        names = dict.fromkeys(columns + tuple(p.column for p in predicates))
        payload: Optional[dict] = None
        matched = scanned_rows
        if ranges and names:
            loaded = self.store.view_rows(self.kind, metas, tuple(names),
                                          ranges)
            payload, matched = _evaluate_segment(loaded, predicates,
                                                 columns, coded)
        self.stats = QueryStats(
            segments_total=len(metas), segments_skipped=skipped,
            segments_scanned=len(metas) - skipped,
            rows_scanned=scanned_rows, rows_matched=matched)
        collector = obs.get_collector()
        if collector is not None:
            collector.count("query.executions")
            collector.count("query.segments_scanned",
                            self.stats.segments_scanned)
            collector.count("query.segments_pruned",
                            self.stats.segments_skipped)
            collector.count("query.rows_matched", self.stats.rows_matched)
        return payload, matched

    def _gather(self, columns: Sequence[str],
                coded: frozenset = frozenset()) -> dict[str, Any]:
        """The matching rows' columns, as arrays.

        Columns named in ``coded`` stay un-decoded: their value is a
        :class:`CodedColumn` (codes into the view's sorted vocabulary)
        that :meth:`_group_index` counts directly.
        """
        columns = tuple(columns)
        payload, _matched = self._scan(columns, coded)
        if payload is not None:
            return payload
        return {name: (CodedColumn(np.empty(0, dtype=np.uint8),
                                   np.empty(0, dtype=np.str_))
                       if name in coded
                       else np.empty(0, dtype=self.kind.column(name)
                                     .numpy_dtype))
                for name in columns}

    # ------------------------------------------------------------------ #
    # Terminals
    # ------------------------------------------------------------------ #
    def arrays(self, *columns: str) -> dict[str, np.ndarray]:
        """Matching rows as column arrays (all schema columns by default)."""
        names = columns or self.kind.column_names
        for name in names:
            self.kind.column(name)
        # Unmasked columns can be slices of the view: hand out copies.
        return {name: array if array.flags.owndata else array.copy()
                for name, array in self._gather(names).items()}

    def count(self) -> int:
        """Number of matching rows (no column data materialised)."""
        return self._scan(())[1]

    def rows(self, limit: Optional[int] = None) -> list[dict]:
        """Matching rows as dicts, in ingestion order.

        One ``tolist()`` pass per column (native scalars fall straight
        out), then a zip into dicts — no per-row, per-column NumPy
        indexing.  ``limit`` keeps the first ``limit`` matching rows
        (``rows()[:limit]``): the gathered columns are cut before
        ``tolist()``, so only those rows are ever built.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        names = self.kind.column_names
        arrays = self._gather(names)
        values = [arrays[name][:limit].tolist() for name in names]
        return [dict(zip(names, row)) for row in zip(*values)]

    def objects(self) -> list:
        """Matching rows rebuilt as their pipeline dataclass."""
        if self.kind.from_row is None:
            raise TypeError(
                f"row kind {self.kind.name!r} stores summaries and has no "
                f"object deserialiser; use rows() or arrays()")
        return [self.kind.from_row(row) for row in self.rows()]

    def aggregate(self, *, engine: str = "kernel") -> Union[dict, list[dict]]:
        """Evaluate the declared aggregations.

        Without ``group_by`` returns one dict of reductions; with it, one dict
        per group (group key columns + reductions), ordered by group key.

        ``engine`` selects the grouped execution path: ``"kernel"`` (the
        default) is :meth:`aggregate_arrays` zipped into dicts — one
        ``tolist()`` per column, so every value is a native Python
        scalar; ``"reference"`` runs the per-group Python loop the
        kernels are held bit-identical to (the slow path the benchmark
        gate measures against).  Ungrouped aggregation is identical under
        both.
        """
        if engine not in ("kernel", "reference"):
            raise ValueError(
                f"unknown aggregate engine {engine!r} "
                f"(have 'kernel', 'reference')")
        if self._group_by and engine == "kernel":
            columns = self.aggregate_arrays()
            names = list(columns)
            values = [array.tolist() for array in columns.values()]
            return [dict(zip(names, row)) for row in zip(*values)]
        arrays, coded, length = self._aggregate_inputs(engine)
        if not self._group_by:
            # Zero matching rows: counts are 0, every other reduction has no
            # defined value — report None instead of raising/propagating NaN.
            return {
                out: (AGGREGATIONS[fn](arrays[column]) if length
                      else (0 if fn == "count" else None))
                for out, (column, fn) in self._aggregations.items()
            }
        if length == 0:
            return []
        _uniques, group_keys, key_inverse = self._group_index(arrays, coded,
                                                              length)
        return self._aggregate_reference(arrays, group_keys, key_inverse,
                                         length)

    def aggregate_arrays(self) -> dict[str, np.ndarray]:
        """Grouped aggregation as columns: ``{name: array}``, no row dicts.

        One array per group key column (in ``group_by`` order), then one
        per declared reduction, all of length "number of groups" and in
        ascending group-key order — exactly the columns :meth:`aggregate`
        zips into its dicts, through the same gather, factorize and
        :class:`~repro.store.kernels.GroupedReducer` path.  Consumers that
        want arrays (ECDFs, sorts, further arithmetic) read these directly;
        row dicts are built only at the JSON edge.

        Dtypes: a group key keeps its column's dtype (int64 for ``bin``
        keys; strings as ``<U`` arrays); ``count`` is int64; ``sum`` is
        int64 over integer/bool columns and float64 otherwise;
        ``min``/``max`` keep the column's dtype; every other reduction is
        float64.  A query with no matching rows returns empty arrays of
        exactly these dtypes (string columns as ``np.str_``).

        Grouped queries only: ungrouped reductions are scalars, so call
        :meth:`aggregate` for those.
        """
        if not self._group_by:
            raise ValueError(
                "aggregate_arrays() needs group_by(...); use aggregate() "
                "for ungrouped reductions")
        arrays, coded, length = self._aggregate_inputs("kernel")
        if length == 0:
            return self._empty_columns()
        uniques, group_keys, key_inverse = self._group_index(arrays, coded,
                                                             length)
        reducer = kernels.GroupedReducer(key_inverse, len(group_keys))
        label_indices = kernels.decompose_keys(group_keys,
                                               [len(u) for u in uniques])
        columns = {name: u[indices] for name, u, indices
                   in zip(self._group_by, uniques, label_indices)}
        for out, (column, fn) in self._aggregations.items():
            columns[out] = reducer.reduce_array(column, arrays[column], fn)
        return columns

    def _aggregate_inputs(self, engine: str) -> tuple[dict, frozenset, int]:
        """Gather every column an aggregation reads: ``(arrays, coded, rows)``.

        Declared bins are derived here, so ``arrays`` holds every group
        key and reduced column of the matching rows.
        """
        if not self._aggregations:
            raise ValueError("no aggregations declared; call agg(...) first")
        agg_columns = {column for column, _ in self._aggregations.values()}
        bin_keys = [name for name in self._group_by if name in self._bins]
        plain_keys = {name for name in self._group_by if name not in self._bins}
        bin_sources = {self._bins[name][0] for name in bin_keys}
        needed = tuple(plain_keys | bin_sources | agg_columns)
        # Group keys that nothing else reads stay dictionary-coded end to
        # end: grouping keys on the integer codes and only group
        # representatives are ever decoded.
        coded = frozenset(
            name for name in plain_keys
            if engine == "kernel" and name not in agg_columns
            and name not in bin_sources
            and self.kind.column(name).dtype == "str")
        arrays = self._gather(needed, coded)
        for name in bin_keys:
            source, width = self._bins[name]
            arrays[name] = (arrays[source] // width).astype(np.int64)
        plain = next(name for name in needed if name not in coded)
        return arrays, coded, len(arrays[plain])

    def _group_index(self, arrays: dict, coded: frozenset, length: int
                     ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Encode the group key: ``(per-column uniques, group keys, inverse)``.

        The (possibly multi-column) key is folded into one int64 mixed-radix
        vector in ``[0, space)``, ``space`` being the product of the
        columns' radices (each column's ``len(uniques[i])``);
        ``group_keys`` are its sorted distinct values and ``key_inverse``
        maps each matching row to its 0-based group.  Group labels are
        ``uniques[i][d]`` for the digits ``d`` that
        :func:`~repro.store.kernels.decompose_keys` peels off a key.

        The index is counted, not sorted, wherever the key space is
        small.  An integer key (an ``i8`` column or a ``bin`` key) whose
        range is below ``max(rows, 65536)`` is counted once, over its
        offsets from its minimum (:meth:`_factorize`); other uncoded keys
        go through ``np.unique``.  A coded column's codes already index
        the view's sorted vocabulary, so it folds in at full-vocabulary
        radix (its uniques are the whole vocabulary, present or not) with
        no per-column pass, and when the product of the radices is at most
        ``max(rows, 65536)`` one :func:`~repro.store.kernels.dense_unique`
        over the folded key (``bincount`` + rank lookup, O(rows + space))
        is the only counting pass.  Past that bound each coded column is
        first ranked down to the codes present
        (:func:`~repro.store.kernels.dense_unique` over its codes), so a
        query whose vocabularies are large but whose present values are
        few keeps its small key space; a key space still sparser than
        the bound — several fine columns, say — keeps ``np.unique``,
        whose sort is then cheaper than a count array larger than the
        data.  Group order is ascending key order either way.
        """
        with obs.span("store.kernels.factorize"):
            bound = max(length, _DENSE_KEY_SPACE)
            parts: list[tuple[np.ndarray, np.ndarray]] = []
            for name in self._group_by:
                if name in coded:
                    column = arrays[name]
                    parts.append((column.values, column.codes))
                else:
                    parts.append(self._factorize(arrays[name], bound))
            if len(parts) == 1 and self._group_by[0] not in coded:
                # One uncoded key is ranked already: its inverse is the
                # group index.
                uniques, inverse = parts[0]
                return [uniques], np.arange(len(uniques)), inverse
            if math.prod(len(u) for u, _ in parts) > bound:
                parts = [self._present(u, inverse) if name in coded
                         else (u, inverse)
                         for name, (u, inverse) in zip(self._group_by, parts)]
            key = parts[0][1].astype(np.int64)
            space = len(parts[0][0])
            for u, inverse in parts[1:]:
                space *= len(u)
                if space > _MAX_KEY_SPACE:
                    raise ValueError(
                        f"group_by over {self._group_by}: key cardinality "
                        f"exceeds the int64 group-key space")
                key *= len(u)
                key += inverse
            if space <= bound:
                group_keys, key_inverse = kernels.dense_unique(key, space)
            else:
                group_keys, key_inverse = np.unique(key, return_inverse=True)
        return [u for u, _ in parts], group_keys, key_inverse

    @staticmethod
    def _factorize(column: np.ndarray, bound: int
                   ) -> tuple[np.ndarray, np.ndarray]:
        """``np.unique(column, return_inverse=True)`` of an uncoded key.

        An integer column whose range ``max - min`` is below ``bound`` is
        counted: one :func:`~repro.store.kernels.dense_unique` over
        ``column - min``, its uniques shifted back by ``min`` in the
        column's dtype.  Other columns, and wider ranges, sort.
        """
        if column.dtype.kind == "i":
            low, high = column.min(), column.max()
            if int(high) - int(low) < bound:
                present, inverse = kernels.dense_unique(
                    column - low, int(high) - int(low) + 1)
                return (present + low).astype(column.dtype), inverse
        return np.unique(column, return_inverse=True)

    @staticmethod
    def _present(vocabulary: np.ndarray, codes: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """A coded column ranked down to its present values: ``(u, inverse)``."""
        present, inverse = kernels.dense_unique(codes, vocabulary.size)
        return vocabulary[present], inverse

    def _empty_columns(self) -> dict[str, np.ndarray]:
        """The zero-group result of :meth:`aggregate_arrays`."""
        def column_dtype(name: str):
            if name in self._bins:
                return np.int64
            return self.kind.column(name).numpy_dtype

        columns = {name: np.empty(0, dtype=column_dtype(name))
                   for name in self._group_by}
        for out, (column, fn) in self._aggregations.items():
            if fn in ("min", "max"):
                dtype = column_dtype(column)
            elif fn == "count" or (fn == "sum" and self.kind.column(
                    column).dtype in ("i8", "bool")):
                dtype = np.int64
            else:
                dtype = np.float64
            columns[out] = np.empty(0, dtype=dtype)
        return columns

    def _aggregate_reference(self, arrays: dict, group_keys: np.ndarray,
                             key_inverse: np.ndarray,
                             length: int) -> list[dict]:
        """The per-group reference loop the kernels are gated against.

        Group membership comes from a stable argsort of the group index
        vector, so each group's rows appear in original row order —
        which is what makes the reference reducers' sequential float
        accumulation comparable bit for bit with the kernels' bincount
        discipline.
        """
        order = np.argsort(key_inverse, kind="stable")
        boundaries = np.searchsorted(key_inverse[order],
                                     np.arange(len(group_keys)))
        boundaries = np.append(boundaries, length)
        results: list[dict] = []
        for gi in range(len(group_keys)):
            members = order[boundaries[gi]:boundaries[gi + 1]]
            representative = members[0]
            row: dict[str, Any] = {}
            for name in self._group_by:
                value = arrays[name][representative]
                row[name] = str(value) if arrays[name].dtype.kind == "U" \
                    else value.item()
            for out, (column, fn) in self._aggregations.items():
                row[out] = kernels.REFERENCE_REDUCERS[fn](
                    arrays[column][members])
            results.append(row)
        return results
