"""Vectorised grouped reduction kernels with an enforced per-group reference.

:meth:`repro.store.query.Query.aggregate` used to evaluate every group
through a Python loop of NumPy lambdas — fine for a dozen groups, a hot
spot for a campaign's thousands of ``(device, bin)`` cells.  This module
replaces that loop with flat array kernels over the whole matched row
set at once:

* ``count``        — one ``bincount`` over the group indices;
* ``sum``/``mean``/``std`` — integer/bool sums via ``np.add.at`` in
  int64 (exact, associative), float accumulation via ``np.bincount``
  weights (sequential in row order, which is also what makes a
  :mod:`repro.store.diff` self-diff zero bit for bit); ``std`` composes
  the same two passes the per-row definition uses (mean, then mean of
  squared deviations);
* ``min``/``max``  — ``ufunc.reduceat`` over the group-gathered array
  (lexicographic segment endpoints for string columns);
* ``median``/``p50``/``p90``/``p99``/``p999`` — one in-place sort of
  each group's slice of the gathered column (shared by every order
  statistic of that column), then :func:`segment_quantiles`, a
  vectorised replica of NumPy's linear-interpolation quantile (virtual
  index, gamma, the last-index bounds rule and the ``gamma >= 0.5`` lerp
  branch), bit-identical to ``np.quantile`` per group.  It is the one
  quantile kernel: :class:`repro.analysis.ecdf.Ecdf` runs its quantiles
  through it too, with the sample as one segment.

The group index itself is built by counting, not sorting: group keys
are small dense integers, so :func:`dense_unique` replaces
``np.unique`` with ``bincount`` + rank lookup, and
:class:`GroupedReducer` derives its group starts from a ``bincount``
prefix sum.  Its group-contiguous row order (a stable argsort, a 16-bit
radix sort up to 65,536 groups) is built only when a reduction gathers
or sorts by group; ``count``/``sum``/``mean``/``std`` never do.

**The reference defines the semantics.**  :data:`REFERENCE_REDUCERS` is
the per-group slow path the kernels are held bit-identical to (the
benchmark gate in ``benchmarks/test_bench_query.py`` and the property
tests in ``tests/test_query_engine.py`` enforce it).  Grouped float
``sum``/``mean``/``std`` are *defined* as sequential row-order
accumulation — not NumPy's pairwise summation — because row-order sums
are the one float discipline that survives vectorisation, chunking and
re-segmentation unchanged; every other reduction keeps its original
NumPy definition (``np.quantile``, ``np.median``, ``min``/``max``, exact
integer sums).  Order statistics over floats (``min``/``max``/``median``/
percentiles) are returned with a canonical zero sign (``+ 0.0``): NumPy
picks between ``-0.0`` and ``0.0`` by element order, which no sorted or
regrouped evaluation can reproduce, so both sides normalise to ``0.0``.
Ungrouped aggregation is untouched by all of this: with
no per-group loop to replace it still evaluates the plain
:data:`repro.store.query.AGGREGATIONS` lambdas.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro import obs

__all__ = ["GroupedReducer", "REFERENCE_REDUCERS", "dense_unique",
           "segment_quantiles", "merge_vocabularies", "factorize_parts",
           "decompose_keys"]

#: Quantile per percentile-named reduction.
_QUANTILES = {"p50": 0.50, "p90": 0.90, "p99": 0.99, "p999": 0.999,
              "median": 0.5}

#: Groups whose indices fit in ``uint16``: up to this many, the reducer's
#: row order is NumPy's stable radix argsort over 16-bit keys.
_RADIX_GROUPS = 2 ** 16


def _sequential_sum(values: np.ndarray) -> float:
    """Row-order float64 accumulation — the grouped float-sum definition.

    Equivalent to what ``np.bincount`` does per bucket: every element is
    converted to float64 and added left to right, so the result is
    independent of how the rows were ever chunked or segmented.
    """
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _reference_sum(values: np.ndarray) -> Union[int, float]:
    if values.dtype.kind == "f":
        return _sequential_sum(values)
    return values.sum().item()  # integer/bool sums are exact in any order


def _reference_mean(values: np.ndarray) -> float:
    return _sequential_sum(values) / values.size


def _unsigned_zero(result):
    """``result`` with ``-0.0`` made ``0.0`` (floats only; ints untouched).

    The zero sign of a float ``min``/``max``/quantile depends on which
    of tied ``±0.0`` elements NumPy met first — ``[0., -0.] * 5`` has
    ``min()`` ``-0.0``, reversed ``0.0`` — so order statistics are
    defined with the sign dropped.
    """
    if result.dtype.kind == "f":
        return result + 0.0
    return result


def _reference_min(values: np.ndarray):
    if values.dtype.kind == "U":
        return min(values.tolist())  # no min ufunc loop for unicode
    return _unsigned_zero(values.min()).item()


def _reference_max(values: np.ndarray):
    if values.dtype.kind == "U":
        return max(values.tolist())
    return _unsigned_zero(values.max()).item()


def _reference_std(values: np.ndarray) -> float:
    mean = _sequential_sum(values) / values.size
    acc = 0.0
    for value in values.tolist():
        deviation = value - mean
        acc += deviation * deviation
    return math.sqrt(acc / values.size)


#: Per-group reference reducers: the semantic source of truth the grouped
#: kernels are gated against.  ``count``/``min``/``max``/``median``/
#: percentiles are the original NumPy definitions; float ``sum``/``mean``/
#: ``std`` are row-order sequential (see the module docstring).
REFERENCE_REDUCERS: dict[str, Callable[[np.ndarray], object]] = {
    "count": lambda a: int(a.size),
    "sum": _reference_sum,
    "mean": _reference_mean,
    "median": lambda a: np.median(a).item() + 0.0,
    "min": _reference_min,
    "max": _reference_max,
    "std": _reference_std,
    "p50": lambda a: np.quantile(a, 0.50).item() + 0.0,
    "p90": lambda a: np.quantile(a, 0.90).item() + 0.0,
    "p99": lambda a: np.quantile(a, 0.99).item() + 0.0,
    "p999": lambda a: np.quantile(a, 0.999).item() + 0.0,
}


def dense_unique(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for integers in ``[0, size)``.

    Counting instead of sorting: one ``bincount`` marks which codes are
    present, ``flatnonzero`` lists them in ascending order, and a prefix
    count over the presence marks ranks every code, so the inverse is a
    single lookup.  O(rows + size) rather than O(rows log rows); callers
    use it only where ``size`` is bounded by the data (a vocabulary, or a
    key space no larger than ``max(rows, 65536)``).  Both results are
    int64, whatever the dtype of ``codes``.
    """
    present = np.bincount(codes, minlength=size) != 0
    rank = np.cumsum(present) - 1
    return np.flatnonzero(present), rank[codes]


def segment_quantiles(ordered: np.ndarray, starts: np.ndarray,
                      counts: np.ndarray, q) -> np.ndarray:
    """``np.quantile`` (linear method) of sorted segments, bit for bit.

    ``ordered[starts[i]:starts[i] + counts[i]]`` is segment ``i``, sorted
    ascending with any NaN last (as ``np.sort`` leaves it); every count is
    at least 1 and ``q`` is in ``[0, 1]``.  ``starts``, ``counts`` and
    ``q`` broadcast against each other: many segments at one ``q`` (the
    grouped reducer), or one segment at many ``q``
    (:class:`repro.analysis.ecdf.Ecdf`).

    Replicates NumPy's arithmetic step for step: the virtual index
    ``(n - 1) * q`` and its floor/gamma split; a virtual index on the
    last value (``q == 1``, or a ``q`` that rounds up to it) reads that
    value twice with gamma measured from index ``-1``, as NumPy's bounds
    rule does; the two-branch lerp that switches at ``gamma >= 0.5``; and
    a segment that ends in NaN answers that NaN.  So every result,
    zero sign included, equals the scalar ``np.quantile`` of the segment
    (and infinities raise the same invalid-value warnings).
    """
    top = counts - 1
    virtual = top * q
    previous = np.floor(virtual)
    # ``q <= 1`` keeps ``virtual <= top``: only ``virtual == top`` is not
    # inside, and there ``previous`` is the last index already.
    inside = virtual < top
    gamma = np.where(inside, virtual - previous, virtual + 1)
    low_idx = starts + previous.astype(np.int64)
    low = ordered[low_idx]
    high = ordered[low_idx + inside]
    diff = high - low
    result = np.where(gamma >= 0.5, high - diff * (1 - gamma),
                      low + diff * gamma)
    tail = ordered[starts + top]
    return np.where(np.isnan(tail), tail, result)


def merge_vocabularies(vocabularies: Sequence[np.ndarray]
                       ) -> tuple[np.ndarray, list[np.ndarray]]:
    """One sorted vocabulary over several, and where each entry lands in it.

    Returns ``(vocabulary, lookups)``: ``vocabulary`` is ``np.unique`` of
    every entry of every input, and ``lookups[i][j]`` is the position of
    ``vocabularies[i][j]`` in it (one ``searchsorted`` over all inputs at
    once).  A code ``c`` into input ``i`` is therefore ``lookups[i][c]``
    in the merged vocabulary — how :func:`factorize_parts` and the store's
    column views (:mod:`repro.store.view`) unify per-segment
    dictionaries.
    """
    stacked = np.concatenate(vocabularies)
    vocabulary = np.unique(stacked)
    lookup = np.searchsorted(vocabulary, stacked)
    bounds = np.cumsum([local.size for local in vocabularies])[:-1]
    return vocabulary, np.split(lookup, bounds)


def factorize_parts(parts: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(concatenated, return_inverse=True)`` without decoding.

    ``parts`` holds one entry per segment: either a
    :class:`repro.store.columnar.CodedColumn` (dictionary codes + sorted
    vocabulary, never materialised as unicode rows) or a plain decoded
    array (JSONL segments, raw-encoded columns).  Because every
    per-segment vocabulary is sorted — NumPy's string sort order *is*
    the dictionary code order — unifying the vocabularies
    (:func:`merge_vocabularies`) and remapping each segment's codes
    through its lookup reproduces exactly what ``np.unique`` over the
    decoded concatenation would return: the sorted distinct values
    actually present, and an int64 inverse mapping each row to them.
    """
    vocabularies = [np.unique(part) if isinstance(part, np.ndarray)
                    else part.values for part in parts]
    if not vocabularies:
        empty = np.empty(0, dtype=np.str_)
        return empty, np.empty(0, dtype=np.int64)
    vocabulary, lookups = merge_vocabularies(vocabularies)
    remapped = [lookup[np.searchsorted(local, part)]
                if isinstance(part, np.ndarray) else lookup[part.codes]
                for part, local, lookup in zip(parts, vocabularies, lookups)]
    present, inverse = dense_unique(np.concatenate(remapped), vocabulary.size)
    return vocabulary[present], inverse


def decompose_keys(group_keys: np.ndarray,
                   radix_sizes: Sequence[int]) -> list[np.ndarray]:
    """Invert the mixed-radix group-key encoding back to per-column indices.

    ``aggregate`` folds the group columns into one int64 key
    (``key = key * len(uniques) + inverse`` per column); this peels the
    digits back off so each group's label is read from the per-column
    unique arrays — for dictionary columns that means only group
    *representatives* are ever decoded, not rows.
    """
    indices: list[np.ndarray] = [group_keys] * len(radix_sizes)
    rest = group_keys
    for position in range(len(radix_sizes) - 1, -1, -1):
        rest, digit = np.divmod(rest, radix_sizes[position])
        indices[position] = digit
    return indices


class GroupedReducer:
    """All declared reductions of one grouped aggregation, vectorised.

    Built once per ``aggregate()`` call from the group index vector
    (``key_inverse`` maps each matched row to its 0-based group, groups
    numbered in ascending group-key order).  Per-column derived arrays —
    the group-gathered view for ``reduceat`` and the within-group sorted
    view for order statistics — are computed lazily and shared between
    reductions over the same column, so ``p50,p90,p99`` of one column
    cost one sort of each group's slice, not three.

    The group layout is counted, not sorted: ``counts`` is one
    ``bincount`` of ``key_inverse`` and ``starts`` its exclusive prefix
    sum.  The group-contiguous row order (:attr:`order`) is built the
    first time a reduction gathers or sorts by group — ``min``, ``max``,
    ``median`` and the percentiles; ``count``, ``sum``, ``mean`` and
    ``std`` work on the original rows and never build it.

    Every reduction — :meth:`reduce_array`, or :meth:`reduce` as native
    scalars — is bit-identical to applying the matching
    :data:`REFERENCE_REDUCERS` entry to each group's rows in original
    row order (enforced by tests and the benchmark gate).

    NaN: a group holding a NaN has NaN ``median`` and percentiles, as
    ``np.median``/``np.quantile`` give (each group's sorted slice ends
    in its NaN); ``min``/``max``, sums, means and ``std`` propagate NaN
    through their arithmetic.
    """

    def __init__(self, key_inverse: np.ndarray, num_groups: int) -> None:
        self.key_inverse = key_inverse
        self.num_groups = int(num_groups)
        counts = np.bincount(key_inverse, minlength=self.num_groups)
        self._starts = np.cumsum(counts) - counts
        self._counts = counts
        self._order: Optional[np.ndarray] = None
        self._gathered: dict[str, np.ndarray] = {}
        self._sorted: dict[str, np.ndarray] = {}

    # -- derived views --------------------------------------------------- #
    @property
    def order(self) -> np.ndarray:
        """The group-contiguous row order, built on first use.

        A stable argsort of ``key_inverse`` — over ``uint16`` keys (an
        O(n) radix sort) up to 65,536 groups, over the int64 indices
        above that — so each group's rows keep their original order.
        Only the reductions that gather or sort by group (``min``,
        ``max``, ``median`` and the percentiles) read it.
        """
        if self._order is None:
            if self.num_groups <= _RADIX_GROUPS:
                keys = self.key_inverse.astype(np.uint16)
            else:
                keys = self.key_inverse
            self._order = np.argsort(keys, kind="stable")
        return self._order

    def _gather(self, name: str, values: np.ndarray) -> np.ndarray:
        """``values`` re-ordered group-contiguous, row order kept per group.

        Row order within a group is kept because :attr:`order` is a
        stable argsort; no kernel relies on it (extrema and sorted order
        statistics are order-free).
        """
        gathered = self._gathered.get(name)
        if gathered is None:
            gathered = values.take(self.order)
            self._gathered[name] = gathered
        return gathered

    def _sort(self, name: str, values: np.ndarray) -> np.ndarray:
        """``values`` sorted ascending within each group's segment.

        Sorts each group's slice of the gathered copy in place rather
        than ``lexsort``-ing globally: same result (each segment ends up
        ascending; tie order is irrelevant once only the values remain),
        but O(n log(n/G)) and several times faster than a stable global
        two-key mergesort.
        """
        ordered = self._sorted.get(name)
        if ordered is None:
            ordered = self._gather(name, values).copy()
            ends = np.append(self._starts[1:], self.key_inverse.size)
            for start, end in zip(self._starts.tolist(), ends.tolist()):
                ordered[start:end].sort()
            self._sorted[name] = ordered
        return ordered

    # -- kernels ---------------------------------------------------------- #
    def _sums(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums under the reference discipline (see module doc).

        Integer/bool sums accumulate in int64 with the unbuffered
        ``np.add.at`` over the original rows: exact (and wrapping) in any
        order, so they need no group order.
        """
        if values.dtype.kind in "ibu":
            sums = np.zeros(self.num_groups, dtype=np.int64)
            np.add.at(sums, self.key_inverse,
                      values.astype(np.int64, copy=False))
            return sums
        return self._float_sums(values)

    def _float_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-group float64 sums, each element converted then accumulated.

        ``bincount`` weights accumulate bucket-sequentially in row order —
        exactly the reference's left-to-right Python loop, including the
        per-element int→float conversion ``mean``/``std`` are defined
        over (which an exact int64 pre-sum would *not* reproduce once
        values pass 2**53).
        """
        return np.bincount(self.key_inverse, weights=values,
                           minlength=self.num_groups)

    def _extremum(self, name: str, values: np.ndarray,
                  ufunc: np.ufunc, end: bool) -> np.ndarray:
        if values.dtype.kind == "U":
            # No min/max ufunc loops for unicode: read the sorted segment
            # endpoints instead (== lexicographic min/max).
            ordered = self._sort(name, values)
            if end:
                ends = np.append(self._starts[1:], self.key_inverse.size)
                return ordered[ends - 1]
            return ordered[self._starts]
        return _unsigned_zero(
            ufunc.reduceat(self._gather(name, values), self._starts))

    def _quantile(self, name: str, values: np.ndarray,
                  q: float) -> np.ndarray:
        """Per-group ``np.quantile(..., q)`` (linear method), vectorised.

        :func:`segment_quantiles` over each group's sorted slice, so each
        group's value equals the scalar ``np.quantile`` of its rows to the
        last bit, NaN included (zero sign canonicalised, as in the
        reference).
        """
        ordered = self._sort(name, values).astype(np.float64, copy=False)
        return segment_quantiles(ordered, self._starts, self._counts,
                                 q) + 0.0

    def _median(self, name: str, values: np.ndarray) -> np.ndarray:
        """Per-group ``np.median``: mean of the two middle sorted values.

        A group whose sorted slice ends in NaN (NaN sorts last) holds a
        NaN, and its median is that NaN, as ``np.median`` returns.
        """
        ordered = self._sort(name, values).astype(np.float64, copy=False)
        counts = self._counts
        low = ordered[self._starts + (counts - 1) // 2]
        high = ordered[self._starts + counts // 2]
        with np.errstate(over="ignore"):
            even = (low + high) / 2.0
        tail = ordered[self._starts + counts - 1]
        median = np.where(counts % 2, high, even)
        return np.where(np.isnan(tail), tail, median) + 0.0

    # -- dispatch ---------------------------------------------------------- #
    def reduce_array(self, name: str, values: np.ndarray,
                     fn: str) -> np.ndarray:
        """Per-group results of one reduction as an array, ascending group order.

        Dtypes: ``count`` is int64; ``sum`` is int64 over integer/bool
        columns and float64 otherwise; ``min``/``max`` keep the column's
        dtype; everything else is float64.  ``tolist()`` of the result
        yields the per-group reference's native scalars (see
        :meth:`reduce`).
        """
        with obs.span("store.kernels.reduce"):
            if fn == "count":
                return self._counts.copy()
            if fn == "sum":
                return self._sums(values)
            if fn == "mean":
                return self._float_sums(values) / self._counts
            if fn == "std":
                means = self._float_sums(values) / self._counts
                deviations = values - means[self.key_inverse]
                squares = np.bincount(self.key_inverse,
                                      weights=deviations * deviations,
                                      minlength=self.num_groups)
                return np.sqrt(squares / self._counts)
            if fn == "min":
                return self._extremum(name, values, np.minimum, end=False)
            if fn == "max":
                return self._extremum(name, values, np.maximum, end=True)
            if fn == "median":
                return self._median(name, values)
            quantile = _QUANTILES.get(fn)
            if quantile is None:
                raise ValueError(f"unknown grouped reduction {fn!r}")
            return self._quantile(name, values, quantile)

    def reduce(self, name: str, values: np.ndarray, fn: str) -> list:
        """Per-group scalars of one reduction, ascending group order.

        Scalar types match the per-group reference exactly: ``count`` is
        ``int``, ``sum``/``min``/``max`` keep the column's native scalar
        type, everything else is ``float``.
        """
        return self.reduce_array(name, values, fn).tolist()
