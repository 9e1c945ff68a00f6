"""Empirical cumulative distribution functions (Figs. 9, 13, 14)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Ecdf", "sort_floats"]


def sort_floats(values) -> np.ndarray:
    """``values`` as float64, sorted: the bits of ``np.sort(x, kind="stable")``.

    Floats that compare equal have equal bits, except ``-0.0``/``0.0``
    and NaN payloads, so only a sample holding a zero or a NaN can tell
    NumPy's default (SIMD) sort from its stable one.  One pass looks for
    either: without them the default sort runs, several times faster;
    with them the stable sort does, which keeps tied zeros in input order.
    """
    values = np.asarray(values, dtype=np.float64)
    if (np.abs(values) > 0.0).all():
        return np.sort(values)
    return np.sort(values, kind="stable")


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF over a sample of values.

    ``values`` holds the sample as ascending Python floats, ordered as
    ``np.sort(x, kind="stable")`` over float64 orders it (through
    :func:`sort_floats`): NaN-free samples exactly like ``sorted`` (equal
    values, ``-0.0`` and ``0.0`` included, keep their input order), NaN
    last.  Beside that tuple, the only dataclass field, an ECDF holds the
    same sample as a read-only float64 array, and every statistic reads
    the array.  Quantiles (and the median, the 0.5 quantile) run through
    :func:`repro.store.kernels.segment_quantiles` with the sample as one
    segment, so each equals ``np.quantile`` of ``values`` bit for bit,
    zero sign included, and a NaN in the sample propagates into every
    quantile.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = sort_floats(self.values)
        if not values.size:
            raise ValueError("Ecdf requires at least one value")
        object.__setattr__(self, "values", tuple(values.tolist()))
        self._hold(values)

    def _hold(self, ordered: np.ndarray) -> None:
        ordered = ordered.view()
        ordered.flags.writeable = False
        object.__setattr__(self, "_sorted", ordered)

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Ecdf":
        """Build an ECDF from an iterable of samples."""
        return cls(tuple(samples))

    @classmethod
    def from_sorted(cls, samples: Iterable[float]) -> "Ecdf":
        """Build an ECDF from samples already in ascending order.

        Trusts the caller and skips the constructor's re-sort — the fast path
        for the vectorised results store, whose column scans hand over
        :func:`sort_floats`-ed arrays (converted with one ``tolist()``).
        A float64 array is held as a read-only view, not copied, so the
        caller must not write to it afterwards.  Equal inputs produce an
        ECDF equal to the :meth:`from_samples` one.
        """
        ordered = np.asarray(samples if isinstance(samples, np.ndarray)
                             else [float(v) for v in samples],
                             dtype=np.float64)
        if not ordered.size:
            raise ValueError("Ecdf requires at least one value")
        ecdf = object.__new__(cls)
        object.__setattr__(ecdf, "values", tuple(ordered.tolist()))
        ecdf._hold(ordered)
        return ecdf

    @classmethod
    def from_column(cls, store, kind: str, column: str, **where) -> "Ecdf":
        """Build an ECDF straight from a results-store column.

        ``store`` is a :class:`~repro.store.store.ResultStore`; ``where``
        holds equality filters evaluated with predicate pushdown, e.g.
        ``Ecdf.from_column(store, "executions", "latency_ms",
        device_name="S21")``.
        """
        arrays = store.query(kind).where(**where).arrays(column)
        return cls.from_sorted(sort_floats(arrays[column]))

    def __call__(self, value: float) -> float:
        """Fraction of the sample less than or equal to ``value``."""
        ordered = self._sorted
        return float(np.searchsorted(ordered, value, side="right")) / ordered.size

    def _quantiles(self, qs) -> np.ndarray:
        # Imported here: the store package imports this module.
        from repro.store.kernels import segment_quantiles

        ordered = self._sorted
        return segment_quantiles(ordered, 0, ordered.size, qs)

    def quantile(self, q: float) -> float:
        """Value below which a fraction ``q`` of the sample lies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        return float(self._quantiles(q))

    def quantiles(self, qs: Sequence[float]) -> tuple[float, ...]:
        """Several quantiles in one vectorised pass (tail-latency reports)."""
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValueError("every q must be in [0, 1]")
        return tuple(self._quantiles(np.asarray(qs, dtype=np.float64))
                     .tolist())

    @property
    def median(self) -> float:
        """Sample median: the 0.5 quantile (``np.quantile(values, 0.5)``)."""
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(np.mean(self._sorted))

    def curve(self, num_points: int = 100) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(x, y) points of the ECDF curve, suitable for plotting or printing."""
        if num_points <= 1:
            raise ValueError("num_points must be greater than 1")
        ordered = self._sorted
        xs = np.linspace(ordered[0], ordered[-1], num_points)
        ys = np.searchsorted(ordered, xs, side="right") / ordered.size
        return tuple(xs.tolist()), tuple(ys.tolist())
