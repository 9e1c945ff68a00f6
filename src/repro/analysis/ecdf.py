"""Empirical cumulative distribution functions (Figs. 9, 13, 14)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Ecdf"]


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF over a sample of values.

    ``values`` holds the sample as ascending Python floats.  The
    constructor sorts with a stable NumPy sort over float64, which orders
    NaN-free samples exactly like ``sorted`` (equal values, ``-0.0`` and
    ``0.0`` included, keep their input order); NaN sorts last, as in
    NumPy, and propagates into :meth:`quantile`/:meth:`quantiles`.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if not values.size:
            raise ValueError("Ecdf requires at least one value")
        object.__setattr__(self, "values",
                           tuple(np.sort(values, kind="stable").tolist()))

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Ecdf":
        """Build an ECDF from an iterable of samples."""
        return cls(tuple(samples))

    @classmethod
    def from_sorted(cls, samples: Iterable[float]) -> "Ecdf":
        """Build an ECDF from samples already in ascending order.

        Trusts the caller and skips the constructor's re-sort — the fast path
        for the vectorised results store, whose column scans hand over
        ``np.sort``-ed arrays (converted with one ``tolist()``).  Equal
        inputs produce an ECDF equal to the :meth:`from_samples` one.
        """
        if isinstance(samples, np.ndarray):
            values = tuple(samples.astype(np.float64, copy=False).tolist())
        else:
            values = tuple(float(v) for v in samples)
        if not values:
            raise ValueError("Ecdf requires at least one value")
        ecdf = object.__new__(cls)
        object.__setattr__(ecdf, "values", values)
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
        return cls.from_sorted(np.sort(arrays[column], kind="stable"))

    def __call__(self, value: float) -> float:
        """Fraction of the sample less than or equal to ``value``."""
        return float(np.searchsorted(self.values, value, side="right")) / len(self.values)

    def quantile(self, q: float) -> float:
        """Value below which a fraction ``q`` of the sample lies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        return float(np.quantile(self.values, q))

    def quantiles(self, qs: Sequence[float]) -> tuple[float, ...]:
        """Several quantiles in one vectorised pass (tail-latency reports)."""
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValueError("every q must be in [0, 1]")
        return tuple(float(v) for v in np.quantile(self.values, list(qs)))

    @property
    def median(self) -> float:
        """Sample median."""
        return self.quantile(0.5)

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(np.mean(self.values))

    def curve(self, num_points: int = 100) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(x, y) points of the ECDF curve, suitable for plotting or printing."""
        if num_points <= 1:
            raise ValueError("num_points must be greater than 1")
        xs = np.linspace(self.values[0], self.values[-1], num_points)
        ys = np.searchsorted(self.values, xs, side="right") / len(self.values)
        return tuple(xs.tolist()), tuple(ys.tolist())
