"""Summary statistics, outlier handling and kernel density estimation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import stats as scipy_stats

__all__ = ["summary_statistics", "remove_outliers_iqr", "geometric_mean",
           "kernel_density", "exponential_decay_scan",
           "exponential_decay_scan_rows", "time_bin_indices"]

#: Per-step log-decay clamp for :func:`exponential_decay_scan`.  A single
#: step decaying by ``e^-30 ~ 1e-13`` already wipes the carried state below
#: float64 relative precision, so larger exponents are indistinguishable from
#: a full reset and clamping them keeps the rescaled prefix sums finite.
DECAY_SCAN_RESET_LOG = 30.0

#: Maximum accumulated log-decay per vectorised chunk of the scan.  Together
#: with the per-step clamp this bounds every intermediate ``exp`` argument by
#: ``DECAY_SCAN_CHUNK_LOG + DECAY_SCAN_RESET_LOG < 709`` (float64 overflow).
DECAY_SCAN_CHUNK_LOG = 500.0


@dataclass(frozen=True)
class SummaryStatistics:
    """Mean/median/min/max/std of a sample (the shape of the paper's Table 4 rows)."""

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float


def summary_statistics(values: Iterable[float]) -> SummaryStatistics:
    """Compute the summary statistics of a sample."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarise an empty sample")
    return SummaryStatistics(
        count=int(data.size),
        mean=float(np.mean(data)),
        median=float(np.median(data)),
        std=float(np.std(data, ddof=1)) if data.size > 1 else 0.0,
        minimum=float(np.min(data)),
        maximum=float(np.max(data)),
    )


def remove_outliers_iqr(values: Iterable[float], factor: float = 1.5) -> list[float]:
    """Drop values outside ``[Q1 - factor*IQR, Q3 + factor*IQR]``.

    The paper removes outliers before reporting the Fig. 10c efficiency
    medians; this is the standard Tukey fence they imply.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return []
    q1, q3 = np.percentile(data, [25, 75])
    iqr = q3 - q1
    low, high = q1 - factor * iqr, q3 + factor * iqr
    return [float(v) for v in data if low <= v <= high]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot average an empty sample")
    if np.any(data <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(data))))


def kernel_density(values: Iterable[float], num_points: int = 100,
                   log_scale: bool = False) -> tuple[list[float], list[float]]:
    """Gaussian kernel density estimate, as drawn over the Fig. 10 histograms."""
    data = np.asarray(list(values), dtype=float)
    if data.size < 2:
        raise ValueError("kernel density requires at least two samples")
    if log_scale:
        if np.any(data <= 0):
            raise ValueError("log-scale KDE requires positive values")
        data = np.log10(data)
    kde = scipy_stats.gaussian_kde(data)
    xs = np.linspace(float(np.min(data)), float(np.max(data)), num_points)
    ys = kde(xs)
    if log_scale:
        xs = np.power(10.0, xs)
    return [float(x) for x in xs], [float(y) for y in ys]


def time_bin_indices(values, width: float,
                     num_bins: Optional[int] = None) -> np.ndarray:
    """Fixed-width bin index of each value (``floor(value / width)``).

    The single binning convention shared by the cloud load profiles, the
    frozen service-table lookup and the store's ``Query.bin`` time-bin
    aggregation — one implementation, so an event lands in the same bin no
    matter which layer asks.  With ``num_bins`` the indices clip into
    ``[0, num_bins - 1]`` (events exactly at the horizon fall into the last
    bin rather than a phantom one).
    """
    if width <= 0:
        raise ValueError("width must be positive")
    bins = (np.asarray(values, dtype=np.float64) // width).astype(np.int64)
    if num_bins is not None:
        if num_bins <= 0:
            raise ValueError("num_bins must be positive when given")
        bins = np.clip(bins, 0, num_bins - 1)
    return bins


def exponential_decay_scan(log_decays: np.ndarray, inputs,
                           initial: float = 0.0) -> np.ndarray:
    """Vectorised first-order decay recurrence ``h[i] = h[i-1]*exp(-z[i]) + b[i]``.

    ``log_decays`` holds the non-negative per-step decay exponents ``z`` and
    ``inputs`` the per-step additions ``b`` (a scalar broadcasts).  Returns
    the full state trajectory ``h`` — the heat accumulator of
    :class:`~repro.devices.thermal.ThermalState` evaluated over a whole event
    vector at once, which is what makes the fleet simulator's event loop a
    handful of array ops instead of a Python loop per event.

    The closed form ``h[i] = exp(-C[i]) * (h0 + sum_j b[j] * exp(C[j]))`` with
    ``C = cumsum(z)`` overflows once ``C`` spreads past ~709, so the scan is
    evaluated over chunks of bounded accumulated decay (boundaries found with
    one ``searchsorted``), carrying the state scalar across chunks.  Per-step
    exponents are clamped at :data:`DECAY_SCAN_RESET_LOG`, which is already a
    full reset within float64 precision.  Dense event streams (small gaps —
    the regime with actual thermal behaviour) collapse to a single chunk.
    """
    z = np.asarray(log_decays, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("log_decays must be one-dimensional")
    b = np.broadcast_to(np.asarray(inputs, dtype=np.float64), z.shape)
    return exponential_decay_scan_rows(z[None], b[None], initial)[0]


def exponential_decay_scan_rows(log_decays: np.ndarray, inputs,
                                initial: float = 0.0) -> np.ndarray:
    """:func:`exponential_decay_scan` of every row of a 2-D array at once.

    Each row is an independent recurrence along the last axis; ``inputs``
    broadcasts against ``log_decays`` (e.g. one column of per-row additions).
    Rows whose accumulated decay fits one chunk take the closed form as a
    single set of array ops; every prefix sum is ``np.cumsum(..., axis=1)``,
    a sequential accumulate per row, so each row is bit-identical to scanning
    it on its own.  Rows that need more chunks fall back to the chunked scan
    one by one.
    """
    z = np.asarray(log_decays, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("log_decays must be two-dimensional")
    if z.size and float(z.min()) < 0:
        raise ValueError("log_decays must be non-negative")
    b = np.broadcast_to(np.asarray(inputs, dtype=np.float64), z.shape)
    if z.size == 0:
        return np.empty(z.shape, dtype=np.float64)

    z = np.minimum(z, DECAY_SCAN_RESET_LOG)
    cum = np.cumsum(z, axis=1)
    chunked = np.flatnonzero(cum[:, -1] > DECAY_SCAN_CHUNK_LOG)
    cum[chunked] = 0.0                     # keeps exp() finite; redone below
    growth = np.exp(cum)
    out = (initial + np.cumsum(b * growth, axis=1)) / growth
    for row in chunked:
        out[row] = _chunked_decay_scan(z[row], b[row], initial)
    return out


def _chunked_decay_scan(z: np.ndarray, b: np.ndarray,
                        initial: float) -> np.ndarray:
    """One row of clamped exponents over chunks of bounded accumulated decay."""
    cum = np.cumsum(z)
    starts = np.searchsorted(
        cum, np.arange(0.0, float(cum[-1]), DECAY_SCAN_CHUNK_LOG), side="left")
    starts = np.unique(np.append(starts, 0))

    out = np.empty_like(b)
    carry = float(initial)
    for index, lo in enumerate(starts):
        hi = starts[index + 1] if index + 1 < len(starts) else z.size
        base = cum[lo - 1] if lo else 0.0
        local = cum[lo:hi] - base          # in (0, CHUNK_LOG + RESET_LOG]
        growth = np.exp(local)             # bounded: exp(<~530)
        chunk = (carry + np.cumsum(b[lo:hi] * growth)) / growth
        out[lo:hi] = chunk
        carry = float(chunk[-1])
    return out
