"""Unit tests for the ECDF and statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import (Ecdf, exponential_decay_scan, geometric_mean,
                            kernel_density, remove_outliers_iqr,
                            summary_statistics)


class TestEcdf:
    def test_basic_properties(self):
        ecdf = Ecdf.from_samples([3.0, 1.0, 2.0, 4.0])
        assert ecdf(0.5) == 0.0
        assert ecdf(2.0) == 0.5
        assert ecdf(4.0) == 1.0
        assert ecdf.median == pytest.approx(2.5)
        assert ecdf.mean == pytest.approx(2.5)

    def test_quantiles(self):
        ecdf = Ecdf.from_samples(range(1, 101))
        assert ecdf.quantile(0.9) == pytest.approx(90.1, abs=1.0)
        with pytest.raises(ValueError):
            ecdf.quantile(1.5)

    def test_curve_is_monotone(self):
        ecdf = Ecdf.from_samples(np.random.default_rng(0).lognormal(size=50))
        xs, ys = ecdf.curve(num_points=20)
        assert list(ys) == sorted(ys)
        assert len(xs) == len(ys) == 20

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            Ecdf(())
        with pytest.raises(ValueError):
            Ecdf.from_samples([1.0]).curve(num_points=1)


#: NaN-free samples: signed zeros, infinities, subnormals, repeats, ints.
_SAMPLES = st.lists(
    st.one_of(st.sampled_from((0.0, -0.0, math.inf, -math.inf, 5e-324,
                               1.5, -1.5)),
              st.floats(allow_nan=False),
              st.integers(-2 ** 60, 2 ** 60)),
    min_size=1, max_size=40)


def _bits(values) -> list:
    """Value and sign of every float (``-0.0 == 0.0`` would hide a swap)."""
    return [(v, math.copysign(1.0, v)) for v in values]


class TestEcdfNumpySort:
    @settings(max_examples=200, deadline=None)
    @given(_SAMPLES)
    @example([0.0, -0.0, 0.0, -0.0])
    @example([-0.0, math.inf, 0.0, -math.inf, 0.0])
    def test_sort_equals_python_sorted(self, xs):
        ecdf = Ecdf.from_samples(xs)
        expected = tuple(sorted(map(float, xs)))
        assert all(type(v) is float for v in ecdf.values)
        assert _bits(ecdf.values) == _bits(expected)
        array = np.asarray(xs, dtype=np.float64)
        assert _bits(Ecdf.from_sorted(np.sort(array, kind="stable")).values) \
            == _bits(ecdf.values)
        assert Ecdf.from_sorted(np.sort(array, kind="stable")) == ecdf

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           st.integers(2, 50))
    def test_curve_matches_pointwise_calls(self, xs, num_points):
        ecdf = Ecdf.from_samples(xs)
        grid, ys = ecdf.curve(num_points=num_points)
        assert ys == tuple(ecdf(x) for x in grid)
        assert all(type(y) is float for y in ys)

    def test_nan_sorts_last_and_propagates(self):
        ecdf = Ecdf.from_samples([2.0, math.nan, -1.0, math.nan, 0.5])
        assert ecdf.values[:3] == (-1.0, 0.5, 2.0)
        assert all(math.isnan(v) for v in ecdf.values[3:])
        assert all(math.isnan(q) for q in ecdf.quantiles((0.0, 0.5, 1.0)))


class TestSummaryStatistics:
    def test_summary_values(self):
        summary = summary_statistics([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.std > 0

    def test_single_value(self):
        summary = summary_statistics([7.0])
        assert summary.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_statistics([])


class TestOutliersAndMeans:
    def test_remove_outliers(self):
        values = [1.0] * 20 + [1000.0]
        cleaned = remove_outliers_iqr(values)
        assert 1000.0 not in cleaned
        assert len(cleaned) == 20
        assert remove_outliers_iqr([]) == []

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 10.0, 100.0]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])


class TestKernelDensity:
    def test_density_over_samples(self):
        xs, ys = kernel_density(np.random.default_rng(1).normal(5.0, 1.0, size=200))
        assert len(xs) == len(ys) == 100
        assert max(ys) > 0
        peak_x = xs[int(np.argmax(ys))]
        assert 3.5 < peak_x < 6.5

    def test_log_scale_density(self):
        samples = np.random.default_rng(2).lognormal(mean=2.0, sigma=1.0, size=200)
        xs, ys = kernel_density(samples, log_scale=True)
        assert min(xs) > 0

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            kernel_density([1.0])
        with pytest.raises(ValueError):
            kernel_density([0.0, 1.0], log_scale=True)


class TestEcdfQuantiles:
    def test_vectorised_matches_scalar(self):
        ecdf = Ecdf.from_samples(np.random.default_rng(3).lognormal(size=200))
        qs = (0.5, 0.9, 0.99, 0.999)
        assert ecdf.quantiles(qs) == tuple(ecdf.quantile(q) for q in qs)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ecdf.from_samples([1.0]).quantiles((0.5, 1.5))


class TestExponentialDecayScan:
    @staticmethod
    def _reference(z, b, initial):
        import math

        values, state = [], initial
        for decay, add in zip(z, np.broadcast_to(b, z.shape)):
            state = state * math.exp(-decay) + add
            values.append(state)
        return np.array(values)

    def test_matches_sequential_recurrence(self):
        rng = np.random.default_rng(0)
        for scale in (0.01, 1.0, 10.0, 50.0):
            z = rng.exponential(scale, 3000)
            b = rng.uniform(0.0, 2.0, 3000)
            got = exponential_decay_scan(z, b, initial=0.5)
            np.testing.assert_allclose(got, self._reference(z, b, 0.5),
                                       rtol=1e-9, atol=1e-12)

    def test_scalar_input_broadcasts(self):
        z = np.zeros(4)
        np.testing.assert_allclose(exponential_decay_scan(z, 1.0),
                                   [1.0, 2.0, 3.0, 4.0])

    def test_huge_gaps_reset_within_precision(self):
        """A gap of many time constants wipes the carried state."""
        z = np.array([0.0, 1000.0, 0.0])
        got = exponential_decay_scan(z, 5.0)
        assert got[0] == pytest.approx(5.0)
        assert got[1] == pytest.approx(5.0, rel=1e-12)  # carry fully decayed
        assert got[2] == pytest.approx(10.0, rel=1e-12)

    def test_long_dense_stream_stays_finite(self):
        """Accumulated decay far past the float64 exp range must not overflow."""
        rng = np.random.default_rng(1)
        z = rng.uniform(0.5, 2.0, 20000)  # total ~25k log-decay units
        got = exponential_decay_scan(z, 1.0)
        assert np.all(np.isfinite(got))
        tail_reference = self._reference(z[-50:], 1.0, got[-51])
        np.testing.assert_allclose(got[-50:], tail_reference, rtol=1e-9)

    def test_empty_and_validation(self):
        assert exponential_decay_scan(np.empty(0), 1.0).size == 0
        with pytest.raises(ValueError):
            exponential_decay_scan(np.array([-0.1]), 1.0)
        with pytest.raises(ValueError):
            exponential_decay_scan(np.zeros((2, 2)), 1.0)


class TestTimeBinIndices:
    def test_floor_division_convention(self):
        from repro.analysis.stats import time_bin_indices

        bins = time_bin_indices([0.0, 899.99, 900.0, 1800.0], 900.0)
        assert bins.dtype == np.int64
        assert list(bins) == [0, 0, 1, 2]

    def test_clip_to_num_bins(self):
        from repro.analysis.stats import time_bin_indices

        bins = time_bin_indices([-1.0, 100.0, 1e9], 10.0, num_bins=5)
        assert list(bins) == [0, 4, 4]

    def test_validation(self):
        from repro.analysis.stats import time_bin_indices

        with pytest.raises(ValueError):
            time_bin_indices([1.0], 0.0)
        with pytest.raises(ValueError):
            time_bin_indices([1.0], 1.0, num_bins=0)
