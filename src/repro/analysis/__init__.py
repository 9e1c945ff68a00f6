"""Statistical helpers used by the reports and benchmark harness."""

from repro.analysis.ecdf import Ecdf
from repro.analysis.stats import (
    exponential_decay_scan,
    exponential_decay_scan_rows,
    geometric_mean,
    kernel_density,
    remove_outliers_iqr,
    summary_statistics,
    time_bin_indices,
)

__all__ = [
    "Ecdf",
    "exponential_decay_scan",
    "exponential_decay_scan_rows",
    "geometric_mean",
    "kernel_density",
    "remove_outliers_iqr",
    "summary_statistics",
    "time_bin_indices",
]
