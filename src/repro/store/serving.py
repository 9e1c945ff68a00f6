"""Store-backed figure tables for the reports layer.

:class:`ReportServer` produces the same figure tables as
:mod:`repro.core.reports` — latency ECDFs (Fig. 9), energy distributions
(Fig. 10), latency-vs-FLOPs points (Fig. 8), cloud-API usage (Fig. 15) —
but reads from a :class:`~repro.store.store.ResultStore` or a pinned
:class:`~repro.store.store.StoreSnapshot` instead of in-memory result
lists.  It holds no state but its source: every table reads the columns it
needs through :meth:`~repro.store.store.ResultStore.query`, and decoded
segments are cached once, by the store.

Numerical fidelity: every table is computed with the same expressions, the
same outlier filter and the same orderings as the in-memory reports
functions — devices in first-appearance order, rows in ingestion order
within a device — and floats round-trip exactly through the store, so the
served tables compare bit-for-bit equal to the in-memory path for the same
seeds (asserted by ``benchmarks/test_bench_store.py`` and
``tests/test_report_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ecdf import Ecdf, sort_floats
from repro.analysis.stats import remove_outliers_iqr
from repro.store.schema import unpack_strings

__all__ = ["ReportServer"]


def _split_by_device(devices: np.ndarray, **metrics: np.ndarray
                     ) -> dict[str, dict[str, np.ndarray]]:
    """Split metric arrays per device: first-appearance device order,
    ingestion row order within each device."""
    names, first, codes = np.unique(devices, return_index=True,
                                    return_inverse=True)
    rows = np.split(np.argsort(codes, kind="stable"),
                    np.cumsum(np.bincount(codes, minlength=names.size))[:-1])
    return {str(names[i]): {metric: values[rows[i]]
                            for metric, values in metrics.items()}
            for i in np.argsort(first)}


class ReportServer:
    """Figure tables over one results store or pinned snapshot."""

    def __init__(self, store) -> None:
        self.store = store

    def refresh(self) -> None:
        """Pick up newly committed segments (a no-op on a snapshot)."""
        self.store.refresh()

    def _executions(self, *columns: str) -> dict[str, np.ndarray]:
        self.refresh()
        return self.store.query("executions").arrays(*columns)

    # ------------------------------------------------------------------ #
    # Figure tables (shapes match repro.core.reports)
    # ------------------------------------------------------------------ #
    def latency_ecdf_by_device(self) -> dict[str, Ecdf]:
        """Fig. 9: latency ECDF per device, from the store."""
        columns = self._executions("device_name", "latency_ms")
        return {
            device: Ecdf.from_sorted(sort_floats(split["latency_ms"]))
            for device, split in _split_by_device(
                columns["device_name"],
                latency_ms=columns["latency_ms"]).items()
        }

    def energy_distributions(self, drop_outliers: bool = True
                             ) -> dict[str, dict[str, float]]:
        """Fig. 10: per-device energy / power / efficiency summaries."""
        columns = self._executions("device_name", "energy_mj", "power_watts",
                                   "flops", "batch_size")
        # Derived efficiency, vectorised with the exact expression sequence of
        # ExecutionResult.efficiency_mflops_per_sw so values match bit-for-bit.
        energy_joules = columns["energy_mj"] / 1e3
        with np.errstate(divide="ignore", invalid="ignore"):
            efficiency = columns["flops"] * columns["batch_size"] \
                / energy_joules / 1e6
        efficiency = np.where(energy_joules <= 0, 0.0, efficiency)
        table: dict[str, dict[str, float]] = {}
        for device, split in _split_by_device(
                columns["device_name"], energy=columns["energy_mj"],
                power=columns["power_watts"], efficiency=efficiency).items():
            efficiencies = split["efficiency"].tolist()
            if drop_outliers:
                efficiencies = remove_outliers_iqr(efficiencies) or efficiencies
            table[device] = {
                "energy_median_mj": float(np.median(split["energy"])),
                "energy_mean_mj": float(np.mean(split["energy"])),
                "power_median_w": float(np.median(split["power"])),
                "power_mean_w": float(np.mean(split["power"])),
                "efficiency_median_mflops_per_sw":
                    float(np.median(efficiencies)),
            }
        return table

    def latency_vs_flops(self, device: str) -> list[tuple[float, float]]:
        """Fig. 8: (latency_ms, flops) points of one device, ingestion order."""
        self.refresh()
        columns = (self.store.query("executions").where(device_name=device)
                   .arrays("latency_ms", "flops"))
        return [(float(latency), float(flops)) for latency, flops
                in zip(columns["latency_ms"].tolist(),
                       columns["flops"].tolist())]

    def latency_vs_flops_by_device(self) -> dict[str, np.ndarray]:
        """Fig. 8 for every device from one read of the executions.

        Each device's points are an ``(n, 2)`` float64 array of
        ``(latency_ms, flops)`` rows in ingestion order, devices in
        first-appearance order: the points :meth:`latency_vs_flops`
        returns per device.
        """
        columns = self._executions("device_name", "latency_ms", "flops")
        return {device: np.column_stack((split["latency_ms"],
                                         split["flops"].astype(np.float64)))
                for device, split in _split_by_device(
                    columns["device_name"], latency_ms=columns["latency_ms"],
                    flops=columns["flops"]).items()}

    def cloud_api_usage(self, min_apps: int = 0) -> dict[str, dict[str, object]]:
        """Fig. 15: apps per cloud ML API, from the store's app rows."""
        from repro.android.cloud_apis import tabulate_api_usage

        self.refresh()
        packed = self.store.query("apps").arrays("cloud_apis")["cloud_apis"]
        return tabulate_api_usage(
            (api_name for apis in packed if apis
             for api_name in unpack_strings(apis)),
            min_apps)

    # ------------------------------------------------------------------ #
    # Campaign overview
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, object]:
        """Row counts and device/backend coverage of the stored campaign."""
        devices = self._executions("device_name")["device_name"]
        backends: set[str] = set()
        for meta in self.store.segments_for("executions"):
            backends.update(meta.stats.get("backend", {}).get("values", ()))
        return {"rows": {kind: self.store.num_rows(kind)
                         for kind in self.store.kinds()},
                "devices": [str(device) for device in np.unique(devices)],
                "backends": sorted(backends),
                "segments": len(self.store.segments)}
