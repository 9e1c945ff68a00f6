"""Report builders: one function per table/figure of the paper's evaluation.

Each function takes analysis or benchmark outputs and returns a plain data
structure shaped like the corresponding artefact (rows of a table, series of a
figure), so the benchmark harness can print the same rows the paper reports
and EXPERIMENTS.md can record paper-vs-measured values side by side.

The benchmark-derived figures (latency ECDFs, energy distributions,
latency-vs-FLOPs, cloud-API usage) also accept a persistent
:class:`~repro.store.store.ResultStore` or a pinned
:class:`~repro.store.store.StoreSnapshot` in place of their in-memory
inputs; they then delegate to :class:`~repro.store.serving.ReportServer`,
which produces bit-for-bit the same tables from the persisted campaign
without re-running anything.  The in-memory path stays the semantic
reference the store path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.analysis.ecdf import Ecdf
from repro.analysis.stats import remove_outliers_iqr
from repro.core.records import ModelRecord, SnapshotAnalysis
from repro.dnn.graph import Modality
from repro.dnn.layers import LayerCategory
from repro.runtime.executor import ExecutionResult

__all__ = [
    "dataset_table",
    "models_per_framework_and_category",
    "task_classification_table",
    "layer_composition_by_modality",
    "flops_and_parameters_by_task",
    "latency_ecdf_by_device",
    "latency_vs_flops",
    "energy_distributions",
    "cloud_api_usage",
    "DatasetTableRow",
]


# --------------------------------------------------------------------------- #
# Table 2
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DatasetTableRow:
    """One column of Table 2 (one snapshot)."""

    label: str
    date: str
    total_apps: int
    apps_with_frameworks: int
    apps_with_models: int
    total_models: int
    unique_models: int

    @property
    def apps_with_frameworks_pct(self) -> float:
        """Apps with frameworks as a percentage of all apps."""
        return 100.0 * self.apps_with_frameworks / max(1, self.total_apps)

    @property
    def apps_with_models_pct(self) -> float:
        """Apps with models as a percentage of all apps."""
        return 100.0 * self.apps_with_models / max(1, self.total_apps)

    @property
    def unique_models_pct(self) -> float:
        """Unique models as a percentage of all model instances."""
        return 100.0 * self.unique_models / max(1, self.total_models)


def dataset_table(analysis: SnapshotAnalysis) -> DatasetTableRow:
    """Build one Table 2 column from a snapshot analysis."""
    return DatasetTableRow(
        label=analysis.label,
        date=analysis.date,
        total_apps=analysis.total_apps,
        apps_with_frameworks=analysis.apps_with_frameworks,
        apps_with_models=analysis.apps_with_models,
        total_models=analysis.total_models,
        unique_models=analysis.unique_models,
    )


# --------------------------------------------------------------------------- #
# Fig. 4
# --------------------------------------------------------------------------- #
def models_per_framework_and_category(
    analysis: SnapshotAnalysis, min_models_per_category: int = 0
) -> dict[str, dict[str, int]]:
    """Fig. 4: model counts per category, broken down by framework.

    Returns ``{category: {framework: count}}`` sorted by total models per
    category (descending); categories below ``min_models_per_category`` are
    dropped, mirroring the figure's cut-off of 20.
    """
    counts: dict[str, dict[str, int]] = {}
    for record in analysis.models:
        by_framework = counts.setdefault(record.category, {})
        by_framework[record.framework] = by_framework.get(record.framework, 0) + 1
    filtered = {
        category: by_framework
        for category, by_framework in counts.items()
        if sum(by_framework.values()) >= min_models_per_category
    }
    return dict(sorted(filtered.items(), key=lambda item: sum(item[1].values()),
                       reverse=True))


# --------------------------------------------------------------------------- #
# Table 3
# --------------------------------------------------------------------------- #
def task_classification_table(analysis: SnapshotAnalysis) -> dict[str, dict[str, int]]:
    """Table 3: model counts per task, grouped by modality."""
    grouped: dict[str, dict[str, int]] = {}
    for record in analysis.models:
        modality_tasks = grouped.setdefault(record.modality.value, {})
        modality_tasks[record.task] = modality_tasks.get(record.task, 0) + 1
    for modality, tasks in grouped.items():
        grouped[modality] = dict(sorted(tasks.items(), key=lambda item: item[1],
                                        reverse=True))
    return grouped


# --------------------------------------------------------------------------- #
# Fig. 6
# --------------------------------------------------------------------------- #
def layer_composition_by_modality(
    analysis: SnapshotAnalysis,
) -> dict[str, dict[str, float]]:
    """Fig. 6: average layer-category composition (percent) per input modality."""
    sums: dict[str, dict[LayerCategory, float]] = {}
    counts: dict[str, int] = {}
    for record in analysis.models:
        modality = record.modality.value
        counts[modality] = counts.get(modality, 0) + 1
        per_modality = sums.setdefault(modality, {})
        for category, fraction in record.layer_category_fractions.items():
            per_modality[category] = per_modality.get(category, 0.0) + fraction
    composition: dict[str, dict[str, float]] = {}
    for modality, category_sums in sums.items():
        total_models = counts[modality]
        composition[modality] = {
            category.value: 100.0 * value / total_models
            for category, value in sorted(category_sums.items(), key=lambda i: i[0].value)
        }
    return composition


# --------------------------------------------------------------------------- #
# Fig. 7
# --------------------------------------------------------------------------- #
def flops_and_parameters_by_task(
    analysis: SnapshotAnalysis,
) -> dict[str, dict[str, float]]:
    """Fig. 7: per-task distribution summaries of FLOPs and parameters."""
    by_task: dict[str, list[ModelRecord]] = {}
    for record in analysis.models:
        by_task.setdefault(record.task, []).append(record)
    table: dict[str, dict[str, float]] = {}
    for task, records in by_task.items():
        flops = np.array([record.flops for record in records], dtype=float)
        params = np.array([record.parameters for record in records], dtype=float)
        table[task] = {
            "models": float(len(records)),
            "flops_median": float(np.median(flops)),
            "flops_min": float(np.min(flops)),
            "flops_max": float(np.max(flops)),
            "parameters_median": float(np.median(params)),
            "parameters_min": float(np.min(params)),
            "parameters_max": float(np.max(params)),
        }
    return dict(sorted(table.items(), key=lambda item: item[1]["flops_median"],
                       reverse=True))


# --------------------------------------------------------------------------- #
# Figs. 8 and 9
# --------------------------------------------------------------------------- #
def _report_server(source):
    """A ReportServer over a store or snapshot; ``None`` for in-memory input."""
    from repro.store.serving import ReportServer
    from repro.store.store import ResultStore, StoreSnapshot

    if isinstance(source, (ResultStore, StoreSnapshot)):
        return ReportServer(source)
    if isinstance(source, ReportServer):
        return source
    return None


def latency_vs_flops(results, device: Optional[str] = None
                     ) -> list[tuple[float, float]]:
    """Fig. 8: (latency_ms, flops) points for one device.

    ``results`` is either that device's result sequence, or a results store
    (or snapshot) plus the ``device`` name to serve the points from
    persisted rows.
    """
    server = _report_server(results)
    if server is not None:
        if device is None:
            raise ValueError("latency_vs_flops over a store needs a device name")
        return server.latency_vs_flops(device)
    return [(result.latency_ms, float(result.flops)) for result in results]


def latency_ecdf_by_device(results_by_device) -> dict[str, Ecdf]:
    """Fig. 9: latency ECDF per device.

    Accepts the in-memory ``{device: results}`` mapping or a results store
    (or snapshot).
    """
    server = _report_server(results_by_device)
    if server is not None:
        return server.latency_ecdf_by_device()
    return {
        device: Ecdf.from_samples(result.latency_ms for result in results)
        for device, results in results_by_device.items()
        if results
    }


# --------------------------------------------------------------------------- #
# Fig. 10
# --------------------------------------------------------------------------- #
def energy_distributions(
    results_by_device,
    drop_outliers: bool = True,
) -> dict[str, dict[str, float]]:
    """Fig. 10: per-device energy / power / efficiency distribution summaries.

    Accepts the in-memory ``{device: results}`` mapping or a results store
    (or snapshot).
    """
    server = _report_server(results_by_device)
    if server is not None:
        return server.energy_distributions(drop_outliers)
    table: dict[str, dict[str, float]] = {}
    for device, results in results_by_device.items():
        if not results:
            continue
        energies = [result.energy_mj for result in results]
        powers = [result.power_watts for result in results]
        efficiencies = [result.efficiency_mflops_per_sw for result in results]
        if drop_outliers:
            efficiencies = remove_outliers_iqr(efficiencies) or efficiencies
        table[device] = {
            "energy_median_mj": float(np.median(energies)),
            "energy_mean_mj": float(np.mean(energies)),
            "power_median_w": float(np.median(powers)),
            "power_mean_w": float(np.mean(powers)),
            "efficiency_median_mflops_per_sw": float(np.median(efficiencies)),
        }
    return table


# --------------------------------------------------------------------------- #
# Fig. 15
# --------------------------------------------------------------------------- #
def cloud_api_usage(analysis,
                    min_apps: int = 0) -> dict[str, dict[str, object]]:
    """Fig. 15: number of apps invoking each cloud ML API category.

    Accepts a :class:`SnapshotAnalysis` or a results store (or snapshot)
    holding the snapshot's ingested ``apps`` rows.
    """
    server = _report_server(analysis)
    if server is not None:
        return server.cloud_api_usage(min_apps)
    from repro.android.cloud_apis import tabulate_api_usage

    return tabulate_api_usage(
        (api_name for app in analysis.apps_using_cloud()
         for api_name in app.cloud_apis),
        min_apps)
