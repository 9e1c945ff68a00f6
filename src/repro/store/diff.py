"""Vectorised store-level diff: align two stores on group keys, per kind.

The cross-run half of the observability story: two campaign stores (or one
store and a committed baseline snapshot of it) are compared by aligning
their rows on a per-kind set of **group-by key columns** and reducing a
per-kind set of **metric columns** over each group.  The grouping is the
store's one aggregation engine — never a row loop:

1. each side runs one grouped :class:`~repro.store.query.Query`
   (``where(...).group_by(*keys).agg(...).aggregate()``), so predicate
   pushdown, column pruning, dictionary-coded group keys and the
   vectorised reductions of :mod:`repro.store.kernels` all apply.  Integer
   sums are exact and float sums/means accumulate sequentially in row
   order, so every reduction is a pure function of the group's rows and a
   store diffed against itself is zero-delta *bit-exactly*;
2. the two sides' group rows (few: one per distinct key tuple) align by
   key tuple in Python: matched groups yield per-metric delta arrays in
   the query's ascending key order, unmatched ones become the ``added`` /
   ``removed`` entity sets.

What counts as a key and a metric per row kind lives in
:data:`DIFF_SPECS`; callers may substitute their own
:class:`DiffSpec`.  :func:`diff_kind_reference` is the deliberately
per-row Python implementation the benchmark gate
(``benchmarks/test_bench_drift.py``) holds the vectorised engine
equivalent to — and >= 5x faster than.

Severity / tolerance policy does **not** live here: this module reports
exact deltas; :mod:`repro.obs.drift` decides which of them matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.store.schema import kind_for

__all__ = ["DiffSpec", "MetricSpec", "KindDiff", "StoreDiff", "DIFF_SPECS",
           "diff_stores", "diff_kind", "diff_kind_reference", "spec_for"]

#: Aggregations a diff metric may use (a subset of the query engine's,
#: restricted to ones whose grouped kernels are exact per row set).
_AGGS = ("count", "sum", "mean", "min", "max")


@dataclass(frozen=True)
class MetricSpec:
    """One reduced metric of a diff: ``column`` aggregated by ``agg``.

    ``column`` is ``None`` for the ``count`` aggregation (group size needs
    no column).  ``name`` defaults to ``<column>_<agg>`` (or ``rows`` for
    the count).
    """

    column: Optional[str]
    agg: str = "sum"
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.agg not in _AGGS:
            raise ValueError(f"unknown diff aggregation {self.agg!r} "
                             f"(have {_AGGS})")
        if self.column is None and self.agg != "count":
            raise ValueError(f"aggregation {self.agg!r} needs a column")

    @property
    def out_name(self) -> str:
        """Output metric name."""
        if self.name is not None:
            return self.name
        return "rows" if self.agg == "count" else f"{self.column}_{self.agg}"


@dataclass(frozen=True)
class DiffSpec:
    """How one row kind aligns and reduces: key columns + metrics."""

    kind: str
    keys: tuple[str, ...]
    metrics: tuple[MetricSpec, ...]

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError(f"diff spec for {self.kind!r} needs at least "
                             f"one key column")
        names = [m.out_name for m in self.metrics]
        if len(set(names)) != len(names):
            raise ValueError(f"diff spec for {self.kind!r} has duplicate "
                             f"metric names {names}")

    @property
    def metric_names(self) -> tuple[str, ...]:
        """Ordered output metric names."""
        return tuple(m.out_name for m in self.metrics)


#: Default alignment/reduction per row kind.  Every metric of a result
#: kind is deterministic-class (bit-identity is the product), so the
#: drift policy compares them exact; telemetry/bench kinds carry mixed
#: classes the policy resolves per group (see repro.obs.drift).
DIFF_SPECS: dict[str, DiffSpec] = {
    spec.kind: spec for spec in (
        DiffSpec(
            kind="executions",
            keys=("model_name", "device_name", "backend", "batch_size",
                  "thread_label"),
            metrics=(MetricSpec(None, "count"),
                     MetricSpec("latency_ms", "sum"),
                     MetricSpec("energy_mj", "sum"),
                     MetricSpec("power_watts", "sum"),
                     MetricSpec("flops", "sum"),
                     MetricSpec("peak_memory_bytes", "sum")),
        ),
        DiffSpec(
            kind="models",
            keys=("checksum", "name"),
            metrics=(MetricSpec(None, "count"),
                     MetricSpec("size_bytes", "sum"),
                     MetricSpec("flops", "sum"),
                     MetricSpec("parameters", "sum")),
        ),
        DiffSpec(
            kind="apps",
            keys=("package",),
            metrics=(MetricSpec(None, "count"),
                     MetricSpec("model_count", "sum"),
                     MetricSpec("downloads", "sum"),
                     MetricSpec("apk_size_bytes", "sum")),
        ),
        DiffSpec(
            kind="scenarios",
            keys=("scenario", "device", "model_name"),
            metrics=(MetricSpec(None, "count"),
                     MetricSpec("inference_count", "sum"),
                     MetricSpec("energy_joules", "sum"),
                     MetricSpec("battery_discharge_mah", "sum")),
        ),
        DiffSpec(
            kind="fleet_events",
            keys=("device_name", "scenario", "target", "region", "cloud_api"),
            metrics=(MetricSpec(None, "count"),
                     MetricSpec("latency_ms", "sum"),
                     MetricSpec("wait_ms", "sum"),
                     MetricSpec("energy_mj", "sum"),
                     MetricSpec("discharge_mah", "sum"),
                     MetricSpec("cloud_bytes", "sum")),
        ),
        DiffSpec(
            kind="fleet_load",
            keys=("region", "cloud_api", "bin_index"),
            metrics=(MetricSpec(None, "count"),
                     MetricSpec("requests", "sum"),
                     MetricSpec("payload_bytes", "sum")),
        ),
        DiffSpec(
            kind="telemetry_metrics",
            keys=("run_id", "metric", "metric_class"),
            metrics=(MetricSpec("value_i", "sum"),
                     MetricSpec("total", "sum")),
        ),
        DiffSpec(
            kind="telemetry_spans",
            keys=("run_id", "name"),
            metrics=(MetricSpec(None, "count"),
                     MetricSpec("duration_s", "sum"),
                     MetricSpec("items", "sum")),
        ),
        DiffSpec(
            kind="bench_runs",
            keys=("benchmark", "run_id", "metric"),
            metrics=(MetricSpec("value", "sum"),),
        ),
    )
}


def spec_for(kind: str) -> DiffSpec:
    """The default :class:`DiffSpec` of a row kind."""
    try:
        return DIFF_SPECS[kind]
    except KeyError:
        raise KeyError(f"no diff spec registered for row kind {kind!r} "
                       f"(have {sorted(DIFF_SPECS)})") from None


@dataclass
class KindDiff:
    """The aligned diff of one row kind between two stores.

    Matched groups are ordered by their key columns (lexicographically,
    in spec key order); ``a``/``b``/``delta`` hold one array per metric
    over that order, and ``changed`` marks groups where any metric's
    values differ *exactly* (bitwise ``!=`` — no tolerance here).
    """

    kind: str
    keys: tuple[str, ...]
    metrics: tuple[str, ...]
    rows_a: int
    rows_b: int
    #: Matched groups: key column -> values.
    key_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    a: dict[str, np.ndarray] = field(default_factory=dict)
    b: dict[str, np.ndarray] = field(default_factory=dict)
    delta: dict[str, np.ndarray] = field(default_factory=dict)
    changed: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool))
    #: Groups present only in B (new entities): key column -> values.
    added_keys: dict[str, np.ndarray] = field(default_factory=dict)
    #: Groups present only in A (removed entities): key column -> values.
    removed_keys: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def matched(self) -> int:
        """Number of groups present on both sides."""
        return int(self.changed.size)

    @property
    def num_changed(self) -> int:
        """Matched groups where at least one metric differs."""
        return int(self.changed.sum())

    @property
    def num_added(self) -> int:
        """Groups present only in B."""
        values = next(iter(self.added_keys.values()), None)
        return 0 if values is None else int(values.size)

    @property
    def num_removed(self) -> int:
        """Groups present only in A."""
        values = next(iter(self.removed_keys.values()), None)
        return 0 if values is None else int(values.size)

    @property
    def identical(self) -> bool:
        """No changed groups and no added/removed entities."""
        return not (self.num_changed or self.num_added or self.num_removed)

    # -- materialisation ------------------------------------------------ #
    def _key_row(self, source: Mapping[str, np.ndarray], index: int) -> dict:
        return {name: source[name][index].item()
                if source[name].dtype.kind != "U" else str(source[name][index])
                for name in self.keys}

    def changed_rows(self, limit: Optional[int] = None) -> list[dict]:
        """Changed matched groups as dicts (keys + per-metric a/b/delta)."""
        rows = []
        for index in np.flatnonzero(self.changed)[:limit]:
            row = self._key_row(self.key_arrays, int(index))
            for metric in self.metrics:
                row[metric] = {
                    "a": self.a[metric][index].item(),
                    "b": self.b[metric][index].item(),
                    "delta": self.delta[metric][index].item(),
                }
            rows.append(row)
        return rows

    def added_rows(self, limit: Optional[int] = None) -> list[dict]:
        """New-entity group keys as dicts."""
        return [self._key_row(self.added_keys, i)
                for i in range(self.num_added)][:limit]

    def removed_rows(self, limit: Optional[int] = None) -> list[dict]:
        """Removed-entity group keys as dicts."""
        return [self._key_row(self.removed_keys, i)
                for i in range(self.num_removed)][:limit]


@dataclass
class StoreDiff:
    """Per-kind diffs of two stores, plus the kinds that could not diff."""

    kinds: dict[str, KindDiff] = field(default_factory=dict)
    #: Row kinds present in at least one store but lacking a DiffSpec.
    skipped: tuple[str, ...] = ()

    @property
    def identical(self) -> bool:
        """Every diffed kind came back identical."""
        return all(diff.identical for diff in self.kinds.values())

    def summary(self) -> dict[str, dict]:
        """Per-kind counts: matched/changed/added/removed and row totals."""
        return {
            kind: {"rows_a": diff.rows_a, "rows_b": diff.rows_b,
                   "matched": diff.matched, "changed": diff.num_changed,
                   "added": diff.num_added, "removed": diff.num_removed}
            for kind, diff in self.kinds.items()
        }


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #
def _groups(store, spec: DiffSpec,
            where: Sequence[tuple[str, str, object]]) -> tuple[dict, int]:
    """One side's ``({key tuple: metric values}, rows matched)``.

    One grouped :class:`~repro.store.query.Query`; groups come back in its
    ascending key order.  ``count`` metrics read the spec's first metric
    column (or its first key when it has none) — the grouped count never
    looks at the values.  A spec without metrics still counts, because a
    query needs one aggregation to form its groups.
    """
    count_column = next((m.column for m in spec.metrics
                         if m.column is not None), spec.keys[0])
    query = store.query(spec.kind)
    for column, op, value in where:
        query.where(column, op, value)
    aggs = {m.out_name: (m.column or count_column, m.agg)
            for m in spec.metrics}
    rows = query.group_by(*spec.keys).agg(
        **(aggs or {"rows": (count_column, "count")})).aggregate()
    groups = {tuple(row[name] for name in spec.keys):
              tuple(row[name] for name in spec.metric_names) for row in rows}
    return groups, query.stats.rows_matched


def _key_arrays(kind, spec: DiffSpec,
                keys: Sequence[tuple]) -> dict[str, np.ndarray]:
    """Key tuples as one typed array per key column."""
    return {name: np.array([key[i] for key in keys],
                           dtype=kind.column(name).numpy_dtype)
            for i, name in enumerate(spec.keys)}


def diff_kind(store_a, store_b, spec: DiffSpec, *,
              where: Sequence[tuple[str, str, object]] = ()) -> KindDiff:
    """Diff one row kind between two stores under a spec.

    ``where`` predicates (``(column, op, value)`` triples) apply to both
    sides through the query engine's predicate pushdown, so e.g. a
    ``run_id`` filter over a long telemetry sidecar never reads segments
    whose stats exclude the run.
    """
    kind = kind_for(spec.kind)
    groups_a, rows_a = _groups(store_a, spec, where)
    groups_b, rows_b = _groups(store_b, spec, where)
    matched = [key for key in groups_a if key in groups_b]

    diff = KindDiff(kind=spec.kind, keys=spec.keys,
                    metrics=spec.metric_names, rows_a=rows_a, rows_b=rows_b)
    diff.key_arrays = _key_arrays(kind, spec, matched)
    changed = np.zeros(len(matched), dtype=bool)
    for index, name in enumerate(spec.metric_names):
        va = np.array([groups_a[key][index] for key in matched])
        vb = np.array([groups_b[key][index] for key in matched])
        diff.a[name] = va
        diff.b[name] = vb
        diff.delta[name] = vb - va
        changed |= va != vb
    diff.changed = changed
    diff.added_keys = _key_arrays(
        kind, spec, [key for key in groups_b if key not in groups_a])
    diff.removed_keys = _key_arrays(
        kind, spec, [key for key in groups_a if key not in groups_b])
    return diff


def diff_stores(store_a, store_b, *, kinds: Optional[Sequence[str]] = None,
                specs: Optional[Mapping[str, DiffSpec]] = None,
                where: Sequence[tuple[str, str, object]] = ()) -> StoreDiff:
    """Diff every shared-spec row kind of two stores.

    ``kinds`` restricts (and validates) which kinds diff; by default every
    kind committed in *either* store that has a spec is diffed — a kind
    missing from one side comes back as all-added or all-removed, which is
    what "this store grew a new row kind" should look like.  Kinds with
    no spec are reported in :attr:`StoreDiff.skipped`, not silently
    dropped.
    """
    specs = dict(DIFF_SPECS if specs is None else specs)
    present = tuple(dict.fromkeys(store_a.kinds() + store_b.kinds()))
    if kinds is None:
        selected = [kind for kind in present if kind in specs]
        skipped = tuple(kind for kind in present if kind not in specs)
    else:
        for kind in kinds:
            if kind not in specs:
                raise KeyError(f"no diff spec registered for row kind "
                               f"{kind!r} (have {sorted(specs)})")
        selected, skipped = list(kinds), ()
    result = StoreDiff(skipped=skipped)
    for kind in selected:
        result.kinds[kind] = diff_kind(store_a, store_b, specs[kind],
                                       where=where)
    return result


# --------------------------------------------------------------------------- #
# Per-row reference (the benchmark's semantic anchor)
# --------------------------------------------------------------------------- #
def diff_kind_reference(store_a, store_b, spec: DiffSpec) -> dict:
    """Row-at-a-time reference diff of one kind (dict accumulation).

    Same inputs, same outputs as :func:`diff_kind` — but every row passes
    through a Python dict and every group updates one at a time.  The
    benchmark gate requires the vectorised engine to beat this by >= 5x;
    the tests require it to agree exactly.

    Returns ``{"changed": {key_tuple: {metric: (a, b, delta)}},
    "added": set, "removed": set, "matched": int}``.
    """
    def accumulate(store) -> dict:
        groups: dict[tuple, dict] = {}
        arrays = store.query(spec.kind).arrays(*dict.fromkeys(
            spec.keys + tuple(m.column for m in spec.metrics
                              if m.column is not None)))
        length = next(iter(arrays.values())).size if arrays else 0
        for i in range(length):
            key = tuple(
                arrays[name][i].item() if arrays[name].dtype.kind != "U"
                else str(arrays[name][i]) for name in spec.keys)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = {"_count": 0}
                for m in spec.metrics:
                    if m.agg != "count":
                        entry[m.out_name] = []
            entry["_count"] += 1
            for m in spec.metrics:
                if m.agg != "count":
                    entry[m.out_name].append(arrays[m.column][i].item())
        reduced: dict[tuple, dict] = {}
        for key, entry in groups.items():
            out = {}
            for m in spec.metrics:
                if m.agg == "count":
                    out[m.out_name] = entry["_count"]
                    continue
                # Sequential accumulation in row order: Python float
                # addition is IEEE double addition, the same order the
                # grouped kernels' float sums apply — so the equality
                # assertions compare bit-exact.
                values = entry[m.out_name]
                if m.agg == "sum":
                    total = 0 if isinstance(values[0], int) else 0.0
                    for v in values:
                        total = total + v
                    out[m.out_name] = total
                elif m.agg == "mean":
                    total = 0.0
                    for v in values:
                        total = total + v
                    out[m.out_name] = total / len(values)
                elif m.agg == "min":
                    out[m.out_name] = min(values)
                else:
                    out[m.out_name] = max(values)
            reduced[key] = out
        return reduced

    a = accumulate(store_a)
    b = accumulate(store_b)
    changed: dict[tuple, dict] = {}
    matched = 0
    for key, metrics_a in a.items():
        metrics_b = b.get(key)
        if metrics_b is None:
            continue
        matched += 1
        deltas = {}
        for name in spec.metric_names:
            if metrics_a[name] != metrics_b[name]:
                deltas[name] = (metrics_a[name], metrics_b[name],
                                metrics_b[name] - metrics_a[name])
        if deltas:
            changed[key] = deltas
    return {
        "changed": changed,
        "added": set(b) - set(a),
        "removed": set(a) - set(b),
        "matched": matched,
    }
