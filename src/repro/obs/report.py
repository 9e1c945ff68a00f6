"""Store-served telemetry reports: timeline, stage breakdown, shard skew.

All tables read a sidecar telemetry store (see :mod:`repro.obs.sink`)
through :class:`~repro.store.query.Query` — a ``run_id`` filter prunes
other runs' segments unread, and per-group totals come from
``aggregate()`` — and return plain lists of dicts —
the CLI (``repro obs report``) renders them, tests assert on them, and
notebooks can frame them.  The span tree is rebuilt from the persisted
``(span_id, parent_id)`` pairs; :meth:`Collector.absorb`'s id remapping
guarantees ids are unique store-wide within one run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

__all__ = ["available_runs", "metrics_table", "run_timeline", "shard_skew",
           "stage_breakdown"]


def _open(store):
    from repro.store.store import ResultStore

    return store if isinstance(store, ResultStore) else ResultStore(store)


def _query(store, kind_name: str, run_id: Optional[str]):
    """A query over one telemetry kind, pushed down to ``run_id`` if given."""
    query = _open(store).query(kind_name)
    return query if run_id is None else query.where(run_id=run_id)


def available_runs(store: Union[str, Path, "ResultStore"]) -> tuple[str, ...]:
    """Distinct ``run_id`` values across the store's telemetry kinds.

    Sorted; empty when the store holds no telemetry rows at all.  The CLI
    uses this to turn "your ``--run`` matched nothing" into a message that
    names the runs that *do* exist instead of printing empty tables.
    """
    store = _open(store)
    runs: set[str] = set()
    for kind_name in ("telemetry_metrics", "telemetry_spans"):
        runs.update(_query(store, kind_name, None).arrays("run_id")["run_id"]
                    .tolist())
    return tuple(sorted(runs))


def run_timeline(store: Union[str, Path, "ResultStore"], *,
                 run_id: Optional[str] = None) -> list[dict]:
    """Every span as a timeline row: start offset, duration, tree depth.

    Rows come back ordered by ``(start_s, span_id)`` — wall-clock start
    within a run — with ``offset_s`` relative to the run's earliest span
    and ``depth`` computed from the stitched parent chain (orphan parents
    count as roots, which the stitching tests pin never happens).
    """
    spans = _query(store, "telemetry_spans", run_id).rows()
    if not spans:
        return []
    parents = {span["span_id"]: span["parent_id"] for span in spans}
    t0 = min(span["start_s"] for span in spans)
    spans.sort(key=lambda span: (span["start_s"], span["span_id"]))
    depths: dict[int, int] = {}

    def depth_of(span_id: int) -> int:
        depth = depths.get(span_id)
        if depth is not None:
            return depth
        parent = parents.get(span_id, 0)
        depth = 0 if parent == 0 or parent not in parents \
            else depth_of(parent) + 1
        depths[span_id] = depth
        return depth

    return [{
        "run_id": span["run_id"],
        "span_id": span["span_id"],
        "parent_id": span["parent_id"],
        "name": span["name"],
        "offset_s": span["start_s"] - t0,
        "duration_s": span["duration_s"],
        "depth": depth_of(span["span_id"]),
        "shard": span["shard"],
        "items": span["items"],
        "detail": span["detail"],
    } for span in spans]


def stage_breakdown(store: Union[str, Path, "ResultStore"], *,
                    run_id: Optional[str] = None) -> list[dict]:
    """Per-span-name totals: count, total/mean/max seconds, items.

    The "where did the run spend its time" table, sorted by total
    duration descending.  Nested spans count their children's time too
    (a span's duration includes everything beneath it) — this is a
    by-stage profile, not an exclusive-time flame graph.
    """
    rows = (_query(store, "telemetry_spans", run_id)
            .group_by("name")
            .agg(spans=("duration_s", "count"),
                 total_s=("duration_s", "sum"),
                 mean_s=("duration_s", "mean"),
                 max_s=("duration_s", "max"),
                 items=("items", "sum"))
            .aggregate())
    rows.sort(key=lambda row: row["total_s"], reverse=True)
    return rows


def shard_skew(store: Union[str, Path, "ResultStore"], *,
               name: Optional[str] = None,
               run_id: Optional[str] = None) -> list[dict]:
    """Per-shard seconds/items for shard-scoped spans, plus a skew ratio.

    ``name`` restricts to one span name (default: every span recorded
    with ``shard >= 0``).  ``skew`` on each row is that shard's total
    seconds over the mean across shards — the straggler table for
    campaign runs.
    """
    query = _query(store, "telemetry_spans", run_id).where(
        "shard", ">=", 0)
    if name is not None:
        query.where(name=name)
    rows = (query.group_by("shard")
            .agg(spans=("duration_s", "count"),
                 seconds=("duration_s", "sum"),
                 items=("items", "sum"))
            .aggregate())
    if not rows:
        return []
    mean_seconds = float(np.mean([row["seconds"] for row in rows]))
    for row in rows:
        row["skew"] = row["seconds"] / mean_seconds if mean_seconds else 0.0
    return rows


def metrics_table(store: Union[str, Path, "ResultStore"], *,
                  run_id: Optional[str] = None,
                  metric_class: Optional[str] = None) -> list[dict]:
    """Every persisted metric row, name-sorted; filterable by class."""
    query = _query(store, "telemetry_metrics", run_id)
    if metric_class is not None:
        query.where(metric_class=metric_class)
    return sorted(query.rows(), key=lambda row: row["metric"])
