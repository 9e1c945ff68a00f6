"""Committed drift baselines: compact snapshots of what a run produced.

A *snapshot* is the JSON form of everything the drift gates compare a run
against: the figure report tables a campaign store serves (Fig. 8/9/10/15,
as :func:`~repro.serve.service.report_payload` builds them) plus the
deterministic counters and wall-clock stats of a telemetry sidecar.  It
is deliberately compact — per-device summary rows and counter totals,
not raw events — so a baseline can live in git under
``benchmarks/baselines/`` and a CI run can diff itself against it in
milliseconds (the SNIPPETS "committed baselines + drift detection"
idiom).

Fidelity contract: every float passes through JSON ``repr`` (shortest
round-trip), so a snapshot of an unchanged deterministic run compares
**bit-exactly** equal to its baseline.  Wall-clock stats are stored too,
but the drift policy (:mod:`repro.obs.drift`) only ever compares them
through tolerance bands — machines differ; determinism does not.

Tables use a columnar micro-format — ``{"columns": [...], "rows":
[[...]]}`` — mirroring the store's column orientation and keeping the
committed JSON diff-friendly (one row per line under ``indent=2``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Union

__all__ = ["SNAPSHOT_KIND", "SNAPSHOT_SCHEMA_VERSION", "build_snapshot",
           "load_snapshot", "write_snapshot"]

#: Bumped only when the snapshot layout changes incompatibly; the drift
#: layer refuses to compare snapshots across versions.
SNAPSHOT_SCHEMA_VERSION = 1

#: The ``kind`` marker distinguishing snapshot JSON from BENCH payloads.
SNAPSHOT_KIND = "repro-drift-snapshot"


def _table(columns: list[str], rows: list[list]) -> dict:
    return {"columns": columns, "rows": rows}


#: Figure tables a snapshot records, by their ``report_payload`` names.
SNAPSHOT_TABLES = ("latency_ecdf", "energy", "cloud", "latency_flops")


def _report_tables(store) -> dict[str, dict]:
    """Fig. 8/9/10/15 tables of one campaign store, via ``report_payload``.

    Row tables keep the payload's rows, with its keys as the columns.  The
    Fig. 8 point clouds compact to exact per-device sums (added in
    ingestion order).
    """
    from repro.serve.service import report_payload

    snapshot = store.open_snapshot()
    tables: dict[str, dict] = {}
    for name in SNAPSHOT_TABLES:
        payload = report_payload(snapshot, name)
        if name == "latency_flops":
            rows = []
            for device, points in payload["points"].items():
                latency_sum = flops_sum = 0.0
                for latency, flops in points:
                    latency_sum += latency
                    flops_sum += flops
                rows.append([device, len(points), latency_sum, flops_sum])
            tables[name] = _table(
                ["device", "points", "latency_ms_sum", "flops_sum"], rows)
        else:
            rows = payload["rows"]
            tables[name] = _table(list(rows[0]) if rows else [],
                                  [list(row.values()) for row in rows])
    return tables


def _telemetry_sections(telemetry, run_id: Optional[str]):
    """(deterministic counters, wall-clock stats) of a telemetry store."""
    from repro.obs.metrics import DETERMINISTIC
    from repro.obs.report import metrics_table

    counters: dict[str, int] = {}
    wallclock: dict[str, dict] = {}
    for row in metrics_table(telemetry, run_id=run_id):
        if row["metric_class"] == DETERMINISTIC:
            counters[row["metric"]] = row["value_i"]
        else:
            wallclock[row["metric"]] = {"count": row["value_i"],
                                        "total": row["total"],
                                        "min": row["min"],
                                        "max": row["max"]}
    return counters, wallclock


def build_snapshot(*, store=None, telemetry=None,
                   run_id: Optional[str] = None,
                   meta: Optional[Mapping] = None) -> dict:
    """Build a drift snapshot from a campaign store and/or telemetry store.

    Either source may be a path or an open
    :class:`~repro.store.store.ResultStore`; either may be omitted (the
    corresponding sections come back empty).  ``run_id`` filters the
    telemetry side only.  ``meta`` is carried verbatim — stamp scale,
    commit, or whatever identifies the baseline's provenance.
    """
    from repro.obs.report import _open

    tables: dict[str, dict] = {}
    counters: dict[str, int] = {}
    wallclock: dict[str, dict] = {}
    if store is not None:
        tables = _report_tables(_open(store))
    if telemetry is not None:
        counters, wallclock = _telemetry_sections(_open(telemetry), run_id)
    return {
        "kind": SNAPSHOT_KIND,
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "tables": tables,
        "counters": dict(sorted(counters.items())),
        "wallclock": dict(sorted(wallclock.items())),
    }


def write_snapshot(path: Union[str, Path], snapshot: Mapping) -> Path:
    """Write a snapshot as stable, diff-friendly JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2) + "\n")
    return path


def load_snapshot(path: Union[str, Path]) -> dict:
    """Load a snapshot, validating the kind marker."""
    snapshot = json.loads(Path(path).read_text())
    if not isinstance(snapshot, dict) or \
            snapshot.get("kind") != SNAPSHOT_KIND:
        raise ValueError(f"{path}: not a {SNAPSHOT_KIND} file")
    return snapshot
