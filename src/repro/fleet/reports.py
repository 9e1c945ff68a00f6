"""Fleet-level reports, served from the results store.

Once a simulation has streamed its ``fleet_events`` rows into a
:class:`~repro.store.store.ResultStore`, the campaign-level questions the
paper's framing asks — what does latency look like under sustained load,
what does a day of DNN traffic cost in battery, how much traffic leaves the
device for cloud APIs — are aggregations over those rows.  Everything here
evaluates through the store's vectorised query engine (predicate pushdown,
column pruning), so the reports stay cheap on million-event campaigns.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.analysis.ecdf import Ecdf, sort_floats
from repro.fleet.queueing import ROUTE_TARGETS

__all__ = ["tail_latency_table", "battery_drain_ecdf", "offload_summary",
           "queue_summary"]

#: Percentile columns of the tail-latency table.
TAIL_PERCENTILES = ("p50", "p90", "p99", "p999")


def tail_latency_table(store, *, group_by: Union[str, Sequence[str]] = "device_name",
                       target: Optional[str] = "device") -> list[dict]:
    """Tail-latency percentiles under load, grouped as requested.

    ``target`` filters to on-device (``"device"``), offloaded (``"cloud"``)
    or all (``None``) requests.  Each output row carries the group key
    columns, the event count and the :data:`TAIL_PERCENTILES` of
    ``latency_ms`` — the fleet's Fig. 9 analogue with throttling and
    routing effects included.
    """
    keys = (group_by,) if isinstance(group_by, str) else tuple(group_by)
    query = store.query("fleet_events")
    if target is not None:
        query.where(target=target)
    query.group_by(*keys).agg(
        events=("latency_ms", "count"),
        **{f"{name}_ms": ("latency_ms", name) for name in TAIL_PERCENTILES},
    )
    return query.aggregate()


def battery_drain_ecdf(store) -> Ecdf:
    """ECDF of per-user total battery discharge (mAh) over the horizon.

    The fleet analogue of Table 4: instead of one scenario cost per model,
    the distribution of what a simulated day actually drained per user.
    """
    totals = (store.query("fleet_events")
              .group_by("user_id")
              .agg(total_mah=("discharge_mah", "sum"))
              .aggregate_arrays()["total_mah"])
    if not totals.size:
        raise ValueError("store holds no fleet_events rows")
    return Ecdf.from_sorted(sort_floats(totals))


def offload_summary(store) -> dict:
    """Cloud-offload traffic volume: how much left the device, and where to.

    Returns total/offloaded event counts, the offload fraction, total uplink
    bytes, and a per-API breakdown (requests + bytes, sorted by request
    count) — the fleet's Fig. 15 analogue measured in traffic rather than
    app counts.
    """
    total = store.query("fleet_events").count()
    grouped = (store.query("fleet_events")
               .where(target="cloud")
               .group_by("cloud_api")
               .agg(requests=("latency_ms", "count"),
                    bytes=("cloud_bytes", "sum"))
               .aggregate())
    by_api = {
        row["cloud_api"]: {"requests": int(row["requests"]),
                           "bytes": int(row["bytes"])}
        for row in sorted(grouped, key=lambda r: -int(r["requests"]))
    }
    offloaded = sum(entry["requests"] for entry in by_api.values())
    return {
        "events": int(total),
        "offloaded": int(offloaded),
        "offload_fraction": (offloaded / total) if total else 0.0,
        "uplink_bytes": sum(entry["bytes"] for entry in by_api.values()),
        "by_api": by_api,
    }


def queue_summary(store, expected_arrived: Optional[int] = None) -> dict:
    """Device-queue back-pressure accounting over a persisted fleet run.

    Returns the per-target event counts (``device`` / ``cloud`` / ``shed`` /
    ``queued``), the total arrivals, whether the queue-conservation
    invariant ``arrived == sum(targets)`` holds, and the wait-time
    percentiles of the served on-device requests.

    ``expected_arrived`` makes the conservation check a genuine audit: pass
    an arrival count from *outside* the store (the simulator's streamed
    event total, e.g. ``InterferenceResult.arrived``) and a dropped or
    duplicated row shows up as ``conserved=False``.  Without it the check
    degenerates to comparing the store against itself — both sides count
    the same rows — and can only ever confirm internal consistency.
    """
    arrived = (expected_arrived if expected_arrived is not None
               else store.query("fleet_events").count())
    grouped = (store.query("fleet_events")
               .group_by("target")
               .agg(events=("latency_ms", "count"))
               .aggregate())
    by_target = {target: 0 for target in ROUTE_TARGETS}
    for row in grouped:
        by_target[row["target"]] = int(row["events"])
    waits = (store.query("fleet_events")
             .where(target="device")
             .agg(p50=("wait_ms", "p50"), p99=("wait_ms", "p99"),
                  max=("wait_ms", "max"))
             .aggregate())
    return {
        "arrived": int(arrived),
        "by_target": by_target,
        "conserved": int(arrived) == sum(by_target.values()),
        "wait_ms": waits,
    }
