"""The serve layer's service tier: query specs and report payloads.

Everything an endpoint returns is built here, and the CLI's offline
``store report --json`` / ``store info --json`` paths call the *same*
functions over the same store objects — so "served response equals
offline output at the same generation" holds by construction, and the
benchmark/CI diffs assert it end to end.

:class:`QuerySpec` is the canonical form of a ``/v1/query`` request
(predicates, grouping, aggregations, limit); its :meth:`QuerySpec.fragment`
string keys the result cache.  :class:`QueryService` executes specs and
report-table requests against the :class:`~repro.serve.snapshot.
SnapshotManager`'s pinned generation, consulting the
:class:`~repro.serve.cache.ServeCache` result tier first.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.store.query import AGGREGATIONS, parse_agg_expr, parse_predicate
from repro.store.schema import ROW_KINDS
from repro.store.store import ResultStore

__all__ = ["QuerySpec", "QueryService", "REPORT_TABLES", "ScanRequired",
           "report_payload"]

#: Report tables the serve layer and ``store report`` both offer.  The
#: figure tables ride on :class:`~repro.store.serving.ReportServer`; the
#: fleet/cloud tables on their store-backed report functions.
REPORT_TABLES = ("summary", "latency_ecdf", "energy", "cloud", "cloud_load",
                 "tail_latency", "drain", "latency_flops")


@dataclass(frozen=True)
class QuerySpec:
    """Canonical, hashable form of one ``/v1/query`` request."""

    kind: str = "executions"
    #: ``(column, op, value)`` predicate triples (conjunctive).
    where: tuple[tuple[str, str, Any], ...] = ()
    group_by: tuple[str, ...] = ()
    #: ``(column, fn)`` pairs; output names are ``{column}_{fn}`` exactly
    #: like the CLI's ``--agg column:fn`` flags.
    agg: tuple[tuple[str, str], ...] = ()
    #: Row cap for non-aggregate queries (``None`` = unlimited).
    limit: Optional[int] = field(default=None)

    def __post_init__(self) -> None:
        if self.kind not in ROW_KINDS:
            raise ValueError(
                f"unknown row kind {self.kind!r} (have {sorted(ROW_KINDS)})")
        for _, fn in self.agg:
            if fn not in AGGREGATIONS:
                raise ValueError(
                    f"unknown aggregation {fn!r} "
                    f"(have {sorted(AGGREGATIONS)})")
        if self.limit is not None and self.limit <= 0:
            raise ValueError("limit must be positive")

    @classmethod
    def from_params(cls, params: Sequence[tuple[str, str]]) -> "QuerySpec":
        """Build a spec from CLI-flavoured query-string parameters.

        Accepted keys: ``kind``, repeated ``where=COL<OP>VALUE``, repeated
        (or comma-joined) ``group_by``, repeated ``agg=COL:FN[,FN...]``
        and ``limit`` — the exact grammar of ``repro store query``.
        Raises :class:`ValueError` on anything malformed or unknown.
        """
        kind = "executions"
        where: list[tuple[str, str, Any]] = []
        group_by: list[str] = []
        agg: list[tuple[str, str]] = []
        limit: Optional[int] = None
        for key, value in params:
            if key == "kind":
                kind = value
            elif key == "where":
                where.append(parse_predicate(value))
            elif key == "group_by":
                group_by.extend(
                    name for name in value.split(",") if name.strip())
            elif key == "agg":
                column, fns = parse_agg_expr(value)
                agg.extend((column, fn) for fn in fns)
            elif key == "limit":
                limit = int(value)
            else:
                raise ValueError(f"unknown query parameter {key!r}")
        return cls(kind=kind, where=tuple(where), group_by=tuple(group_by),
                   agg=tuple(agg), limit=limit)

    @classmethod
    def from_json(cls, body: dict) -> "QuerySpec":
        """Build a spec from a POST body: the structured twin of the params."""
        if not isinstance(body, dict):
            raise ValueError("query body must be a JSON object")
        unknown = set(body) - {"kind", "where", "group_by", "agg", "limit"}
        if unknown:
            raise ValueError(f"unknown query fields {sorted(unknown)}")
        where: list[tuple[str, str, Any]] = []
        for entry in body.get("where", ()):
            if isinstance(entry, str):
                where.append(parse_predicate(entry))
            else:
                column, op, value = entry
                where.append((column, op, value))
        agg: list[tuple[str, str]] = []
        for entry in body.get("agg", ()):
            if isinstance(entry, str):
                column, fns = parse_agg_expr(entry)
                agg.extend((column, fn) for fn in fns)
            else:
                column, fn = entry
                agg.append((column, fn))
        return cls(kind=body.get("kind", "executions"), where=tuple(where),
                   group_by=tuple(body.get("group_by", ())), agg=tuple(agg),
                   limit=body.get("limit"))

    def fragment(self) -> str:
        """Canonical cache-key string of this spec (kind + shape + filters)."""
        return self._fragment

    @functools.cached_property
    def _fragment(self) -> str:
        # Specs are immutable: the key is encoded once per spec.
        return json.dumps(
            {"kind": self.kind, "where": list(self.where),
             "group_by": list(self.group_by), "agg": list(self.agg),
             "limit": self.limit},
            sort_keys=True, separators=(",", ":"), default=str)

    def apply(self, query) -> None:
        """Install this spec's predicates/grouping/aggregations on a query."""
        for column, op, value in self.where:
            query.where(column, op, value)
        if self.group_by:
            query.group_by(*self.group_by)
        if self.agg:
            query.agg(**{f"{column}_{fn}": (column, fn)
                         for column, fn in self.agg})


# --------------------------------------------------------------------------- #
# Report payloads (shared with `store report --json`)
# --------------------------------------------------------------------------- #
def report_payload(source, table: str, *, device: Optional[str] = None,
                   min_apps: int = 0) -> dict:
    """One report table of a store (or snapshot) as a JSON-able payload.

    ``source`` is a live :class:`~repro.store.store.ResultStore` (the
    offline CLI path) or a pinned :class:`~repro.store.store.StoreSnapshot`
    (the served path).  Every table reads exactly one generation, the one
    written into ``payload["generation"]``: a live store is pinned once,
    with :meth:`~repro.store.store.ResultStore.open_snapshot` at the
    generation the handle has loaded, and a snapshot is used as given —
    so commits landing mid-payload are never mixed in, and the two paths
    are bit-identical at the same generation.
    """
    if table not in REPORT_TABLES:
        raise KeyError(
            f"unknown report table {table!r} (have {', '.join(REPORT_TABLES)})")
    if isinstance(source, ResultStore):
        source = source.open_snapshot()
    payload: dict[str, Any] = {"table": table,
                               "generation": int(source.generation)}

    if table == "cloud_load":
        from repro.cloud import load_report

        payload["rows"] = load_report(source)
        return payload
    if table == "tail_latency":
        from repro.fleet import tail_latency_table

        payload["rows"] = (tail_latency_table(source, group_by="device_name")
                           if source.num_rows("fleet_events") else [])
        return payload
    if table == "drain":
        from repro.fleet import battery_drain_ecdf

        if source.num_rows("fleet_events"):
            ecdf = battery_drain_ecdf(source)
            median_mah, p90_mah = ecdf.quantiles((0.5, 0.9))
            payload.update(users=len(ecdf.values),
                           median_mah=float(median_mah),
                           p90_mah=float(p90_mah))
        else:
            payload.update(users=0, median_mah=None, p90_mah=None)
        return payload

    from repro.store.serving import ReportServer

    server = ReportServer(source)
    if table == "summary":
        payload["summary"] = server.summary()
    elif table == "latency_ecdf":
        payload["rows"] = [
            {"device": name, "models": len(ecdf.values),
             "median_ms": float(ecdf.median),
             "p90_ms": float(ecdf.quantile(0.9)),
             "p99_ms": float(ecdf.quantile(0.99))}
            for name, ecdf in server.latency_ecdf_by_device().items()
        ]
    elif table == "energy":
        payload["rows"] = [
            {"device": name, **row}
            for name, row in server.energy_distributions().items()
        ]
    elif table == "cloud":
        payload["rows"] = [
            {"api": api, "provider": entry["provider"],
             "apps": int(entry["apps"])}
            for api, entry in server.cloud_api_usage(min_apps).items()
        ]
    else:  # latency_flops (Fig. 8)
        devices = [device] if device is not None else server.devices()
        payload["device"] = device
        payload["points"] = {
            name: [[float(l), float(f)]
                   for l, f in server.latency_vs_flops(name)]
            for name in devices
        }
    return payload


class ScanRequired(Exception):
    """A scan-free answer was asked for, but the request needs a scan.

    Raised by :class:`QueryService` inside :meth:`QueryService.cached_only`
    when the result tier lacks the answer (a commit advanced the served
    generation since the caller checked); no miss is counted, so the
    caller can run the request again where scans are allowed.
    """


def query_fragment(spec: QuerySpec) -> str:
    """The result-tier key of a query spec's answer (per generation)."""
    return "query:" + spec.fragment()


def report_fragment(table: str, device: Optional[str], min_apps: int) -> str:
    """The result-tier key of a report table's answer (per generation)."""
    return f"report:{table}|device={device}|min_apps={min_apps}"


class _CachedOnly(threading.local):
    """The :meth:`QueryService.cached_only` block: one flag per thread."""

    active = False

    def __enter__(self) -> None:
        self.active = True

    def __exit__(self, *exc_info) -> None:
        self.active = False


class QueryService:
    """Request execution over the snapshot manager's pinned generation."""

    def __init__(self, manager, *, cache=None) -> None:
        self.manager = manager
        self.cache = cache
        self._cached_only = _CachedOnly()

    # ------------------------------------------------------------------ #
    # Lightweight endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Liveness + the generation currently served."""
        snapshot = self.manager.current()
        return {"status": "ok", "generation": snapshot.generation,
                "segments": len(snapshot.segments),
                "rows": snapshot.num_rows()}

    def kinds(self) -> dict:
        """Row kinds and their committed row counts at the served generation."""
        snapshot = self.manager.current()
        return {"generation": snapshot.generation,
                "kinds": {kind: snapshot.num_rows(kind)
                          for kind in snapshot.kinds()}}

    def stats(self) -> dict:
        """Store layout (``store info --json`` shape) + serve-side counters."""
        snapshot = self.manager.current()
        payload = self.manager.store.info_payload()
        payload["served_generation"] = snapshot.generation
        payload["cache"] = (self.cache.stats() if self.cache is not None
                            else None)
        payload["refresh"] = self.manager.stats()
        return payload

    # ------------------------------------------------------------------ #
    # Result tier
    # ------------------------------------------------------------------ #
    def cached_only(self) -> _CachedOnly:
        """Within this block, on this thread, a request that would scan
        raises :class:`ScanRequired` instead (the serve event loop answers
        result-tier hits this way and never runs a scan itself)."""
        return self._cached_only

    def holds(self, fragment: str) -> bool:
        """Whether the result tier holds the answer keyed ``fragment``
        (:func:`query_fragment`, :func:`report_fragment`) at the served
        generation (a check only: no hit or miss is counted)."""
        return (self.cache is not None
                and self.cache.has_result(self.manager.generation, fragment))

    def _cached(self, generation: int, fragment: str) -> Optional[dict]:
        """The result tier's payload, or ``None`` when the request scans.

        Counts one hit or one miss — except that inside :meth:`cached_only`
        a miss raises :class:`ScanRequired` uncounted, leaving the count
        to the attempt that scans.
        """
        cached_only = self._cached_only.active
        cached = (self.cache.get_result(generation, fragment,
                                        count_miss=not cached_only)
                  if self.cache is not None else None)
        if cached is None and cached_only:
            raise ScanRequired(fragment)
        return cached

    # ------------------------------------------------------------------ #
    # Queries and reports
    # ------------------------------------------------------------------ #
    def query(self, spec: QuerySpec) -> dict:
        """Execute one query spec at the served generation (result-cached)."""
        snapshot = self.manager.current()
        fragment = query_fragment(spec)
        cached = self._cached(snapshot.generation, fragment)
        if cached is not None:
            return cached
        query = snapshot.query(spec.kind)
        spec.apply(query)
        if spec.agg:
            output = query.aggregate()
            rows = output if isinstance(output, list) else [output]
        else:
            rows = query.rows(limit=spec.limit)
        stats = query.stats
        payload = {
            "kind": spec.kind,
            "generation": snapshot.generation,
            "rows": rows,
            "stats": {
                "segments_total": stats.segments_total,
                "segments_skipped": stats.segments_skipped,
                "segments_scanned": stats.segments_scanned,
                "segments_cached": stats.segments_cached,
                "rows_scanned": stats.rows_scanned,
                "rows_matched": stats.rows_matched,
            },
        }
        if self.cache is not None:
            return self.cache.put_result(snapshot.generation, fragment,
                                         payload)
        return payload

    def report(self, table: str, *, device: Optional[str] = None,
               min_apps: int = 0) -> dict:
        """One report table at the served generation (result-cached)."""
        snapshot = self.manager.current()
        fragment = report_fragment(table, device, min_apps)
        cached = self._cached(snapshot.generation, fragment)
        if cached is not None:
            return cached
        payload = report_payload(snapshot, table, device=device,
                                 min_apps=min_apps)
        if self.cache is not None:
            return self.cache.put_result(snapshot.generation, fragment,
                                         payload)
        return payload
