"""``repro.obs`` — observability: metrics, spans, and a store-backed sink.

Disabled by default, and disabled means *off*: every instrumentation
point in the codebase goes through the module-level helpers below, whose
entire cost with no collector installed is one global read — ``span``
returns a shared no-op singleton, ``count``/``observe`` return
immediately.  ``benchmarks/test_bench_obs.py`` gates that cost at <=2%
on the fleet event loop (and <=10% with telemetry enabled).

Typical use::

    from repro import obs

    obs.enable()
    result = run_campaign(spec, root, shards=8)
    obs.write_telemetry(root / "telemetry.store", run_id="campaign")
    snapshot = obs.disable()

Metric naming convention: dotted ``<subsystem>.<what>`` —
``fleet.events_simulated``, ``store.rows_committed``, ``sweep.jobs_pruned``.
Span names are ``<subsystem>.<stage>`` — ``campaign.simulate``,
``cloud.pass``, ``store.flush``.  Deterministic counters
(:func:`count`) are bit-identical for any worker count or chunk size;
wall-clock observations (:func:`observe`) and span durations
are not — see :mod:`repro.obs.metrics` for the contract.

The store-facing pieces (:func:`write_telemetry` and the report tables)
load lazily so importing ``repro.obs`` from the hot paths never drags in
the store stack.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.collector import Collector
from repro.obs.metrics import (DETERMINISTIC, TelemetrySnapshot, WALLCLOCK)
from repro.obs.timing import Stopwatch
from repro.obs.tracing import NO_SPAN, Span, SpanRecord

__all__ = [
    "Collector", "DETERMINISTIC", "DriftPolicy", "DriftReport", "NO_SPAN",
    "Span", "SpanRecord", "Stopwatch", "TelemetrySnapshot", "WALLCLOCK",
    "available_runs", "bench_drift", "build_snapshot", "classify_store_diff",
    "count", "diff_snapshots", "disable", "enable", "enabled",
    "get_collector", "ingest_bench_files", "load_snapshot", "metrics_table",
    "observe", "run_timeline", "shard_skew", "span", "stage_breakdown",
    "write_snapshot", "write_telemetry",
]

#: The process-global collector; ``None`` = telemetry off (the default).
_collector: Optional[Collector] = None


def enable() -> Collector:
    """Turn telemetry on; returns the (new or existing) collector."""
    global _collector
    if _collector is None:
        _collector = Collector()
    return _collector


def disable() -> Optional[TelemetrySnapshot]:
    """Turn telemetry off; returns the final snapshot (``None`` if off)."""
    global _collector
    collector = _collector
    _collector = None
    return collector.snapshot() if collector is not None else None


def enabled() -> bool:
    """Whether a collector is installed."""
    return _collector is not None


def get_collector() -> Optional[Collector]:
    """The installed collector, or ``None`` when telemetry is off.

    Hot loops fetch this once and branch on it, so their disabled-mode
    cost is a single check instead of one per item.
    """
    return _collector


def _install(collector: Optional[Collector]) -> Optional[Collector]:
    """Swap the global collector; returns the previous one.

    Internal plumbing for pool workers (fresh collector per chunk) and
    the sink (suppressing self-instrumentation while it writes).
    """
    global _collector
    previous = _collector
    _collector = collector
    return previous


def span(name: str, *, shard: int = -1, items: int = 0, detail: str = "",
         force: bool = False):
    """A span context manager, no-op unless telemetry is enabled.

    ``force=True`` returns a measuring span even when disabled: it is
    never recorded anywhere, but its ``duration_s`` is set on exit —
    for call sites whose *results* carry a duration (campaign stage
    seconds) and must keep working with telemetry off.
    """
    collector = _collector
    if collector is not None:
        return collector.span(name, shard=shard, items=items, detail=detail)
    if force:
        return Span(name, shard=shard, items=items, detail=detail)
    return NO_SPAN


def count(name: str, n: int = 1) -> None:
    """Add to a deterministic counter (no-op when disabled)."""
    collector = _collector
    if collector is not None:
        collector.count(name, n)


def observe(name: str, value: float) -> None:
    """Record a wall-clock observation (no-op when disabled)."""
    collector = _collector
    if collector is not None:
        collector.observe(name, value)


_LAZY = {
    "write_telemetry": ("repro.obs.sink", "write_telemetry"),
    "run_timeline": ("repro.obs.report", "run_timeline"),
    "stage_breakdown": ("repro.obs.report", "stage_breakdown"),
    "shard_skew": ("repro.obs.report", "shard_skew"),
    "metrics_table": ("repro.obs.report", "metrics_table"),
    "available_runs": ("repro.obs.report", "available_runs"),
    "build_snapshot": ("repro.obs.snapshot", "build_snapshot"),
    "write_snapshot": ("repro.obs.snapshot", "write_snapshot"),
    "load_snapshot": ("repro.obs.snapshot", "load_snapshot"),
    "DriftPolicy": ("repro.obs.drift", "DriftPolicy"),
    "DriftReport": ("repro.obs.drift", "DriftReport"),
    "classify_store_diff": ("repro.obs.drift", "classify_store_diff"),
    "diff_snapshots": ("repro.obs.drift", "diff_snapshots"),
    "ingest_bench_files": ("repro.obs.drift", "ingest_bench_files"),
    "bench_drift": ("repro.obs.drift", "bench_drift"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
