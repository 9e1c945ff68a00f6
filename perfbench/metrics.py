"""The benchmark's metric names and units, and how each value is derived.

``BENCHMARK.json`` lists exactly :data:`END_TO_END` and :data:`PER_LAYER`;
``selftest.py`` holds the two in step.  Every workload reports every
metric.  End-to-end metrics are defined for all four workloads (the table
in ``run.py`` says what the operation and the work item are in each).  A
per-layer metric of a layer a workload never calls reads 0.

Per-layer ``*_s`` values are self seconds per operation, counts are per
operation, ``*_ms`` values are medians over the calls of one kind.
"""

from __future__ import annotations

import numpy as np

from repro.serve.service import REPORT_TABLES

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("store_bytes_per_row", "B/row"),
)

#: Self-time metrics: metric -> span names summed.
SELF_TIMES = {
    "fleet.population.materialize_s": "fleet.population.materialize",
    "fleet.simulator.simulate_s": "fleet.simulator.simulate",
    "store.writer.append_batch_s": "store.writer.append_batch",
    "store.columnar.coerce_s": "store.columnar.coerce",
    "store.segment.seal_s": "store.segment.seal",
    "store.writer.flush_s": "store.flush",
    "cloud.load.add_trace_s": "cloud.load.add_trace",
    "cloud.load.merge_s": "cloud.load.merge",
    "store.merge.adopt_s": "store.merge.adopt",
    "store.segment.load_columns_s": "store.segment.load_columns",
    "store.query.predicate_gather_s": "store.query.terminal",
    "store.kernels.factorize_s": "store.kernels.factorize",
    "store.kernels.reduce_s": "store.kernels.reduce",
    "store.serving.report_server_s": "store.serving.report_server",
    "fleet.reports.tail_latency_s": "fleet.reports.tail_latency",
    "fleet.reports.drain_s": "fleet.reports.drain",
    "cloud.load.load_report_s": "cloud.load.load_report",
    "report.json_encode_s": "report.json_encode",
}

#: Per-operation counts: metric -> how the ledger holds it.
COUNTS = {
    "store.writer.append_calls": ("calls", "store.writer.append_batch"),
    "store.segments_sealed": ("calls", "store.segment.seal"),
    "store.bytes_written": ("items", "store.segment.seal"),
    "store.segments_loaded": ("calls", "store.segment.load_columns"),
    "store.bytes_read": ("items", "store.segment.load_columns"),
    "store.query.segments_scanned":
        ("tallies", "store.query.terminal.segments_scanned"),
    "store.query.segments_pruned":
        ("tallies", "store.query.terminal.segments_skipped"),
    "store.query.rows_scanned":
        ("tallies", "store.query.terminal.rows_scanned"),
    "store.query.rows_matched":
        ("tallies", "store.query.terminal.rows_matched"),
}

#: Median call durations: metric -> (span name, span detail).
MEDIANS = {
    "serve.app.queue_wait_ms": ("serve.app.queue_wait", ""),
    "serve.app.respond_ms": ("serve.app.respond", ""),
    "serve.service.query_ms": ("serve.service.query", "cold"),
    "serve.snapshot.poll_ms": ("serve.snapshot.poll", ""),
    **{f"serve.service.report_payload_ms.{table}":
       ("serve.service.report_payload", table) for table in REPORT_TABLES},
}

#: Values the workload measures itself (campaign results, cache stats).
MEASURED = (
    ("fleet.users", "count"),
    ("fleet.events", "count"),
    ("campaign.simulate_s", "s"),
    ("campaign.merge_s", "s"),
    ("campaign.shard_s_max", "s"),
    ("campaign.shard_skew", "ratio"),
    ("runtime.pool.fanout_overhead_s", "s"),
    ("serve.cache.result_hit_ratio", "ratio"),
    ("serve.cache.segment_hit_ratio", "ratio"),
    ("serve.cache.segment_entries", "count"),
    ("serve.generation_advances", "count"),
)

PER_LAYER = (
    *((name, "s") for name in SELF_TIMES),
    ("fleet.us_per_user", "us"),
    *((name, "B" if "bytes" in name else "count") for name in COUNTS),
    ("store.query.match_ratio", "ratio"),
    ("store.query.prune_ratio", "ratio"),
    *((name, "ms") for name in MEDIANS),
    *MEASURED,
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _ms_median(values: list) -> float:
    return float(np.median(values)) * 1e3 if values else 0.0


def per_layer(ledger, traced, untraced) -> dict:
    """Every per-layer metric of one traced run (0 where a layer is idle)."""
    ops = max(traced.attempted, 1)
    values = {name: ledger.self_s.get(span, 0.0) / ops
              for name, span in SELF_TIMES.items()}
    fleet_s = sum(seconds for name, seconds in ledger.self_s.items()
                  if name.startswith("fleet."))
    users = traced.layers.get("fleet.users", 0)
    values["fleet.us_per_user"] = fleet_s / ops / users * 1e6 if users else 0.0
    for name, (source, key) in COUNTS.items():
        count = (ledger.calls(key) if source == "calls"
                 else getattr(ledger, source).get(key, 0))
        values[name] = count / ops
    tallies = ledger.tallies
    scanned = tallies.get("store.query.terminal.rows_scanned", 0)
    total = tallies.get("store.query.terminal.segments_total", 0)
    values["store.query.match_ratio"] = (
        tallies.get("store.query.terminal.rows_matched", 0) / scanned
        if scanned else 0.0)
    values["store.query.prune_ratio"] = (
        tallies.get("store.query.terminal.segments_skipped", 0) / total
        if total else 0.0)
    for name, key in MEDIANS.items():
        values[name] = _ms_median(ledger.durations.get(key, []))
    for name, _unit in MEASURED:
        values[name] = float(traced.layers.get(name, 0.0))
    values["trace.unattributed_frac"] = ledger.unattributed_frac
    values["trace.overhead_frac"] = (
        untraced.ref_throughput / traced.ref_throughput - 1.0
        if traced.ref_throughput else 0.0)
    return values
