"""Perf + correctness gates for the observability layer (`repro.obs`).

Three acceptance properties, measured on the fleet event loop (the
hottest instrumented path):

* **disabled-mode overhead** — with no collector installed the
  instrumented chunk loop must stay within ``MAX_DISABLED_OVERHEAD`` of
  the raw block loop: disabled telemetry costs one attribute check
  per chunk, nothing per event;
* **enabled-mode overhead** — with a collector installed (spans +
  counters recorded per chunk) the loop must stay within
  ``MAX_ENABLED_OVERHEAD`` of raw;
* **bit-identity** — simulation output must be byte-identical with
  telemetry on vs off, and the deterministic counters must be
  bit-identical across worker counts / chunk sizes.

Timings are best-of-``REPEATS`` to shave scheduler noise; the overhead
gates are skipped (but still recorded) under ``REPRO_BENCH_NO_GATE=1``
like every other speedup gate.  Results land in ``BENCH_obs.json`` at
the repo root, and the traced run's sidecar store is kept under
``benchmarks/results/obs_telemetry.store`` for ``repro obs report``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from conftest import (BENCH_SCALE, RESULTS_DIR, SPEEDUP_GATES, best_of,
                      timed, write_baseline, write_result)

from repro import obs
from repro.fleet import FleetSimulator, FleetSpec, zoo_population
from repro.fleet.simulator import BLOCK_CELLS
from repro.obs.report import metrics_table, run_timeline, stage_breakdown
from repro.obs.sink import write_telemetry
from repro.store import ResultStore

#: Where the machine-readable baseline lands (repo root, BENCH_* trajectory).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: Where the traced run's sidecar telemetry store is kept (CI artifact).
TELEMETRY_STORE = RESULTS_DIR / "obs_telemetry.store"

#: Acceptance: maximum fractional slowdown of the fleet chunk loop.
MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_OVERHEAD = 0.10

#: Best-of-N repeats per timed variant.
REPEATS = 5

#: Population size / virtual horizon.  Scaled so the CI smoke run
#: (REPRO_BENCH_SCALE=0.05) still simulates tens of thousands of events.
NUM_USERS = max(24, int(80 * BENCH_SCALE / 0.15))
HORIZON_S = 12 * 3600.0

#: Trace columns compared for bit-identity.
TRACE_COLUMNS = ("times_s", "latency_ms", "energy_mj", "throttle",
                 "battery_fraction", "discharge_mah", "offloaded")

#: Module-level accumulator; the final test writes it out as JSON.
RESULTS: dict = {}


def assert_overhead(measured: float, maximum: float, label: str) -> None:
    """Enforce an overhead ceiling (no-op under ``REPRO_BENCH_NO_GATE=1``)."""
    if SPEEDUP_GATES:
        assert measured <= maximum, \
            f"{label}: {measured * 100:.2f}% > allowed {maximum * 100:.0f}%"


@pytest.fixture(scope="module")
def fleet_spec():
    return FleetSpec(graphs_with_tasks=zoo_population(), num_users=NUM_USERS,
                     horizon_s=HORIZON_S, seed=0)


@pytest.fixture(scope="module")
def baseline_traces(fleet_spec):
    """Telemetry-off single-worker reference run."""
    assert not obs.enabled()
    return FleetSimulator(fleet_spec, max_workers=1).collect()


def test_bench_overhead_gates(fleet_spec, baseline_traces):
    """Acceptance: disabled <= 2% and enabled <= 10% over the raw loop."""
    simulator = FleetSimulator(fleet_spec, max_workers=1)
    user_ids = list(range(fleet_spec.num_users))
    events = sum(t.num_events for t in baseline_traces)
    assert events > 10_000, "population too small to measure overhead on"

    def raw():
        # The chunk's own block evaluation minus the collector check, so
        # the ratios isolate what telemetry costs.
        return simulator._run_blocks(user_ids, BLOCK_CELLS)

    def disabled():
        return simulator._simulate_chunk(user_ids)

    def enabled():
        obs.enable()
        try:
            return simulator._simulate_chunk(user_ids)
        finally:
            obs.disable()

    raw()  # warm every per-user cache before any timing
    # Interleave the repeats round-robin and gate on the best *per-round*
    # overhead ratio: the three variants of one round run back to back
    # under the same machine load, so their ratio stays honest even when
    # every round is somewhat loaded — whereas a ratio of cross-round
    # minima can pair a quiet raw round with a never-quiet disabled one
    # and report phantom overhead.  Scheduler noise only ever inflates a
    # round's ratio, so the minimum is the least-noisy estimate.
    raw_seconds = disabled_seconds = enabled_seconds = float("inf")
    disabled_overhead = enabled_overhead = float("inf")
    for _ in range(REPEATS):
        raw_t = timed(raw)[1]
        disabled_t = timed(disabled)[1]
        enabled_t = timed(enabled)[1]
        raw_seconds = min(raw_seconds, raw_t)
        disabled_seconds = min(disabled_seconds, disabled_t)
        enabled_seconds = min(enabled_seconds, enabled_t)
        disabled_overhead = min(disabled_overhead, disabled_t / raw_t - 1.0)
        enabled_overhead = min(enabled_overhead, enabled_t / raw_t - 1.0)
    RESULTS["overhead"] = {
        "users": fleet_spec.num_users,
        "events": events,
        "repeats": REPEATS,
        "raw_seconds": raw_seconds,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        "gates_enforced": SPEEDUP_GATES,
    }
    assert_overhead(disabled_overhead, MAX_DISABLED_OVERHEAD,
                    "disabled-mode overhead")
    assert_overhead(enabled_overhead, MAX_ENABLED_OVERHEAD,
                    "enabled-mode overhead")


def test_bench_bit_identity_with_telemetry(fleet_spec, baseline_traces):
    """Acceptance: telemetry cannot change a single output bit, and the
    deterministic counters are identical for every fan-out shape."""
    variants = {
        "serial": dict(max_workers=1),
        "threads_3_chunked": dict(max_workers=3, chunk_size=7),
    }
    counters = {}
    for name, kwargs in variants.items():
        obs.enable()
        traces = FleetSimulator(fleet_spec, **kwargs).collect()
        counters[name] = obs.disable().counters
        assert len(traces) == len(baseline_traces)
        for ours, reference in zip(traces, baseline_traces):
            assert ours.user.user_id == reference.user.user_id
            for column in TRACE_COLUMNS:
                assert np.array_equal(getattr(ours, column),
                                      getattr(reference, column)), \
                    f"{name}: user {reference.user.user_id} column {column}"

    reference = counters["serial"]
    assert reference["fleet.users_simulated"] == fleet_spec.num_users
    assert reference["fleet.events_simulated"] == \
        sum(t.num_events for t in baseline_traces)
    for name, observed in counters.items():
        assert observed == reference, f"{name}: counters drifted"

    RESULTS["bit_identity"] = {
        "events": sum(t.num_events for t in baseline_traces),
        "outputs_bit_identical": True,
        "counters_bit_identical": True,
        "variants_checked": sorted(variants),
        "deterministic_counters": dict(sorted(reference.items())),
    }


def test_bench_traced_run_persists_and_reports(fleet_spec, tmp_path_factory):
    """A traced store-backed run, persisted to the sidecar and re-served."""
    if TELEMETRY_STORE.exists():
        shutil.rmtree(TELEMETRY_STORE)
    fleet_store = tmp_path_factory.mktemp("bench_obs") / "fleet.store"

    collector = obs.enable()
    with collector.span("bench.run", items=fleet_spec.num_users):
        rows = FleetSimulator(fleet_spec, max_workers=2).run_to_store(
            fleet_store, rows_per_segment=16384)
    persisted = write_telemetry(TELEMETRY_STORE, run_id="bench")
    obs.disable()
    assert rows > 0 and persisted > 0

    store = ResultStore(TELEMETRY_STORE)
    timeline = run_timeline(store, run_id="bench")
    assert timeline and timeline[0]["name"] == "bench.run"
    ids = {row["span_id"] for row in timeline}
    assert all(row["parent_id"] == 0 or row["parent_id"] in ids
               for row in timeline), "orphan spans in the persisted tree"
    stages = {row["name"] for row in stage_breakdown(store, run_id="bench")}
    assert {"fleet.run_to_store", "fleet.simulate_chunk",
            "store.flush"} <= stages
    metrics = {row["metric"]: row["value_i"]
               for row in metrics_table(store, run_id="bench",
                                        metric_class="deterministic")}
    assert metrics["store.rows_committed"] == rows

    RESULTS["traced_run"] = {
        "fleet_rows": rows,
        "telemetry_rows": persisted,
        "spans_persisted": len(timeline),
        "stages": sorted(stages),
        "store": str(TELEMETRY_STORE.relative_to(
            Path(__file__).resolve().parent.parent)),
    }


def test_write_obs_baseline():
    """Persist the measured baseline to BENCH_obs.json and a results table."""
    if not RESULTS:  # pragma: no cover - only when run in isolation
        pytest.skip("timing tests of this module did not run")
    payload = {
        "benchmark": "obs_overhead_baseline",
        "scale": BENCH_SCALE,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
        **RESULTS,
    }
    write_baseline(BASELINE_PATH, payload)

    lines = [f"Obs overhead baseline (scale {BENCH_SCALE}):"]
    for name, entry in RESULTS.items():
        fields = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                           else f"{key}={value}" for key, value in entry.items()
                           if not isinstance(value, dict))
        lines.append(f"{name}: {fields}")
    write_result("bench_obs_baseline", lines)

    assert RESULTS["bit_identity"]["outputs_bit_identical"]
    assert RESULTS["bit_identity"]["counters_bit_identical"]
    if SPEEDUP_GATES:
        assert RESULTS["overhead"]["disabled_overhead"] <= \
            MAX_DISABLED_OVERHEAD
        assert RESULTS["overhead"]["enabled_overhead"] <= MAX_ENABLED_OVERHEAD
