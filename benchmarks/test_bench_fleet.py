"""Perf baseline for the fleet traffic simulator (`repro.fleet`).

Measures, on a population mixing the scale-``REPRO_BENCH_SCALE`` snapshot's
scenario-compatible models with the zoo reference set:

* **event throughput** — the vectorised event loop's events/second, single
  worker and fanned out;
* **determinism** — the acceptance gate: a >= 100k-event simulation must be
  **bit-identical** across worker counts and chunk sizes (inline vs
  threads), because every user derives from their own seed;
* **vectorised vs naive** — the same users through the per-event reference
  loop (stateful thermal/battery objects, per-event roofline evaluation)
  versus the vectorised loop; equivalence within float tolerance and a
  >= ``MIN_EVENT_LOOP_SPEEDUP``x speedup are both enforced;
* **store ingestion** — streaming the event stream into a ``fleet_events``
  store segment-by-segment, with row counts and integrity verified.

Results land in ``BENCH_fleet.json`` at the repo root, next to
``BENCH_sweep.json`` and ``BENCH_store.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import (BENCH_SCALE, assert_speedup, timed,
                      write_baseline, write_result)

from repro.obs.timing import Stopwatch

from repro.core.pipeline import GaugeNN
from repro.fleet import (FleetSimulator, FleetSpec, simulate_user_naive,
                         zoo_population)
from repro.fleet.reports import (battery_drain_ecdf, offload_summary,
                                 tail_latency_table)
from repro.store import ResultStore

#: Where the machine-readable baseline lands (repo root, BENCH_* trajectory).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Acceptance: minimum speedup of the vectorised event loop over the
#: per-event reference.
MIN_EVENT_LOOP_SPEEDUP = 5.0

#: Acceptance: the determinism check must cover at least this many events.
MIN_DETERMINISM_EVENTS = 100_000

#: Population size / virtual horizon of the benchmark fleet.
NUM_USERS = 150
HORIZON_S = 12 * 3600.0

#: Users pushed through the naive per-event reference (it is the slow side).
NAIVE_USERS = 30

#: Trace columns compared for bit-identity.
TRACE_COLUMNS = ("times_s", "latency_ms", "energy_mj", "throttle",
                 "battery_fraction", "discharge_mah", "offloaded")

#: Module-level accumulator; the final test writes it out as JSON.
RESULTS: dict = {}


def _user_key(user):
    """User identity by coordinates, not by object."""
    return (user.user_id, user.device.name, user.graph.name,
            user.scenario.name, user.backend, user.seed)


@pytest.fixture(scope="module")
def fleet_spec(analysis_2021):
    """Snapshot models (where scenario-compatible) plus the zoo reference set."""
    pairs = tuple(GaugeNN.graphs_with_tasks(analysis_2021)) + zoo_population()
    return FleetSpec(graphs_with_tasks=pairs, num_users=NUM_USERS,
                     horizon_s=HORIZON_S, seed=0)


@pytest.fixture(scope="module")
def baseline_traces(fleet_spec):
    """Single-worker reference run (also the throughput measurement)."""
    simulator = FleetSimulator(fleet_spec, max_workers=1)
    traces, seconds = timed(simulator.collect)
    RESULTS["throughput"] = {
        "users": fleet_spec.num_users,
        "horizon_hours": HORIZON_S / 3600.0,
        "events": sum(t.num_events for t in traces),
        "offloaded": sum(t.num_offloaded for t in traces),
        "single_worker_seconds": seconds,
        "events_per_second": sum(t.num_events for t in traces) / seconds,
    }
    return traces


def test_bench_population_scale(baseline_traces):
    """The determinism gate needs a >= 100k-event simulation to bite on."""
    total = sum(t.num_events for t in baseline_traces)
    assert total >= MIN_DETERMINISM_EVENTS
    assert any(t.num_offloaded for t in baseline_traces)
    assert any(t.num_events and float(t.throttle.min()) < 0.95
               for t in baseline_traces), "no thermal throttling exercised"


def test_bench_determinism_across_workers(fleet_spec, baseline_traces):
    """Acceptance: bit-identical event streams for any fan-out configuration."""
    variants = {
        "threads_4": FleetSimulator(fleet_spec, max_workers=4),
        "threads_3_chunked": FleetSimulator(fleet_spec, max_workers=3,
                                            chunk_size=7),
    }
    timings = {}
    for name, simulator in variants.items():
        traces, timings[name] = timed(simulator.collect)
        assert len(traces) == len(baseline_traces)
        for ours, reference in zip(traces, baseline_traces):
            assert _user_key(ours.user) == _user_key(reference.user)
            for column in TRACE_COLUMNS:
                assert np.array_equal(getattr(ours, column),
                                      getattr(reference, column)), \
                    f"{name}: user {reference.user.user_id} column {column}"
    RESULTS["determinism"] = {
        "events": sum(t.num_events for t in baseline_traces),
        "bit_identical": True,
        "variants_checked": sorted(variants),
        **{f"{name}_seconds": secs for name, secs in timings.items()},
    }


def test_bench_vectorized_vs_naive(fleet_spec, baseline_traces):
    """Acceptance: the vectorised event loop beats the per-event reference >= 5x."""
    user_ids = [t.user.user_id for t in baseline_traces
                if t.num_events][:NAIVE_USERS]
    events = sum(baseline_traces[uid].num_events for uid in user_ids)
    assert events > 1_000

    naive, naive_seconds = timed(
        lambda: [simulate_user_naive(fleet_spec, uid) for uid in user_ids])

    simulator = FleetSimulator(fleet_spec, max_workers=1)
    vectorized, vectorized_seconds = timed(
        lambda: [simulator.simulate_user(uid) for uid in user_ids])

    for fast, slow in zip(vectorized, naive):
        assert np.array_equal(fast.offloaded, slow.offloaded)
        for column in ("latency_ms", "energy_mj", "throttle",
                       "battery_fraction", "discharge_mah"):
            np.testing.assert_allclose(getattr(fast, column),
                                       getattr(slow, column),
                                       rtol=1e-9, atol=1e-9)

    speedup = naive_seconds / vectorized_seconds
    RESULTS["event_loop"] = {
        "users": len(user_ids),
        "events": events,
        "naive_seconds": naive_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": speedup,
        "naive_events_per_second": events / naive_seconds,
        "vectorized_events_per_second": events / vectorized_seconds,
    }
    assert_speedup(speedup, MIN_EVENT_LOOP_SPEEDUP, "fleet event loop")


def test_bench_store_ingest(fleet_spec, baseline_traces, tmp_path_factory):
    """Streaming the fleet into a fleet_events store, then serving reports."""
    store_path = tmp_path_factory.mktemp("bench_fleet") / "fleet.store"
    simulator = FleetSimulator(fleet_spec, max_workers=2)

    rows, ingest_seconds = timed(simulator.run_to_store, store_path,
                                 rows_per_segment=16384)

    store = ResultStore(store_path)
    total = sum(t.num_events for t in baseline_traces)
    assert rows == total
    assert store.num_rows("fleet_events") == total
    assert store.verify_integrity() == len(store.segments)

    with Stopwatch() as watch:
        table = tail_latency_table(store, group_by=("device_name", "scenario"))
        drains = battery_drain_ecdf(store)
        offload = offload_summary(store)
    report_seconds = watch.elapsed_s
    assert table and offload["events"] == total

    RESULTS["store_ingest"] = {
        "rows": rows,
        "segments": len(store.segments),
        "ingest_seconds": ingest_seconds,
        "rows_per_second": rows / ingest_seconds,
        "report_seconds": report_seconds,
        "offload_fraction": offload["offload_fraction"],
        "median_drain_mah": drains.median,
    }


def test_write_fleet_baseline():
    """Persist the measured baseline to BENCH_fleet.json and a results table."""
    if not RESULTS:  # pragma: no cover - only when run in isolation
        pytest.skip("timing tests of this module did not run")
    payload = {
        "benchmark": "fleet_perf_baseline",
        "scale": BENCH_SCALE,
        "min_required_event_loop_speedup": MIN_EVENT_LOOP_SPEEDUP,
        "min_determinism_events": MIN_DETERMINISM_EVENTS,
        **RESULTS,
    }
    write_baseline(BASELINE_PATH, payload)

    lines = [f"Fleet perf baseline (scale {BENCH_SCALE}):"]
    for name, entry in RESULTS.items():
        fields = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                           else f"{key}={value}" for key, value in entry.items())
        lines.append(f"{name}: {fields}")
    write_result("bench_fleet_baseline", lines)

    assert RESULTS["determinism"]["bit_identical"]
    assert RESULTS["determinism"]["events"] >= MIN_DETERMINISM_EVENTS
    assert_speedup(RESULTS["event_loop"]["speedup"],
                   MIN_EVENT_LOOP_SPEEDUP, "fleet event loop")
