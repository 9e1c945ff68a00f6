"""Cloud-layer benchmarks: Fig. 15 API usage plus the `repro.cloud`
shared-capacity interference baseline (``BENCH_cloud.json``).

The interference suite measures and *enforces*, on a population mixing the
scale-``REPRO_BENCH_SCALE`` snapshot's scenario-compatible models with the
zoo reference set and the queue-congesting segmentation variant:

* **bounded fixed point** — the damped two-pass interference simulation must
  converge within the configured pass cap, and visibly inflate loaded cloud
  service times above the unloaded constant;
* **determinism** — the acceptance gate: the *entire multi-pass run* (final
  service table, load profile, traces) must be **bit-identical** across
  worker counts and chunk sizes, inline and threaded;
* **queue conservation** — ``arrived == device + cloud + shed + queued``
  holds exactly, per user and audited again through the results store;
* **vectorised vs naive** — the vectorised event loop under a frozen
  service table beats the per-event reference >= ``MIN_CLOUD_SPEEDUP``x
  while producing equivalent traces.

Results land in ``BENCH_cloud.json`` at the repo root, next to the sweep,
store and fleet baselines.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import (BENCH_SCALE, assert_speedup, timed,
                      write_baseline, write_result)

from repro.cloud import (ApiCapacity, CapacityModel, CloudRegion,
                         InterferenceConfig, InterferenceSimulator,
                         LoadProfile)
from repro.core import reports
from repro.core.pipeline import GaugeNN
from repro.fleet import (FleetSimulator, FleetSpec, congested_population,
                         queue_summary, simulate_user_naive, zoo_population)
from repro.store import ResultStore

#: Where the machine-readable baseline lands (repo root, BENCH_* trajectory).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_cloud.json"

#: Acceptance: minimum speedup of the vectorised event loop over the
#: per-event reference, both running under the converged frozen table.
MIN_CLOUD_SPEEDUP = 5.0

#: Population size / virtual horizon of the interference fleet.
NUM_USERS = 100
HORIZON_S = 8 * 3600.0

#: Users pushed through the naive per-event reference (the slow side).
NAIVE_USERS = 25

#: Deliberately tight regional capacity so the benchmark fleet congests it.
CAPACITY = CapacityModel(
    regions=(CloudRegion("us-central"), CloudRegion("eu-west", 0.7),
             CloudRegion("apac-se", 0.5)),
    default=ApiCapacity(base_service_ms=45.0, servers=3, per_server_rps=2.0),
)

CONFIG = InterferenceConfig(bin_seconds=900.0)

#: Module-level accumulator; the final test writes it out as JSON.
RESULTS: dict = {}


def test_fig15_cloud_api_usage(benchmark, analysis_2021, analysis_2020):
    """Fig. 15: apps per cloud ML API category, Google vs AWS."""
    usage = benchmark(reports.cloud_api_usage, analysis_2021)

    cloud_apps_2021 = len(analysis_2021.apps_using_cloud())
    cloud_apps_2020 = len(analysis_2020.apps_using_cloud())
    google_apps = sum(1 for app in analysis_2021.apps_using_cloud()
                      if "Google" in app.cloud_providers)
    aws_apps = sum(1 for app in analysis_2021.apps_using_cloud()
                   if "AWS" in app.cloud_providers)

    lines = ["Fig. 15: number of apps invoking cloud ML APIs (2021 snapshot)",
             "api                                   provider  apps"]
    for name, entry in usage.items():
        lines.append(f"{name:<37} {entry['provider']:<9} {entry['apps']}")
    lines.append("")
    lines.append(f"total cloud-ML apps: {cloud_apps_2021} "
                 f"(2020: {cloud_apps_2020}, growth {cloud_apps_2021 / max(1, cloud_apps_2020):.2f}x; "
                 "paper: 524 apps, 2.33x)")
    lines.append(f"Google apps: {google_apps}, AWS apps: {aws_apps} (paper: 452 vs 72)")
    write_result("fig15_cloud_apis", lines)

    assert cloud_apps_2021 > cloud_apps_2020
    assert google_apps > aws_apps
    # Vision APIs dominate the top of the ranking.
    top_apis = list(usage)[:5]
    assert any(name.startswith("Vision/") for name in top_apis)


# --------------------------------------------------------------------------- #
# repro.cloud interference baseline
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cloud_spec(analysis_2021):
    """Snapshot models plus the zoo set plus the queue-congesting variant."""
    pairs = (tuple(GaugeNN.graphs_with_tasks(analysis_2021))
             + zoo_population() + congested_population())
    return FleetSpec(graphs_with_tasks=pairs, num_users=NUM_USERS,
                     horizon_s=HORIZON_S, seed=0)


@pytest.fixture(scope="module")
def baseline_run(cloud_spec):
    """Single-worker two-pass run (also the fixed-point measurement)."""
    simulator = InterferenceSimulator(cloud_spec, CAPACITY, config=CONFIG,
                                      max_workers=1)
    result, seconds = timed(simulator.run)
    RESULTS["fixed_point"] = {
        "users": cloud_spec.num_users,
        "horizon_hours": HORIZON_S / 3600.0,
        "bin_seconds": CONFIG.bin_seconds,
        "passes": result.passes,
        "max_passes": CONFIG.max_passes,
        "converged": result.converged,
        "deltas_ms": [round(d, 4) for d in result.deltas_ms],
        "total_seconds": seconds,
        "offloaded_requests": result.profile.total_requests,
        "peak_offered_rps": result.profile.peak_rps(),
    }
    return simulator, result


def test_bench_fixed_point_bounded_and_interfering(cloud_spec, baseline_run):
    """Acceptance: convergence within the pass cap, with real interference."""
    _, result = baseline_run
    assert result.converged, "fixed point must converge within the pass cap"
    assert result.passes <= CONFIG.max_passes + 1  # iterations + final pass
    nominal = cloud_spec.policy.cloud.service_ms
    assert result.profile.total_requests > 0
    assert result.peak_service_ms > nominal * 1.5, \
        "the tight capacity model should visibly inflate service times"
    RESULTS["interference"] = {
        "nominal_service_ms": nominal,
        "peak_service_ms": result.peak_service_ms,
        "inflation": result.peak_service_ms / nominal,
    }


def test_bench_determinism_across_pool_kinds(cloud_spec, baseline_run):
    """Acceptance: the whole multi-pass run is bit-identical for any fan-out."""
    _, reference = baseline_run
    variants = {
        "threads_4": dict(max_workers=4),
        "threads_3_chunked": dict(max_workers=3, chunk_size=7),
    }
    timings = {}
    for name, kwargs in variants.items():
        result, timings[name] = timed(
            InterferenceSimulator(cloud_spec, CAPACITY, config=CONFIG,
                                  **kwargs).run)
        assert result.passes == reference.passes, name
        assert result.converged == reference.converged, name
        assert np.array_equal(result.table.service_ms,
                              reference.table.service_ms), name
        assert np.array_equal(result.profile.requests,
                              reference.profile.requests), name
        assert np.array_equal(result.profile.payload_bytes,
                              reference.profile.payload_bytes), name
        for ours, ref in zip(result.traces, reference.traces):
            assert ours.user.user_id == ref.user.user_id
            for column in ("times_s", "latency_ms", "energy_mj", "throttle",
                           "battery_fraction", "discharge_mah", "wait_ms",
                           "route"):
                assert np.array_equal(getattr(ours, column),
                                      getattr(ref, column)), \
                    f"{name}: user {ref.user.user_id} column {column}"
    RESULTS["determinism"] = {
        "events": sum(t.num_events for t in reference.traces),
        "passes_each": reference.passes,
        "bit_identical": True,
        "variants_checked": sorted(variants),
        **{f"{name}_seconds": secs for name, secs in timings.items()},
    }


def test_bench_queue_conservation_exact(baseline_run):
    """Acceptance: arrived == device + cloud + shed + queued, exactly."""
    _, result = baseline_run
    totals = {"device": 0, "cloud": 0, "shed": 0, "queued": 0}
    for trace in result.traces:
        counts = trace.route_counts()
        assert sum(counts.values()) == trace.num_events, \
            f"user {trace.user.user_id} leaks events"
        for key in totals:
            totals[key] += counts[key]
    arrived = sum(t.num_events for t in result.traces)
    assert arrived == sum(totals.values())
    assert totals["shed"] > 0, \
        "the congested population should overflow the device queue"
    RESULTS["queue_conservation"] = {
        "arrived": arrived, **totals, "exact": True,
    }


def test_bench_vectorized_vs_naive_under_load(cloud_spec, baseline_run):
    """Acceptance: the vectorised loop beats the per-event reference >= 5x
    while running against the converged frozen service table."""
    simulator, result = baseline_run
    spec = simulator.spec  # region-aligned copy
    user_ids = [t.user.user_id for t in result.traces
                if t.num_events][:NAIVE_USERS]
    events = sum(result.traces[uid].num_events for uid in user_ids)
    assert events > 1_000

    naive, naive_seconds = timed(
        lambda: [simulate_user_naive(spec, uid, service_table=result.table)
                 for uid in user_ids])

    vectorized_sim = FleetSimulator(spec, max_workers=1,
                                    service_table=result.table)
    vectorized, vectorized_seconds = timed(
        lambda: [vectorized_sim.simulate_user(uid) for uid in user_ids])

    for fast, slow in zip(vectorized, naive):
        assert np.array_equal(fast.route, slow.route)
        for column in ("latency_ms", "energy_mj", "throttle",
                       "battery_fraction", "discharge_mah", "wait_ms"):
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
        "vectorized_events_per_second": events / vectorized_seconds,
    }
    assert_speedup(speedup, MIN_CLOUD_SPEEDUP, "cloud event loop")


def test_bench_store_ingest_and_audit(cloud_spec, tmp_path_factory):
    """Streaming the final pass into a store, then auditing it from disk."""
    store_path = tmp_path_factory.mktemp("bench_cloud") / "cloud.store"
    store = ResultStore(store_path)
    simulator = InterferenceSimulator(cloud_spec, CAPACITY, config=CONFIG,
                                      max_workers=2)
    (rows, result), ingest_seconds = timed(simulator.run_to_store, store)

    events = store.num_rows("fleet_events")
    load_rows = store.num_rows("fleet_load")
    assert rows == events + load_rows
    assert load_rows > 0
    assert store.verify_integrity() == len(store.segments)

    # The persisted profile reconstructs the in-memory grid exactly.
    rebuilt = LoadProfile.from_store(store, simulator.spec.regions,
                                     HORIZON_S, CONFIG.bin_seconds)
    assert np.array_equal(rebuilt.requests, result.profile.requests)

    # Conservation again, audited externally: the simulator's streamed
    # arrival count against the store's per-target classification.
    summary = queue_summary(store, expected_arrived=result.arrived)
    assert summary["conserved"]
    assert summary["arrived"] == result.arrived == events
    RESULTS["store_ingest"] = {
        "rows": rows,
        "fleet_events": events,
        "fleet_load": load_rows,
        "segments": len(store.segments),
        "ingest_seconds": ingest_seconds,
        "rows_per_second": rows / ingest_seconds,
        "by_target": summary["by_target"],
    }


def test_write_cloud_baseline():
    """Persist the measured baseline to BENCH_cloud.json and a results table."""
    if not RESULTS:  # pragma: no cover - only when run in isolation
        pytest.skip("timing tests of this module did not run")
    payload = {
        "benchmark": "cloud_interference_baseline",
        "scale": BENCH_SCALE,
        "min_required_event_loop_speedup": MIN_CLOUD_SPEEDUP,
        **RESULTS,
    }
    write_baseline(BASELINE_PATH, payload)

    lines = [f"Cloud interference baseline (scale {BENCH_SCALE}):"]
    for name, entry in RESULTS.items():
        fields = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                           else f"{key}={value}" for key, value in entry.items())
        lines.append(f"{name}: {fields}")
    write_result("bench_cloud_baseline", lines)

    assert RESULTS["fixed_point"]["converged"]
    assert RESULTS["determinism"]["bit_identical"]
    assert RESULTS["queue_conservation"]["exact"]
    assert_speedup(RESULTS["event_loop"]["speedup"], MIN_CLOUD_SPEEDUP,
                   "cloud event loop")
