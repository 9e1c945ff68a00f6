"""Perf + correctness gates for the drift observatory (`repro.store.diff`).

Three acceptance properties on a large synthetic two-store campaign pair:

* **vectorised diff speed** — :func:`repro.store.diff.diff_stores` (one
  grouped ``Query.aggregate`` per side over the column caches, then key
  alignment) must beat the per-row Python reference
  (:func:`diff_kind_reference`) by at least ``MIN_DIFF_SPEEDUP``x;
* **bit-exact equivalence** — the vectorised engine's changed groups,
  per-metric values, and added/removed entity sets must equal the
  reference's *bit for bit* (same float reduction order, not approx);
* **self-diff is zero** — a store diffed against itself reports no
  deltas at all, and deterministic telemetry counters snapshot-compare
  exact across worker/chunk/pool fan-out variants (only wall-clock
  drift may appear).

Results land in ``BENCH_drift.json`` at the repo root; the speedup gate
is skipped (but still recorded) under ``REPRO_BENCH_NO_GATE=1``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from conftest import (BENCH_SCALE, assert_speedup, best_of, timed,
                      write_baseline, write_result)

from repro import obs
from repro.fleet import FleetSimulator, FleetSpec, zoo_population
from repro.obs.drift import diff_snapshots
from repro.obs.snapshot import build_snapshot
from repro.store import ResultStore, diff_kind_reference, diff_stores
from repro.store.diff import spec_for

#: Where the machine-readable baseline lands (repo root, BENCH_* trajectory).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_drift.json"

#: Minimum vectorised-diff speedup over the per-row reference.
MIN_DIFF_SPEEDUP = 5.0

#: Rows per synthetic store.  Scaled so the CI smoke run
#: (REPRO_BENCH_SCALE=0.05) still diffs ~200k rows total.
NUM_ROWS = max(100_000, int(300_000 * BENCH_SCALE / 0.15))

#: Best-of-N repeats for the vectorised side (the reference runs once —
#: it is the slow path being beaten).
REPEATS = 3

#: Fleet-sim population for the cross-variant snapshot check.
NUM_USERS = max(16, int(48 * BENCH_SCALE / 0.15))

#: Module-level accumulator; the final test writes it out as JSON.
RESULTS: dict = {}

DEVICES = np.array(["S21", "A20", "pixel4", "Q845", "Q855", "Q865",
                    "mate30", "redmi9"], dtype="U16")
SCENARIOS = np.array(["photo", "typing", "assistant", "ar"], dtype="U16")
REGIONS = np.array(["amer", "emea", "apac", "mena"], dtype="U16")


def synthetic_batch(n, seed, *, region_pool=REGIONS, latency_mult=None):
    """A deterministic fleet_events batch spread over ~250 group keys."""
    rng = np.random.default_rng(seed)
    latency = rng.uniform(1, 80, n)
    if latency_mult is not None:
        latency = latency * latency_mult
    return {
        "user_id": rng.integers(0, n, n),
        "time_s": rng.uniform(0, 86400, n),
        "device_name": DEVICES[rng.integers(0, DEVICES.size, n)],
        "model_name": np.array(["mobilenet"] * n, dtype="U16"),
        "scenario": SCENARIOS[rng.integers(0, SCENARIOS.size, n)],
        "backend": np.array(["cpu"] * n, dtype="U8"),
        "region": region_pool[rng.integers(0, region_pool.size, n)],
        "target": np.where(rng.random(n) < 0.1, "cloud", "local").astype("U8"),
        "latency_ms": latency,
        "wait_ms": rng.uniform(0, 10, n),
        "energy_mj": rng.uniform(1, 50, n),
        "throttle_factor": np.ones(n),
        "battery_fraction": rng.uniform(0.2, 1.0, n),
        "discharge_mah": rng.uniform(0, 1, n),
        "cloud_api": np.array([""] * n, dtype="U16"),
        "cloud_bytes": rng.integers(0, 1000, n),
    }


@pytest.fixture(scope="module")
def store_pair(tmp_path_factory):
    """Two NUM_ROWS stores: same seed, perturbed latencies, shifted regions.

    Side B drops one region and gains another, so the pair exercises the
    matched/changed path *and* the added/removed entity sets at scale.
    """
    root = tmp_path_factory.mktemp("bench_drift")
    store_a = ResultStore(root / "a.store")
    with store_a.writer() as writer:
        writer.append_batch("fleet_events", synthetic_batch(NUM_ROWS, 42))
    store_b = ResultStore(root / "b.store")
    shifted = np.array(["amer", "emea", "apac", "anta"], dtype="U16")
    with store_b.writer() as writer:
        writer.append_batch(
            "fleet_events",
            synthetic_batch(NUM_ROWS, 42, region_pool=shifted,
                            latency_mult=1.001))
    return store_a, store_b


def test_bench_vectorised_vs_reference(store_pair):
    """Acceptance: vectorised diff == per-row reference, >= 5x faster."""
    store_a, store_b = store_pair
    spec = spec_for("fleet_events")

    fast_diff, fast_seconds = best_of(
        REPEATS, lambda: diff_stores(store_a, store_b))
    reference, reference_seconds = timed(
        diff_kind_reference, store_a, store_b, spec)

    kind = fast_diff.kinds["fleet_events"]
    assert kind.matched == reference["matched"]
    fast_changed = {}
    for row in kind.changed_rows(limit=None):
        key = tuple(row[name] for name in spec.keys)
        fast_changed[key] = {
            metric: (row[metric]["a"], row[metric]["b"])
            for metric in kind.metrics
            if row[metric]["a"] != row[metric]["b"]}
    assert set(fast_changed) == set(reference["changed"])
    mismatched = 0
    for key, cells in reference["changed"].items():
        for metric, (ref_a, ref_b, _) in cells.items():
            fast_a, fast_b = fast_changed[key][metric]
            # Bit-exact: the engine's reductions accumulate in row order,
            # exactly like the sequential reference.
            if fast_a != ref_a or fast_b != ref_b:
                mismatched += 1
    assert mismatched == 0
    assert {tuple(row[name] for name in spec.keys)
            for row in kind.added_rows(limit=None)} == reference["added"]
    assert {tuple(row[name] for name in spec.keys)
            for row in kind.removed_rows(limit=None)} == reference["removed"]

    speedup = reference_seconds / fast_seconds
    RESULTS["diff"] = {
        "rows_per_store": NUM_ROWS,
        "groups_matched": kind.matched,
        "groups_changed": kind.num_changed,
        "groups_added": kind.num_added,
        "groups_removed": kind.num_removed,
        "reference_seconds": reference_seconds,
        "vectorised_seconds": fast_seconds,
        "speedup": speedup,
        "bit_identical": True,
    }
    assert_speedup(speedup, MIN_DIFF_SPEEDUP, "vectorised store diff")


def test_bench_self_diff_is_zero(store_pair):
    """Acceptance: a store diffed against itself has zero deltas."""
    store_a, _ = store_pair
    diff, seconds = timed(diff_stores, store_a, store_a)
    assert diff.identical
    kind = diff.kinds["fleet_events"]
    assert kind.num_changed == kind.num_added == kind.num_removed == 0
    for metric in kind.metrics:
        assert not kind.delta[metric].any()
    RESULTS["self_diff"] = {
        "rows": NUM_ROWS,
        "groups": kind.matched,
        "seconds": seconds,
        "zero_deltas": True,
    }


def test_bench_counters_snapshot_exact_across_variants(tmp_path_factory):
    """Deterministic counters snapshot-compare exact for every fan-out
    shape; only wall-clock sections may drift between variants."""
    root = tmp_path_factory.mktemp("bench_drift_variants")
    spec = FleetSpec(graphs_with_tasks=zoo_population(), num_users=NUM_USERS,
                     horizon_s=6 * 3600.0, seed=0)
    variants = {
        "serial": dict(max_workers=1),
        "threads_3_chunked": dict(max_workers=3, chunk_size=5),
        "processes_2": dict(max_workers=2, use_processes=True),
    }
    snapshots = {}
    for name, kwargs in variants.items():
        obs.enable()
        FleetSimulator(spec, **kwargs).collect()
        telemetry = root / f"{name}.store"
        obs.write_telemetry(telemetry, run_id=name)
        obs.disable()
        snapshots[name] = build_snapshot(telemetry=telemetry, run_id=name)

    reference = snapshots["serial"]
    worst_exact = 0
    for name, snapshot in snapshots.items():
        assert snapshot["counters"] == reference["counters"], \
            f"{name}: deterministic counters drifted"
        report = diff_snapshots(reference, snapshot)
        exact_findings = [f for f in report.findings
                          if f["severity"] == "exact"]
        assert not exact_findings, f"{name}: {exact_findings}"
        worst_exact = max(worst_exact, len(exact_findings))
    RESULTS["variant_exactness"] = {
        "users": NUM_USERS,
        "variants_checked": sorted(variants),
        "counters": len(reference["counters"]),
        "counters_bit_identical": True,
        "exact_findings": worst_exact,
    }


def test_write_drift_baseline():
    """Persist the measured baseline to BENCH_drift.json and a results table."""
    if not RESULTS:  # pragma: no cover - only when run in isolation
        pytest.skip("timing tests of this module did not run")
    payload = {
        "benchmark": "drift_perf_baseline",
        "scale": BENCH_SCALE,
        "min_required_diff_speedup": MIN_DIFF_SPEEDUP,
        **RESULTS,
    }
    write_baseline(BASELINE_PATH, payload)

    lines = [f"Drift observatory baseline (scale {BENCH_SCALE}):"]
    for name, entry in RESULTS.items():
        fields = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                           else f"{key}={value}" for key, value in entry.items()
                           if not isinstance(value, dict))
        lines.append(f"{name}: {fields}")
    write_result("bench_drift_baseline", lines)

    assert RESULTS["diff"]["bit_identical"]
    assert RESULTS["self_diff"]["zero_deltas"]
    assert_speedup(RESULTS["diff"]["speedup"], MIN_DIFF_SPEEDUP,
                   "vectorised store diff")
