"""Perf baseline for columnar store ingestion (format v3).

The fleet and cloud simulators produce events as NumPy arrays at millions of
events per second, but before this gate existed every persisted run was
throttled by the row path: array -> per-row dict -> per-row ``json.dumps``
-> re-pivot into column arrays at seal time.  The batch-native path
(:meth:`StoreWriter.append_batch` sealing packed columnar segments) keeps
the arrays columnar end to end.  This module measures and enforces:

* **store-layer speedup** — ingesting the same pre-simulated event stream
  through ``append_batch`` must beat per-row JSONL ingestion
  (:func:`ingest_rows_jsonl_reference`) by >= 10x, with the two stores'
  full column arrays **bit-identical**.  ``append_row`` — which pivots
  buffered rows and seals columnar too — is timed beside them, ungated;
* **end-to-end speedup** — ``FleetSimulator.run_to_store`` (simulate +
  batch-ingest) must beat the pre-PR simulate + per-row JSONL loop >= 5x;
* **block speedup** — on a sparse Ambient population (~4 events per user,
  where the per-user fixed cost dominates), block ``run_to_store`` must
  beat simulating and appending user by user (``simulate_user`` + one
  ``column_batch`` append per trace — the semantic reference) >= 2x,
  writing byte-identical segments; both paths' µs per user are recorded.
  ``simulate_user`` is itself a block of one, somewhat slower than the
  per-user fast path block evaluation replaced, so the ratio overstates
  the gain over that older path;
* **block materialisation** — building 1,200 Ambient users' plans with
  ``FleetSpec.materialize_block`` (a :data:`BLOCK_USERS` slice per call,
  as the simulator does) must beat the per-user semantic reference
  (``materialize_reference``, one user at a time) >= 1.4x, with every plan
  identical; both paths' µs per user are recorded, and so is that of
  ``materialize_columns`` (the same blocks without per-user views, as the
  simulator's store path builds them);
* **mixed-format identity** — the acceptance gate: queries and fleet report
  tables over a store mixing v2 JSONL and v3 columnar segments are
  bit-identical to a pure-JSONL store, for any worker count or chunk
  size, and survive compaction unchanged.

Results land in ``BENCH_ingest.json`` at the repo root, next to the other
``BENCH_*.json`` baselines.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (BENCH_SCALE, assert_speedup,
                      write_baseline, write_result)

from repro.campaign import ambient_spec
from repro.core.pipeline import GaugeNN
from repro.fleet import FleetSimulator, FleetSpec, zoo_population
from repro.fleet.reference import materialize_reference
from repro.fleet.simulator import BLOCK_USERS
from repro.fleet.reports import (battery_drain_ecdf, offload_summary,
                                 tail_latency_table)
from repro.store import ResultStore, compact_store, kind_for
from repro.store.segment import write_segment

#: Where the machine-readable baseline lands (repo root, BENCH_* trajectory).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"

#: Acceptance: minimum batch-vs-row speedup of the store layer alone.
MIN_COLUMNAR_SPEEDUP = 10.0

#: Acceptance: minimum end-to-end run_to_store speedup over the pre-PR path.
MIN_END_TO_END_SPEEDUP = 5.0

#: Acceptance: block run_to_store vs the per-user simulate + append loop.
MIN_BLOCK_SPEEDUP = 2.0

#: Sparse (Ambient) population of the block gate, scaled like the others.
BLOCK_GATE_USERS = max(int(8000 * BENCH_SCALE), 400)

#: Interleaved repeats of each side of the block gate (best one counts).
BLOCK_GATE_REPEATS = 3

#: Acceptance: block materialisation vs the per-user reference.
MIN_MATERIALIZE_SPEEDUP = 1.4

#: Ambient population of the materialisation gate (not scaled: the gate
#: measures a fixed per-user cost, and 1,200 users take well under 1 s).
MATERIALIZE_GATE_USERS = 1200

#: Interleaved repeats of each side of the materialisation gate.
MATERIALIZE_GATE_REPEATS = 5

#: Population size / virtual horizon of the benchmark fleet (matches
#: BENCH_fleet so the event counts line up across baselines).
NUM_USERS = 150
HORIZON_S = 12 * 3600.0

#: Store segment size used by every ingestion in this module.
ROWS_PER_SEGMENT = 16384

#: Module-level accumulator; the final test writes it out as JSON.
RESULTS: dict = {}


@pytest.fixture(scope="module")
def fleet_spec(analysis_2021):
    """Snapshot models (where scenario-compatible) plus the zoo reference set."""
    pairs = tuple(GaugeNN.graphs_with_tasks(analysis_2021)) + zoo_population()
    return FleetSpec(graphs_with_tasks=pairs, num_users=NUM_USERS,
                     horizon_s=HORIZON_S, seed=0)


@pytest.fixture(scope="module")
def traces(fleet_spec):
    """The benchmark fleet's full trace set, simulated once."""
    return FleetSimulator(fleet_spec, max_workers=2).collect()


def ingest_rows_jsonl_reference(store, kind, rows) -> int:
    """Per-row JSONL ingestion: the program the batch-path gates measure.

    Each row is checked against the schema and copied into a per-event
    dict; every ``ROWS_PER_SEGMENT`` rows (and once at the end) the dicts
    seal through ``write_segment`` (JSONL row log + npz column cache) and
    the segment is committed to the manifest.  This is the row path as
    ``append_row`` ran it before row appends sealed columnar segments.
    Returns the rows committed.
    """
    pending: list[dict] = []
    committed = 0

    def seal() -> None:
        nonlocal committed
        meta = write_segment(store.segments_dir,
                             store._allocate_name(kind.name), kind, pending)
        store._commit([meta])
        committed += len(pending)
        pending.clear()

    for row in rows:
        if not kind.column_name_set <= row.keys():
            raise ValueError(f"row for kind {kind.name!r} is incomplete")
        pending.append(dict(row))
        if len(pending) >= ROWS_PER_SEGMENT:
            seal()
    if pending:
        seal()
    return committed


def _ingest_rows(traces, store_path) -> tuple[ResultStore, float, int]:
    """The pre-PR row path: per-event dicts sealed as JSONL segments."""
    store = ResultStore(store_path)
    kind = kind_for("fleet_events")
    start = time.perf_counter()
    rows = ingest_rows_jsonl_reference(
        store, kind, (row for trace in traces for row in trace.rows()))
    return store, time.perf_counter() - start, rows


def _ingest_append_row(traces, store_path) -> tuple[ResultStore, float, int]:
    """Today's row path: per-event dicts through ``append_row``."""
    store = ResultStore(store_path)
    kind = kind_for("fleet_events")
    start = time.perf_counter()
    with store.writer(rows_per_segment=ROWS_PER_SEGMENT) as writer:
        for trace in traces:
            for row in trace.rows():
                writer.append_row(kind, row)
    return store, time.perf_counter() - start, writer.rows_committed


def _ingest_batches(traces, store_path) -> tuple[ResultStore, float, int]:
    """The batch-native path: column arrays through ``append_batch``."""
    store = ResultStore(store_path)
    kind = kind_for("fleet_events")
    start = time.perf_counter()
    with store.writer(rows_per_segment=ROWS_PER_SEGMENT) as writer:
        for trace in traces:
            writer.append_batch(kind, trace.column_batch())
    return store, time.perf_counter() - start, writer.rows_committed


@pytest.fixture(scope="module")
def row_store(traces, tmp_path_factory):
    """Pure-JSONL reference store (also the row-path timing measurement)."""
    path = tmp_path_factory.mktemp("bench_ingest") / "rows.store"
    store, seconds, rows = _ingest_rows(traces, path)
    RESULTS["row_ingest"] = {
        "rows": rows,
        "segments": len(store.segments),
        "seconds": seconds,
        "rows_per_second": rows / seconds,
    }
    return store


@pytest.fixture(scope="module")
def append_row_store(traces, tmp_path_factory):
    """The same events through ``append_row`` (columnar seals; ungated)."""
    path = tmp_path_factory.mktemp("bench_ingest") / "append_row.store"
    store, seconds, rows = _ingest_append_row(traces, path)
    RESULTS["append_row_ingest"] = {
        "rows": rows,
        "segments": len(store.segments),
        "seconds": seconds,
        "rows_per_second": rows / seconds,
    }
    return store


@pytest.fixture(scope="module")
def columnar_store(traces, tmp_path_factory):
    """Columnar store of the same events (the batch-path measurement)."""
    path = tmp_path_factory.mktemp("bench_ingest") / "columnar.store"
    store, seconds, rows = _ingest_batches(traces, path)
    RESULTS["columnar_ingest"] = {
        "rows": rows,
        "segments": len(store.segments),
        "seconds": seconds,
        "rows_per_second": rows / seconds,
    }
    return store


def _all_columns(store) -> dict[str, np.ndarray]:
    """Every fleet_events column of a store, concatenated in scan order."""
    return store.query("fleet_events").arrays()


def test_bench_columnar_vs_row_ingest(traces, row_store, columnar_store,
                                      append_row_store):
    """Acceptance: batch ingestion >= 10x row ingestion, bit-identical."""
    total = sum(t.num_events for t in traces)
    assert total >= 100_000, "benchmark fleet too small to be meaningful"
    assert RESULTS["row_ingest"]["rows"] == total
    assert RESULTS["columnar_ingest"]["rows"] == total
    assert row_store.verify_integrity() == len(row_store.segments)
    assert columnar_store.verify_integrity() == len(columnar_store.segments)
    assert {m.format for m in row_store.segments} == {"jsonl"}
    assert {m.format for m in columnar_store.segments} == {"columnar"}
    assert RESULTS["append_row_ingest"]["rows"] == total
    assert {m.format for m in append_row_store.segments} == {"columnar"}

    rows_arrays = _all_columns(row_store)
    col_arrays = _all_columns(columnar_store)
    append_row_arrays = _all_columns(append_row_store)
    for name, array in rows_arrays.items():
        assert np.array_equal(array, col_arrays[name]), \
            f"column {name} differs between formats"
        assert array.dtype == col_arrays[name].dtype
        assert np.array_equal(array, append_row_arrays[name]), \
            f"column {name} differs between row paths"
        assert array.dtype == append_row_arrays[name].dtype

    speedup = RESULTS["row_ingest"]["seconds"] \
        / RESULTS["columnar_ingest"]["seconds"]
    RESULTS["store_layer"] = {
        "rows": total,
        "speedup": speedup,
        "bit_identical_columns": True,
    }
    assert_speedup(speedup, MIN_COLUMNAR_SPEEDUP, "columnar store ingest")


def test_bench_fleet_end_to_end(fleet_spec, traces, tmp_path_factory):
    """Acceptance: run_to_store (simulate + batch-ingest) >= 5x the pre-PR loop."""
    base = tmp_path_factory.mktemp("bench_ingest_e2e")
    total = sum(t.num_events for t in traces)

    # Pre-PR end-to-end: simulate and seal per-event dicts as JSONL.
    legacy_store = ResultStore(base / "legacy.store")
    kind = kind_for("fleet_events")
    start = time.perf_counter()
    simulator = FleetSimulator(fleet_spec, max_workers=2)
    legacy_rows = ingest_rows_jsonl_reference(
        legacy_store, kind,
        (row for trace in simulator.iter_traces() for row in trace.rows()))
    legacy_seconds = time.perf_counter() - start
    assert legacy_rows == total

    start = time.perf_counter()
    rows = FleetSimulator(fleet_spec, max_workers=2).run_to_store(
        base / "columnar.store", rows_per_segment=ROWS_PER_SEGMENT)
    columnar_seconds = time.perf_counter() - start
    assert rows == total

    speedup = legacy_seconds / columnar_seconds
    RESULTS["end_to_end"] = {
        "events": total,
        "legacy_seconds": legacy_seconds,
        "legacy_events_per_second": total / legacy_seconds,
        "columnar_seconds": columnar_seconds,
        "columnar_events_per_second": total / columnar_seconds,
        "speedup": speedup,
    }
    assert_speedup(speedup, MIN_END_TO_END_SPEEDUP, "fleet run_to_store")


def test_bench_block_vs_per_user_ingest(tmp_path_factory):
    """Acceptance: block run_to_store >= 2x the per-user path, same bytes.

    The per-user side runs today's ``simulate_user`` (a block of one), not
    the per-user evaluator block evaluation replaced.
    """
    spec = ambient_spec(BLOCK_GATE_USERS, seed=0)
    base = tmp_path_factory.mktemp("bench_ingest_block")
    kind = kind_for("fleet_events")

    def per_user(path) -> int:
        simulator = FleetSimulator(spec, max_workers=1)
        with ResultStore(path).writer(
                rows_per_segment=ROWS_PER_SEGMENT) as writer:
            for user_id in range(spec.num_users):
                writer.append_batch(
                    kind, simulator.simulate_user(user_id).column_batch())
        return writer.rows_committed

    def block(path) -> int:
        return FleetSimulator(spec, max_workers=1).run_to_store(
            path, rows_per_segment=ROWS_PER_SEGMENT)

    seconds = {"per_user": [], "block": []}
    rows = {}
    for repeat in range(BLOCK_GATE_REPEATS):
        for name, run in (("per_user", per_user), ("block", block)):
            path = base / f"{name}-{repeat}.store"
            start = time.perf_counter()
            rows[name] = run(path)
            seconds[name].append(time.perf_counter() - start)
    assert rows["block"] == rows["per_user"] > 0

    def segment_shas(name):
        store = ResultStore(base / f"{name}-0.store")
        return [meta.sha256 for meta in store.segments]

    assert segment_shas("block") == segment_shas("per_user"), \
        "block ingest wrote different segments than the per-user path"

    best = {name: min(values) for name, values in seconds.items()}
    speedup = best["per_user"] / best["block"]
    RESULTS["block_ingest"] = {
        "users": spec.num_users,
        "events": rows["block"],
        "per_user_seconds": best["per_user"],
        "block_seconds": best["block"],
        "per_user_us_per_user": best["per_user"] / spec.num_users * 1e6,
        "block_us_per_user": best["block"] / spec.num_users * 1e6,
        "speedup": speedup,
        "per_user_reference": "simulate_user (a block of one) + one "
                              "column_batch append per trace",
        "byte_identical_segments": True,
    }
    assert_speedup(speedup, MIN_BLOCK_SPEEDUP, "block run_to_store")


def test_bench_materialize_block_vs_reference():
    """Acceptance: block materialisation >= 1.4x the per-user reference,
    every user and plan identical."""
    spec = ambient_spec(MATERIALIZE_GATE_USERS, seed=0)
    ids = range(spec.num_users)

    def per_user() -> list:
        return [materialize_reference(spec, user_id) for user_id in ids]

    def block() -> list:
        pairs = []
        for first in range(0, spec.num_users, BLOCK_USERS):
            pairs += spec.materialize_block(ids[first:first + BLOCK_USERS])
        return pairs

    def columns() -> list:
        # What the simulator's store path runs: no per-user views.
        return [spec.materialize_columns(ids[first:first + BLOCK_USERS])
                for first in range(0, spec.num_users, BLOCK_USERS)]

    # Interleaved best-of: host drift hits every side alike.
    seconds = {"per_user": [], "block": [], "columns": []}
    plans = {}
    for _ in range(MATERIALIZE_GATE_REPEATS):
        for name, run in (("per_user", per_user), ("block", block),
                          ("columns", columns)):
            start = time.perf_counter()
            plans[name] = run()
            seconds[name].append(time.perf_counter() - start)

    for (user, plan), (ref_user, ref_plan) in zip(plans["block"],
                                                  plans["per_user"],
                                                  strict=True):
        assert user == ref_user
        assert plan.start_battery_fraction == ref_plan.start_battery_fraction
        for name in ("times", "noise", "rtt_ms"):
            assert getattr(plan, name).tobytes() \
                == getattr(ref_plan, name).tobytes(), name

    best = {name: min(values) for name, values in seconds.items()}
    speedup = best["per_user"] / best["block"]
    RESULTS["materialize_block"] = {
        "users": spec.num_users,
        "events": sum(plan.num_events for _, plan in plans["block"]),
        "per_user_seconds": best["per_user"],
        "block_seconds": best["block"],
        "per_user_us_per_user": best["per_user"] / spec.num_users * 1e6,
        "block_us_per_user": best["block"] / spec.num_users * 1e6,
        "columns_us_per_user": best["columns"] / spec.num_users * 1e6,
        "speedup": speedup,
        "per_user_reference": "materialize_reference, one user at a time",
        "identical_plans": True,
    }
    assert_speedup(speedup, MIN_MATERIALIZE_SPEEDUP, "materialize_block")


def test_bench_mixed_store_identity(fleet_spec, traces, row_store,
                                    tmp_path_factory):
    """Acceptance: mixed v2+v3 stores query bit-identically to pure JSONL,
    for any worker count or chunk size, before and after compaction."""
    base = tmp_path_factory.mktemp("bench_ingest_mixed")
    kind = kind_for("fleet_events")

    # Mixed store: alternate per-row JSONL and batch ingestion per user, so
    # JSONL and columnar segments interleave within one kind.
    mixed = ResultStore(base / "mixed.store")
    for trace in traces:
        if trace.user.user_id % 2:
            ingest_rows_jsonl_reference(mixed, kind, trace.rows())
        else:
            with mixed.writer(rows_per_segment=ROWS_PER_SEGMENT) as writer:
                writer.append_batch(kind, trace.column_batch())
    formats = {m.format for m in mixed.segments}
    assert formats == {"jsonl", "columnar"}, "store is not actually mixed"

    def report_tables(store):
        return (
            tail_latency_table(store, group_by=("device_name", "scenario")),
            battery_drain_ecdf(store),
            offload_summary(store),
            (store.query("fleet_events")
             .group_by("scenario", "target")
             .agg(n=("latency_ms", "count"),
                  mean_ms=("latency_ms", "mean"),
                  p999=("latency_ms", "p999"),
                  energy=("energy_mj", "sum"))
             .aggregate()),
        )

    reference_tables = report_tables(row_store)
    reference_arrays = _all_columns(row_store)

    def assert_identical(store, label):
        assert report_tables(store) == reference_tables, \
            f"{label}: report tables differ from the pure-JSONL store"
        arrays = _all_columns(store)
        for name, array in reference_arrays.items():
            assert np.array_equal(array, arrays[name]), \
                f"{label}: column {name} differs"

    assert_identical(mixed, "mixed")

    # Fan-out variants of the production path: every (workers, chunk)
    # combination must land the identical store.
    variants = {
        "threads_4": dict(max_workers=4),
        "threads_3_chunked": dict(max_workers=3, chunk_size=7),
    }
    for name, kwargs in variants.items():
        store_path = base / f"{name}.store"
        FleetSimulator(fleet_spec, **kwargs).run_to_store(
            store_path, rows_per_segment=ROWS_PER_SEGMENT)
        assert_identical(ResultStore(store_path), name)

    # Compaction merges the mixed segments (converging to columnar) without
    # perturbing a single value.
    stats = compact_store(mixed)
    assert "fleet_events" in stats.kinds_compacted
    assert {m.format for m in mixed.segments_for("fleet_events")} \
        == {"columnar"}
    assert_identical(ResultStore(mixed.root), "compacted mixed")

    RESULTS["mixed_identity"] = {
        "events": int(reference_arrays["latency_ms"].size),
        "bit_identical": True,
        "variants_checked": sorted(variants) + ["mixed", "compacted"],
    }


def test_write_ingest_baseline():
    """Persist the measured baseline to BENCH_ingest.json and a results table."""
    if not RESULTS:  # pragma: no cover - only when run in isolation
        pytest.skip("timing tests of this module did not run")
    payload = {
        "benchmark": "ingest_perf_baseline",
        "scale": BENCH_SCALE,
        "min_required_columnar_speedup": MIN_COLUMNAR_SPEEDUP,
        "min_required_end_to_end_speedup": MIN_END_TO_END_SPEEDUP,
        "min_required_block_speedup": MIN_BLOCK_SPEEDUP,
        "min_required_materialize_speedup": MIN_MATERIALIZE_SPEEDUP,
        **RESULTS,
    }
    write_baseline(BASELINE_PATH, payload)

    lines = [f"Columnar ingest perf baseline (scale {BENCH_SCALE}):"]
    for name, entry in RESULTS.items():
        fields = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                           else f"{key}={value}" for key, value in entry.items())
        lines.append(f"{name}: {fields}")
    write_result("bench_ingest_baseline", lines)

    assert RESULTS["store_layer"]["bit_identical_columns"]
    assert RESULTS["mixed_identity"]["bit_identical"]
    assert_speedup(RESULTS["store_layer"]["speedup"],
                   MIN_COLUMNAR_SPEEDUP, "columnar store ingest")
    assert_speedup(RESULTS["end_to_end"]["speedup"],
                   MIN_END_TO_END_SPEEDUP, "fleet run_to_store")
    assert RESULTS["block_ingest"]["byte_identical_segments"]
    assert_speedup(RESULTS["block_ingest"]["speedup"],
                   MIN_BLOCK_SPEEDUP, "block run_to_store")
    assert RESULTS["materialize_block"]["identical_plans"]
    assert_speedup(RESULTS["materialize_block"]["speedup"],
                   MIN_MATERIALIZE_SPEEDUP, "materialize_block")
