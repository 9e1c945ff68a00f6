"""Perf baseline for the persistent results store (`repro.store`).

Measures, on a scale-``REPRO_BENCH_SCALE`` zoo sweep over the whole fleet:

* **ingest throughput** — streaming the sweep through
  :meth:`SweepRunner.run_to_store` versus the pure in-memory run, i.e. what
  durability costs per row;
* **query-vs-recompute** — producing the paper's figure tables (latency
  ECDFs, energy distributions) from the persisted store versus the naive
  baseline that recomputes the result list from scratch (re-runs the sweep)
  and rebuilds the tables, both on a cold open and on a repeated (warm,
  incremental) report;
* **predicate pushdown** — how many segments a selective query touches.

The acceptance gates mirror ``test_bench_sweep.py``: the tables served from
the store must equal the in-memory tables **bit-for-bit** for the same
seeds, and the repeated query path must beat naive recomputation by at least
``MIN_QUERY_SPEEDUP``x.  Results land in ``BENCH_store.json`` at the repo
root, next to ``BENCH_sweep.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from conftest import (BENCH_SCALE, assert_speedup,
                      write_baseline, write_result)

from repro.core import reports
from repro.devices.device import DEVICE_FLEET
from repro.runtime import Backend, SweepRunner, SweepSpec
from repro.store import ReportServer, ResultStore

#: Where the machine-readable baseline lands (repo root, BENCH_* trajectory).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"

#: Minimum repeated-report speedup of the store query path over naive
#: list recomputation (acceptance criterion of the store subsystem).
MIN_QUERY_SPEEDUP = 5.0

#: Segment size used for the campaign (several segments at bench scale, so
#: pushdown and incremental loading actually have shards to work with).
ROWS_PER_SEGMENT = 256

#: Module-level accumulator; the final test writes it out as JSON.
RESULTS: dict = {}


@pytest.fixture(scope="module")
def sweep_spec(unique_graphs):
    """The zoo-wide fleet sweep whose results get persisted."""
    return SweepSpec(
        devices=tuple(DEVICE_FLEET),
        graphs=tuple(unique_graphs),
        backends=(Backend.CPU, Backend.XNNPACK),
        num_inferences=3,
        seed=0,
    )


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_store") / "campaign.store"


@pytest.fixture(scope="module")
def in_memory_results(sweep_spec):
    return SweepRunner(sweep_spec, max_workers=1).run()


def _figure_tables(results_by_device):
    """The two benchmark-derived figure tables (Figs. 9 and 10)."""
    return (reports.latency_ecdf_by_device(results_by_device),
            reports.energy_distributions(results_by_device))


def test_bench_ingest_throughput(sweep_spec, store_path, in_memory_results):
    """Streaming the sweep into the store vs. the pure in-memory run."""
    run_start = time.perf_counter()
    SweepRunner(sweep_spec, max_workers=1).run(collect=False)
    run_seconds = time.perf_counter() - run_start

    ingest_start = time.perf_counter()
    rows = SweepRunner(sweep_spec, max_workers=1).run_to_store(
        store_path, rows_per_segment=ROWS_PER_SEGMENT)
    ingest_seconds = time.perf_counter() - ingest_start

    store = ResultStore(store_path)
    assert rows == len(in_memory_results)
    assert store.num_rows("executions") == rows
    assert store.verify_integrity() == len(store.segments)

    RESULTS["ingest"] = {
        "rows": rows,
        "segments": len(store.segments),
        "rows_per_segment": ROWS_PER_SEGMENT,
        "sweep_only_seconds": run_seconds,
        "sweep_plus_ingest_seconds": ingest_seconds,
        "ingest_overhead_seconds": max(0.0, ingest_seconds - run_seconds),
        "rows_per_second": rows / ingest_seconds,
    }


def test_bench_store_tables_bit_identical(store_path, in_memory_results):
    """Acceptance: store-served figure tables == in-memory tables, bit for bit."""
    by_device = SweepRunner.results_by_device(in_memory_results)
    memory_ecdf, memory_energy = _figure_tables(by_device)

    store = ResultStore(store_path)
    server = ReportServer(store)
    store_ecdf = server.latency_ecdf_by_device()
    store_energy = server.energy_distributions()

    assert store_ecdf == memory_ecdf  # Ecdf equality is exact tuple equality
    assert store_energy == memory_energy
    # The persisted rows themselves round-trip exactly as well.
    assert store.query("executions").objects() == in_memory_results
    RESULTS["fidelity"] = {
        "rows_round_trip_exact": True,
        "latency_ecdf_bit_identical": True,
        "energy_distributions_bit_identical": True,
    }


def test_bench_query_vs_recompute(benchmark, sweep_spec, store_path,
                                  in_memory_results):
    """Repeated figure-table generation: store query path vs. naive recompute."""
    def naive_tables():
        # Seed behaviour: results lived in a transient list, so every report
        # regeneration re-ran the sweep and rebuilt the tables from scratch.
        results = SweepRunner(sweep_spec, max_workers=1).run()
        return _figure_tables(SweepRunner.results_by_device(results))

    def cold_store_tables():
        server = ReportServer(ResultStore(store_path))
        return server.latency_ecdf_by_device(), server.energy_distributions()

    naive_start = time.perf_counter()
    naive = naive_tables()
    naive_seconds = time.perf_counter() - naive_start

    cold_start = time.perf_counter()
    cold = cold_store_tables()
    cold_seconds = time.perf_counter() - cold_start

    # Warm path: the handle has read its manifest, and the store caches each
    # segment's decoded columns on first read — the regime of repeated
    # report generation over a long campaign.
    server = ReportServer(ResultStore(store_path))
    server.refresh()
    warm_start = time.perf_counter()
    warm = server.latency_ecdf_by_device(), server.energy_distributions()
    warm_seconds = time.perf_counter() - warm_start

    assert cold == naive
    assert warm == naive
    cold_speedup = naive_seconds / cold_seconds
    warm_speedup = naive_seconds / warm_seconds
    assert_speedup(warm_speedup, MIN_QUERY_SPEEDUP, "repeated report")

    RESULTS["query_vs_recompute"] = {
        "rows": len(in_memory_results),
        "naive_recompute_seconds": naive_seconds,
        "store_cold_open_seconds": cold_seconds,
        "store_repeated_seconds": warm_seconds,
        "cold_speedup": cold_speedup,
        "repeated_speedup": warm_speedup,
        "tables_identical": True,
    }
    benchmark(cold_store_tables)


def test_bench_predicate_pushdown(store_path):
    """A selective query must prune most segments from its scan."""
    store = ResultStore(store_path)
    device = DEVICE_FLEET[0].name
    query = store.query("executions").where(device_name=device)
    count = query.count()
    assert count > 0
    RESULTS["pushdown"] = {
        "filter": f"device_name == {device}",
        "rows_matched": count,
        "segments_total": query.stats.segments_total,
        "segments_skipped": query.stats.segments_skipped,
        "segments_scanned": query.stats.segments_scanned,
    }


def test_write_store_baseline():
    """Persist the measured baseline to BENCH_store.json and a results table."""
    if not RESULTS:  # pragma: no cover - only when run in isolation
        pytest.skip("timing tests of this module did not run")
    payload = {
        "benchmark": "store_perf_baseline",
        "scale": BENCH_SCALE,
        "min_required_query_speedup": MIN_QUERY_SPEEDUP,
        **RESULTS,
    }
    write_baseline(BASELINE_PATH, payload)

    lines = [f"Store perf baseline (scale {BENCH_SCALE}):"]
    for name, entry in RESULTS.items():
        fields = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                           else f"{key}={value}" for key, value in entry.items())
        lines.append(f"{name}: {fields}")
    write_result("bench_store_baseline", lines)

    assert_speedup(RESULTS["query_vs_recompute"]["repeated_speedup"],
                   MIN_QUERY_SPEEDUP, "repeated report")
