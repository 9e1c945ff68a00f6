"""Perf baseline for out-of-core sharded campaigns (the 10M-user day).

The campaign coordinator (:mod:`repro.campaign`) shards a population
into contiguous user ranges, simulates each shard into its own store,
and merges by **segment adoption** — hard links plus one manifest
commit — instead of rewriting rows.  The read side maps v3 columnar
payloads directly (``mmap`` + per-column ``frombuffer`` views) instead
of materialising per-column ``.npy`` mirrors.  This module measures and
enforces:

* **adoption merge speedup** — merging the shard stores by segment
  adoption must beat the row-rewrite alternative (read every shard's
  arrays, re-ingest through ``append_batch``, re-checksum every byte)
  by >= 5x, with bit-identical query results.  The gap is algorithmic:
  adoption is O(segments), re-ingestion O(rows).
* **zero-copy read speedup** — cold reads of columnar segments through
  the mmap path must beat the sidecar-materialisation baseline
  (decode all columns, write ``.npy`` mirrors, read them back) by
  >= 5x, bit-identically.
* **sharded end-to-end wall time** — recorded, *not* gated: on a
  single-core box (this repo's CI floor) sharding cannot beat one
  process on wall clock, so gating it would measure the machine, not
  the code.  The per-shard process isolation it buys — flat memory in
  population size — is what makes the 10M-user record below possible
  at all.

The ``ten_million_user_day`` section of ``BENCH_campaign.json`` records
the one-box 10M-user Ambient-workload day (produced by a full-scale
``repro campaign run``); benchmark runs at smaller scales carry the
committed record forward rather than overwriting it.

Results land in ``BENCH_campaign.json`` at the repo root, next to the
other ``BENCH_*.json`` baselines.
"""

from __future__ import annotations

import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (BENCH_SCALE, assert_speedup,
                      write_baseline, write_result)

from repro.campaign import ambient_spec, run_campaign
from repro.fleet import FleetSimulator
from repro.store import ResultStore, kind_for, merge_stores
from repro.store.segment import atomic_write_bytes, load_columns

#: Where the machine-readable baseline lands (repo root, BENCH_* trajectory).
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

#: Acceptance: adoption merge vs row-rewrite re-ingestion merge.
MIN_MERGE_SPEEDUP = 5.0

#: Acceptance: zero-copy mmap columnar reads vs sidecar materialisation.
MIN_READ_SPEEDUP = 5.0

#: Benchmark population (Ambient workload, ~4 events/user/day), scaled like
#: every other baseline; REPRO_BENCH_CAMPAIGN_USERS overrides the base size.
CAMPAIGN_USERS = max(
    int(int(os.environ.get("REPRO_BENCH_CAMPAIGN_USERS", "40000"))
        * BENCH_SCALE), 200)
SHARDS = 8
HORIZON_S = 86400.0
BIN_S = 900.0

#: Module-level accumulator; the final test writes it out as JSON.
RESULTS: dict = {}


@pytest.fixture(scope="module")
def spec():
    return ambient_spec(CAMPAIGN_USERS, seed=0, horizon_s=HORIZON_S)


@pytest.fixture(scope="module")
def campaign(spec, tmp_path_factory):
    """The sharded campaign run (also the sharded timing measurement)."""
    root = tmp_path_factory.mktemp("bench_campaign") / "sharded"
    started = time.perf_counter()
    result = run_campaign(spec, root, shards=SHARDS, bin_seconds=BIN_S)
    wall = time.perf_counter() - started
    RESULTS["sharded_campaign"] = {
        "users": result.users,
        "shards": SHARDS,
        "events": result.events,
        "offloaded": result.offloaded,
        "simulate_seconds": result.simulate_seconds,
        "merge_seconds": result.merge_seconds,
        "wall_seconds": wall,
        "events_per_second": result.events / wall,
    }
    return result


@pytest.fixture(scope="module")
def single_store(spec, tmp_path_factory):
    """Unsharded single-process reference (the ungated wall-time baseline)."""
    path = tmp_path_factory.mktemp("bench_campaign") / "single.store"
    started = time.perf_counter()
    rows = FleetSimulator(spec, max_workers=1).run_to_store(path)
    seconds = time.perf_counter() - started
    RESULTS["single_process"] = {
        "users": spec.num_users,
        "events": rows,
        "seconds": seconds,
        "events_per_second": rows / seconds,
    }
    return ResultStore(path)


def test_bench_sharded_bit_identical(campaign, single_store):
    """Acceptance: the sharded merged store equals the unsharded run exactly.

    The wall-time ratio (single-process seconds over sharded seconds) is
    recorded ungated (see module docstring).  At this benchmark's size
    shard start-up and the merge outweigh the parallel simulation: the
    committed ``BENCH_campaign.json`` reads 0.51 on a 2-vCPU host, the
    sharded run taking about twice the single process's wall time.
    """
    merged = campaign.store
    assert merged.verify_integrity() == len(merged.segments)
    reference = single_store.query("fleet_events").arrays()
    sharded = merged.query("fleet_events").arrays()
    for name, array in reference.items():
        assert np.array_equal(sharded[name], array), \
            f"column {name} differs between sharded and unsharded runs"
        assert sharded[name].dtype == array.dtype
    RESULTS["sharded_vs_single"] = {
        "events": int(reference["user_id"].size),
        "bit_identical_columns": True,
        "wall_ratio_ungated": RESULTS["single_process"]["seconds"]
        / RESULTS["sharded_campaign"]["wall_seconds"],
    }


def _shard_stores(campaign):
    root = Path(campaign.store_root).parent
    stores = [ResultStore(path) for path in sorted(root.glob("shard-*.store"))]
    assert len(stores) == SHARDS
    return stores


def test_bench_adoption_merge_vs_reingest(campaign, tmp_path_factory):
    """Acceptance: segment-adoption merge >= 5x re-ingestion, bit-identical."""
    base = tmp_path_factory.mktemp("bench_campaign_merge")
    shard_stores = _shard_stores(campaign)
    total_rows = sum(store.num_rows("fleet_events") for store in shard_stores)

    # Row-rewrite baseline: read every shard's columns, push them back
    # through append_batch (decode + re-pack + re-checksum every byte).
    reingested = ResultStore(base / "reingest.store")
    kind = kind_for("fleet_events")
    started = time.perf_counter()
    with reingested.writer(rows_per_segment=65536) as writer:
        for store in shard_stores:
            for meta in store.segments_for("fleet_events"):
                writer.append_batch(kind, dict(store.columns_for(meta)))
    reingest_seconds = time.perf_counter() - started
    assert writer.rows_committed == total_rows

    # The adoption path: hard links + one manifest commit.
    adopted = ResultStore(base / "adopt.store")
    started = time.perf_counter()
    stats = merge_stores(adopted, shard_stores, kinds=("fleet_events",))
    adopt_seconds = time.perf_counter() - started
    assert stats.rows_adopted == total_rows
    assert stats.files_copied == 0, "same filesystem: everything hard-links"

    left = adopted.query("fleet_events").arrays()
    right = reingested.query("fleet_events").arrays()
    for name, array in left.items():
        assert np.array_equal(array, right[name]), \
            f"column {name} differs between merge strategies"

    speedup = reingest_seconds / adopt_seconds
    RESULTS["merge"] = {
        "rows": total_rows,
        "segments_adopted": stats.segments_adopted,
        "files_linked": stats.files_linked,
        "reingest_seconds": reingest_seconds,
        "adopt_seconds": adopt_seconds,
        "speedup": speedup,
        "bit_identical_columns": True,
    }
    assert_speedup(speedup, MIN_MERGE_SPEEDUP, "adoption merge")


def _materialise_sidecar(directory, meta, kind, sidecar):
    """Columns as read-only memmaps of a per-column ``.npy`` mirror.

    The sidecar-materialisation baseline: decode every column resident,
    write each to its own ``.npy`` file (tmp-file + fsync + rename) behind
    a checksum marker, then serve ``np.load(mmap_mode="r")`` views of the
    mirror — the only way to memory-map a segment whose payload cannot be
    mapped in place.
    """
    columns = load_columns(directory, meta, kind)
    sidecar.mkdir(parents=True, exist_ok=True)
    for name, array in columns.items():
        buffer = io.BytesIO()
        np.save(buffer, array)
        atomic_write_bytes(sidecar / f"{name}.npy", buffer.getvalue())
    atomic_write_bytes(sidecar / "LOG_SHA256",
                       (meta.sha256 + "\n").encode("utf-8"))
    mapped = {column.name: np.load(sidecar / f"{column.name}.npy",
                                   mmap_mode="r")
              for column in kind.columns}
    assert all(array.shape == (meta.rows,) for array in mapped.values())
    return mapped


def test_bench_zero_copy_reads(campaign, tmp_path):
    """Acceptance: mmap columnar reads >= 5x sidecar materialisation, cold."""
    merged = campaign.store
    metas = merged.segments_for("fleet_events")
    kind = kind_for("fleet_events")

    def touch(columns):
        total = 0
        for column in kind.columns:
            array = np.asarray(columns[column.name])
            total += array.size
        return total

    def materialise(meta, round_):
        return _materialise_sidecar(merged.segments_dir, meta, kind,
                                    tmp_path / f"{round_}" / meta.name)

    # Baseline: decode all columns, mirror them to .npy sidecar files,
    # serve memmaps of the mirror.  Cold every round (fresh mirror dirs).
    sidecar_seconds = []
    for round_ in range(3):
        started = time.perf_counter()
        rows = sum(touch(materialise(meta, round_)) for meta in metas)
        sidecar_seconds.append(time.perf_counter() - started)

    # Zero-copy: map the .colseg payload, expose frombuffer views.
    mmap_seconds = []
    for _ in range(3):
        store = ResultStore(merged.root, mmap=True)  # cold: no column cache
        started = time.perf_counter()
        mapped_rows = sum(touch(store.columns_for(meta)) for meta in metas)
        mmap_seconds.append(time.perf_counter() - started)
    assert mapped_rows == rows

    # Identity: both paths serve the same values.
    mapped_store = ResultStore(merged.root, mmap=True)
    for meta in metas[:2]:
        mirrored = materialise(meta, "identity")
        mapped = mapped_store.columns_for(meta)
        for column in kind.columns:
            assert np.array_equal(np.asarray(mapped[column.name]),
                                  np.asarray(mirrored[column.name]))

    speedup = min(sidecar_seconds) / min(mmap_seconds)
    RESULTS["zero_copy_reads"] = {
        "segments": len(metas),
        "rows": int(rows / len(kind.columns)),
        "sidecar_seconds": min(sidecar_seconds),
        "mmap_seconds": min(mmap_seconds),
        "speedup": speedup,
        "bit_identical_columns": True,
    }
    assert_speedup(speedup, MIN_READ_SPEEDUP, "zero-copy columnar reads")


def test_bench_compressed_campaign_round_trip(spec, campaign,
                                              tmp_path_factory):
    """Compressed campaigns stay bit-identical; the size ratio is recorded."""
    root = tmp_path_factory.mktemp("bench_campaign_z") / "compressed"
    result = run_campaign(spec, root, shards=2, bin_seconds=BIN_S,
                          compress=True, use_processes=False)

    def store_bytes(store):
        return sum((store.segments_dir / meta.data_filename).stat().st_size
                   for meta in store.segments)

    reference = campaign.store.query("fleet_events").arrays()
    compressed = result.store.query("fleet_events").arrays()
    for name, array in reference.items():
        assert np.array_equal(compressed[name], array), name
    plain, packed = store_bytes(campaign.store), store_bytes(result.store)
    RESULTS["compression"] = {
        "plain_bytes": plain,
        "compressed_bytes": packed,
        "ratio": packed / plain,
    }
    assert packed <= plain


def test_write_campaign_baseline():
    """Persist the baseline, carrying forward the committed 10M-user record."""
    if not RESULTS:  # pragma: no cover - only when run in isolation
        pytest.skip("timing tests of this module did not run")
    payload = {
        "benchmark": "campaign_perf_baseline",
        "scale": BENCH_SCALE,
        "users": CAMPAIGN_USERS,
        "shards": SHARDS,
        "min_required_merge_speedup": MIN_MERGE_SPEEDUP,
        "min_required_read_speedup": MIN_READ_SPEEDUP,
        **RESULTS,
    }
    if BASELINE_PATH.exists():
        previous = json.loads(BASELINE_PATH.read_text())
        record = previous.get("ten_million_user_day")
        # The full-scale record outranks anything a scaled-down run saw.
        if record and record.get("users", 0) > CAMPAIGN_USERS:
            payload["ten_million_user_day"] = record
    write_baseline(BASELINE_PATH, payload)

    lines = [f"Campaign perf baseline (scale {BENCH_SCALE}, "
             f"{CAMPAIGN_USERS} users, {SHARDS} shards):"]
    for name, entry in RESULTS.items():
        fields = ", ".join(f"{key}={value:.4g}" if isinstance(value, float)
                           else f"{key}={value}"
                           for key, value in entry.items())
        lines.append(f"{name}: {fields}")
    write_result("bench_campaign_baseline", lines)

    assert RESULTS["sharded_vs_single"]["bit_identical_columns"]
    assert RESULTS["merge"]["bit_identical_columns"]
    assert RESULTS["zero_copy_reads"]["bit_identical_columns"]
    assert_speedup(RESULTS["merge"]["speedup"], MIN_MERGE_SPEEDUP,
                   "adoption merge")
    assert_speedup(RESULTS["zero_copy_reads"]["speedup"], MIN_READ_SPEEDUP,
                   "zero-copy columnar reads")
