"""Serve-layer benchmark: live bit-identity, cache speedup, tail latency.

Three claims of the PR 9 tentpole, measured and recorded in
``BENCH_serve.json``:

(a) **Bit-identity under concurrent ingest** — report tables sampled over
    HTTP while a StoreWriter commits into the served directory replay
    bit-identically (JSON text equality) from a pinned
    ``open_snapshot(generation=...)`` afterwards.  Correctness gate:
    always enforced.
(b) **Cache speedup** — repeated-query throughput through the serve cache
    against the uncached path, gated at >= 5x
    (:func:`conftest.assert_speedup`, so ``REPRO_BENCH_NO_GATE=1``
    records without failing); plus, recorded, the re-query cost when the
    generation keeps advancing, where each commit extends the store's
    column view by its one new segment (asserted: no view rebuild).
(c) **Tail latency** — request latency percentiles with 8 concurrent
    keep-alive HTTP readers against the live server (recorded, with a
    generous sanity ceiling so a hung server fails loudly).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_SCALE, assert_speedup, timed, write_baseline
from repro.campaign import BackgroundIngest, ingest_fleet_batches
from repro.serve import (QueryService, QuerySpec, Router, ServeApp,
                         ServeCache, ServerThread, SnapshotManager,
                         report_payload)
from repro.store import ResultStore

#: Rows per committed batch, scaled with the bench snapshot size.
ROWS_PER_BATCH = max(int(20_000 * BENCH_SCALE), 500)
SEED_BATCHES = 6
ROWS_PER_SEGMENT = max(ROWS_PER_BATCH // 4, 128)

_BENCH_QUERY = ("/v1/query?kind=fleet_events&where=target=device"
                "&group_by=device_name,backend&agg=latency_ms:mean,p99"
                "&agg=energy_mj:sum")


@pytest.fixture(scope="module")
def serve_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_serve") / "serve.store"
    store = ingest_fleet_batches(root, SEED_BATCHES,
                                 rows_per_batch=ROWS_PER_BATCH,
                                 rows_per_segment=ROWS_PER_SEGMENT)
    return store


@pytest.fixture(scope="module")
def payload() -> dict:
    return {"benchmark": "serve", "scale": BENCH_SCALE,
            "rows_per_batch": ROWS_PER_BATCH}


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


class TestServeBench:
    def test_a_bit_identity_during_live_ingest(self, serve_store, payload,
                                               tmp_path):
        root = tmp_path / "live.store"
        ingest_fleet_batches(root, 1, rows_per_batch=ROWS_PER_BATCH,
                             rows_per_segment=ROWS_PER_SEGMENT)
        app = ServeApp(root, port=0, refresh_s=0.02)
        sampled = []
        with ServerThread(app) as server:
            ingest = BackgroundIngest(root, num_batches=6,
                                      rows_per_batch=ROWS_PER_BATCH,
                                      rows_per_segment=ROWS_PER_SEGMENT,
                                      interval_s=0.01)
            ingest.start()
            while ingest.is_alive():
                sampled.append(_get(server.url + "/v1/report/tail_latency"))
                sampled.append(_get(server.url + _BENCH_QUERY))
            ingest.finish()
            sampled.append(_get(server.url + "/v1/report/tail_latency"))

        # Offline replay: every sampled response must be byte-equal to the
        # pinned-generation recomputation, whatever generation it caught.
        store = ResultStore(root)
        spec = QuerySpec.from_params(
            [("kind", "fleet_events"), ("where", "target=device"),
             ("group_by", "device_name,backend"),
             ("agg", "latency_ms:mean,p99"), ("agg", "energy_mj:sum")])
        verified = 0
        generations = set()
        for response in sampled:
            snapshot = store.open_snapshot(generation=response["generation"])
            generations.add(response["generation"])
            if "table" in response:
                offline = report_payload(snapshot, "tail_latency")
                assert json.dumps(offline, sort_keys=True) == \
                    json.dumps(response, sort_keys=True)
            else:
                query = snapshot.query(spec.kind)
                spec.apply(query)
                assert json.dumps(query.aggregate(), sort_keys=True) == \
                    json.dumps(response["rows"], sort_keys=True)
            verified += 1
        assert verified == len(sampled) and verified >= 3
        payload["identity"] = {"sampled": verified,
                               "generations": sorted(generations)}

    def test_b_cache_speedup(self, serve_store, payload):
        spec = QuerySpec.from_params(
            [("kind", "fleet_events"), ("where", "target=device"),
             ("group_by", "device_name,backend"),
             ("agg", "latency_ms:mean,p99"), ("agg", "energy_mj:sum")])
        repeats = 40

        def run_repeats(service):
            for _ in range(repeats):
                service.query(spec)

        cold_manager = SnapshotManager(ResultStore(serve_store.root))
        cold = QueryService(cold_manager, cache=None)
        cold.query(spec)  # column caches warm for both paths
        _, cold_s = timed(run_repeats, cold)

        cache = ServeCache()
        hot_manager = SnapshotManager(ResultStore(serve_store.root),
                                      cache=cache)
        hot = QueryService(hot_manager, cache=cache)
        hot.query(spec)  # populate segment + result tiers
        _, hot_s = timed(run_repeats, hot)

        speedup = cold_s / hot_s
        stats = cache.stats()
        assert stats["result"]["hits"] >= repeats
        payload["throughput"] = {
            "repeats": repeats,
            "uncached_s": cold_s,
            "cached_s": hot_s,
            "speedup": speedup,
            "uncached_qps": repeats / cold_s,
            "cached_qps": repeats / hot_s,
        }
        assert_speedup(speedup, 5.0, "serve cached repeated-query")

        # Column views under generation churn: after every commit the
        # result tier is cold, so re-querying re-evaluates — and the
        # store's fleet_events view extends by the one new segment instead
        # of being rebuilt (a full build would count a miss).  Commits and
        # polls happen outside the timed region.
        def advance(offset: int) -> None:
            from repro.campaign import synthetic_fleet_batch

            writer_store = ResultStore(serve_store.root)
            with writer_store.writer(
                    rows_per_segment=ROWS_PER_SEGMENT) as writer:
                writer.append_batch(
                    "fleet_events",
                    synthetic_fleet_batch(100 + offset, ROWS_PER_BATCH // 4))
                writer.flush()
            hot_manager.poll()
            cold_manager.poll()

        churn = 4
        cached_churn_s = 0.0
        uncached_churn_s = 0.0
        for index in range(churn):
            before = cache.stats()["segment"]
            advance(index)
            last, hot_s_i = timed(hot.query, spec)
            _, cold_s_i = timed(cold.query, spec)
            cached_churn_s += hot_s_i
            uncached_churn_s += cold_s_i
            after = cache.stats()["segment"]
            assert after["misses"] == before["misses"], "view rebuilt"
            assert after["segments"] == before["segments"] + 1
            assert last["stats"]["segments_scanned"] == after["segments"]
            assert last["stats"]["segments_cached"] == 0
        payload["incremental"] = {
            "commits": churn,
            "cached_s": cached_churn_s,
            "uncached_s": uncached_churn_s,
            "speedup": uncached_churn_s / cached_churn_s,
        }

    def test_c_tail_latency_under_concurrency(self, serve_store, payload):
        readers = 8
        requests_each = 25
        app = ServeApp(serve_store.root, port=0, refresh_s=0.5)
        with ServerThread(app) as server:
            host, port = server.url.removeprefix("http://").split(":")
            _get(server.url + "/v1/report/tail_latency")  # warm the caches
            _get(server.url + _BENCH_QUERY)
            latencies_ms: list[float] = []
            lock = threading.Lock()
            errors: list[BaseException] = []

            def reader(index: int) -> None:
                try:
                    connection = http.client.HTTPConnection(
                        host, int(port), timeout=30)
                    mine = []
                    for request_index in range(requests_each):
                        target = (_BENCH_QUERY if (index + request_index) % 2
                                  else "/v1/report/tail_latency")
                        started = time.perf_counter()
                        connection.request("GET", target)
                        response = connection.getresponse()
                        body = response.read()
                        mine.append(
                            (time.perf_counter() - started) * 1e3)
                        assert response.status == 200 and body
                    connection.close()
                    with lock:
                        latencies_ms.extend(mine)
                except BaseException as exc:
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors, errors[:1]
        assert len(latencies_ms) == readers * requests_each
        percentiles = np.percentile(latencies_ms, (50, 90, 99))
        payload["latency"] = {
            "readers": readers,
            "requests": len(latencies_ms),
            "p50_ms": float(percentiles[0]),
            "p90_ms": float(percentiles[1]),
            "p99_ms": float(percentiles[2]),
            "max_ms": float(np.max(latencies_ms)),
        }
        # Sanity ceiling, not a perf gate: a wedged server fails loudly.
        assert percentiles[2] < 5_000.0

    def test_write_baseline(self, payload):
        for section in ("identity", "throughput", "incremental", "latency"):
            assert section in payload, f"missing {section} (earlier test failed?)"
        path = write_baseline(
            Path(__file__).resolve().parent.parent / "BENCH_serve.json",
            payload)
        print(f"\nwrote {path}")
        print(f"cached repeated-query speedup: "
              f"{payload['throughput']['speedup']:.1f}x, "
              f"incremental: {payload['incremental']['speedup']:.1f}x, "
              f"p99 @ {payload['latency']['readers']} readers: "
              f"{payload['latency']['p99_ms']:.1f} ms")
