"""Query engine v2 benchmark: kernels, coded predicates, served identity.

The PR 10 acceptance measurements, recorded in ``BENCH_query.json``:

(a) **Grouped-aggregation kernels** — the vectorised
    :class:`repro.store.kernels.GroupedReducer` against the per-group
    reference loop over the same gathered arrays, gated at >= 5x
    (:func:`conftest.assert_speedup`, so ``REPRO_BENCH_NO_GATE=1``
    records without failing); the end-to-end ``aggregate()`` speedup is
    recorded alongside.  Correctness gate (always on): ``engine="kernel"``
    equals ``engine="reference"`` exactly, every reduction.
(b) **Dictionary-coded predicates** — evaluating a low-cardinality
    string filter against the vocabulary + integer codes vs decoding the
    unicode column and masking it, over the same columnar payloads,
    gated at >= 5x.  Correctness gate: identical match masks.
(c) **Served byte-identity** — ``/v1/query`` responses (including an
    ``in`` textual predicate) byte-equal to the offline engine at the
    same generation, the CLI grammar on both sides.
"""

from __future__ import annotations

import json
import urllib.parse
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_SCALE, assert_speedup, best_of, write_baseline
from repro.campaign import synthetic_fleet_batch
from repro.serve import QuerySpec, ServeApp, ServerThread
from repro.store import ResultStore, columnar, kernels
from repro.store.query import Predicate
from repro.store.schema import kind_for

#: Total rows in the kernel-bench store, scaled with the snapshot size.
ROWS = max(int(400_000 * BENCH_SCALE), 12_000)
ALL_FNS = ("count", "sum", "mean", "std", "median", "min", "max",
           "p50", "p90", "p99", "p999")


@pytest.fixture(scope="module")
def query_store(tmp_path_factory) -> ResultStore:
    """Uncompressed columnar store: 6 segments, ``ROWS`` fleet events."""
    root = tmp_path_factory.mktemp("bench_query") / "query.store"
    store = ResultStore(root)
    with store.writer(rows_per_segment=max(ROWS // 6, 1000)) as writer:
        for index in range(6):
            writer.append_batch("fleet_events",
                                synthetic_fleet_batch(index, ROWS // 6))
    store.refresh()
    return store


@pytest.fixture(scope="module")
def coded_store(tmp_path_factory) -> ResultStore:
    """Two large columnar segments (decode cost dominates parse cost)."""
    root = tmp_path_factory.mktemp("bench_query") / "coded.store"
    store = ResultStore(root)
    with store.writer(rows_per_segment=max(ROWS // 2, 2000)) as writer:
        for index in range(2):
            writer.append_batch("fleet_events",
                                synthetic_fleet_batch(10 + index, ROWS // 2))
    store.refresh()
    return store


@pytest.fixture(scope="module")
def payload() -> dict:
    return {"benchmark": "query", "scale": BENCH_SCALE, "rows": ROWS}


def _grouped(store, engine="kernel"):
    return (store.query("fleet_events")
            .group_by("device_name", "backend")
            .agg(**{f"lat_{fn}": ("latency_ms", fn) for fn in ALL_FNS},
                 bytes_sum=("cloud_bytes", "sum"),
                 bytes_mean=("cloud_bytes", "mean"),
                 model_min=("model_name", "min"))
            .aggregate(engine=engine))


class TestQueryBench:
    def test_a_grouped_kernels(self, query_store, payload):
        # Correctness gate first: the kernels ARE the reference, bit for bit.
        reference_rows = _grouped(query_store, engine="reference")
        kernel_rows = _grouped(query_store, engine="kernel")
        assert kernel_rows == reference_rows and len(kernel_rows) >= 8

        # Isolated stage timing over the same gathered arrays: exactly the
        # work the kernels replaced (scan/gather cost is identical on both
        # engines and excluded).
        arrays = query_store.query("fleet_events").arrays(
            "device_name", "backend", "latency_ms")
        key = np.zeros(arrays["latency_ms"].size, dtype=np.int64)
        for name in ("device_name", "backend"):
            uniques, inverse = np.unique(arrays[name], return_inverse=True)
            key = key * uniques.size + inverse
        group_keys, key_inverse = np.unique(key, return_inverse=True)
        values = arrays["latency_ms"]

        def run_kernel():
            reducer = kernels.GroupedReducer(key_inverse, group_keys.size)
            return [reducer.reduce("latency_ms", values, fn)
                    for fn in ALL_FNS]

        def run_reference():
            order = np.argsort(key_inverse, kind="stable")
            bounds = np.searchsorted(key_inverse[order],
                                     np.arange(group_keys.size))
            bounds = np.append(bounds, key_inverse.size)
            columns = [[] for _ in ALL_FNS]
            for index in range(group_keys.size):
                rows = values[order[bounds[index]:bounds[index + 1]]]
                for column, fn in zip(columns, ALL_FNS):
                    column.append(kernels.REFERENCE_REDUCERS[fn](rows))
            return columns

        assert run_kernel() == run_reference()
        _, kernel_s = best_of(5, run_kernel)
        _, reference_s = best_of(5, run_reference)
        speedup = reference_s / kernel_s

        _, end_kernel_s = best_of(3, _grouped, query_store, "kernel")
        _, end_reference_s = best_of(3, _grouped, query_store, "reference")
        payload["grouped_kernels"] = {
            "rows": int(values.size),
            "groups": int(group_keys.size),
            "reductions": len(ALL_FNS),
            "reference_s": reference_s,
            "kernel_s": kernel_s,
            "speedup": speedup,
            "end_to_end_reference_s": end_reference_s,
            "end_to_end_kernel_s": end_kernel_s,
            "end_to_end_speedup": end_reference_s / end_kernel_s,
        }
        assert_speedup(speedup, 5.0, "grouped-aggregation kernels")

    def test_b_dict_coded_predicates(self, coded_store, payload):
        kind = kind_for("fleet_events")
        metas = coded_store.segments_for("fleet_events")
        payloads = [
            ((coded_store.segments_dir / meta.data_filename).read_bytes(),
             meta.rows)
            for meta in metas
        ]
        vocabulary = np.unique(
            coded_store.columns_for(metas[0])["model_name"])
        predicate = Predicate("model_name", "in",
                              tuple(vocabulary[:2].tolist()))

        def decoded_eval():
            matched = 0
            for blob, rows in payloads:
                columns = columnar.open_columns(blob, kind,
                                                expected_rows=rows)
                matched += int(predicate.mask(columns["model_name"]).sum())
            return matched

        def coded_eval():
            matched = 0
            for blob, rows in payloads:
                columns = columnar.open_columns(blob, kind,
                                                expected_rows=rows)
                view = columns.coded("model_name")
                matched += int(
                    predicate.mask(view.values)[view.codes].sum())
            return matched

        # Correctness gate: identical masks, and a real (non-trivial) match.
        assert decoded_eval() == coded_eval() > 0

        _, decoded_s = best_of(5, decoded_eval)
        _, coded_s = best_of(5, coded_eval)
        speedup = decoded_s / coded_s
        payload["dict_predicates"] = {
            "segments": len(payloads),
            "rows": int(sum(rows for _, rows in payloads)),
            "vocabulary": int(vocabulary.size),
            "decoded_s": decoded_s,
            "coded_s": coded_s,
            "speedup": speedup,
        }
        assert_speedup(speedup, 5.0, "dict-coded predicate evaluation")

    def test_d_served_byte_identity(self, query_store, payload):
        params = [("kind", "fleet_events"),
                  ("where", "target in device|cloud"),
                  ("where", "latency_ms<200"),
                  ("group_by", "device_name,backend"),
                  ("agg", "latency_ms:mean,p99"),
                  ("agg", "energy_mj:sum")]
        spec = QuerySpec.from_params(params)
        query_string = urllib.parse.urlencode(params)
        app = ServeApp(query_store.root, port=0, refresh_s=5.0)
        with ServerThread(app) as server:
            with urllib.request.urlopen(
                    f"{server.url}/v1/query?{query_string}",
                    timeout=30) as response:
                served = json.loads(response.read())
        snapshot = ResultStore(query_store.root).open_snapshot(
            generation=served["generation"])
        offline = snapshot.query(spec.kind)
        spec.apply(offline)
        assert json.dumps(served["rows"], sort_keys=True) \
            == json.dumps(offline.aggregate(), sort_keys=True)
        assert served["stats"]["rows_matched"] == offline.stats.rows_matched
        payload["served_identity"] = {
            "generation": served["generation"],
            "groups": len(served["rows"]),
            "rows_matched": served["stats"]["rows_matched"],
        }

    def test_write_baseline(self, payload):
        for section in ("grouped_kernels", "dict_predicates",
                        "served_identity"):
            assert section in payload, \
                f"missing {section} (earlier test failed?)"
        path = write_baseline(
            Path(__file__).resolve().parent.parent / "BENCH_query.json",
            payload)
        print(f"\nwrote {path}")
        print(f"grouped kernels: "
              f"{payload['grouped_kernels']['speedup']:.1f}x, "
              f"dict predicates: "
              f"{payload['dict_predicates']['speedup']:.1f}x")
