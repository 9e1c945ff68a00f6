"""Query engine v2: bit-identity properties of the PR 10 rebuild.

Three contracts, each asserted as exact equality (``==`` on floats — the
engine promises bit-identity, not closeness):

* **parallel == sequential** — ``arrays()``/``count()``/``aggregate()``
  and the merged :class:`QueryStats` are identical for any worker count
  and either pool kind, on randomized mixed JSONL/columnar stores;
* **kernel == reference** — every grouped reduction through the
  vectorised kernels equals the per-group reference loop, including
  string min/max, integer sums, empty groups, all-pruned queries and
  single-row segments;
* **coded == decoded** — dictionary-coded predicate evaluation and late
  materialisation return exactly what masking decoded arrays returns
  (a JSONL twin of the same rows is the oracle).

Plus the satellite fixes: the ``in`` textual grammar, numeric ``!=``
pushdown, vectorised ``rows()``, and the cached-query hook.
"""

from __future__ import annotations

import numpy as np
import pytest
from legacy_segments import append_jsonl, jsonl_store

from repro.campaign import synthetic_fleet_batch
from repro.store import ResultStore
from repro.store import kernels
from repro.store.query import Predicate, QueryStats, parse_predicate
from repro.store.schema import kind_for

ALL_FNS = ("count", "sum", "mean", "std", "median", "min", "max",
           "p50", "p90", "p99", "p999")


def mixed_store(root, seed: int = 0) -> ResultStore:
    """A store mixing columnar batches, JSONL rows and a single-row segment."""
    store = ResultStore(root)
    kind = kind_for("fleet_events")
    with store.writer(rows_per_segment=64) as writer:
        writer.append_batch("fleet_events",
                            synthetic_fleet_batch(0, 150, seed=seed))
    # Legacy JSONL segments of the *same distribution*.
    append_jsonl(store, "fleet_events",
                 _rows_of(kind, synthetic_fleet_batch(1, 90, seed=seed)),
                 rows_per_segment=64)
    with store.writer(rows_per_segment=64) as writer:
        # A single-row columnar segment.
        writer.append_batch("fleet_events",
                            synthetic_fleet_batch(2, 1, seed=seed))
    store.refresh()
    assert [m.format for m in store.segments_for("fleet_events")] == \
        ["columnar"] * 3 + ["jsonl"] * 2 + ["columnar"]
    return store


def _rows_of(kind, batch) -> list[dict]:
    names = [c.name for c in kind.columns]
    length = len(batch[names[0]])
    return [{name: batch[name][i].item() if hasattr(batch[name][i], "item")
             else batch[name][i] for name in names} for i in range(length)]


def full_query(store, **parallel):
    query = store.query("fleet_events")
    if parallel:
        query.parallel(parallel.get("max_workers"),
                       use_processes=parallel.get("use_processes", False))
    return (query
            .where("latency_ms", "<", 120.0)
            .where("region", "in", ("eu-west", "us-east", "eu", "us"))
            .bin("time_s", 21600)
            .group_by("device_name", "target", "time_s_bin")
            .agg(**{f"lat_{fn}": ("latency_ms", fn) for fn in ALL_FNS},
                 **{f"bytes_{fn}": ("cloud_bytes", fn)
                    for fn in ("sum", "mean", "max")},
                 model_min=("model_name", "min"),
                 model_max=("model_name", "max")))


# --------------------------------------------------------------------------- #
# Kernel vs per-group reference
# --------------------------------------------------------------------------- #
class TestKernelVsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_reduction_bit_identical(self, tmp_path, seed):
        store = mixed_store(tmp_path / "s", seed)
        reference = full_query(store).aggregate(engine="reference")
        kernel = full_query(store).aggregate(engine="kernel")
        assert len(reference) > 1
        assert kernel == reference  # exact, floats included

    def test_single_group_and_single_row_groups(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        # user_id groups are tiny (many singletons): the quantile/median
        # kernels must handle count==1 segments.
        build = lambda: (store.query("fleet_events")
                         .group_by("user_id")
                         .agg(**{fn: ("latency_ms", fn) for fn in ALL_FNS}))
        assert build().aggregate() == build().aggregate(engine="reference")
        # One group in total.
        one = lambda: (store.query("fleet_events").group_by("scenario")
                       .agg(m=("latency_ms", "median"),
                            s=("latency_ms", "sum")))
        assert one().aggregate() == one().aggregate(engine="reference")

    def test_all_pruned_and_empty(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        impossible = lambda: (store.query("fleet_events")
                              .where("latency_ms", ">", 1e12)
                              .group_by("device_name")
                              .agg(n=("latency_ms", "count")))
        assert impossible().aggregate() == []
        assert impossible().aggregate(engine="reference") == []
        empty = ResultStore(tmp_path / "empty")
        assert (empty.query("fleet_events").group_by("device_name")
                .agg(n=("latency_ms", "count")).aggregate()) == []

    def test_unknown_engine_rejected(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        with pytest.raises(ValueError, match="unknown aggregate engine"):
            (store.query("fleet_events")
             .agg(n=("latency_ms", "count")).aggregate(engine="fast"))

    def test_group_key_space_overflow_raises(self, tmp_path):
        # 7000 distinct values in each of 5 columns: 7000**5 > 2**63, so
        # the mixed-radix int64 key would wrap and mislabel groups.
        store = ResultStore(tmp_path / "s")
        with store.writer() as writer:
            writer.append_batch("fleet_events",
                                synthetic_fleet_batch(0, 7000, seed=0))
        columns = ("time_s", "latency_ms", "wait_ms", "energy_mj",
                   "battery_fraction")
        query = (store.query("fleet_events").group_by(*columns)
                 .agg(n=("latency_ms", "count")))
        with pytest.raises(ValueError, match="battery_fraction"):
            query.aggregate()
        # Four of the columns still fit and label every group correctly.
        rows = (store.query("fleet_events").group_by(*columns[:4])
                .agg(n=("latency_ms", "count")).aggregate())
        arrays = store.query("fleet_events").arrays(*columns[:4])
        expected = sorted(zip(*(arrays[name].tolist()
                                for name in columns[:4])))
        assert [tuple(row[name] for name in columns[:4])
                for row in rows] == expected

    def test_factorize_parts_matches_unique_over_decoded(self):
        rng = np.random.default_rng(5)
        vocabs = [np.unique(rng.choice(list("abcdefgh"), 6)) for _ in range(3)]
        parts, decoded = [], []
        for vocab in vocabs:
            codes = rng.integers(0, len(vocab), 20).astype(np.uint8)
            parts.append(_coded(vocab, codes))
            decoded.append(vocab[codes])
        # Mix in one plain (already decoded) part, as a JSONL segment would be.
        plain = rng.choice(list("defgXY"), 15)
        parts.append(plain)
        decoded.append(plain)
        values, inverse = kernels.factorize_parts(parts)
        expected_values, expected_inverse = np.unique(
            np.concatenate(decoded), return_inverse=True)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(inverse, expected_inverse)


def _coded(vocab, codes):
    from repro.store.columnar import CodedColumn
    return CodedColumn(codes, np.asarray(vocab))


# --------------------------------------------------------------------------- #
# Parallel vs sequential
# --------------------------------------------------------------------------- #
class TestParallelBitIdentity:
    @pytest.mark.parametrize("workers", [2, 8, None])
    def test_thread_scans_identical(self, tmp_path, workers):
        store = mixed_store(tmp_path / "s")
        sequential = full_query(store)
        expected = sequential.arrays()
        parallel = full_query(store, max_workers=workers)
        actual = parallel.arrays()
        assert set(actual) == set(expected)
        for name in expected:
            assert expected[name].dtype == actual[name].dtype
            assert np.array_equal(expected[name], actual[name])
        assert parallel.stats == sequential.stats  # exact-addition merge
        assert (full_query(store, max_workers=workers).aggregate()
                == full_query(store).aggregate())
        assert (full_query(store, max_workers=workers).count()
                == full_query(store).count())

    def test_process_scans_identical(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        sequential = full_query(store)
        expected = sequential.arrays()
        parallel = full_query(store, max_workers=2, use_processes=True)
        actual = parallel.arrays()
        for name in expected:
            assert np.array_equal(expected[name], actual[name])
        assert parallel.stats == sequential.stats
        assert (full_query(store, max_workers=2, use_processes=True)
                .aggregate() == full_query(store).aggregate())

    def test_parallel_rejects_non_positive_workers(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        with pytest.raises(ValueError):
            store.query("fleet_events").parallel(0)

    def test_iter_mapped_preserves_order(self):
        from repro.runtime.pool import iter_mapped

        items = list(range(57))
        assert list(iter_mapped(lambda i: i * i, items, max_workers=4)) \
            == [i * i for i in items]


# --------------------------------------------------------------------------- #
# Coded vs decoded predicate evaluation
# --------------------------------------------------------------------------- #
class TestCodedPredicates:
    def _twins(self, tmp_path):
        """The same rows as a columnar store and as a JSONL store."""
        kind = kind_for("fleet_events")
        columnar = ResultStore(tmp_path / "columnar")
        with columnar.writer(rows_per_segment=64) as writer:
            for index in range(3):
                writer.append_batch("fleet_events",
                                    synthetic_fleet_batch(index, 80))
        jsonl = jsonl_store(
            tmp_path / "jsonl", "fleet_events",
            [row for index in range(3)
             for row in _rows_of(kind, synthetic_fleet_batch(index, 80))],
            rows_per_segment=64)
        columnar.refresh()
        jsonl.refresh()
        assert all(m.is_columnar
                   for m in columnar.segments_for("fleet_events"))
        assert not any(m.is_columnar
                       for m in jsonl.segments_for("fleet_events"))
        return columnar, jsonl

    @pytest.mark.parametrize("op,value", [
        ("==", "device"), ("!=", "device"), ("<", "device"), (">=", "cloud"),
        ("in", ("cloud",)), ("in", ("device", "nope")),
    ])
    def test_masks_match_decoded_twin(self, tmp_path, op, value):
        columnar, jsonl = self._twins(tmp_path)
        coded = (columnar.query("fleet_events")
                 .where("target", op, value).arrays())
        decoded = (jsonl.query("fleet_events")
                   .where("target", op, value).arrays())
        for name in coded:
            assert np.array_equal(coded[name], decoded[name]), name

    def test_vocabulary_mask_identity(self, tmp_path):
        """mask(vocabulary)[codes] == mask(decoded) on real segment payloads."""
        columnar, _ = self._twins(tmp_path)
        meta = columnar.segments_for("fleet_events")[0]
        loaded = columnar.columns_for(meta)
        view = loaded.coded("device_name")
        assert view is not None
        decoded = loaded["device_name"]
        assert np.array_equal(view.decode(), decoded)
        for predicate in (Predicate("device_name", "==", "Pixel 4"),
                          Predicate("device_name", "!=", "Pixel 4"),
                          Predicate("device_name", "in", ("Pixel 4", "S21")),
                          Predicate("device_name", "<", "Q")):
            assert np.array_equal(predicate.mask(view.values)[view.codes],
                                  predicate.mask(decoded))

    def test_grouped_aggregate_matches_decoded_twin(self, tmp_path):
        columnar, jsonl = self._twins(tmp_path)
        build = lambda store: (store.query("fleet_events")
                               .where("target", "==", "device")
                               .group_by("device_name", "backend")
                               .agg(n=("latency_ms", "count"),
                                    s=("latency_ms", "sum"),
                                    p99=("latency_ms", "p99")))
        assert build(columnar).aggregate() == build(jsonl).aggregate()


# --------------------------------------------------------------------------- #
# Satellites: grammar, pushdown, rows()
# --------------------------------------------------------------------------- #
class TestInGrammar:
    def test_parse_in(self):
        assert parse_predicate("backend in tflite|ncnn") \
            == ("backend", "in", ("tflite", "ncnn"))
        assert parse_predicate("user_id in 3|5") == ("user_id", "in", (3, 5))
        assert parse_predicate("region in eu") == ("region", "in", ("eu",))

    def test_parse_in_rejects_empty_values(self):
        with pytest.raises(ValueError):
            parse_predicate("backend in ")
        with pytest.raises(ValueError):
            parse_predicate("backend in |")

    def test_comparisons_still_parse(self):
        assert parse_predicate("latency_ms<5") == ("latency_ms", "<", 5)
        assert parse_predicate("device_name=S21") \
            == ("device_name", "==", "S21")
        # A '<=' inside the left side never parses as 'in'.
        assert parse_predicate("wait_ms<=1.5") == ("wait_ms", "<=", 1.5)

    def test_in_reaches_isin_and_pushdown(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        column, op, value = parse_predicate("target in device")
        query = store.query("fleet_events").where(column, op, value)
        expected = (store.query("fleet_events")
                    .where("target", "==", "device").count())
        assert query.count() == expected
        # Absent values prune through the distinct-set stats.
        pruned = (store.query("fleet_events")
                  .where("target", "in", ("no-such-target",)))
        assert pruned.count() == 0
        assert pruned.stats.segments_skipped == pruned.stats.segments_total


class TestNotEqualPushdown:
    def test_constant_segment_pruned(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        base = synthetic_fleet_batch(0, 50)
        constant = dict(base, cloud_bytes=np.full(50, 7))
        varied = dict(synthetic_fleet_batch(1, 50),
                      cloud_bytes=np.arange(50))
        with store.writer(rows_per_segment=64) as writer:
            writer.append_batch("fleet_events", constant)
            writer.flush()
            writer.append_batch("fleet_events", varied)
        store.refresh()
        query = store.query("fleet_events").where("cloud_bytes", "!=", 7)
        arrays = query.arrays("cloud_bytes")
        assert query.stats.segments_skipped == 1  # the constant segment
        assert query.stats.segments_scanned == 1
        assert np.array_equal(arrays["cloud_bytes"],
                              np.arange(50)[np.arange(50) != 7])

    def test_range_segments_still_scanned(self):
        column = kind_for("fleet_events").column("cloud_bytes")

        class Meta:
            stats = {"cloud_bytes": {"min": 3, "max": 9}}
            rows = 4

        assert Predicate("cloud_bytes", "!=", 7).may_match(Meta, column)
        Meta.stats = {"cloud_bytes": {"min": 7, "max": 7}}
        assert not Predicate("cloud_bytes", "!=", 7).may_match(Meta, column)
        assert Predicate("cloud_bytes", "!=", 8).may_match(Meta, column)


class TestRowsVectorised:
    def test_rows_native_types_and_order(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        query = store.query("fleet_events").where("target", "==", "cloud")
        rows = query.rows()
        arrays = (store.query("fleet_events")
                  .where("target", "==", "cloud").arrays())
        names = [c.name for c in kind_for("fleet_events").columns]
        assert rows and list(rows[0]) == names
        for row in rows:
            for value in row.values():
                assert isinstance(value, (int, float, str, bool))
        for i in (0, len(rows) // 2, len(rows) - 1):
            assert rows[i] == {name: arrays[name][i].item()
                               for name in names}

    def test_rows_empty(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        assert (store.query("fleet_events")
                .where("latency_ms", ">", 1e12).rows()) == []


# --------------------------------------------------------------------------- #
# Cached queries ride the same hook
# --------------------------------------------------------------------------- #
class TestCachedQueryHook:
    def test_hits_bit_identical_including_coded_groups(self, tmp_path):
        from repro.serve import ServeCache
        from repro.serve.cache import CachedQuery

        store = mixed_store(tmp_path / "s")
        kind = kind_for("fleet_events")
        cache = ServeCache()

        def build():
            query = CachedQuery(store, kind, cache=cache, fragment="f")
            return (query.where("target", "==", "device")
                    .group_by("device_name")
                    .agg(n=("latency_ms", "count"),
                         s=("latency_ms", "sum")))

        cold = build()
        cold_result = cold.aggregate()
        assert cold.stats.segments_scanned + cold.stats.segments_skipped \
            == cold.stats.segments_total
        warm = build()
        assert warm.aggregate() == cold_result
        assert warm.stats.segments_cached == warm.stats.segments_total
        plain = (store.query("fleet_events").where("target", "==", "device")
                 .group_by("device_name")
                 .agg(n=("latency_ms", "count"), s=("latency_ms", "sum")))
        assert plain.aggregate() == cold_result

    def test_cached_count_and_stats(self, tmp_path):
        from repro.serve import ServeCache
        from repro.serve.cache import CachedQuery

        store = mixed_store(tmp_path / "s")
        kind = kind_for("fleet_events")
        cache = ServeCache()
        first = CachedQuery(store, kind, cache=cache, fragment="c")
        first.where("target", "==", "cloud")
        expected = first.count()
        second = CachedQuery(store, kind, cache=cache, fragment="c")
        second.where("target", "==", "cloud")
        assert second.count() == expected
        assert second.stats.segments_cached == second.stats.segments_total
        assert second.stats.rows_scanned == 0


class TestQueryStatsMerge:
    def test_merge_is_exact_addition(self):
        total = QueryStats()
        total.merge(QueryStats(segments_total=1, segments_scanned=1,
                               rows_scanned=10, rows_matched=3))
        total.merge(QueryStats(segments_total=1, segments_skipped=1))
        total.merge(QueryStats(segments_total=1, segments_cached=1))
        assert total == QueryStats(segments_total=3, segments_skipped=1,
                                   segments_scanned=1, segments_cached=1,
                                   rows_scanned=10, rows_matched=3)
