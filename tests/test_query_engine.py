"""Query engine v2: bit-identity properties of the PR 10 rebuild.

Three contracts, each asserted as exact equality (``==`` on floats — the
engine promises bit-identity, not closeness):

* **view == oracle** — ``arrays()``/``count()``/``aggregate()`` and
  :class:`QueryStats` over the column view equal the per-segment loop it
  replaced, on randomized mixed JSONL/columnar stores;
* **kernel == reference** — every grouped reduction through the
  vectorised kernels equals the per-group reference loop, including
  string min/max, integer sums, empty groups, all-pruned queries and
  single-row segments;
* **coded == decoded** — dictionary-coded predicate evaluation and late
  materialisation return exactly what masking decoded arrays returns
  (a JSONL twin of the same rows is the oracle);
* **columns == rows** — ``aggregate_arrays()`` zipped through
  ``tolist()`` is the reference engine's rows, value, order and scalar
  type, and :meth:`GroupedReducer.reduce_array` is ``reduce()``;
* **counting == sorting** — :func:`kernels.dense_unique` and
  :func:`kernels.factorize_parts` equal ``np.unique(...,
  return_inverse=True)``, and grouped queries on either side of the
  dense-key-space and 65,536-group cutoffs equal the reference and a
  plain Python grouping; order statistics agree on the zero sign;
  coded group keys folded at full-vocabulary radix (one count over the
  folded key, or present-code ranking past the dense bound) equal the
  reference for drawn vocabularies, predicates and every reducer, and
  ``count``/``sum``/``mean``/``std`` never build the group order.

Plus the satellite fixes: the ``in`` textual grammar, numeric ``!=``
pushdown, vectorised ``rows()`` and ``rows(limit)``; pruning over stats
arrays (:class:`KindSegments`) equal to the per-segment
:meth:`Predicate.may_match` loop; and the column views: every terminal
through a store's life (append, pinned snapshot, compaction, fresh
handle) equals the per-segment loop they replaced, kept here as the
oracle, and a kept view is reused, extended and rebuilt as commits
require.
"""

from __future__ import annotations

import gc
import math
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from legacy_segments import append_jsonl, jsonl_store

from repro.campaign import synthetic_fleet_batch
from repro.store import ResultStore, StoreCorruptionError, compact_store
from repro.store import kernels
from repro.store.columnar import CodedColumn
from repro.store.query import (KindSegments, Predicate, Query, QueryStats,
                                parse_predicate)
from repro.store.segment import SegmentMeta
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


def full_query(store):
    return (store.query("fleet_events")
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


# --------------------------------------------------------------------------- #
# Counting group index: dense_unique, factorize_parts and the cutoffs
# --------------------------------------------------------------------------- #
@st.composite
def _dense_codes(draw):
    dtype = draw(st.sampled_from((np.uint8, np.uint16, np.int64)))
    size = draw(st.integers(0, 256 if dtype == np.uint8 else 1000))
    codes = (draw(st.lists(st.integers(0, size - 1), max_size=80))
             if size else [])
    return np.array(codes, dtype=dtype), size


_WORDS = ("", "a", "b", "mobilenet", "ü-名前", "zz")


@st.composite
def _string_parts(draw):
    """Per-segment parts: coded (u1/u2/u4 codes) or plain, plus decodings."""
    parts, decoded = [], []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            vocab = np.array(sorted(set(draw(st.lists(
                st.sampled_from(_WORDS), min_size=1)))))
            dtype = draw(st.sampled_from((np.uint8, np.uint16, np.uint32)))
            codes = np.array(draw(st.lists(
                st.integers(0, vocab.size - 1), max_size=20)), dtype=dtype)
            parts.append(CodedColumn(codes, vocab))
            decoded.append(vocab[codes])
        else:
            plain = np.array(draw(st.lists(st.sampled_from(_WORDS),
                                           max_size=20)), dtype=np.str_)
            parts.append(plain)
            decoded.append(plain)
    return parts, decoded


def _key_space_spy(monkeypatch) -> list:
    """Record ``(rows, size)`` of every :func:`kernels.dense_unique` call."""
    calls = []
    original = kernels.dense_unique

    def spy(codes, size):
        calls.append((codes.size, size))
        return original(codes, size)

    monkeypatch.setattr(kernels, "dense_unique", spy)
    return calls


def _python_group_counts(columns: list) -> list:
    """Sorted ``(*key, count)`` tuples of a plain Python grouping."""
    counts = Counter(zip(*(column.tolist() for column in columns)))
    return [(*key, count) for key, count in sorted(counts.items())]


ORDER_FNS = ("min", "max", "median", "p50", "p90", "p99", "p999")


class TestCountingGroupIndex:
    @settings(max_examples=200, deadline=None)
    @given(_dense_codes())
    @example((np.array([], dtype=np.uint8), 0))
    @example((np.array([], dtype=np.int64), 5))
    @example((np.array([3, 3, 3], dtype=np.uint16), 4))
    def test_dense_unique_matches_np_unique(self, case):
        codes, size = case
        values, inverse = kernels.dense_unique(codes, size)
        expected_values, expected_inverse = np.unique(codes,
                                                      return_inverse=True)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(inverse, expected_inverse)
        assert values.dtype == np.int64 and inverse.dtype == np.int64

    @settings(max_examples=200, deadline=None)
    @given(_string_parts())
    @example(([], []))
    @example(([CodedColumn(np.array([0], dtype=np.uint8), np.array(["a"]))],
              [np.array(["a"])]))
    def test_factorize_parts_matches_np_unique(self, case):
        parts, decoded = case
        values, inverse = kernels.factorize_parts(parts)
        if decoded:
            expected_values, expected_inverse = np.unique(
                np.concatenate(decoded), return_inverse=True)
        else:
            expected_values = np.empty(0, dtype=np.str_)
            expected_inverse = np.empty(0, dtype=np.int64)
        assert values.tolist() == expected_values.tolist()
        assert np.array_equal(inverse, expected_inverse)
        assert inverse.dtype == np.int64

    def test_dense_key_space(self, tmp_path, monkeypatch):
        store = mixed_store(tmp_path / "s")
        keys = ("device_name", "target", "backend")
        build = lambda: (store.query("fleet_events").group_by(*keys)
                         .agg(**{fn: ("latency_ms", fn) for fn in ALL_FNS}))
        arrays = store.query("fleet_events").arrays(*keys)
        rows = len(arrays[keys[0]])
        space = math.prod(np.unique(arrays[k]).size for k in keys)
        calls = _key_space_spy(monkeypatch)
        kernel = build().aggregate(engine="kernel")
        assert (rows, space) in calls  # the counting branch ran
        assert kernel == build().aggregate(engine="reference")
        assert [(*(row[k] for k in keys), row["count"]) for row in kernel] \
            == _python_group_counts([arrays[k] for k in keys])

    def test_sparse_key_space_falls_back_to_np_unique(self, tmp_path,
                                                       monkeypatch):
        store = mixed_store(tmp_path / "s")
        keys = ("time_s_bin", "user_id", "backend", "model_name")
        build = lambda: (store.query("fleet_events").bin("time_s", 1.0)
                         .group_by(*keys)
                         .agg(**{fn: ("latency_ms", fn) for fn in ALL_FNS},
                              model_max=("model_name", "max")))
        arrays = store.query("fleet_events").arrays(
            "time_s", *keys[1:])
        arrays["time_s_bin"] = (arrays["time_s"] // 1.0).astype(np.int64)
        rows = len(arrays["time_s"])
        space = math.prod(np.unique(arrays[k]).size for k in keys)
        assert space > max(rows, 2 ** 16)
        calls = _key_space_spy(monkeypatch)
        kernel = build().aggregate(engine="kernel")
        assert all(size < space for _rows, size in calls)
        assert kernel == build().aggregate(engine="reference")
        assert [(*(row[k] for k in keys), row["count"]) for row in kernel] \
            == _python_group_counts([arrays[k] for k in keys])

    def test_more_groups_than_the_radix_sort_takes(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with store.writer(rows_per_segment=20_000) as writer:
            writer.append_batch("fleet_events",
                                synthetic_fleet_batch(0, 70_000, seed=3))
        build = lambda: (store.query("fleet_events").bin("time_s", 0.001)
                         .group_by("time_s_bin")
                         .agg(n=("latency_ms", "count"),
                              b=("cloud_bytes", "sum"),
                              mean=("latency_ms", "mean"),
                              low=("latency_ms", "min"),
                              p90=("latency_ms", "p90"),
                              model=("model_name", "max")))
        kernel = build().aggregate(engine="kernel")
        assert len(kernel) > 2 ** 16
        assert kernel == build().aggregate(engine="reference")
        times = store.query("fleet_events").arrays("time_s")["time_s"]
        assert [(row["time_s_bin"], row["n"]) for row in kernel] == \
            _python_group_counts([(times // 0.001).astype(np.int64)])


class TestSignedZero:
    """Order statistics drop the zero sign on both engines alike."""

    def test_tied_zeros_in_either_order(self):
        for values in (np.array([0.0, -0.0] * 5), np.array([-0.0, 0.0] * 5)):
            inverse = np.zeros(values.size, dtype=np.int64)
            reducer = kernels.GroupedReducer(inverse, 1)
            for fn in ORDER_FNS:
                result = reducer.reduce("v", values, fn)[0]
                reference = kernels.REFERENCE_REDUCERS[fn](values)
                assert math.copysign(1.0, result) == 1.0, fn
                assert math.copysign(1.0, reference) == 1.0, fn

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.sampled_from((-1.0, -0.0, 0.0, 1.0,
                                               math.nan))),
                    min_size=1, max_size=60))
    def test_kernels_match_reference_zero_sign(self, rows):
        groups = np.array([group for group, _ in rows])
        values = np.array([value for _, value in rows])
        uniques, inverse = np.unique(groups, return_inverse=True)
        reducer = kernels.GroupedReducer(inverse, uniques.size)
        for fn in ORDER_FNS:
            kernel = reducer.reduce("v", values, fn)
            reference = [kernels.REFERENCE_REDUCERS[fn](values[inverse == g])
                         for g in range(uniques.size)]
            assert [repr(v) for v in kernel] == [repr(v) for v in reference]
            assert "-0.0" not in map(repr, kernel)


class TestNaNGroups:
    """A group holding NaN has NaN order statistics, as NumPy gives."""

    def test_reducer_median_and_percentiles_propagate_nan(self):
        values = np.array([1.0, 2.0, math.nan, 3.0, 4.0, 5.0])
        inverse = np.array([0, 0, 0, 0, 1, 1])
        reducer = kernels.GroupedReducer(inverse, 2)
        for fn in ("median", "p50", "p90", "p99", "p999"):
            nan_group, plain = reducer.reduce("v", values, fn)
            assert math.isnan(nan_group), fn
            assert plain == kernels.REFERENCE_REDUCERS[fn](values[4:]), fn

    def test_grouped_p50_matches_reference_and_ungrouped(self, tmp_path):
        batch = synthetic_fleet_batch(0, 8)
        batch["latency_ms"] = batch["latency_ms"].copy()
        batch["latency_ms"][3] = math.nan
        store = ResultStore(tmp_path / "s")
        with store.writer() as writer:
            writer.append_batch("fleet_events", batch)
        aggs = {fn: ("latency_ms", fn)
                for fn in ("median", "p50", "p90", "p99", "p999")}

        def build():
            return store.query("fleet_events").group_by("target").agg(**aggs)

        kernel = build().aggregate()
        assert repr(kernel) == repr(build().aggregate(engine="reference"))
        nan_target = str(batch["target"][3])
        for row in kernel:
            ungrouped = (store.query("fleet_events").where(target=row["target"])
                         .agg(**aggs).aggregate())
            assert repr({fn: row[fn] for fn in aggs}) == repr(ungrouped)
            assert math.isnan(row["p50"]) == (row["target"] == nan_target)


# --------------------------------------------------------------------------- #
# Columnar results: aggregate_arrays() and GroupedReducer.reduce_array()
# --------------------------------------------------------------------------- #
#: Group keys of the ``models`` kind, one per key type.
MODEL_KEYS = ("category", "num_layers", "int8_weight_fraction",
              "has_dequantize_layer", "size_bytes_bin")
#: Every reduction over a float and an int column; the reductions the
#: reference defines over bool columns; string extrema.
MODEL_AGGS = {
    **{f"near_{fn}": ("near_zero_weight_fraction", fn) for fn in ALL_FNS},
    **{f"params_{fn}": ("parameters", fn) for fn in ALL_FNS},
    **{f"dq_{fn}": ("has_cluster_prefix", fn)
       for fn in ("count", "sum", "mean", "std", "median", "min", "max")},
    "name_min": ("name", "min"),
    "name_max": ("name", "max"),
}

_FLOATS = st.one_of(st.sampled_from((0.0, -0.0, 0.25, 1.0, 5e-324,
                                     math.nan)),
                    st.floats(-1e6, 1e6))


@st.composite
def _model_rows(draw):
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        rows.append({
            "name": draw(st.sampled_from(("", "a", "mobilenet", "ü-名前"))),
            "checksum": "c", "app_package": "p",
            "category": draw(st.sampled_from(("", "tools", "photo"))),
            "source": "s", "framework": "tflite", "file_names": "f",
            "size_bytes": draw(st.integers(0, 10 ** 7)),
            "num_layers": draw(st.integers(-3, 3)),
            "flops": 0,
            "parameters": draw(st.one_of(st.integers(-10 ** 9, 10 ** 9),
                                         st.sampled_from((0, 1, -1)))),
            "modality": "image", "task": "t",
            "has_dequantize_layer": draw(st.booleans()),
            "int8_weight_fraction": draw(st.sampled_from((0.0, -0.0, 0.5))),
            "int8_activation_fraction": 0.0,
            "has_cluster_prefix": draw(st.booleans()),
            "has_prune_prefix": False,
            "near_zero_weight_fraction": draw(_FLOATS),
        })
    return rows


def _model_store(root: Path, chunks) -> ResultStore:
    """Commit each ``(jsonl, rows)`` chunk as columnar or JSONL segments."""
    kind = kind_for("models")
    store = ResultStore(root)
    for jsonl, rows in chunks:
        if jsonl:
            append_jsonl(store, "models", rows, rows_per_segment=7)
        else:
            with store.writer(rows_per_segment=7) as writer:
                writer.append_batch("models", {
                    c.name: np.array([row[c.name] for row in rows],
                                     dtype=c.numpy_dtype)
                    for c in kind.columns})
        store.refresh()
    return store


def _zip_columns(columns: dict) -> list[dict]:
    names = list(columns)
    values = [array.tolist() for array in columns.values()]
    return [dict(zip(names, row)) for row in zip(*values)]


def _typed(rows: list[dict]) -> list[list]:
    """Rows as ``(name, value, type)`` lists, NaN as a marker that
    compares equal to itself."""
    return [[(name, "NaN" if value != value else value, type(value))
             for name, value in row.items()]
            for row in rows]


class TestColumnarResults:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), _model_rows()), min_size=1,
                    max_size=3),
           st.lists(st.sampled_from(MODEL_KEYS), min_size=1, max_size=3,
                    unique=True),
           st.sampled_from((None, 0.25, 0.5)))
    def test_arrays_zip_to_reference_rows(self, chunks, keys, threshold):
        with tempfile.TemporaryDirectory() as tmp:
            store = _model_store(Path(tmp) / "s", chunks)

            def build():
                query = store.query("models")
                if threshold is not None:
                    query.where("near_zero_weight_fraction", "<", threshold)
                return (query.bin("size_bytes", 2 ** 21)
                        .group_by(*keys).agg(**MODEL_AGGS))

            columns = build().aggregate_arrays()
            assert list(columns) == [*keys, *MODEL_AGGS]
            assert len({array.size for array in columns.values()}) == 1
            zipped = _zip_columns(columns)
            reference = build().aggregate(engine="reference")
            assert _typed(zipped) == _typed(reference)
            assert _typed(build().aggregate()) == _typed(zipped)

    def test_zero_matches_give_typed_empty_arrays(self, tmp_path):
        store = _model_store(tmp_path / "s", [(False, [dict(
            name="m", checksum="c", app_package="p", category="tools",
            source="s", framework="tflite", file_names="f", size_bytes=1,
            num_layers=2, flops=0, parameters=3, modality="image", task="t",
            has_dequantize_layer=True, int8_weight_fraction=0.0,
            int8_activation_fraction=0.0, has_cluster_prefix=False,
            has_prune_prefix=False, near_zero_weight_fraction=0.5)])])
        columns = (store.query("models").where("parameters", ">", 10)
                   .bin("size_bytes", 2 ** 21).group_by(*MODEL_KEYS)
                   .agg(**MODEL_AGGS).aggregate_arrays())
        assert list(columns) == [*MODEL_KEYS, *MODEL_AGGS]
        assert all(array.size == 0 for array in columns.values())
        dtypes = {name: array.dtype.kind for name, array in columns.items()}
        assert [dtypes[key] for key in MODEL_KEYS] == ["U", "i", "f", "b", "i"]
        assert dtypes["near_sum"] == "f" and dtypes["params_sum"] == "i"
        assert dtypes["dq_sum"] == "i" and dtypes["dq_min"] == "b"
        assert dtypes["params_min"] == "i" and dtypes["params_mean"] == "f"
        assert dtypes["near_count"] == "i" and dtypes["name_max"] == "U"
        assert columns["params_count"].dtype == np.int64
        assert (store.query("models").where("parameters", ">", 10)
                .group_by("category").agg(n=("parameters", "count"))
                .aggregate()) == []

    def test_ungrouped_is_rejected(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        with pytest.raises(ValueError, match="group_by"):
            (store.query("fleet_events").agg(n=("latency_ms", "count"))
             .aggregate_arrays())

    @pytest.mark.parametrize("column", ["latency_ms", "cloud_bytes",
                                        "model_name"])
    def test_reduce_array_equals_reduce(self, tmp_path, column):
        store = mixed_store(tmp_path / "s")
        arrays = store.query("fleet_events").arrays("device_name", column)
        uniques, inverse = np.unique(arrays["device_name"],
                                     return_inverse=True)
        values = arrays[column]
        fns = ALL_FNS if values.dtype.kind != "U" else ("count", "min", "max")
        for fn in fns:
            as_array = kernels.GroupedReducer(
                inverse, uniques.size).reduce_array(column, values, fn)
            as_list = kernels.GroupedReducer(
                inverse, uniques.size).reduce(column, values, fn)
            assert isinstance(as_array, np.ndarray)
            assert as_array.shape == (uniques.size,)
            assert _typed([dict(enumerate(as_array.tolist()))]) == \
                _typed([dict(enumerate(as_list))])

    def test_count_arrays_are_independent(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        columns = (store.query("fleet_events").group_by("region")
                   .agg(a=("latency_ms", "count"), b=("latency_ms", "count"))
                   .aggregate_arrays())
        columns["a"][:] = 0
        assert columns["b"].min() > 0


def _coded(vocab, codes):
    return CodedColumn(codes, np.asarray(vocab))


# --------------------------------------------------------------------------- #
# Parallel vs sequential
# --------------------------------------------------------------------------- #
#: Segment formats a drawn store mixes: legacy JSONL, plain and compressed
#: columnar.
_SEGMENT_FORMATS = ("jsonl", "columnar", "compressed")

_PREDICATES = st.one_of(
    st.tuples(st.just("latency_ms"), st.sampled_from(("<", ">=")),
              st.sampled_from((5.0, 20.0, 60.0, 150.0))),
    st.tuples(st.just("region"), st.just("in"),
              st.lists(st.sampled_from(("na", "eu", "apac", "mars")),
                       min_size=1, max_size=3, unique=True).map(tuple)),
    st.tuples(st.just("target"), st.sampled_from(("==", "!=")),
              st.sampled_from(("device", "cloud"))),
    st.tuples(st.just("cloud_bytes"), st.just(">"), st.just(0)),
)


def _drawn_store(root, chunks) -> ResultStore:
    """Commit each ``(format, rows, seed)`` chunk as its own segments."""
    store = ResultStore(root)
    kind = kind_for("fleet_events")
    for index, (fmt, rows, seed) in enumerate(chunks):
        batch = synthetic_fleet_batch(index, rows, seed=seed)
        if fmt == "jsonl":
            append_jsonl(store, "fleet_events", _rows_of(kind, batch),
                         rows_per_segment=32)
            store.refresh()
        else:
            with store.writer(rows_per_segment=32,
                              compress=fmt == "compressed") as writer:
                writer.append_batch("fleet_events", batch)
    return store


#: Predicates that also prune: ``time_s`` is sorted within each batch, so a
#: bound on it rules out whole segments by their min/max stats.
_PRUNING_PREDICATES = st.one_of(
    _PREDICATES,
    st.tuples(st.just("time_s"), st.sampled_from(("<", ">=")),
              st.sampled_from((15000.0, 60000.0))),
    st.tuples(st.just("target"), st.just("=="), st.just("cloud")),
)

#: Reductions the view differential test checks against the oracle.
_ORACLE_AGGS = {"n": ("latency_ms", "count"), "mean": ("latency_ms", "mean"),
                "p99": ("latency_ms", "p99"), "energy": ("energy_mj", "sum"),
                "bytes": ("cloud_bytes", "sum"),
                "first": ("model_name", "min")}


def _oracle_scan(source, predicates, columns):
    """The per-segment loop the column view replaced: the semantic reference.

    Each segment is pruned by its manifest stats, read on its own
    (``columns_for``), masked with decoded arrays, and its surviving rows
    are concatenated in manifest order; the accounting is per segment.
    """
    kind = kind_for("fleet_events")
    tests = [(Predicate(column, op, value), kind.column(column))
             for column, op, value in predicates]
    stats = QueryStats()
    parts: dict[str, list] = {name: [] for name in columns}
    for meta in source.segments_for("fleet_events"):
        stats.segments_total += 1
        if not all(p.may_match(meta, spec) for p, spec in tests):
            stats.segments_skipped += 1
            continue
        loaded = source.columns_for(meta)
        mask = None
        for predicate, _spec in tests:
            part = predicate.mask(loaded[predicate.column])
            mask = part if mask is None else mask & part
        matched = meta.rows if mask is None else int(mask.sum())
        stats.segments_scanned += 1
        stats.rows_scanned += meta.rows
        stats.rows_matched += matched
        if matched:
            for name in columns:
                parts[name].append(loaded[name] if mask is None
                                   else loaded[name][mask])
    arrays = {name: (np.concatenate(chunks) if chunks else
                     np.empty(0, dtype=kind.column(name).numpy_dtype))
              for name, chunks in parts.items()}
    return arrays, stats


def _oracle_grouped(arrays, keys) -> list[dict]:
    """Grouped rows of ``_ORACLE_AGGS`` by a Python grouping of the rows."""
    groups: dict[tuple, list[int]] = {}
    for index, key in enumerate(zip(*(arrays[k].tolist() for k in keys))):
        groups.setdefault(key, []).append(index)
    rows = []
    for key in sorted(groups):
        members = np.array(groups[key])
        row = dict(zip(keys, key))
        for out, (column, fn) in _ORACLE_AGGS.items():
            row[out] = kernels.REFERENCE_REDUCERS[fn](arrays[column][members])
        rows.append(row)
    return rows


def _assert_matches_oracle(source, oracle_source, predicates, keys, label):
    """Every terminal over ``source`` equals the oracle over its twin."""
    from repro.store.query import AGGREGATIONS

    kind = kind_for("fleet_events")
    names = kind.column_names
    expected, expected_stats = _oracle_scan(oracle_source, predicates, names)

    def query():
        built = source.query("fleet_events")
        for column, op, value in predicates:
            built.where(column, op, value)
        return built

    scan = query()
    arrays = scan.arrays()
    assert list(arrays) == list(names), label
    for name in names:
        assert arrays[name].dtype.kind == expected[name].dtype.kind, (label,
                                                                      name)
        if arrays[name].dtype.kind != "U":
            assert arrays[name].dtype == expected[name].dtype, (label, name)
        assert np.array_equal(arrays[name], expected[name]), (label, name)
    assert scan.stats == expected_stats, label
    counted = query()
    assert counted.count() == expected_stats.rows_matched, label
    assert counted.stats == expected_stats, label

    rows = _oracle_grouped(expected, keys)
    grouped = query().group_by(*keys).agg(**_ORACLE_AGGS)
    assert _typed(grouped.aggregate()) == _typed(rows), label
    assert grouped.stats == expected_stats, label
    columns = query().group_by(*keys).agg(**_ORACLE_AGGS).aggregate_arrays()
    assert _typed(_zip_columns(columns)) == _typed(rows), label
    length = expected_stats.rows_matched
    # Ungrouped reductions over the numeric columns (the ungrouped string
    # min/max has no NumPy loop, in either engine).
    numeric = {out: spec for out, spec in _ORACLE_AGGS.items()
               if kind.column(spec[0]).is_numeric}
    ungrouped = query().agg(**numeric).aggregate()
    assert ungrouped == {
        out: (AGGREGATIONS[fn](expected[column]) if length
              else (0 if fn == "count" else None))
        for out, (column, fn) in numeric.items()}, label


class TestParallelBitIdentity:
    """The column view equals the per-segment oracle; the shared pool
    (:func:`repro.runtime.pool.iter_mapped_chunks`) keeps order and its
    size."""

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_SEGMENT_FORMATS),
                              st.integers(1, 80), st.integers(0, 3)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.sampled_from(_SEGMENT_FORMATS),
                              st.integers(1, 70), st.integers(4, 6)),
                    min_size=1, max_size=2),
           st.lists(_PRUNING_PREDICATES, max_size=2),
           st.lists(st.sampled_from(("device_name", "region", "target",
                                     "cloud_api")),
                    min_size=1, max_size=2, unique=True))
    def test_view_equals_per_segment_oracle(self, chunks, appended,
                                            predicates, keys):
        """The column view through a store's life equals the per-segment
        loop: append+flush, an older pinned snapshot, compaction and a
        fresh handle."""
        with tempfile.TemporaryDirectory() as tmp:
            root = _drawn_store(Path(tmp) / "s", chunks).root
            live = ResultStore(root)
            _assert_matches_oracle(live, ResultStore(root),
                                   predicates, keys, "initial")
            pinned = live.open_snapshot()
            kind = kind_for("fleet_events")
            for index, (fmt, rows, seed) in enumerate(appended):
                batch = synthetic_fleet_batch(50 + index, rows, seed=seed)
                if fmt == "jsonl":
                    append_jsonl(live, "fleet_events", _rows_of(kind, batch),
                                 rows_per_segment=32)
                    live.refresh()
                else:
                    with live.writer(
                            rows_per_segment=32,
                            compress=fmt == "compressed") as writer:
                        writer.append_batch("fleet_events", batch)
                        writer.flush()
            _assert_matches_oracle(live, ResultStore(root),
                                   predicates, keys, "appended")
            _assert_matches_oracle(
                pinned,
                ResultStore(root).open_snapshot(generation=pinned.generation),
                predicates, keys, "pinned")
            compact_store(live, rows_per_segment=48)
            _assert_matches_oracle(live, ResultStore(root),
                                   predicates, keys, "compacted")
            _assert_matches_oracle(ResultStore(root), ResultStore(root),
                                   predicates, keys, "fresh")

    def test_pool_never_sized_past_its_tasks(self, monkeypatch):
        """A forking pool starts every worker it is sized for, so an
        explicit ``max_workers`` is capped at the task count; the caller
        is one of the workers, so the process pool is one worker smaller."""
        from repro.runtime import pool

        assert pool.resolve_workers(2, 8) == 2
        assert pool.resolve_workers(5, 3) == 3
        assert pool.resolve_workers(0, 4) == 1
        for bad in (0, -1):
            with pytest.raises(ValueError):
                pool.resolve_workers(3, bad)

        sizes = []
        self._recording_process_pool(monkeypatch, sizes)
        assert list(pool.iter_mapped_chunks(
            list, ["a", "b"], max_workers=8, chunk_size=1,
            use_processes=True)) == ["a", "b"]
        assert list(pool.iter_mapped_chunks(
            list, list(range(10)), max_workers=8, chunk_size=4,
            use_processes=True)) == list(range(10))
        assert sizes == [1, 2]

    @staticmethod
    def _recording_process_pool(monkeypatch, sizes):
        """Stand a recording thread pool in for the process pool, so a
        test forks nothing."""
        from concurrent import futures

        from repro.runtime import pool

        class RecordingExecutor(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(pool.futures, "ProcessPoolExecutor",
                            RecordingExecutor)

    def test_one_process_worker_forks_nothing(self, monkeypatch):
        """A cap of one counts the caller, and so does a single slice:
        either runs inline and constructs no pool."""
        from repro.runtime import pool

        sizes = []
        self._recording_process_pool(monkeypatch, sizes)
        assert list(pool.iter_mapped_chunks(
            list, list(range(7)), max_workers=1, chunk_size=2,
            use_processes=True)) == list(range(7))
        assert list(pool.iter_mapped_chunks(
            list, list(range(5)), max_workers=4, chunk_size=8,
            use_processes=True)) == list(range(5))
        assert sizes == []

    def test_caller_slices_keep_process_results_in_order(self, monkeypatch):
        """More slices than workers: the caller runs every ``max_workers``-th
        slice, the first among them, and results come back in slice order
        whatever order the slices finish in."""
        import threading
        import time

        from repro.runtime import pool

        sizes = []
        self._recording_process_pool(monkeypatch, sizes)
        caller = threading.get_ident()
        ran_on = {}

        def slow_early(items):
            ran_on[items[0]] = threading.get_ident()
            # Earlier slices finish last.
            time.sleep(0.002 * (20 - items[0]) / 3)
            return [item * item for item in items]

        items = list(range(20))
        assert list(pool.iter_mapped_chunks(
            slow_early, items, max_workers=3, chunk_size=3,
            use_processes=True)) == [item * item for item in items]
        assert sizes == [2]
        # Slices start at items 0, 3, ..., 18; the caller runs slices 0, 3
        # and 6.
        assert sorted(first for first, ident in ran_on.items()
                      if ident == caller) == [0, 9, 18]


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


def _prune_reference(metas, predicates, kind):
    """``(ranges, skipped, rows scanned)`` by the per-segment loop."""
    ranges: list[tuple[int, int]] = []
    skipped = scanned = start = 0
    specs = [(p, kind.column(p.column)) for p in predicates]
    for meta in metas:
        stop = start + meta.rows
        if all(p.may_match(meta, spec) for p, spec in specs):
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], stop)
            else:
                ranges.append((start, stop))
            scanned += meta.rows
        else:
            skipped += 1
        start = stop
    return ranges, skipped, scanned


_PRUNE_VOCAB = ("eu", "us", "apac", "sa")
#: Bounds and values: small ints and floats, so segments both match and
#: miss and bounds tie with values; now and then 2**53 or an int float64
#: cannot hold (2**53 + 1), which sends its predicates to the
#: ``may_match`` loop.
_PRUNE_NUMBERS = st.one_of(
    st.integers(-4, 4), st.floats(-4, 4, allow_nan=False),
    st.integers(0, 15).map(lambda pick: 2 ** 53 + pick - 14 if pick >= 14
                           else 0))


@st.composite
def _pruning_meta(draw, index: int) -> SegmentMeta:
    stats: dict = {}
    for column in ("latency_ms", "cloud_bytes"):
        shape = draw(st.sampled_from(("missing", "empty", "range")))
        if shape == "empty":
            stats[column] = {}
        elif shape == "range":
            low, high = sorted((draw(_PRUNE_NUMBERS), draw(_PRUNE_NUMBERS)))
            stats[column] = {"min": low, "max": high}
    shape = draw(st.sampled_from(("missing", "empty", "values")))
    if shape == "empty":
        stats["region"] = {}
    elif shape == "values":
        stats["region"] = {"values": draw(st.lists(
            st.sampled_from(_PRUNE_VOCAB), unique=True, max_size=3))}
    return SegmentMeta(name=f"fleet_events-{index:06d}", kind="fleet_events",
                       rows=draw(st.integers(0, 5)), sha256="0" * 64,
                       stats=stats)


@st.composite
def _pruning_case(draw):
    metas = tuple(draw(_pruning_meta(index))
                  for index in range(draw(st.integers(0, 12))))
    predicates = []
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from(("latency_ms", "cloud_bytes",
                                       "region")))
        op = draw(st.sampled_from(("==", "!=", "<", ">=", "in")))
        values = (st.sampled_from(_PRUNE_VOCAB + ("zz",))
                  if column == "region"
                  else st.one_of(_PRUNE_NUMBERS, st.just(math.nan)))
        value = (tuple(draw(st.lists(values, max_size=3))) if op == "in"
                 else draw(values))
        predicates.append(Predicate(column, op, value))
    return metas, predicates


class TestPruningArrays:
    """:meth:`KindSegments.prune` is the per-segment ``may_match`` loop."""

    @settings(max_examples=300, deadline=None)
    @given(_pruning_case())
    @example(((SegmentMeta("fleet_events-000000", "fleet_events", 2, "0",
                           {"cloud_bytes": {"min": 1, "max": 3}}),
               SegmentMeta("fleet_events-000001", "fleet_events", 0, "0",
                           {"cloud_bytes": {"min": 7, "max": 7}}),
               SegmentMeta("fleet_events-000002", "fleet_events", 3, "0",
                           {"cloud_bytes": {"min": 2, "max": 2}})),
              [Predicate("cloud_bytes", "<", 3)]))
    @example(((SegmentMeta("fleet_events-000000", "fleet_events", 1, "0",
                           {"cloud_bytes": {"min": 2 ** 53,
                                            "max": 2 ** 53}}),),
              [Predicate("cloud_bytes", "<", 2 ** 53 + 1)]))
    def test_prune_equals_per_segment_loop(self, case):
        metas, predicates = case
        kind = kind_for("fleet_events")
        assert KindSegments(metas).prune(predicates, kind) == \
            _prune_reference(metas, predicates, kind)

    def test_memo_lives_and_dies_with_the_segment_list(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        held = store.kind_segments("fleet_events")
        assert store.kind_segments("fleet_events") is held
        assert held.metas == store.segments_for("fleet_events")
        snapshot = store.open_snapshot()
        pinned = snapshot.kind_segments("fleet_events")
        assert pinned is not held and pinned.metas == held.metas
        query = store.query("fleet_events").where("latency_ms", "<", 120.0)
        query.count()
        assert query.stats.segments_total == len(held.metas)
        with store.writer(rows_per_segment=64) as writer:
            writer.append_batch("fleet_events", synthetic_fleet_batch(3, 10))
        fresh = store.kind_segments("fleet_events")
        assert fresh is not held
        assert fresh.metas[:len(held.metas)] == held.metas
        assert snapshot.kind_segments("fleet_events") is pinned
        gone = weakref.ref(held)
        del held, query
        gc.collect()
        assert gone() is None


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
# Column views: kept per kind, reused and extended
# --------------------------------------------------------------------------- #
class TestKindViewReuse:
    def test_reused_view_bit_identical_including_coded_groups(self,
                                                              tmp_path):
        store = mixed_store(tmp_path / "s")

        def build(source):
            return (source.query("fleet_events")
                    .where("target", "==", "device")
                    .group_by("device_name")
                    .agg(n=("latency_ms", "count"),
                         s=("latency_ms", "sum")))

        cold = build(store)
        cold_result = cold.aggregate()
        assert cold.stats.segments_scanned + cold.stats.segments_skipped \
            == cold.stats.segments_total
        built = store.view_stats()
        assert (built["entries"], built["misses"]) == (1, 1)
        warm = build(store)
        assert warm.aggregate() == cold_result
        assert warm.stats == cold.stats
        assert warm.stats.segments_cached == 0
        reused = store.view_stats()
        assert reused["misses"] == 1 and reused["hits"] == built["hits"] + 1
        assert reused["segments"] == len(store.segments_for("fleet_events"))
        # A snapshot reads the same kept view.
        assert build(store.open_snapshot()).aggregate() == cold_result
        assert store.view_stats()["misses"] == 1
        assert build(ResultStore(store.root)).aggregate() == cold_result

    def test_count_and_stats_from_reused_view(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        first = store.query("fleet_events").where("target", "==", "cloud")
        expected = first.count()
        second = store.query("fleet_events").where("target", "==", "cloud")
        assert second.count() == expected
        assert second.stats == first.stats
        assert store.view_stats()["misses"] == 1
        # Counting every row reads no column at all.
        fresh = ResultStore(store.root)
        assert fresh.query("fleet_events").count() \
            == store.num_rows("fleet_events")
        assert fresh.view_stats()["entries"] == 0

    def test_append_extends_and_vocabulary_growth_widens_codes(self,
                                                               tmp_path):
        """New values remap held codes into a wider buffer; a snapshot
        pinned before the append still reads its own prefix."""
        store = ResultStore(tmp_path / "s")
        with store.writer(rows_per_segment=40) as writer:
            writer.append_batch("fleet_events", synthetic_fleet_batch(0, 80))
        query = store.query("fleet_events").group_by("model_name").agg(
            n=("latency_ms", "count"))
        before = query.aggregate()
        pinned = store.open_snapshot()
        batch = synthetic_fleet_batch(1, 300)
        batch["model_name"] = np.array([f"m{index:03d}"
                                        for index in range(300)])
        with store.writer(rows_per_segment=100) as writer:
            writer.append_batch("fleet_events", batch)
        grown = store.query("fleet_events").group_by("model_name").agg(
            n=("latency_ms", "count")).aggregate()
        assert len(grown) == len(before) + 300
        assert store.view_stats()["misses"] == 1
        assert store.view_stats()["segments"] == 5
        codes = store._views["fleet_events"]._state.columns["model_name"]
        assert codes.data.dtype == np.uint16
        assert pinned.query("fleet_events").group_by("model_name").agg(
            n=("latency_ms", "count")).aggregate() == before
        names = store.query("fleet_events").arrays("model_name")["model_name"]
        expected = np.concatenate([synthetic_fleet_batch(0, 80)["model_name"],
                                   batch["model_name"]])
        assert np.array_equal(names, expected)

    def test_replacement_commit_rebuilds_the_view(self, tmp_path):
        store = mixed_store(tmp_path / "s")
        expected = store.query("fleet_events").arrays("latency_ms", "region")
        pinned = store.open_snapshot()
        compact_store(store, rows_per_segment=100)
        assert store.view_stats()["entries"] == 0  # dropped, not patched
        again = store.query("fleet_events").arrays("latency_ms", "region")
        for name in expected:
            assert np.array_equal(again[name], expected[name])
        assert store.view_stats()["misses"] == 2
        assert store.view_stats()["segments"] == len(
            store.segments_for("fleet_events"))
        # The pre-compaction snapshot's files are gone; its read fails
        # rather than answering from the rebuilt view.
        with pytest.raises(StoreCorruptionError):
            pinned.query("fleet_events").arrays("latency_ms")
        assert store.view_stats()["segments"] == len(
            store.segments_for("fleet_events"))


# --------------------------------------------------------------------------- #
# Gather by index, coded keys counted once, group order on demand
# --------------------------------------------------------------------------- #
#: String group columns whose vocabularies the drawn stores control.
_VOCAB_KEYS = ("device_name", "backend", "region")

#: Predicate sets matching every row, none, some, or dropping vocabulary
#: values from the matched rows.
_VOCAB_PREDICATES = {
    "all": (("latency_ms", "<", 1e18),),
    "none": (("latency_ms", "<", -1.0),),
    "some": (("latency_ms", "<", 60.0),),
    "drop": (("device_name", "in", ("d00", "d02", "d05")),),
    "drop-two": (("backend", "!=", "b01"), ("region", "in", ("r00", "r03"))),
}


def _vocab_store(root, sizes, rows: int, rows_per_segment: int,
                 seed: int) -> ResultStore:
    """One batch whose ``_VOCAB_KEYS`` columns draw from ``sizes`` values,
    each present wherever the row count allows."""
    rng = np.random.default_rng(seed)
    batch = synthetic_fleet_batch(0, rows, seed=seed)
    for name, size in zip(_VOCAB_KEYS, sizes):
        codes = rng.integers(0, size, rows)
        shown = min(size, rows)
        codes[:shown] = rng.permutation(size)[:shown]
        batch[name] = np.array([f"{name[0]}{code:02d}" for code in codes],
                               dtype=np.str_)
    store = ResultStore(root)
    with store.writer(rows_per_segment=rows_per_segment) as writer:
        writer.append_batch("fleet_events", batch)
    return store


def _vocab_query(store, strings, numeric: bool, binned: bool,
                 predicates, string_agg: bool):
    query = store.query("fleet_events")
    for column, op, value in predicates:
        query.where(column, op, value)
    keys = list(strings)
    if numeric:
        keys.append("user_id")
    if binned:
        query.bin("latency_ms", 25.0)
        keys.append("latency_ms_bin")
    aggs = {f"lat_{fn}": ("latency_ms", fn) for fn in ALL_FNS}
    aggs.update({f"bytes_{fn}": ("cloud_bytes", fn) for fn in ALL_FNS})
    aggs.update(model_min=("model_name", "min"),
                model_max=("model_name", "max"))
    if string_agg:  # a group key also reduced: it is decoded, not coded
        aggs["first_device"] = ("device_name", "min")
    return query.group_by(*keys).agg(**aggs)


def _assert_engines_agree(build) -> list[dict]:
    reference = build().aggregate(engine="reference")
    expected = repr(_typed(reference))
    assert repr(_typed(_zip_columns(build().aggregate_arrays()))) == expected
    assert repr(_typed(build().aggregate())) == expected
    return reference


class TestCodedKeysCountedOnce:
    @settings(max_examples=60, deadline=None)
    @given(sizes=st.tuples(*[st.integers(1, 7)] * 3),
           rows=st.integers(1, 400),
           rows_per_segment=st.sampled_from((16, 64, 1024)),
           seed=st.integers(0, 3),
           strings=st.lists(st.sampled_from(_VOCAB_KEYS), min_size=1,
                            max_size=3, unique=True),
           numeric=st.booleans(), binned=st.booleans(),
           predicates=st.sampled_from(sorted(_VOCAB_PREDICATES)),
           string_agg=st.booleans())
    @example(sizes=(48, 48, 48), rows=300, rows_per_segment=64, seed=1,
             strings=list(_VOCAB_KEYS), numeric=False, binned=False,
             predicates="drop-two", string_agg=False)
    @example(sizes=(48, 48, 48), rows=300, rows_per_segment=1024, seed=2,
             strings=list(_VOCAB_KEYS), numeric=True, binned=True,
             predicates="all", string_agg=True)
    def test_kernel_engines_equal_reference(self, sizes, rows,
                                            rows_per_segment, seed, strings,
                                            numeric, binned, predicates,
                                            string_agg):
        with tempfile.TemporaryDirectory() as tmp:
            store = _vocab_store(Path(tmp) / "s", sizes, rows,
                                 rows_per_segment, seed)
            _assert_engines_agree(lambda: _vocab_query(
                store, strings, numeric, binned,
                _VOCAB_PREDICATES[predicates], string_agg))

    def test_one_count_over_the_folded_key(self, tmp_path, monkeypatch):
        store = _vocab_store(tmp_path / "s", (5, 3, 4), 500, 64, seed=0)
        build = lambda: _vocab_query(store, _VOCAB_KEYS, False, False,
                                     _VOCAB_PREDICATES["drop"], False)
        reference = _assert_engines_agree(build)
        # The predicate dropped vocabulary values; labels still come out
        # right.
        assert {row["device_name"] for row in reference} == {"d00", "d02"}
        matched = build().count()
        calls = _key_space_spy(monkeypatch)
        build().aggregate_arrays()
        # One dense_unique, over the key folded at full-vocabulary radix.
        assert calls == [(matched, 5 * 3 * 4)]

    def test_wide_vocabularies_rank_present_codes(self, tmp_path,
                                                  monkeypatch):
        """Past the dense bound each coded column is ranked down to its
        present codes first, so a query whose vocabulary product is huge
        but whose present values are few neither raises nor sorts."""
        sizes = (48, 48, 48)
        store = _vocab_store(tmp_path / "s", sizes, 300, 64, seed=1)
        assert math.prod(sizes) > max(300, 2 ** 16)
        calls = _key_space_spy(monkeypatch)
        reference = _assert_engines_agree(lambda: _vocab_query(
            store, _VOCAB_KEYS, False, False, _VOCAB_PREDICATES["drop-two"],
            False))
        assert reference
        assert (math.prod(sizes) not in {size for _rows, size in calls})
        assert {size for _rows, size in calls} >= {48}

    def test_additive_reductions_never_build_the_group_order(
            self, tmp_path, monkeypatch):
        store = _vocab_store(tmp_path / "s", (4, 3, 2), 600, 64, seed=0)
        reads = []
        order = kernels.GroupedReducer.order

        def counted(reducer):
            reads.append(reducer)
            return order.fget(reducer)

        monkeypatch.setattr(kernels.GroupedReducer, "order",
                            property(counted))

        def build(*fns):
            return (store.query("fleet_events").where("latency_ms", "<", 90.0)
                    .group_by("device_name", "backend")
                    .agg(**{f"{column}_{fn}": (column, fn)
                            for column in ("latency_ms", "cloud_bytes",
                                           "user_id") for fn in fns}))

        additive = ("count", "sum", "mean", "std")
        columns = build(*additive).aggregate_arrays()
        assert reads == []
        assert _zip_columns(columns) == \
            build(*additive).aggregate(engine="reference")
        build(*additive, "p90").aggregate_arrays()
        assert len(reads) >= 1


def _int_key_store(root, user_ids, times=None) -> ResultStore:
    """``fleet_events`` rows whose ``user_id`` (and ``time_s``) are given."""
    batch = synthetic_fleet_batch(0, len(user_ids), seed=0)
    batch["user_id"] = np.asarray(user_ids, dtype=np.int64)
    if times is not None:
        batch["time_s"] = np.asarray(times, dtype=np.float64)
    store = ResultStore(root)
    with store.writer(rows_per_segment=16) as writer:
        writer.append_batch("fleet_events", batch)
    return store


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


class TestIntegerKeysCountedOnce:
    """Integer group keys are counted, and group like ``np.unique``."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(-40, 40), _INT64), min_size=1,
                    max_size=50),
           st.sampled_from((1, 50, 2 ** 16)))
    @example([-2 ** 63, 2 ** 63 - 1], 2 ** 16)
    @example([5], 1)
    @example([-3, -3, -1], 1)
    def test_factorize_equals_np_unique(self, values, bound):
        column = np.array(values, dtype=np.int64)
        uniques, inverse = Query._factorize(column, bound)
        expected, expected_inverse = np.unique(column, return_inverse=True)
        assert uniques.dtype == column.dtype
        assert uniques.tolist() == expected.tolist()
        assert inverse.tolist() == expected_inverse.tolist()

    @pytest.mark.parametrize("span, counted", [(2 ** 16 - 1, True),
                                               (2 ** 16, False),
                                               (2 ** 16 + 1, False)])
    def test_range_bound(self, tmp_path, monkeypatch, span, counted):
        low = -7
        store = _int_key_store(tmp_path / "s", [low + span, low, 3, low])
        build = lambda: (store.query("fleet_events").group_by("user_id")
                         .agg(n=("latency_ms", "count"),
                              p90=("latency_ms", "p90")))
        rows = _assert_engines_agree(build)
        assert [(row["user_id"], row["n"]) for row in rows] == \
            [(low, 2), (3, 1), (low + span, 1)]
        calls = _key_space_spy(monkeypatch)
        build().aggregate_arrays()
        # One count for the one key, and none over the folded key.
        assert calls == ([(4, span + 1)] if counted else [])

    def test_one_row(self, tmp_path, monkeypatch):
        store = _int_key_store(tmp_path / "s", [-12])
        build = lambda: (store.query("fleet_events").group_by("user_id")
                         .agg(p50=("latency_ms", "p50")))
        rows = _assert_engines_agree(build)
        assert [row["user_id"] for row in rows] == [-12]
        calls = _key_space_spy(monkeypatch)
        build().aggregate_arrays()
        assert calls == [(1, 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.integers(-40, 40), _INT64),
                              st.floats(-1e6, 1e6)),
                    min_size=1, max_size=50),
           st.sampled_from((0.5, 7.5, 1e5)),
           st.sampled_from((("user_id",), ("time_s_bin",),
                            ("user_id", "device_name"),
                            ("time_s_bin", "user_id"))))
    def test_engines_agree_on_integer_and_bin_keys(self, rows, width, keys):
        with tempfile.TemporaryDirectory() as tmp:
            store = _int_key_store(Path(tmp) / "s",
                                   [user for user, _ in rows],
                                   [time for _, time in rows])
            grouped = _assert_engines_agree(lambda: (
                store.query("fleet_events").bin("time_s", width)
                .group_by(*keys)
                .agg(**{f"lat_{fn}": ("latency_ms", fn) for fn in ALL_FNS},
                     model_max=("model_name", "max"))))
            arrays = store.query("fleet_events").arrays(
                "time_s", "user_id", "device_name")
            arrays["time_s_bin"] = (arrays["time_s"] // width).astype(
                np.int64)
            assert [(*(row[k] for k in keys), row["lat_count"])
                    for row in grouped] == \
                _python_group_counts([arrays[k] for k in keys])


class TestRowsLimit:
    def test_limit_is_the_prefix_and_builds_only_those_rows(
            self, tmp_path, monkeypatch):
        from repro.store import query as query_module

        store = ResultStore(tmp_path / "s")
        with store.writer(rows_per_segment=4096) as writer:
            writer.append_batch("fleet_events",
                                synthetic_fleet_batch(0, 12_000, seed=1))
        build = lambda: (store.query("fleet_events")
                         .where("latency_ms", "<", 1e9))
        everything = build().rows()
        assert len(everything) >= 10_000
        for limit in (0, 1, 10, len(everything), len(everything) + 5):
            assert build().rows(limit=limit) == everything[:limit]
        with pytest.raises(ValueError):
            build().rows(limit=-1)

        built = []

        class CountingDict(dict):
            def __init__(self, *args, **kwargs):
                if args or kwargs:
                    built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(query_module, "dict", CountingDict, raising=False)
        assert build().rows(limit=10) == everything[:10]
        assert len(built) <= 10
        built.clear()
        build().rows()
        assert len(built) == len(everything)  # the counter sees every row
