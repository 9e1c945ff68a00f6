"""Tests for the vectorised store-level diff engine (repro.store.diff)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.store import (DIFF_SPECS, DiffSpec, MetricSpec, ResultStore,
                         diff_kind, diff_kind_reference, diff_stores)
from repro.store.diff import spec_for


def fleet_batch(n, seed, *, region_pool=("amer", "emea", "apac"),
                latency_scale=1.0):
    """A deterministic fleet_events batch with a few distinct group keys."""
    rng = np.random.default_rng(seed)
    regions = np.array(region_pool, dtype="U16")
    return {
        "user_id": np.arange(n, dtype=np.int64),
        "time_s": rng.uniform(0, 86400, n),
        "device_name": np.array(["pixel4"] * n, dtype="U16"),
        "model_name": np.array(["mobilenet"] * n, dtype="U16"),
        "scenario": np.array(["photo"] * n, dtype="U16"),
        "backend": np.array(["cpu"] * n, dtype="U8"),
        "region": regions[rng.integers(0, len(region_pool), n)],
        "target": np.array(["local"] * n, dtype="U8"),
        "latency_ms": rng.uniform(1, 80, n) * latency_scale,
        "wait_ms": rng.uniform(0, 10, n),
        "energy_mj": rng.uniform(1, 50, n),
        "throttle_factor": np.ones(n),
        "battery_fraction": rng.uniform(0.2, 1.0, n),
        "discharge_mah": rng.uniform(0, 1, n),
        "cloud_api": np.array([""] * n, dtype="U16"),
        "cloud_bytes": rng.integers(0, 1000, n),
    }


def make_store(path, batch=None):
    store = ResultStore(path)
    if batch is not None:
        with store.writer() as writer:
            writer.append_batch("fleet_events", batch)
    return store


class TestSpecs:
    def test_every_spec_matches_its_schema(self):
        from repro.store.schema import kind_for

        for kind_name, spec in DIFF_SPECS.items():
            kind = kind_for(kind_name)
            names = {column.name for column in kind.columns}
            assert set(spec.keys) <= names
            for metric in spec.metrics:
                if metric.column is not None:
                    assert metric.column in names

    def test_metric_spec_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("latency_ms", agg="median")
        with pytest.raises(ValueError):
            MetricSpec(None, agg="sum")
        assert MetricSpec(None, agg="count").out_name == "rows"
        assert MetricSpec("latency_ms", agg="sum").out_name == \
            "latency_ms_sum"

    def test_diff_spec_validation(self):
        with pytest.raises(ValueError):
            DiffSpec("executions", (), (MetricSpec(None, agg="count"),))
        with pytest.raises(ValueError):
            DiffSpec("executions", ("model_name",),
                     (MetricSpec(None, agg="count"),
                      MetricSpec(None, agg="count")))

    def test_spec_for_unknown_kind(self):
        with pytest.raises(KeyError):
            spec_for("nope")


class TestDiffEngine:
    def test_self_diff_is_bitexact_zero(self, tmp_path):
        store = make_store(tmp_path / "a.store", fleet_batch(500, 11))
        diff = diff_stores(store, store)
        assert diff.identical
        kind = diff.kinds["fleet_events"]
        assert kind.num_changed == kind.num_added == kind.num_removed == 0
        for metric in kind.metrics:
            assert not kind.changed.any()
            # Deltas are bit-exact zero, not just close to it.
            np.testing.assert_array_equal(kind.delta[metric],
                                          np.zeros(kind.matched))
            np.testing.assert_array_equal(kind.a[metric], kind.b[metric])

    def test_empty_vs_empty(self, tmp_path):
        a = make_store(tmp_path / "a.store")
        b = make_store(tmp_path / "b.store")
        diff = diff_stores(a, b)
        assert diff.identical
        assert diff.kinds == {}

    def test_empty_vs_nonempty_reports_all_added(self, tmp_path):
        a = make_store(tmp_path / "a.store")
        b = make_store(tmp_path / "b.store", fleet_batch(300, 5))
        diff = diff_stores(a, b)
        assert not diff.identical
        kind = diff.kinds["fleet_events"]
        assert kind.rows_a == 0 and kind.rows_b == 300
        assert kind.matched == 0 and kind.num_changed == 0
        assert kind.num_removed == 0 and kind.num_added == 3
        # Mirror-image diff reports the same groups as removed.
        mirrored = diff_stores(b, a).kinds["fleet_events"]
        assert mirrored.num_added == 0 and mirrored.num_removed == 3

    def test_disjoint_group_keys(self, tmp_path):
        a = make_store(tmp_path / "a.store",
                       fleet_batch(200, 5, region_pool=("amer", "emea")))
        b = make_store(tmp_path / "b.store",
                       fleet_batch(200, 5, region_pool=("apac", "mena")))
        kind = diff_stores(a, b).kinds["fleet_events"]
        assert kind.matched == 0 and kind.num_changed == 0
        assert kind.num_removed == 2 and kind.num_added == 2
        removed = {row["region"] for row in kind.removed_rows()}
        added = {row["region"] for row in kind.added_rows()}
        assert removed == {"amer", "emea"}
        assert added == {"apac", "mena"}

    def test_changed_metrics_and_deltas(self, tmp_path):
        a = make_store(tmp_path / "a.store", fleet_batch(400, 7))
        b = make_store(tmp_path / "b.store",
                       fleet_batch(400, 7, latency_scale=1.01))
        kind = diff_stores(a, b).kinds["fleet_events"]
        assert kind.matched == 3 and kind.num_changed == 3
        for row in kind.changed_rows():
            cell = row["latency_ms_sum"]
            assert cell["b"] > cell["a"]
            assert cell["delta"] == cell["b"] - cell["a"]
            # Row counts per group did not change.
            assert row["rows"]["a"] == row["rows"]["b"]

    def test_where_pushdown_restricts_the_diff(self, tmp_path):
        a = make_store(tmp_path / "a.store",
                       fleet_batch(200, 5, region_pool=("amer", "emea")))
        b = make_store(tmp_path / "b.store",
                       fleet_batch(200, 5, region_pool=("amer", "mena")))
        diff = diff_stores(a, b, where=(("region", "==", "amer"),))
        kind = diff.kinds["fleet_events"]
        assert kind.num_added == 0 and kind.num_removed == 0
        assert kind.matched == 1

    def test_mixed_v2_v3_segments_diff_identically(self, tmp_path):
        from repro.store.schema import kind_for

        batch = fleet_batch(60, 3)
        columnar = make_store(tmp_path / "v3.store", batch)
        # The same rows written through the row-oriented JSONL path.
        jsonl = ResultStore(tmp_path / "v2.store")
        names = [column.name for column in kind_for("fleet_events").columns]
        with jsonl.writer(rows_per_segment=16) as writer:
            for i in range(60):
                writer.append_row("fleet_events",
                                  {name: batch[name][i].item()
                                   for name in names})
        formats = {meta.format for meta in jsonl.segments_for("fleet_events")}
        assert formats == {"jsonl"}
        assert diff_stores(columnar, jsonl).identical
        # Mixed store (columnar + jsonl segments) still diffs clean.
        mixed = ResultStore(tmp_path / "mixed.store")
        with mixed.writer() as writer:
            writer.append_batch(
                "fleet_events",
                {name: array[:30] for name, array in batch.items()})
            for i in range(30, 60):
                writer.append_row("fleet_events",
                                  {name: batch[name][i].item()
                                   for name in names})
        assert sorted({meta.format
                       for meta in mixed.segments_for("fleet_events")}) == \
            ["columnar", "jsonl"]
        assert diff_stores(mixed, columnar).identical

    def test_unknown_explicit_kind_raises(self, tmp_path):
        store = make_store(tmp_path / "a.store", fleet_batch(10, 1))
        with pytest.raises(KeyError):
            diff_stores(store, store, kinds=("nope",))

    def test_kind_without_spec_is_skipped(self, tmp_path):
        store = make_store(tmp_path / "a.store", fleet_batch(10, 1))
        spec = spec_for("fleet_events")
        specs = {"fleet_events": spec}
        diff = diff_stores(store, store, specs=specs)
        assert diff.identical and diff.skipped == ()

    def test_summary_shape(self, tmp_path):
        a = make_store(tmp_path / "a.store", fleet_batch(100, 2))
        b = make_store(tmp_path / "b.store",
                       fleet_batch(100, 2, latency_scale=2.0))
        summary = diff_stores(a, b).summary()
        entry = summary["fleet_events"]
        assert entry["rows_a"] == entry["rows_b"] == 100
        assert entry["changed"] == entry["matched"]


def assert_matches_reference(store_a, store_b, spec=None, *, where=(),
                             reference_pair=None):
    """``diff_kind`` equals ``diff_kind_reference`` bit for bit.

    ``reference_pair`` holds the two stores the reference reads (default:
    the same pair); a ``where`` diff compares against stores holding only
    the matching rows, since the reference has no predicates.
    """
    spec = spec_for("fleet_events") if spec is None else spec
    fast = diff_kind(store_a, store_b, spec, where=where)
    slow = diff_kind_reference(*(reference_pair or (store_a, store_b)), spec)
    assert fast.matched == slow["matched"]
    fast_changed = {}
    for row in fast.changed_rows(limit=None):
        key = tuple(row[name] for name in spec.keys)
        fast_changed[key] = {
            metric: (row[metric]["a"], row[metric]["b"],
                     row[metric]["delta"])
            for metric in fast.metrics
            if row[metric]["a"] != row[metric]["b"]}
    slow_changed = {
        key: {metric: triple for metric, triple in cells.items()}
        for key, cells in slow["changed"].items()}
    assert set(fast_changed) == set(slow_changed)
    for key, cells in slow_changed.items():
        for metric, (sa, sb, sd) in cells.items():
            fa, fb, fd = fast_changed[key][metric]
            # Bit-exact, not approx: same reduction order.
            assert fa == sa and fb == sb and fd == sd
    fast_added = {tuple(row[name] for name in spec.keys)
                  for row in fast.added_rows(limit=None)}
    fast_removed = {tuple(row[name] for name in spec.keys)
                    for row in fast.removed_rows(limit=None)}
    assert fast_added == slow["added"]
    assert fast_removed == slow["removed"]
    return fast


class TestAgainstReference:
    """The vectorised engine must agree bit-exactly with the per-row path."""

    def test_perturbed_pair(self, tmp_path):
        a = make_store(tmp_path / "a.store", fleet_batch(800, 17))
        b = make_store(tmp_path / "b.store",
                       fleet_batch(800, 17, latency_scale=1.001))
        assert_matches_reference(a, b)

    def test_added_and_removed_groups(self, tmp_path):
        a = make_store(tmp_path / "a.store",
                       fleet_batch(500, 9, region_pool=("amer", "emea",
                                                        "apac")))
        b = make_store(tmp_path / "b.store",
                       fleet_batch(500, 9, region_pool=("emea", "apac",
                                                        "mena")))
        assert_matches_reference(a, b)


    def test_mean_of_large_ints_matches_reference(self, tmp_path):
        # Means accumulate float64 in row order, like the reference: an
        # exact int64 sum divided by the count disagrees near 2**55.
        spec = DiffSpec("fleet_events", ("region", "device_name"),
                        (MetricSpec("cloud_bytes", "mean"),))
        stores = []
        for name, seed in (("a", 1), ("b", 2)):
            batch = fleet_batch(400, seed)
            batch["device_name"] = np.array(("pixel4", "S21"))[
                np.arange(400) % 2]
            batch["cloud_bytes"] = batch["cloud_bytes"] + 2 ** 55
            stores.append(make_store(tmp_path / f"{name}.store", batch))
        fast = assert_matches_reference(*stores, spec)
        assert fast.matched == fast.num_changed == 6

    def test_matched_groups_in_ascending_key_order(self, tmp_path):
        batches = []
        for pool in (("mena", "emea", "amer"), ("emea", "mena", "apac")):
            batch = fleet_batch(9, 3)
            batch["region"] = np.array(pool * 3, dtype="U16")
            batches.append(batch)
        kind = diff_stores(make_store(tmp_path / "a.store", batches[0]),
                           make_store(tmp_path / "b.store", batches[1])
                           ).kinds["fleet_events"]
        assert kind.key_arrays["region"].tolist() == ["emea", "mena"]
        assert [row["region"] for row in kind.changed_rows()] == \
            ["emea", "mena"]
        assert [row["region"] for row in kind.removed_rows()] == ["amer"]
        assert [row["region"] for row in kind.added_rows()] == ["apac"]


#: Generated diffs group by string, int and float key columns ...
GEN_KEYS = ("device_name", "region", "user_id", "battery_fraction")
#: ... and reduce every diff aggregation over an int and a float column.
#: A count alone reads its spec's first key column.
GEN_METRICS = (MetricSpec(None, "count"),) + tuple(
    MetricSpec(column, agg) for column in ("latency_ms", "cloud_bytes")
    for agg in ("sum", "mean", "min", "max"))
GEN_WHERE = ((), (("region", "==", "emea"),), (("latency_ms", "<", 40.0),),
             (("region", "in", ("amer", "apac")),
              ("user_id", ">=", 1)))
_OPS = {"==": np.equal, "<": np.less, ">=": np.greater_equal,
        "in": np.isin}


def generated_batch(n, seed, big_ints):
    """``n`` fleet rows over a few values per key column (groups collide)."""
    rng = np.random.default_rng(seed)
    batch = fleet_batch(n, seed)
    batch["device_name"] = np.array(("pixel4", "S21", "A20"),
                                    dtype="U16")[rng.integers(0, 3, n)]
    batch["user_id"] = rng.integers(0, 3, n)
    batch["battery_fraction"] = np.array((0.25, 0.5, 1.0))[
        rng.integers(0, 3, n)]
    if big_ints:
        batch["cloud_bytes"] = batch["cloud_bytes"] + 2 ** 55
    return batch


def write_layout(path, batch, layout):
    """A store holding ``batch`` as columnar, JSONL or mixed segments."""
    from repro.store.schema import kind_for

    store = ResultStore(path)
    n = batch["user_id"].size
    if n == 0:
        return store
    split = {"columnar": n, "jsonl": 0, "mixed": n // 2}[layout]
    names = [column.name for column in kind_for("fleet_events").columns]
    with store.writer(rows_per_segment=8) as writer:
        if split:
            writer.append_batch("fleet_events", {
                name: array[:split] for name, array in batch.items()})
        for i in range(split, n):
            writer.append_row("fleet_events",
                              {name: batch[name][i].item() for name in names})
    return store


@st.composite
def diff_cases(draw):
    keys = tuple(draw(st.lists(st.sampled_from(GEN_KEYS), min_size=1,
                               max_size=3, unique=True)))
    metrics = tuple(draw(st.lists(st.sampled_from(GEN_METRICS), min_size=0,
                                  max_size=4, unique=True)))
    sides = []
    for _ in range(2):
        sides.append((draw(st.integers(min_value=0, max_value=30)),
                      draw(st.integers(min_value=0, max_value=2 ** 16)),
                      draw(st.sampled_from(("columnar", "jsonl", "mixed")))))
    if draw(st.booleans()):  # same rows on both sides, any layouts
        sides[1] = sides[0][:2] + sides[1][2:]
    return (DiffSpec("fleet_events", keys, metrics), sides,
            draw(st.booleans()), draw(st.sampled_from(GEN_WHERE)))


@given(case=diff_cases())
@example(case=(DiffSpec("fleet_events", ("region",),
                        (MetricSpec(None, "count"),)),
               [(0, 1, "columnar"), (12, 2, "jsonl")], False, ()))
@example(case=(DiffSpec("fleet_events", ("user_id", "device_name"),
                        (MetricSpec("cloud_bytes", "mean"),
                         MetricSpec("cloud_bytes", "sum"))),
               [(30, 5, "mixed"), (30, 5, "columnar")], True,
               GEN_WHERE[3]))
@settings(max_examples=40, deadline=None)
def test_diff_kind_matches_reference_on_generated_specs(tmp_path_factory,
                                                        case):
    spec, sides, big_ints, where = case
    base = tmp_path_factory.mktemp("gen")
    stores, filtered = [], []
    for label, (n, seed, layout) in zip("ab", sides):
        batch = generated_batch(n, seed, big_ints)
        stores.append(write_layout(base / f"{label}.store", batch, layout))
        mask = np.ones(n, dtype=bool)
        for column, op, value in where:
            mask &= _OPS[op](batch[column], value)
        filtered.append(write_layout(
            base / f"{label}-where.store",
            {name: array[mask] for name, array in batch.items()}, layout))
    fast = assert_matches_reference(*stores, spec, where=where,
                                    reference_pair=filtered)
    assert fast.rows_a == filtered[0].num_rows("fleet_events")
    assert fast.rows_b == filtered[1].num_rows("fleet_events")
    matched = list(zip(*(fast.key_arrays[name].tolist()
                         for name in spec.keys)))
    assert matched == sorted(matched)


class TestCli:
    def test_store_diff_exit_codes_and_output(self, tmp_path, capsys):
        from repro.cli import main

        a = make_store(tmp_path / "a.store", fleet_batch(200, 7))
        make_store(tmp_path / "b.store",
                   fleet_batch(200, 7, latency_scale=1.01))
        assert main(["store", "diff", str(tmp_path / "a.store"),
                     str(tmp_path / "a.store")]) == 0
        assert "identical" in capsys.readouterr().out

        assert main(["store", "diff", str(tmp_path / "a.store"),
                     str(tmp_path / "b.store")]) == 1
        out = capsys.readouterr().out
        assert "latency_ms_sum" in out and "~" in out

    def test_store_diff_bad_store_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        a = make_store(tmp_path / "a.store", fleet_batch(10, 1))
        bad = tmp_path / "bad.store"
        bad.mkdir()
        (bad / "MANIFEST.json").write_text("{not json")
        assert main(["store", "diff", str(a.root), str(bad)]) == 2
        assert capsys.readouterr().err
