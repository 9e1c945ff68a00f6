"""Differential oracle for the write path: columnar seals vs per-row JSONL.

``StoreWriter`` seals every append — row or batch — as a packed columnar
segment.  The reference is the row-oriented format it replaced: the same
rows, cut at the same segment boundaries, sealed one JSONL row log per
segment through :func:`~repro.store.segment.write_segment` and read back
from that log (its npz caches are deleted, so every reference column is
decoded from JSON).  Generated streams cover every row kind, short and
long strings, int64 extremes, NaN/inf, bools, and interleaved
``append_row`` / ``append_batch`` / ``flush`` calls; the two stores must
agree on ``arrays()`` (dtype and bytes), ``rows()``, ``objects()``, the
manifest stats and grouped ``aggregate()`` under both engines.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime import Backend
from repro.store import ResultStore
from repro.store.schema import ROW_KINDS, kind_for
from repro.store.segment import write_segment

#: Small pools so generated streams repeat values (real groups, dictionary
#: encoding) next to free-form strings and numbers.
STR_POOL = ("", "a", "Pixel 4", "S21", "device", "cloud", "ü-ß-名前")
INT_POOL = (0, 1, -1, 7, 2 ** 63 - 1, -2 ** 63)
FLOAT_POOL = (0.0, -0.0, 1.5, math.nan, math.inf, -math.inf, 5e-324)

#: Columns whose values must parse back into a pipeline object.
STR_CHOICES = {("executions", "backend"): tuple(b.value for b in Backend)}

_TEXT = st.characters(blacklist_categories=("Cs",),
                      blacklist_characters="\x00")


def _value(kind_name: str, column):
    if column.dtype == "str":
        choices = STR_CHOICES.get((kind_name, column.name))
        if choices:
            return st.sampled_from(choices)
        return st.one_of(st.sampled_from(STR_POOL),
                         st.text(_TEXT, max_size=12),
                         st.text(_TEXT, min_size=60, max_size=200))
    if column.dtype == "i8":
        return st.one_of(st.sampled_from(INT_POOL),
                         st.integers(-2 ** 63, 2 ** 63 - 1))
    if column.dtype == "f8":
        # Only the canonical NaN: JSON keeps no NaN payload bits.
        return st.one_of(st.sampled_from(FLOAT_POOL),
                         st.floats(allow_nan=False))
    return st.booleans()


def _rows(kind_name: str):
    kind = kind_for(kind_name)
    return st.lists(st.fixed_dictionaries(
        {column.name: _value(kind_name, column) for column in kind.columns}),
        min_size=1, max_size=6)


@st.composite
def streams(draw):
    """``(rows_per_segment, ops)``; an op is ``("row"|"batch", kind, rows)``
    or ``("flush", None, [])``."""
    kinds = draw(st.lists(st.sampled_from(sorted(ROW_KINDS)), min_size=1,
                          max_size=3, unique=True))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        mode = draw(st.sampled_from(("row", "batch", "batch", "flush")))
        if mode == "flush":
            ops.append(("flush", None, []))
            continue
        kind_name = draw(st.sampled_from(kinds))
        ops.append((mode, kind_name, draw(_rows(kind_name))))
    return draw(st.integers(min_value=1, max_value=5)), ops


def _batch(kind, rows) -> dict:
    return {column.name: np.array([row[column.name] for row in rows],
                                  dtype=column.numpy_dtype)
            for column in kind.columns}


def _write(store: ResultStore, rows_per_segment: int, ops) -> None:
    with store.writer(rows_per_segment=rows_per_segment) as writer:
        for mode, kind_name, rows in ops:
            if mode == "flush":
                writer.flush()
            elif mode == "row":
                for row in rows:
                    writer.append_row(kind_name, row)
            else:
                writer.append_batch(kind_name,
                                    _batch(kind_for(kind_name), rows))


def _write_reference(store: ResultStore, rows_per_segment: int, ops) -> None:
    """Per-row JSONL segments at the writer's boundaries: every
    ``rows_per_segment`` rows of a kind, and at each flush."""
    open_segments: dict[str, list] = {}
    sealed: list[tuple[str, list]] = []

    def close(kind_name: str) -> None:
        if open_segments.get(kind_name):
            sealed.append((kind_name, open_segments.pop(kind_name)))

    for mode, kind_name, rows in ops:
        if mode == "flush":
            for name in list(open_segments):
                close(name)
            continue
        for row in rows:
            open_segments.setdefault(kind_name, []).append(row)
            if len(open_segments[kind_name]) == rows_per_segment:
                close(kind_name)
    for name in list(open_segments):
        close(name)
    metas = []
    for kind_name, rows in sealed:
        metas.append(write_segment(store.segments_dir,
                                   store._allocate_name(kind_name),
                                   kind_for(kind_name), rows))
    store._commit(metas)
    for meta in metas:  # read the reference back from its JSONL logs
        (store.segments_dir / meta.cache_filename).unlink()


def _canonical(value) -> str:
    """Exact text form: keeps types, key order, -0.0 and NaN comparable."""
    return json.dumps(value)


def _objects(store, kind_name):
    try:
        return repr(store.query(kind_name).objects())
    except (TypeError, ValueError) as error:
        return type(error).__name__


def _grouped(store, kind, keys, engine):
    numeric = [c.name for c in kind.columns if c.is_numeric]
    strings = [c.name for c in kind.columns if c.dtype == "str"]
    aggs = {"n": (kind.columns[0].name, "count")}
    for name in numeric[:2]:
        aggs.update({f"{name}_sum": (name, "sum"),
                     f"{name}_min": (name, "min"),
                     f"{name}_mean": (name, "mean"),
                     f"{name}_p50": (name, "p50")})
    for name in strings[:1]:
        aggs[f"{name}_max"] = (name, "max")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, ...
        return (store.query(kind.name).group_by(*keys).agg(**aggs)
                .aggregate(engine=engine))


@given(stream=streams(),
       key_choice=st.lists(st.sampled_from(("str", "i8", "bool")),
                           min_size=1, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
def test_writer_matches_per_row_jsonl_reference(tmp_path_factory, stream,
                                                key_choice):
    rows_per_segment, ops = stream
    base = tmp_path_factory.mktemp("oracle")
    written = ResultStore(base / "written.store")
    _write(written, rows_per_segment, ops)
    reference = ResultStore(base / "reference.store")
    _write_reference(reference, rows_per_segment, ops)

    written = ResultStore(written.root)
    reference = ResultStore(reference.root)
    assert {m.format for m in written.segments} <= {"columnar"}
    assert not [path for path in written.segments_dir.glob("*")
                if path.suffix in (".jsonl", ".npz")]
    assert sorted(written.kinds()) == sorted(reference.kinds())
    for kind_name in reference.kinds():
        kind = kind_for(kind_name)
        ours = written.segments_for(kind_name)
        theirs = reference.segments_for(kind_name)
        assert [m.rows for m in ours] == [m.rows for m in theirs]
        assert _canonical([m.stats for m in ours]) \
            == _canonical([m.stats for m in theirs])

        arrays = written.query(kind_name).arrays()
        expected = reference.query(kind_name).arrays()
        for name, array in expected.items():
            assert arrays[name].dtype == array.dtype, name
            assert arrays[name].tobytes() == array.tobytes(), name
        assert _canonical(written.query(kind_name).rows()) \
            == _canonical(reference.query(kind_name).rows())
        assert _objects(written, kind_name) == _objects(reference, kind_name)

        keys = []
        for dtype in key_choice:
            keys += [c.name for c in kind.columns if c.dtype == dtype][:1]
        if not keys:
            continue
        for engine in ("kernel", "reference"):
            assert _canonical(_grouped(written, kind, keys, engine)) \
                == _canonical(_grouped(reference, kind, keys, engine))


def test_aggregate_pins_native_scalar_types(tmp_path):
    """Group labels and reductions come out as plain Python scalars."""
    store = ResultStore(tmp_path / "types.store")
    rows = [{"region": region, "cloud_api": "Speech", "bin_index": index,
             "bin_start_s": index * 900.0, "bin_seconds": 900.0,
             "requests": index + 1, "payload_bytes": 10 * index}
            for index, region in enumerate(("east", "west", "east"))]
    with store.writer() as writer:
        for row in rows:
            writer.append_row("fleet_load", row)
    bools = ResultStore(tmp_path / "bools.store")
    with bools.writer() as writer:
        for flag, weight in ((True, 0.25), (False, 0.5), (True, 0.25)):
            writer.append_row("models", {
                "name": "m", "checksum": "c", "app_package": "p",
                "category": "TOOLS", "source": "s", "framework": "tflite",
                "file_names": "f", "size_bytes": 1, "num_layers": 2,
                "flops": 3, "parameters": 4, "modality": "image",
                "task": "t", "has_dequantize_layer": flag,
                "int8_weight_fraction": weight,
                "int8_activation_fraction": 0.0,
                "has_cluster_prefix": False, "has_prune_prefix": False,
                "near_zero_weight_fraction": 0.0})

    for engine in ("kernel", "reference"):
        grouped = (store.query("fleet_load")
                   .bin("bin_start_s", 1800.0, label="half_hour")
                   .group_by("region", "bin_index", "bin_start_s",
                             "half_hour")
                   .agg(n=("requests", "count"), total=("requests", "sum"),
                        mean=("requests", "mean"))
                   .aggregate(engine=engine))
        assert [(row["region"], row["bin_index"], row["bin_start_s"],
                 row["half_hour"]) for row in grouped] == [
            ("east", 0, 0.0, 0), ("east", 2, 1800.0, 1),
            ("west", 1, 900.0, 0)]
        for row in grouped:
            assert [type(row[key]) for key in row] == [
                str, int, float, int, int, int, float]
        flags = (bools.query("models").group_by("has_dequantize_layer")
                 .agg(n=("flops", "count"),
                      weight=("int8_weight_fraction", "max"))
                 .aggregate(engine=engine))
        assert flags == [{"has_dequantize_layer": False, "n": 1,
                          "weight": 0.5},
                         {"has_dequantize_layer": True, "n": 2,
                          "weight": 0.25}]
        for row in flags:
            assert [type(row[key]) for key in row] == [bool, int, float]
