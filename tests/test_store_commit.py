"""Segment-name allocation and the one manifest commit of ``ResultStore``.

Every writer, compaction, export and merge names its segments through the
store (``_allocate_name``) and publishes them through one commit function
(``_commit``).  These tests pin the names a store hands out across a
writer -> compaction -> merge -> writer life, the splice rule of a
replacement commit, and the manifest that commit writes.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.store import ResultStore, compact_store, merge_stores
from repro.store.schema import kind_for


def _batch(kind_name: str, rows: int, offset: int = 0) -> dict:
    """A deterministic column batch of any kind (values are row numbers)."""
    index = np.arange(offset, offset + rows)
    columns = {}
    for column in kind_for(kind_name).columns:
        if column.dtype == "str":
            columns[column.name] = np.array([f"v{i % 3}" for i in index])
        else:
            columns[column.name] = index.astype(column.numpy_dtype)
    return columns


def _names(store: ResultStore) -> list[str]:
    return [meta.name for meta in store.segments]


def _user_ids(store: ResultStore) -> list[int]:
    return store.query("fleet_events").arrays("user_id")["user_id"].tolist()


def test_names_through_writer_compaction_merge_writer(tmp_path):
    store = ResultStore(tmp_path / "s")
    with store.writer(rows_per_segment=2) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 5))
        writer.append_batch("fleet_load", _batch("fleet_load", 2))
    assert _names(store) == [
        "fleet_events-000001", "fleet_events-000002", "fleet_load-000003",
        "fleet_events-000004"]

    compact_store(store, kinds=("fleet_events",), rows_per_segment=4)
    # The compacted kind takes the place of its first old segment.
    assert _names(store) == [
        "fleet_events-000005", "fleet_events-000006", "fleet_load-000003"]

    source = ResultStore(tmp_path / "source")
    with source.writer(rows_per_segment=3) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 4, 100))
    merge_stores(store, [source])
    with store.writer(rows_per_segment=2) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 3, 200))

    expected = [
        "fleet_events-000005", "fleet_events-000006", "fleet_load-000003",
        "fleet_events-000007", "fleet_events-000008",
        "fleet_events-000009", "fleet_events-000010"]
    assert _names(store) == expected
    reopened = ResultStore(store.root)
    assert _names(reopened) == expected
    assert reopened.sequence == 10
    assert reopened.verify_integrity() == len(expected)
    assert _user_ids(reopened) == [0, 1, 2, 3, 4, 100, 101, 102, 103,
                                   200, 201, 202]


def test_writer_beside_compaction_on_one_handle_never_reuses_a_name(tmp_path):
    """A writer opened before a compaction through the same handle names
    its next segment after the compaction's, instead of overwriting it."""
    store = ResultStore(tmp_path / "s")
    writer = store.writer(rows_per_segment=1)
    for i in range(4):
        writer.append_batch("fleet_events", _batch("fleet_events", 1, i))
    compact_store(store)
    assert _names(store) == ["fleet_events-000005"]
    writer.append_batch("fleet_events", _batch("fleet_events", 2, 4))
    writer.close()

    reopened = ResultStore(store.root)
    assert _names(reopened) == ["fleet_events-000005", "fleet_events-000006",
                                "fleet_events-000007"]
    assert reopened.verify_integrity() == 3
    assert _user_ids(reopened) == [0, 1, 2, 3, 4, 5]


def test_drop_only_replacement_restarts_the_generation_log(tmp_path):
    store = ResultStore(tmp_path / "s")
    with store.writer(rows_per_segment=2) as writer:
        for i in range(3):
            writer.append_batch("fleet_events", _batch("fleet_events", 2, i))
            writer.flush()
    generation = store.generation
    assert len(store.generations()) == 3

    store._commit([], replacing=store.segments[-1:])
    assert _names(store) == ["fleet_events-000001", "fleet_events-000002"]
    assert store.generation == generation + 1
    assert store.generations() == {generation + 1: 2}
    assert store.sequence == 3  # dropping a segment frees no name
    assert _names(ResultStore(store.root)) == _names(store)


def test_replacing_an_uncommitted_segment_is_refused(tmp_path):
    store = ResultStore(tmp_path / "s")
    with store.writer(rows_per_segment=2) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 4))
    renamed = dataclasses.replace(store.segments[0],
                                  name="fleet_events-000099")
    before = store.manifest_path.read_bytes()
    with pytest.raises(ValueError, match="uncommitted"):
        store._commit([], replacing=[renamed])
    assert store.manifest_path.read_bytes() == before


def test_manifest_is_compact_json_of_every_committed_entry(tmp_path):
    store = ResultStore(tmp_path / "s")
    with store.writer(rows_per_segment=2) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 5))
    compact_store(store, rows_per_segment=4)
    # A handle that re-read the manifest commits the same entries.
    other = ResultStore(store.root)
    with other.writer(rows_per_segment=2) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 2, 5))

    text = other.manifest_path.read_text()
    assert text.endswith("\n") and "\n" not in text[:-1]
    data = json.loads(text)
    assert list(data) == ["format_version", "sequence", "generation",
                          "generations", "segments"]
    assert data["segments"] == [meta.to_json() for meta in other.segments]
    assert data["sequence"] == other.sequence == 6
    assert _names(ResultStore(store.root)) == [
        "fleet_events-000004", "fleet_events-000005", "fleet_events-000006"]


def test_refresh_keeps_the_held_metas_of_unchanged_entries(tmp_path):
    """A refresh that finds one more segment keeps every held meta object,
    so the column view's prefix check compares identical objects."""
    root = tmp_path / "s"
    with ResultStore(root).writer(rows_per_segment=8) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 20))
    reader = ResultStore(root)
    held = reader.segments
    assert reader.query("fleet_events").count() == 20
    with ResultStore(root).writer(rows_per_segment=8) as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 5, 20))
    reader.refresh()
    assert len(reader.segments) == len(held) + 1
    assert all(new is old for new, old in zip(reader.segments, held))
    assert _user_ids(reader) == list(range(25))
    assert reader.view_stats()["misses"] == 1  # the view was extended


def test_refresh_replaces_a_meta_whose_name_now_holds_other_rows(tmp_path):
    """A manifest entry whose name a reader holds now carries another
    ``sha256``, and the file under that name holds other rows: the reader
    gets a fresh meta for it, and its reads follow the file now on disk."""
    root = tmp_path / "s"
    with ResultStore(root).writer() as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 4))
    reader = ResultStore(root)
    held = reader.segments[0]
    assert _user_ids(reader) == [0, 1, 2, 3]
    # Seal other rows under the same name in a second store, then put its
    # segment file and manifest entry in place of the first.
    other = tmp_path / "other"
    with ResultStore(other).writer() as writer:
        writer.append_batch("fleet_events", _batch("fleet_events", 4, 100))
    entry = json.loads((other / "MANIFEST.json").read_text())["segments"][0]
    assert entry["name"] == held.name
    path = f"segments/{held.name}.colseg"
    os.replace(other / path, root / path)
    manifest = json.loads((root / "MANIFEST.json").read_text())
    manifest["segments"][0] = entry
    (root / "MANIFEST.json").write_text(json.dumps(manifest))
    reader.refresh()
    fresh = reader.segments[0]
    assert (fresh.name, fresh.rows) == (held.name, held.rows)
    assert fresh is not held and fresh.sha256 != held.sha256
    assert fresh.stats["user_id"] == {"min": 100, "max": 103}
    assert _user_ids(reader) == [100, 101, 102, 103]
