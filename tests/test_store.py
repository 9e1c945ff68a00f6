"""Tests for the persistent results store: durability, round-trips, queries."""

import json

import numpy as np
import pytest

from repro.core import reports
from repro.devices.device import device_by_name
from repro.dnn.zoo import autocomplete_lstm, blazeface, mobilenet_v1
from repro.runtime import Backend, Executor, SweepRunner, SweepSpec
from repro.store import (ReportServer, ResultStore, StoreCorruptionError,
                         ingest_snapshot)
from repro.store.schema import (app_record_from_row, app_record_to_row,
                                execution_result_from_row,
                                execution_result_to_row, kind_for,
                                kind_of_object, scenario_result_from_row,
                                scenario_result_to_row)


@pytest.fixture(scope="module")
def results():
    """A deterministic batch of measurements across two devices/backends."""
    out = []
    for name, seed in (("S21", 3), ("A20", 4)):
        executor = Executor(device_by_name(name), seed=seed)
        for graph in (mobilenet_v1(weight_seed=2), blazeface(weight_seed=2),
                      autocomplete_lstm(weight_seed=2)):
            out.append(executor.run(graph, Backend.CPU, num_inferences=3))
            if graph.name != autocomplete_lstm().name:
                out.append(executor.run(graph, Backend.XNNPACK,
                                        num_inferences=3))
    return out


@pytest.fixture()
def populated(tmp_path, results):
    """A store holding ``results`` across several small segments."""
    store = ResultStore(tmp_path / "campaign.store")
    with store.writer(rows_per_segment=3) as writer:
        for result in results:
            writer.append(result)
    return store


@pytest.fixture()
def legacy(populated):
    """``populated`` rewritten as legacy JSONL segments, same boundaries.

    Appends seal columnar segments; JSONL (row log + npz cache) is written
    only by exports and ``compact_store(output_format="jsonl")``, and is
    still read as the v2 legacy format.
    """
    from repro.store import compact_store

    compact_store(populated, rows_per_segment=3, output_format="jsonl")
    assert {meta.format for meta in populated.segments} == {"jsonl"}
    return populated


class TestSchemaRoundTrip:
    def test_execution_result_exact(self, results):
        for result in results:
            row = execution_result_to_row(result)
            assert execution_result_from_row(row) == result

    def test_execution_result_survives_json(self, results):
        # Float repr round-trips exactly through the JSONL row log.
        for result in results:
            row = json.loads(json.dumps(execution_result_to_row(result)))
            assert execution_result_from_row(row) == result

    def test_app_record_round_trip(self):
        from repro.core.records import AppRecord

        app = AppRecord(package="com.x", title="X", category="TOOLS",
                        downloads=10, rating=4.5,
                        frameworks_in_code=("tflite",), native_libraries=(),
                        accelerators=("gpu", "dsp"),
                        cloud_apis=("Vision/Face",), cloud_providers=("Google",),
                        model_count=2, candidate_file_count=3,
                        apk_size_bytes=123)
        assert app_record_from_row(app_record_to_row(app)) == app

    def test_scenario_result_round_trip(self):
        from repro.core.scenarios import ScenarioResult

        scenario = ScenarioResult(scenario="Typing", device="Q845",
                                  model_name="lstm", inference_count=275,
                                  energy_joules=1.25,
                                  battery_discharge_mah=0.09,
                                  battery_fraction=2.3e-05)
        assert scenario_result_from_row(
            scenario_result_to_row(scenario)) == scenario

    def test_object_dispatch(self, results):
        assert kind_of_object(results[0]).name == "executions"
        with pytest.raises(TypeError):
            kind_of_object(object())

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            kind_for("nope")


class TestWriterAndReopen:
    def test_round_trip_through_disk(self, populated, results):
        reopened = ResultStore(populated.root)
        assert reopened.query("executions").objects() == results

    def test_segment_rotation(self, populated, results):
        segments = populated.segments_for("executions")
        assert len(segments) == -(-len(results) // 3)
        assert sum(meta.rows for meta in segments) == len(results)
        # Row appends seal packed columnar segments: one durable file
        # each, no JSONL row log and no npz cache anywhere.
        for meta in segments:
            assert meta.format == "columnar"
            assert (populated.segments_dir / meta.data_filename).exists()
        assert not [path for path in populated.segments_dir.iterdir()
                    if path.suffix in (".jsonl", ".npz")]

    def test_legacy_jsonl_segments_keep_log_and_cache(self, legacy):
        for meta in legacy.segments_for("executions"):
            assert (legacy.segments_dir / meta.log_filename).exists()
            assert (legacy.segments_dir / meta.cache_filename).exists()

    def test_writer_validates_rows(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with store.writer() as writer:
            with pytest.raises(ValueError):
                writer.append_row("executions", {"model_name": "m"})

    def test_writer_rejects_unknown_row_columns(self, tmp_path, results):
        """A misspelt column must raise, not vanish from every query."""
        store = ResultStore(tmp_path / "s")
        row = execution_result_to_row(results[0])
        with store.writer() as writer:
            with pytest.raises(ValueError,
                               match=r"unknown columns \['latency_MS'\]"):
                writer.append_row("executions", dict(row, latency_MS=1.0))
            with pytest.raises(ValueError, match="missing columns"):
                writer.append_row("executions", {
                    ("latency_MS" if name == "latency_ms" else name): value
                    for name, value in row.items()})
            assert writer.rows_pending == 0
            writer.append_row("executions", row)
        assert store.query("executions").objects() == results[:1]

    def test_closed_writer_refuses_appends(self, tmp_path, results):
        store = ResultStore(tmp_path / "s")
        writer = store.writer()
        writer.append(results[0])
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(results[0])

    def test_open_store_sees_commits_after_refresh(self, tmp_path, results):
        store = ResultStore(tmp_path / "s")
        reader = ResultStore(tmp_path / "s")
        with store.writer(rows_per_segment=2) as writer:
            writer.append_many(results[:4])
        assert reader.num_rows("executions") == 0  # stale view
        reader.refresh()
        assert reader.num_rows("executions") == 4

    def test_ingest_snapshot(self, tmp_path):
        from repro.android.appgen import AppGenerator, GeneratorConfig
        from repro.android.playstore import PlayStore
        from repro.core.pipeline import GaugeNN

        store = PlayStore([AppGenerator(
            GeneratorConfig.snapshot_2021(scale=0.02)).generate()])
        analysis = GaugeNN(store).analyze_snapshot("2021")
        result_store = ResultStore(tmp_path / "s")
        rows = ingest_snapshot(result_store, analysis)
        assert rows == len(analysis.apps) + len(analysis.models)
        assert result_store.num_rows("apps") == len(analysis.apps)
        assert result_store.num_rows("models") == len(analysis.models)
        # App records round-trip exactly through the store.
        assert result_store.query("apps").objects() == analysis.apps


class TestDurability:
    """Ingest -> kill mid-segment (simulated) -> reopen -> committed rows only."""

    def test_uncommitted_segment_is_invisible(self, legacy, results):
        committed = legacy.query("executions").objects()
        # Simulate a crash after a row log was sealed but before the manifest
        # commit: a well-formed segment file that no manifest entry references.
        orphan = legacy.segments_dir / "executions-000099.jsonl"
        orphan.write_text(json.dumps(
            execution_result_to_row(results[0])) + "\n")
        reopened = ResultStore(legacy.root)
        assert reopened.query("executions").objects() == committed

    def test_torn_tmp_files_are_invisible(self, legacy, results):
        committed = legacy.query("executions").objects()
        # Simulate a crash mid-write: partial tmp files for a segment, its
        # cache and the manifest, including a truncated (torn) JSON line.
        half_row = json.dumps(execution_result_to_row(results[0]))[:37]
        (legacy.segments_dir / "executions-000100.jsonl.tmp").write_text(
            json.dumps(execution_result_to_row(results[1])) + "\n" + half_row)
        (legacy.segments_dir / "executions-000100.npz.tmp").write_bytes(b"\x00")
        (legacy.root / "MANIFEST.json.tmp").write_text("{\"format_")
        reopened = ResultStore(legacy.root)
        assert reopened.query("executions").objects() == committed

    def test_torn_colseg_tmp_of_row_appends_is_invisible(self, populated,
                                                         results):
        """Row appends seal .colseg: a crash mid-seal leaves a torn .tmp."""
        from repro.store.columnar import pack_columns
        from repro.store.segment import build_columns

        committed = populated.query("executions").objects()
        assert committed == results
        kind = kind_for("executions")
        payload = pack_columns(kind, build_columns(
            kind, [execution_result_to_row(r) for r in results[:2]]))
        (populated.segments_dir / "executions-000100.colseg.tmp"
         ).write_bytes(payload[:len(payload) // 2])
        (populated.segments_dir / "executions-000099.colseg"
         ).write_bytes(payload)  # sealed, never committed
        (populated.root / "MANIFEST.json.tmp").write_text("{\"format_")
        reopened = ResultStore(populated.root)
        assert reopened.query("executions").objects() == committed
        assert reopened.verify_integrity() == len(reopened.segments)

    def test_reopen_after_partial_flush(self, tmp_path, results):
        # Writer dies before flushing its tail: the committed prefix is exactly
        # the sealed segments, nothing more, nothing less.
        store = ResultStore(tmp_path / "s")
        writer = store.writer(rows_per_segment=4)
        writer.append_many(results)  # seals len(results)//4 full segments
        committed = writer.rows_committed
        assert committed == len(results) - len(results) % 4
        del writer  # crash: pending tail never flushed
        reopened = ResultStore(tmp_path / "s")
        assert reopened.num_rows("executions") == committed
        assert reopened.query("executions").objects() == results[:committed]

    def test_corrupted_segment_detected(self, legacy):
        meta = legacy.segments_for("executions")[0]
        path = legacy.segments_dir / meta.log_filename
        path.write_text(path.read_text().replace("latency_ms", "latency_MS"))
        with pytest.raises(StoreCorruptionError):
            ResultStore(legacy.root).verify_integrity()
        with pytest.raises(StoreCorruptionError):
            ResultStore(legacy.root, verify=True).query(
                "executions").objects()

    def test_corrupted_row_appended_segment_detected(self, populated):
        """The columnar twin: a renamed column in a row-appended .colseg."""
        meta = populated.segments_for("executions")[0]
        path = populated.segments_dir / meta.data_filename
        payload = path.read_bytes()
        assert b"latency_ms" in payload
        path.write_bytes(payload.replace(b"latency_ms", b"latency_MS"))
        with pytest.raises(StoreCorruptionError):
            ResultStore(populated.root).verify_integrity()
        with pytest.raises(StoreCorruptionError):
            ResultStore(populated.root, verify=True).query(
                "executions").objects()
        # The header no longer covers the schema: caught without verify too.
        with pytest.raises(StoreCorruptionError):
            ResultStore(populated.root).query("executions").objects()

    def test_missing_column_cache_rebuilt(self, legacy, results):
        for meta in legacy.segments_for("executions"):
            (legacy.segments_dir / meta.cache_filename).unlink()
        reopened = ResultStore(legacy.root)
        assert reopened.query("executions").objects() == results
        # The rebuild also rewrote the caches.
        for meta in reopened.segments_for("executions"):
            assert (reopened.segments_dir / meta.cache_filename).exists()

    def test_stale_column_cache_ignored(self, legacy, results):
        # A cache from a different generation (checksum mismatch) is rebuilt
        # from the row log instead of being trusted.
        segments = legacy.segments_for("executions")
        first = legacy.segments_dir / segments[0].cache_filename
        second = legacy.segments_dir / segments[1].cache_filename
        first.write_bytes(second.read_bytes())
        reopened = ResultStore(legacy.root)
        assert reopened.query("executions").objects() == results


class TestQueryEngine:
    def test_equality_filter(self, populated, results):
        expected = [r for r in results if r.device_name == "S21"]
        query = populated.query("executions").where(device_name="S21")
        assert query.objects() == expected

    def test_enum_values_accepted(self, populated, results):
        expected = [r for r in results if r.backend is Backend.XNNPACK]
        assert populated.query("executions").where(
            backend=Backend.XNNPACK).objects() == expected

    def test_range_filter(self, populated, results):
        cutoff = sorted(r.latency_ms for r in results)[len(results) // 2]
        expected = [r for r in results if r.latency_ms < cutoff]
        assert populated.query("executions").where(
            "latency_ms", "<", cutoff).objects() == expected

    def test_in_filter(self, populated, results):
        wanted = {mobilenet_v1().name, blazeface().name}
        expected = [r for r in results if r.model_name in wanted]
        assert populated.query("executions").where(
            "model_name", "in", sorted(wanted)).objects() == expected

    def test_count_and_arrays(self, populated, results):
        query = populated.query("executions")
        assert query.count() == len(results)
        arrays = populated.query("executions").arrays("latency_ms", "flops")
        assert arrays["latency_ms"].dtype == np.float64
        assert arrays["latency_ms"].tolist() == [r.latency_ms for r in results]
        assert arrays["flops"].tolist() == [r.flops for r in results]

    def test_unknown_column_rejected(self, populated):
        with pytest.raises(KeyError):
            populated.query("executions").where(nonexistent=1)
        with pytest.raises(KeyError):
            populated.query("executions").group_by("nonexistent")

    def test_type_mismatched_predicate_rejected(self, populated):
        # A string against a numeric column fails at build time with a clear
        # error, not deep inside a stats comparison.
        with pytest.raises(ValueError):
            populated.query("executions").where(batch_size="abc")
        with pytest.raises(ValueError):
            populated.query("executions").where("latency_ms", "<", "fast")
        with pytest.raises(ValueError):
            populated.query("executions").where(device_name=7)

    def test_aggregate_over_no_matching_rows(self, populated):
        out = populated.query("executions").where(
            device_name="NOPE").agg(
            n=("latency_ms", "count"),
            lo=("latency_ms", "min"),
            mid=("latency_ms", "median")).aggregate()
        assert out == {"n": 0, "lo": None, "mid": None}
        grouped = populated.query("executions").where(
            device_name="NOPE").group_by("backend").agg(
            n=("latency_ms", "count")).aggregate()
        assert grouped == []

    def test_aggregate_ungrouped(self, populated, results):
        out = populated.query("executions").agg(
            mean_ms=("latency_ms", "mean"),
            total=("latency_ms", "count")).aggregate()
        assert out["total"] == len(results)
        assert out["mean_ms"] == pytest.approx(
            np.mean([r.latency_ms for r in results]))

    def test_aggregate_grouped_matches_manual(self, populated, results):
        out = populated.query("executions").group_by(
            "device_name", "backend").agg(
            n=("latency_ms", "count"),
            median_mj=("energy_mj", "median")).aggregate()
        manual = {}
        for r in results:
            manual.setdefault((r.device_name, r.backend.value), []).append(
                r.energy_mj)
        assert {(row["device_name"], row["backend"]) for row in out} \
            == set(manual)
        for row in out:
            group = manual[(row["device_name"], row["backend"])]
            assert row["n"] == len(group)
            assert row["median_mj"] == pytest.approx(np.median(group))

    def test_predicate_pushdown_skips_segments(self, tmp_path, results):
        # One segment per device: a device-equality query must only scan one.
        store = ResultStore(tmp_path / "s")
        by_device = {}
        for r in results:
            by_device.setdefault(r.device_name, []).append(r)
        with store.writer(rows_per_segment=10 ** 6) as writer:
            for device_results in by_device.values():
                writer.append_many(device_results)
                writer.flush()
        query = store.query("executions").where(device_name="A20")
        assert query.objects() == by_device["A20"]
        assert query.stats.segments_total == 2
        assert query.stats.segments_skipped == 1
        assert query.stats.segments_scanned == 1

    def test_numeric_pushdown(self, populated, results):
        top = max(r.latency_ms for r in results)
        query = populated.query("executions").where("latency_ms", ">", top)
        assert query.objects() == []
        assert query.stats.segments_scanned < query.stats.segments_total \
            or query.stats.segments_total == query.stats.segments_skipped

    def test_summary_kind_has_no_objects(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with pytest.raises(TypeError):
            store.query("models").objects()


class TestServing:
    @pytest.fixture()
    def by_device(self, results):
        grouped = {}
        for result in results:
            grouped.setdefault(result.device_name, []).append(result)
        return grouped

    def test_latency_ecdf_bit_identical(self, populated, by_device):
        assert ReportServer(populated).latency_ecdf_by_device() \
            == reports.latency_ecdf_by_device(by_device)

    def test_energy_distributions_bit_identical(self, populated, by_device):
        server = ReportServer(populated)
        assert server.energy_distributions() \
            == reports.energy_distributions(by_device)
        assert server.energy_distributions(drop_outliers=False) \
            == reports.energy_distributions(by_device, drop_outliers=False)

    def test_latency_vs_flops_bit_identical(self, populated, by_device):
        server = ReportServer(populated)
        for device, device_results in by_device.items():
            assert server.latency_vs_flops(device) \
                == reports.latency_vs_flops(device_results)

    def test_latency_vs_flops_by_device_reads_once(self, populated,
                                                   by_device, monkeypatch):
        from repro.serve.service import report_payload

        server = ReportServer(populated)
        scans = []
        query = type(populated).query

        def counted(store, kind):
            scans.append(kind)
            return query(store, kind)

        monkeypatch.setattr(type(populated), "query", counted)
        points = server.latency_vs_flops_by_device()
        assert scans == ["executions"]
        assert list(points) == list(by_device)  # first-appearance order
        for device, device_results in by_device.items():
            assert points[device].dtype == np.float64
            assert [tuple(point) for point in points[device].tolist()] \
                == reports.latency_vs_flops(device_results)
        monkeypatch.undo()
        payload = report_payload(populated, "latency_flops")
        assert payload["device"] is None
        assert payload["points"] == {
            device: [list(point) for point in server.latency_vs_flops(device)]
            for device in by_device}

    def test_reports_accept_store_directly(self, populated, by_device):
        assert reports.latency_ecdf_by_device(populated) \
            == reports.latency_ecdf_by_device(by_device)
        assert reports.energy_distributions(populated) \
            == reports.energy_distributions(by_device)
        assert reports.latency_vs_flops(populated, "S21") \
            == reports.latency_vs_flops(by_device["S21"])
        with pytest.raises(ValueError):
            reports.latency_vs_flops(populated)  # store needs a device name

    def test_reports_accept_a_snapshot(self, tmp_path, results):
        # Regression: a StoreSnapshot used to fall into the in-memory branch
        # (AttributeError: no 'apps_using_cloud').
        from repro.android.appgen import AppGenerator, GeneratorConfig
        from repro.android.playstore import PlayStore
        from repro.core.pipeline import GaugeNN

        play = PlayStore([AppGenerator(
            GeneratorConfig.snapshot_2021(scale=0.02)).generate()])
        store = ResultStore(tmp_path / "s")
        ingest_snapshot(store, GaugeNN(play).analyze_snapshot("2021"))
        with store.writer(rows_per_segment=3) as writer:
            writer.append_many(results)
        snapshot = store.open_snapshot()
        assert reports.cloud_api_usage(snapshot, min_apps=2) \
            == reports.cloud_api_usage(store, min_apps=2)
        assert reports.latency_ecdf_by_device(snapshot) \
            == reports.latency_ecdf_by_device(store)
        assert reports.energy_distributions(snapshot) \
            == reports.energy_distributions(store)
        assert reports.latency_vs_flops(snapshot, "A20") \
            == reports.latency_vs_flops(store, "A20")
        assert reports.latency_vs_flops(snapshot, "A20")

    def test_incremental_refresh(self, tmp_path, results):
        store = ResultStore(tmp_path / "s")
        server = ReportServer(store)
        with store.writer(rows_per_segment=4) as writer:
            writer.append_many(results[:4])
        first = server.latency_ecdf_by_device()
        with store.writer(rows_per_segment=4) as writer:
            writer.append_many(results[4:8])
        second = server.latency_ecdf_by_device()
        assert sum(len(e.values) for e in second.values()) == 8
        assert second != first

    def test_cloud_api_usage_matches_analysis(self, tmp_path):
        from repro.android.appgen import AppGenerator, GeneratorConfig
        from repro.android.playstore import PlayStore
        from repro.core.pipeline import GaugeNN

        play = PlayStore([AppGenerator(
            GeneratorConfig.snapshot_2021(scale=0.02)).generate()])
        analysis = GaugeNN(play).analyze_snapshot("2021")
        store = ResultStore(tmp_path / "s")
        ingest_snapshot(store, analysis)
        assert ReportServer(store).cloud_api_usage() \
            == reports.cloud_api_usage(analysis)
        assert reports.cloud_api_usage(store, min_apps=2) \
            == reports.cloud_api_usage(analysis, min_apps=2)


class TestEcdfStorePath:
    def test_from_sorted_equals_from_samples(self, results):
        latencies = [r.latency_ms for r in results]
        from repro.analysis.ecdf import Ecdf

        assert Ecdf.from_sorted(sorted(latencies)) \
            == Ecdf.from_samples(latencies)
        with pytest.raises(ValueError):
            Ecdf.from_sorted(())

    def test_from_column(self, populated, results):
        from repro.analysis.ecdf import Ecdf

        ecdf = Ecdf.from_column(populated, "executions", "latency_ms",
                                device_name="S21")
        expected = Ecdf.from_samples(
            r.latency_ms for r in results if r.device_name == "S21")
        assert ecdf == expected


class TestSweepIntegration:
    @pytest.fixture(scope="class")
    def spec(self):
        return SweepSpec(
            devices=(device_by_name("Q845"), device_by_name("S21")),
            graphs=(mobilenet_v1(weight_seed=2), blazeface(weight_seed=2)),
            backends=(Backend.CPU, Backend.XNNPACK),
            num_inferences=3,
            seed=11,
        )

    def test_run_to_store_matches_run(self, tmp_path, spec):
        in_memory = SweepRunner(spec, max_workers=2).run()
        store = ResultStore(tmp_path / "s")
        rows = SweepRunner(spec, max_workers=4).run_to_store(
            store, rows_per_segment=5)
        assert rows == len(in_memory)
        assert store.query("executions").objects() == in_memory

    def test_run_to_store_accepts_path(self, tmp_path, spec):
        rows = SweepRunner(spec).run_to_store(tmp_path / "from_path")
        assert ResultStore(tmp_path / "from_path").num_rows("executions") == rows

    def test_store_reports_match_in_memory_reports(self, tmp_path, spec):
        results = SweepRunner(spec).run()
        by_device = SweepRunner.results_by_device(results)
        store = ResultStore(tmp_path / "s")
        SweepRunner(spec).run_to_store(store, rows_per_segment=3)
        assert reports.latency_ecdf_by_device(store) \
            == reports.latency_ecdf_by_device(by_device)
        assert reports.energy_distributions(store) \
            == reports.energy_distributions(by_device)

    def test_benchmarker_store_sink(self, tmp_path):
        from repro.core.benchmarker import BenchmarkJob, DeviceBenchmarker

        store = ResultStore(tmp_path / "s")
        with store.writer() as writer:
            bench = DeviceBenchmarker(device_by_name("Q845"),
                                      store_sink=writer)
            record = bench.run_job(BenchmarkJob(
                graph=mobilenet_v1(weight_seed=2), num_inferences=3))
            assert "store_append" in record.workflow_events
        assert store.query("executions").objects() == [record.result]

    def test_pipeline_benchmark_with_store(self, tmp_path):
        from repro.android.appgen import AppGenerator, GeneratorConfig
        from repro.android.playstore import PlayStore
        from repro.core.pipeline import GaugeNN
        from repro.devices.device import DEV_BOARDS

        play = PlayStore([AppGenerator(
            GeneratorConfig.snapshot_2021(scale=0.02)).generate()])
        analysis = GaugeNN(play).analyze_snapshot("2021")
        store = ResultStore(tmp_path / "s")
        GaugeNN.persist_snapshot(analysis, store)
        results = GaugeNN.benchmark_unique_models(
            analysis, DEV_BOARDS, num_inferences=2, max_workers=3,
            store=store)
        assert results
        assert store.query("executions").objects() == results
        assert store.num_rows("apps") == len(analysis.apps)


class TestCompaction:
    @pytest.fixture()
    def multi_kind(self, tmp_path, results):
        """A store with two kinds, each sharded into several small segments."""
        from repro.core.scenarios import ScenarioResult

        store = ResultStore(tmp_path / "compact.store")
        with store.writer(rows_per_segment=2) as writer:
            for index, result in enumerate(results):
                writer.append(result)
                writer.append(ScenarioResult(
                    scenario="Typing", device=result.device_name,
                    model_name=result.model_name, inference_count=275,
                    energy_joules=float(index) + 0.125,
                    battery_discharge_mah=0.25 * index,
                    battery_fraction=0.001 * index))
        return store

    def test_merges_to_one_segment_per_kind(self, multi_kind):
        from repro.store import compact_store

        before = len(multi_kind.segments)
        assert before > 2
        stats = compact_store(multi_kind)
        assert stats.segments_before == before
        assert stats.segments_after == len(multi_kind.segments) == 2
        assert set(stats.kinds_compacted) == {"executions", "scenarios"}
        assert multi_kind.verify_integrity() == 2

    def test_queries_bit_identical_across_compaction(self, multi_kind, results):
        from repro.store import compact_store

        before_rows = multi_kind.query("executions").rows()
        before_objects = multi_kind.query("executions").objects()
        before_agg = (multi_kind.query("executions")
                      .group_by("device_name", "backend")
                      .agg(n=("latency_ms", "count"),
                           mean_ms=("latency_ms", "mean"),
                           p99=("latency_ms", "p99"))
                      .aggregate())
        compact_store(multi_kind)

        reopened = ResultStore(multi_kind.root)
        assert reopened.query("executions").rows() == before_rows
        assert reopened.query("executions").objects() == before_objects == results
        assert (reopened.query("executions")
                .group_by("device_name", "backend")
                .agg(n=("latency_ms", "count"),
                     mean_ms=("latency_ms", "mean"),
                     p99=("latency_ms", "p99"))
                .aggregate()) == before_agg

    def test_old_files_removed_and_sequence_advances(self, multi_kind):
        from repro.store import compact_store

        sequence_before = multi_kind.sequence
        old_names = {meta.name for meta in multi_kind.segments}
        stats = compact_store(multi_kind)
        assert stats.files_removed > 0
        assert multi_kind.sequence > sequence_before
        remaining = {path.stem for path in multi_kind.segments_dir.iterdir()}
        assert not (old_names & remaining)

    def test_rechunking_and_kind_filter(self, multi_kind):
        from repro.store import compact_store

        rows = multi_kind.num_rows("executions")
        stats = compact_store(multi_kind, rows_per_segment=4,
                              kinds=["executions"])
        assert stats.kinds_compacted == ("executions",)
        executions = multi_kind.segments_for("executions")
        assert len(executions) == (rows + 3) // 4
        # Untouched kind keeps its original small segments.
        assert len(multi_kind.segments_for("scenarios")) > 1

    def test_noop_when_already_compact(self, multi_kind):
        from repro.store import compact_store

        compact_store(multi_kind)
        stats = compact_store(multi_kind)
        assert stats.kinds_compacted == ()
        assert stats.rows_rewritten == 0

    def test_rejects_unknown_kind_and_bad_chunk(self, multi_kind):
        from repro.store import compact_store

        with pytest.raises(KeyError):
            compact_store(multi_kind, kinds=["nonsense"])
        with pytest.raises(ValueError):
            compact_store(multi_kind, rows_per_segment=0)

    def test_report_server_identical_across_compaction(self, multi_kind):
        from repro.store import compact_store

        server = ReportServer(multi_kind)
        before = (server.latency_ecdf_by_device(), server.energy_distributions())
        compact_store(multi_kind)
        fresh = ReportServer(ResultStore(multi_kind.root))
        assert (fresh.latency_ecdf_by_device(),
                fresh.energy_distributions()) == before


class TestMmapColumns:
    def test_queries_identical_to_in_memory(self, legacy, results):
        from repro.store.segment import build_columns

        store = ResultStore(legacy.root)
        for meta in store.segments:
            expected = build_columns(kind_for(meta.kind), store.rows_for(meta))
            for name, array in store.columns_for(meta).items():
                assert not array.flags.writeable
                assert np.array_equal(np.asarray(array), expected[name])
        assert store.query("executions").objects() == results

    def test_verify_checksums_jsonl_log_under_mmap(self, legacy):
        """verify=True must not be bypassed by a valid npz cache."""
        mapped = ResultStore(legacy.root)
        meta = mapped.segments[0]
        assert (mapped.segments_dir / meta.cache_filename).exists()

        log_path = mapped.segments_dir / meta.log_filename
        payload = bytearray(log_path.read_bytes())
        payload[:10] = b"corrupted!"
        log_path.write_bytes(bytes(payload))

        paranoid = ResultStore(legacy.root, verify=True)
        with pytest.raises(StoreCorruptionError):
            paranoid.columns_for(meta)
        # Without verify the (checksum-tagged, still valid) cache serves.
        relaxed = ResultStore(legacy.root)
        assert relaxed.columns_for(meta)

    def test_verify_checksums_colseg_under_mmap(self, populated):
        """verify=True checksums a columnar payload's mapped bytes."""
        meta = populated.segments[0]
        assert meta.is_columnar
        path = populated.segments_dir / meta.data_filename
        payload = bytearray(path.read_bytes())
        payload[-3] ^= 0xFF  # flip a byte inside the last column buffer
        path.write_bytes(bytes(payload))

        paranoid = ResultStore(populated.root, verify=True)
        with pytest.raises(StoreCorruptionError):
            paranoid.columns_for(meta)
        # Without verify the structurally intact payload still maps.
        relaxed = ResultStore(populated.root)
        assert relaxed.columns_for(meta)

    @pytest.mark.parametrize("fixture", ["populated", "legacy"])
    def test_verifying_open_fails_on_missing_data_file(self, request,
                                                       fixture):
        """verify=True checks at open that every listed data file exists."""
        store = request.getfixturevalue(fixture)
        meta = store.segments[1]
        (store.segments_dir / meta.data_filename).unlink()
        with pytest.raises(StoreCorruptionError, match=meta.name):
            ResultStore(store.root, verify=True)

    def test_zero_byte_colseg_is_corruption(self, populated):
        """An emptied payload cannot be mapped: the segment is corrupt."""
        meta = populated.segments[0]
        assert meta.is_columnar
        (populated.segments_dir / meta.data_filename).write_bytes(b"")
        with pytest.raises(StoreCorruptionError, match="cannot be mapped"):
            ResultStore(populated.root).columns_for(meta)
        with pytest.raises(StoreCorruptionError):
            ResultStore(populated.root).query("executions").objects()


class TestQueryBin:
    def test_bin_group_matches_manual(self, populated, results):
        grouped = (populated.query("executions")
                   .bin("latency_ms", 5.0)
                   .group_by("latency_ms_bin")
                   .agg(n=("latency_ms", "count"))
                   .aggregate())
        manual = {}
        for result in results:
            manual[int(result.latency_ms // 5.0)] = \
                manual.get(int(result.latency_ms // 5.0), 0) + 1
        assert {row["latency_ms_bin"]: row["n"] for row in grouped} == manual

    def test_bin_composes_with_plain_keys(self, populated, results):
        grouped = (populated.query("executions")
                   .bin("latency_ms", 10.0, label="bucket")
                   .group_by("device_name", "bucket")
                   .agg(n=("latency_ms", "count"))
                   .aggregate())
        total = sum(row["n"] for row in grouped)
        assert total == len(results)
        assert all(isinstance(row["bucket"], int) for row in grouped)

    def test_bin_validation(self, populated):
        query = populated.query("executions")
        with pytest.raises(ValueError):
            query.bin("device_name", 5.0)  # not numeric
        with pytest.raises(ValueError):
            query.bin("latency_ms", 0.0)
        with pytest.raises(ValueError):
            query.bin("latency_ms", 5.0, label="backend")  # collides
        with pytest.raises(KeyError):
            query.group_by("undeclared_bin")


class TestFleetLoadCompaction:
    @pytest.fixture()
    def load_store(self, tmp_path):
        """fleet_load cells scattered across many tiny segments."""
        from repro.cloud import LoadCell

        store = ResultStore(tmp_path / "load.store")
        cells = [
            LoadCell(region=region, cloud_api="Speech", bin_index=b,
                     bin_start_s=b * 900.0, bin_seconds=900.0,
                     requests=10 * b + 1, payload_bytes=(10 * b + 1) * 64)
            for region in ("east", "west") for b in range(6)
        ]
        # Two writers, tiny segments: the kind ends up heavily sharded, and
        # duplicate (region, api, bin) cells across writers must *add*.
        with store.writer(rows_per_segment=2) as writer:
            writer.append_many(cells)
        with store.writer(rows_per_segment=3) as writer:
            writer.append_many(cells[:5])
        return store, cells

    def test_compact_preserves_additive_reconstruction(self, load_store):
        from repro.cloud import LoadProfile
        from repro.store import compact_store

        store, _ = load_store
        before = LoadProfile.from_store(store, ("east", "west"),
                                        6 * 900.0, 900.0)
        before_rows = store.query("fleet_load").rows()
        segments_before = len(store.segments_for("fleet_load"))
        assert segments_before > 1

        stats = compact_store(store)
        assert stats.kinds_compacted == ("fleet_load",)
        assert len(store.segments_for("fleet_load")) == 1
        assert store.verify_integrity() == len(store.segments)

        reopened = ResultStore(store.root)
        assert reopened.query("fleet_load").rows() == before_rows
        after = LoadProfile.from_store(reopened, ("east", "west"),
                                       6 * 900.0, 900.0)
        assert np.array_equal(after.requests, before.requests)
        assert np.array_equal(after.payload_bytes, before.payload_bytes)

    def test_load_cells_round_trip_as_objects(self, load_store):
        from repro.cloud import LoadCell

        store, cells = load_store
        fetched = (store.query("fleet_load")
                   .where(region="east").where("bin_index", "==", 2)
                   .objects())
        assert all(isinstance(cell, LoadCell) for cell in fetched)
        # One from each writer pass... the second writer only wrote bins 0-4
        # of "east", so bin 2 appears twice.
        assert len(fetched) == 2
        assert {cell.requests for cell in fetched} == {21}

    def test_load_report_sums_split_bins_before_peaks(self, load_store):
        """A bin split across rows counts once, at its summed height."""
        from repro.cloud import load_report

        store, _ = load_store
        report = {(r["region"], r["cloud_api"]): r for r in load_report(store)}
        east = report[("east", "Speech")]
        # Writer 2 re-added east bins 0-4, so the per-bin sums are
        # 2, 22, 42, 62, 82, 51 -> peak 82, six active bins, 261 total.
        assert east["requests"] == 261
        assert east["active_bins"] == 6
        assert east["peak_rps"] == pytest.approx(82 / 900.0)
        west = report[("west", "Speech")]
        assert west["requests"] == 156
        assert west["active_bins"] == 6
        assert west["peak_rps"] == pytest.approx(51 / 900.0)

    def test_load_report_keeps_bin_widths_separate(self, tmp_path):
        """Cells written at different bin widths are never summed into one
        fictitious time window (two campaigns in one store)."""
        from repro.cloud import LoadCell, load_report

        store = ResultStore(tmp_path / "mixed.store")
        with store.writer() as writer:
            writer.append(LoadCell("east", "Speech", 1, 900.0, 900.0, 90, 0))
            writer.append(LoadCell("east", "Speech", 1, 60.0, 60.0, 6, 0))
        (east,) = load_report(store)
        assert east["requests"] == 96
        assert east["active_bins"] == 2
        assert east["peak_rps"] == pytest.approx(max(90 / 900.0, 6 / 60.0))

    def test_time_bin_query_over_load_rows(self, load_store):
        store, _ = load_store
        grouped = (store.query("fleet_load")
                   .bin("bin_start_s", 1800.0, label="half_hour")
                   .group_by("region", "half_hour")
                   .agg(requests=("requests", "sum"))
                   .aggregate())
        east = {row["half_hour"]: row["requests"] for row in grouped
                if row["region"] == "east"}
        # Bins 0+1 -> half-hour 0, 2+3 -> 1, 4+5 -> 2 (second writer added
        # bins 0-4 of east again).
        assert east[0] == (1 + 11) * 2
        assert east[1] == (21 + 31) * 2
        assert east[2] == (41 * 2) + 51


class TestColumnarSegments:
    """Format v3: packed columnar segments, batch ingestion, mixed stores."""

    @pytest.fixture()
    def batch_columns(self, results):
        from repro.store.schema import execution_results_to_columns

        return execution_results_to_columns(results)

    @pytest.fixture()
    def columnar(self, tmp_path, batch_columns):
        """A store holding ``results`` as columnar segments."""
        store = ResultStore(tmp_path / "columnar.store")
        with store.writer(rows_per_segment=4) as writer:
            writer.append_batch("executions", batch_columns)
        return store

    def test_batch_seals_columnar_segments(self, columnar, results):
        from repro.store.segment import FORMAT_COLUMNAR

        segments = columnar.segments_for("executions")
        assert segments and all(m.format == FORMAT_COLUMNAR for m in segments)
        assert sum(m.rows for m in segments) == len(results)
        for meta in segments:
            assert (columnar.segments_dir / meta.data_filename).exists()
            assert not (columnar.segments_dir / meta.log_filename).exists()
        assert columnar.verify_integrity() == len(segments)

    def test_queries_bit_identical_to_jsonl(self, legacy, columnar, results):
        assert columnar.query("executions").rows() \
            == legacy.query("executions").rows()
        assert ResultStore(columnar.root).query("executions").objects() \
            == results
        agg = lambda s: (s.query("executions")  # noqa: E731
                         .group_by("device_name", "backend")
                         .agg(n=("latency_ms", "count"),
                              mean_ms=("latency_ms", "mean"),
                              p99=("latency_ms", "p99"))
                         .aggregate())
        assert agg(columnar) == agg(legacy)
        arrays_a = columnar.query("executions").arrays()
        arrays_b = legacy.query("executions").arrays()
        for name, array in arrays_a.items():
            assert np.array_equal(array, arrays_b[name])
            assert array.dtype == arrays_b[name].dtype

    def test_pushdown_works_on_columnar_stats(self, columnar):
        """Columnar segments carry the same pruning stats as JSONL ones."""
        assert all(m.stats for m in columnar.segments_for("executions"))
        query = columnar.query("executions").where(device_name="NOPE")
        assert query.objects() == []
        assert query.stats.segments_skipped == query.stats.segments_total

    def test_serving_identical_across_formats(self, legacy, columnar):
        assert ReportServer(columnar).latency_ecdf_by_device() \
            == ReportServer(legacy).latency_ecdf_by_device()
        assert ReportServer(columnar).energy_distributions() \
            == ReportServer(legacy).energy_distributions()

    def test_mixed_mode_appends_preserve_order(self, tmp_path, results):
        from repro.store.schema import (execution_result_to_row,
                                        execution_results_to_columns)

        store = ResultStore(tmp_path / "mixed.store")
        with store.writer(rows_per_segment=1000) as writer:
            writer.append_batch(
                "executions", execution_results_to_columns(results[:3]))
            writer.append_row(
                "executions", execution_result_to_row(results[3]))
            writer.append_batch(
                "executions", execution_results_to_columns(results[4:]))
        assert store.query("executions").objects() == results
        # Buffered rows join the batch chunks in append order: one seal
        # path, one segment, no mode-switch seals.
        formats = [m.format for m in store.segments_for("executions")]
        assert formats == ["columnar"]

    def test_append_batch_validation(self, tmp_path, batch_columns):
        store = ResultStore(tmp_path / "v.store")
        with store.writer() as writer:
            incomplete = dict(batch_columns)
            del incomplete["latency_ms"]
            with pytest.raises(ValueError, match="missing columns"):
                writer.append_batch("executions", incomplete)
            extra = dict(batch_columns, bogus=batch_columns["latency_ms"])
            with pytest.raises(ValueError, match="unknown columns"):
                writer.append_batch("executions", extra)
            ragged = dict(batch_columns,
                          latency_ms=batch_columns["latency_ms"][:-1])
            with pytest.raises(ValueError, match="holds"):
                writer.append_batch("executions", ragged)
            with pytest.raises(ValueError, match="1-D"):
                writer.append_batch("executions", dict(
                    batch_columns,
                    latency_ms=batch_columns["latency_ms"].reshape(-1, 1)))
            assert writer.append_batch("executions", {
                name: array[:0] for name, array in batch_columns.items()
            }) == 0
        writer = store.writer()
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append_batch("executions", batch_columns)

    def test_crash_mid_seal_columnar_is_invisible(self, columnar, results,
                                                  batch_columns):
        """Marker/manifest ordering: sealed-but-uncommitted payloads hide."""
        from repro.store.columnar import pack_columns
        from repro.store.schema import kind_for

        committed = columnar.query("executions").objects()
        # A fully sealed columnar payload with no manifest entry (crash after
        # the atomic rename, before the manifest commit)...
        orphan = columnar.segments_dir / "executions-000099.colseg"
        orphan.write_bytes(pack_columns(kind_for("executions"), batch_columns))
        # ...and a torn tmp file (crash mid-write, before the rename).
        (columnar.segments_dir / "executions-000100.colseg.tmp").write_bytes(
            b"RCS1\x00\x00")
        reopened = ResultStore(columnar.root)
        assert reopened.query("executions").objects() == committed == results

    def test_reopen_serves_committed_batch_prefix(self, tmp_path, results):
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "p.store")
        writer = store.writer(rows_per_segment=10 ** 6)
        writer.append_batch("executions",
                            execution_results_to_columns(results[:4]))
        writer.flush()
        writer.append_batch("executions",
                            execution_results_to_columns(results[4:]))
        del writer  # crash: buffered tail chunks never sealed
        reopened = ResultStore(tmp_path / "p.store")
        assert reopened.query("executions").objects() == results[:4]

    def test_columnar_corruption_detected(self, columnar):
        meta = columnar.segments_for("executions")[0]
        path = columnar.segments_dir / meta.data_filename
        payload = bytearray(path.read_bytes())
        payload[-3] ^= 0xFF  # flip a byte inside the last column buffer
        path.write_bytes(bytes(payload))
        with pytest.raises(StoreCorruptionError):
            ResultStore(columnar.root).verify_integrity()
        with pytest.raises(StoreCorruptionError):
            ResultStore(columnar.root, verify=True).query(
                "executions").objects()
        # Structural damage (truncation) is caught even without verify —
        # there is no row log to rebuild a columnar segment from.
        path.write_bytes(bytes(payload[: len(payload) // 2]))
        with pytest.raises(StoreCorruptionError):
            ResultStore(columnar.root).query("executions").objects()

    def test_mmap_over_columnar_identical(self, columnar, batch_columns,
                                          results):
        """Columnar segments map their payload in place, zero-copy."""
        import mmap as mmap_module

        mapped = ResultStore(columnar.root)
        start = 0
        for meta in columnar.segments:
            loaded = mapped.columns_for(meta)
            for name, array in batch_columns.items():
                mirrored = loaded[name]
                assert not mirrored.flags.writeable
                assert np.array_equal(np.asarray(mirrored),
                                      array[start:start + meta.rows])
                if mirrored.dtype.kind != "U":
                    # Raw columns are zero-copy views of the mapped file
                    # (frombuffer wraps the mmap in a memoryview).
                    base = mirrored.base
                    if isinstance(base, memoryview):
                        base = base.obj
                    assert isinstance(base, mmap_module.mmap)
            start += meta.rows
        assert mapped.query("executions").objects() == results
        # The zero-copy path writes nothing: segments/ holds only payloads.
        assert {path.suffix for path in mapped.segments_dir.iterdir()} \
            == {".colseg"}

    def test_v2_manifest_still_opens(self, legacy, results):
        """A pre-columnar (format_version 2) manifest reads unchanged."""
        manifest_path = legacy.manifest_path
        data = json.loads(manifest_path.read_text())
        data["format_version"] = 2
        for entry in data["segments"]:
            entry.pop("format", None)  # v2 entries never carried the key
        manifest_path.write_text(json.dumps(data))
        reopened = ResultStore(legacy.root)
        assert reopened.query("executions").objects() == results
        # The next commit rewrites the manifest at version 3.
        with reopened.writer() as writer:
            writer.append(results[0])
        assert json.loads(manifest_path.read_text())["format_version"] == 3

    def test_unreadable_version_rejected(self, populated):
        data = json.loads(populated.manifest_path.read_text())
        data["format_version"] = 99
        populated.manifest_path.write_text(json.dumps(data))
        with pytest.raises(StoreCorruptionError, match="format version"):
            ResultStore(populated.root)

    def test_format_summary(self, tmp_path, results, batch_columns):
        from repro.store import compact_store
        from repro.store.schema import execution_result_to_row

        store = ResultStore(tmp_path / "s.store")
        with store.writer() as writer:
            writer.append_row("executions",
                              execution_result_to_row(results[0]))
        compact_store(store, output_format="jsonl")  # one legacy segment
        with store.writer(rows_per_segment=1000) as writer:
            writer.append_batch("executions", batch_columns)
        summary = store.format_summary()
        entry = summary["executions"]
        assert entry["segments"] == 2
        assert entry["rows"] == len(results) + 1
        assert entry["formats"] == {"columnar": 1, "jsonl": 1}
        assert entry["bytes"] > 0


class TestMixedFormatCompaction:
    @pytest.fixture()
    def mixed(self, tmp_path, results):
        """One kind split across several v2 JSONL and v3 columnar segments."""
        from repro.store import compact_store
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "mixed.store")
        with store.writer(rows_per_segment=3) as writer:
            for result in results[:5]:
                writer.append(result)
        compact_store(store, rows_per_segment=3, output_format="jsonl")
        with store.writer(rows_per_segment=2) as writer:
            writer.append_batch("executions",
                                execution_results_to_columns(results[5:]))
        formats = {m.format for m in store.segments_for("executions")}
        assert formats == {"jsonl", "columnar"}
        return store

    def test_compact_converges_to_columnar(self, mixed, results):
        from repro.store import compact_store

        before_rows = mixed.query("executions").rows()
        before_agg = (mixed.query("executions")
                      .group_by("device_name", "backend")
                      .agg(n=("latency_ms", "count"),
                           mean_ms=("latency_ms", "mean"))
                      .aggregate())
        stats = compact_store(mixed)
        assert stats.kinds_compacted == ("executions",)
        (meta,) = mixed.segments_for("executions")
        assert meta.format == "columnar"
        reopened = ResultStore(mixed.root)
        assert reopened.query("executions").rows() == before_rows
        assert reopened.query("executions").objects() == results
        assert (reopened.query("executions")
                .group_by("device_name", "backend")
                .agg(n=("latency_ms", "count"),
                     mean_ms=("latency_ms", "mean"))
                .aggregate()) == before_agg
        assert reopened.verify_integrity() == len(reopened.segments)

    def test_compact_forced_jsonl(self, mixed, results):
        from repro.store import compact_store

        compact_store(mixed, output_format="jsonl")
        (meta,) = mixed.segments_for("executions")
        assert meta.format == "jsonl"
        assert ResultStore(mixed.root).query("executions").objects() == results

    def test_pure_jsonl_kind_stays_jsonl(self, legacy, results):
        from repro.store import compact_store

        compact_store(legacy)
        (meta,) = legacy.segments_for("executions")
        assert meta.format == "jsonl"
        assert legacy.query("executions").objects() == results

    def test_format_conversion_without_oversharding(self, legacy, results):
        """--format columnar rewrites even when segment counts are at target."""
        from repro.store import compact_store

        compact_store(legacy)  # one jsonl segment
        stats = compact_store(legacy, output_format="columnar")
        assert stats.kinds_compacted == ("executions",)
        (meta,) = legacy.segments_for("executions")
        assert meta.format == "columnar"
        assert legacy.query("executions").objects() == results

    def test_compact_rejects_unknown_format(self, mixed):
        from repro.store import compact_store

        with pytest.raises(ValueError):
            compact_store(mixed, output_format="parquet")


class TestExport:
    def test_round_trip_both_directions(self, tmp_path, results):
        from repro.store import export_store
        from repro.store.schema import execution_results_to_columns

        source = ResultStore(tmp_path / "src.store")
        with source.writer(rows_per_segment=4) as writer:
            writer.append_batch("executions",
                                execution_results_to_columns(results))
        stats = export_store(source, tmp_path / "jsonl.store")
        assert stats.output_format == "jsonl"
        assert stats.rows == len(results)
        exported = ResultStore(tmp_path / "jsonl.store")
        assert all(m.format == "jsonl" for m in exported.segments)
        assert exported.query("executions").objects() == results
        assert exported.query("executions").rows() \
            == source.query("executions").rows()
        # Segment boundaries mirror the source by default.
        assert [m.rows for m in exported.segments] \
            == [m.rows for m in source.segments]

        back = export_store(exported, tmp_path / "col.store",
                            output_format="columnar", rows_per_segment=5)
        assert back.rows == len(results)
        converted = ResultStore(tmp_path / "col.store")
        assert all(m.format == "columnar" for m in converted.segments)
        assert converted.query("executions").objects() == results
        assert converted.verify_integrity() == len(converted.segments)

    def test_export_refuses_nonempty_destination(self, tmp_path, populated):
        from repro.store import export_store

        with pytest.raises(ValueError, match="never merge"):
            export_store(populated, populated.root)

    def test_export_kind_filter_and_validation(self, tmp_path, populated):
        from repro.store import export_store

        with pytest.raises(KeyError):
            export_store(populated, tmp_path / "x.store", kinds=["nope"])
        with pytest.raises(ValueError):
            export_store(populated, tmp_path / "x.store",
                         output_format="csv")
        stats = export_store(populated, tmp_path / "k.store",
                             kinds=["executions"], rows_per_segment=100)
        assert stats.kinds == ("executions",)
        assert ResultStore(tmp_path / "k.store").num_rows("executions") \
            == populated.num_rows("executions")


class TestCacheAudit:
    """Satellite: stale/truncated derived caches must never serve bad rows."""

    def test_misshapen_npz_cache_rebuilt_not_served(self, legacy, results):
        from repro.store.segment import _write_cache

        meta = legacy.segments_for("executions")[0]
        cache = legacy.segments_dir / meta.cache_filename
        good = ResultStore(legacy.root).columns_for(meta)
        truncated = {name: np.asarray(a)[:-1] for name, a in good.items()}
        _write_cache(cache, meta.sha256, truncated)  # valid tag, wrong shape
        reopened = ResultStore(legacy.root)
        loaded = reopened.columns_for(meta)
        for name, array in good.items():
            assert np.array_equal(loaded[name], np.asarray(array))
        assert reopened.query("executions").objects() == results

    def test_truncated_log_raises_not_silently_rebuilds(self, legacy):
        """A cacheless segment whose log lost rows is corruption, not data."""
        meta = legacy.segments_for("executions")[0]
        log = legacy.segments_dir / meta.log_filename
        lines = log.read_bytes().splitlines()
        log.write_bytes(b"\n".join(lines[:-1]) + b"\n")
        (legacy.segments_dir / meta.cache_filename).unlink()
        with pytest.raises(StoreCorruptionError, match="rows"):
            ResultStore(legacy.root).columns_for(meta)

class TestColumnarHardening:
    """Review follow-ups: header corruption and segment-size bounds."""

    @pytest.fixture()
    def columnar(self, tmp_path, results):
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "h.store")
        with store.writer(rows_per_segment=4) as writer:
            writer.append_batch("executions",
                                execution_results_to_columns(results))
        return store

    def test_corrupt_header_fields_detected_without_verify(self, columnar,
                                                           results):
        """Garbled-but-valid-JSON headers raise StoreCorruptionError, not
        raw TypeError/KeyError/ZeroDivisionError."""
        meta = columnar.segments_for("executions")[0]
        path = columnar.segments_dir / meta.data_filename
        raw = path.read_bytes()
        attacks = (
            raw.replace(b'"<f8"', b'"<x8"'),   # invalid dtype string
            raw.replace(b'"<f8"', b'"<U0"'),   # zero-itemsize dtype
            raw.replace(b'"nbytes"', b'"nbXtes"'),  # missing entry key
        )
        for attack in attacks:
            assert attack != raw, "attack did not change the payload"
            path.write_bytes(attack)
            with pytest.raises(StoreCorruptionError):
                ResultStore(columnar.root).query("executions").rows()
        path.write_bytes(raw)
        assert ResultStore(columnar.root).query("executions").objects() \
            == results

    def test_batch_segments_respect_rows_per_segment(self, tmp_path, results):
        """One oversized batch splits into rows_per_segment slices."""
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "sz.store")
        with store.writer(rows_per_segment=3) as writer:
            writer.append_batch("executions",
                                execution_results_to_columns(results))
            # The auto-trigger sealed only full slices; the tail is pending.
            assert writer.rows_pending == len(results) % 3
        sizes = [m.rows for m in store.segments_for("executions")]
        assert sizes[:-1] == [3] * (len(sizes) - 1)
        assert all(size <= 3 for size in sizes)
        assert sum(sizes) == len(results)
        assert store.query("executions").objects() == results

    def test_many_small_batches_coalesce_to_full_segments(self, tmp_path,
                                                          results):
        """Sub-threshold batches buffer and seal at exactly the target size."""
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "co.store")
        with store.writer(rows_per_segment=4) as writer:
            for result in results:  # one-row batches
                writer.append_batch(
                    "executions", execution_results_to_columns([result]))
        sizes = [m.rows for m in store.segments_for("executions")]
        assert sizes[:-1] == [4] * (len(sizes) - 1)
        assert sum(sizes) == len(results)
        assert store.query("executions").objects() == results

    def test_append_batch_does_not_alias_caller_buffers(self, tmp_path,
                                                        results):
        """Mutating an array after append_batch must not change sealed data."""
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "alias.store")
        # Writable arrays, as an external producer reusing buffers would pass
        # (the simulators' own column_batch outputs come pre-frozen instead).
        batch = {name: array.copy() for name, array
                 in execution_results_to_columns(results).items()}
        assert batch["latency_ms"].flags.writeable
        expected = batch["latency_ms"].copy()
        with store.writer(rows_per_segment=10 ** 6) as writer:
            writer.append_batch("executions", batch)
            batch["latency_ms"][:] = -1.0  # producer reuses its buffer
        sealed = store.query("executions").arrays("latency_ms")["latency_ms"]
        assert np.array_equal(sealed, expected)

    def test_readonly_view_of_writable_base_still_copied(self, tmp_path,
                                                         results):
        """flags.writeable alone is not trusted: a read-only view whose base
        is writable can still change under the writer, so it gets copied."""
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "view.store")
        batch = {name: array.copy() for name, array
                 in execution_results_to_columns(results).items()}
        base = batch["latency_ms"]  # writable base the producer keeps
        expected = base.copy()
        view = base[:]
        view.setflags(write=False)
        batch["latency_ms"] = view
        with store.writer(rows_per_segment=10 ** 6) as writer:
            writer.append_batch("executions", batch)
            base[:] = 777.0  # mutate through the base before the seal
        sealed = store.query("executions").arrays("latency_ms")["latency_ms"]
        assert np.array_equal(sealed, expected)


class TestCompressedColumns:
    """v3 compression: per-column zlib recorded in the segment header."""

    @pytest.fixture()
    def batch_columns(self, results):
        from repro.store.schema import execution_results_to_columns

        return execution_results_to_columns(results)

    @pytest.fixture()
    def compressible(self):
        """A batch whose sections deflate well (constant-heavy columns)."""
        from repro.store.schema import execution_results_to_columns  # noqa
        rows = 512
        return {
            "region": np.array(["us"] * rows),
            "cloud_api": np.array(["Speech APIs"] * rows),
            "bin_index": np.zeros(rows, dtype=np.int64),
            "bin_start_s": np.zeros(rows),
            "bin_seconds": np.full(rows, 900.0),
            "requests": np.ones(rows, dtype=np.int64),
            "payload_bytes": np.full(rows, 4096, dtype=np.int64),
        }

    def test_round_trip_identical_and_smaller(self, tmp_path, batch_columns,
                                              results):
        plain = ResultStore(tmp_path / "plain.store")
        packed = ResultStore(tmp_path / "packed.store")
        with plain.writer(rows_per_segment=100) as writer:
            writer.append_batch("executions", batch_columns)
        with packed.writer(rows_per_segment=100, compress=True) as writer:
            writer.append_batch("executions", batch_columns)
        assert packed.query("executions").objects() == results
        assert packed.query("executions").rows() \
            == plain.query("executions").rows()
        assert packed.verify_integrity() == len(packed.segments)

        def du(store):
            return sum((store.segments_dir / m.data_filename).stat().st_size
                       for m in store.segments)
        # Compression is kept per section only when it wins, so the packed
        # store can never be larger.
        assert du(packed) <= du(plain)

    def test_header_records_compression_when_it_wins(self, compressible):
        from repro.store.columnar import open_columns, pack_columns
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        coerced = {name: np.asarray(a) for name, a in compressible.items()}
        from repro.store.columnar import coerce_batch
        coerced = coerce_batch(kind, compressible)
        payload = pack_columns(kind, coerced, compress=True)
        raw_payload = pack_columns(kind, coerced)
        assert len(payload) < len(raw_payload)
        assert b'"compression"' in payload and b'"zlib"' in payload
        assert b'"raw_nbytes"' in payload
        decoded = open_columns(payload, kind,
                               expected_rows=coerced["bin_index"].size)
        for name, array in coerced.items():
            assert np.array_equal(decoded[name], array), name
            assert decoded[name].dtype == array.dtype

    def test_uncompressible_sections_stay_raw(self, compressible):
        from repro.store.columnar import coerce_batch, pack_columns
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        rng = np.random.default_rng(0)
        noisy = dict(compressible,
                     payload_bytes=rng.integers(0, 2 ** 62, 512,
                                                dtype=np.int64))
        payload = pack_columns(kind, coerce_batch(kind, noisy), compress=True)
        header = json.loads(
            payload[8:8 + int.from_bytes(payload[4:8], "little")])
        by_name = {entry["name"]: entry for entry in header["columns"]}
        assert by_name["payload_bytes"].get("compression") is None
        assert by_name["bin_seconds"].get("compression") == "zlib"

    def test_mixed_compressed_and_raw_segments_read_together(self, tmp_path,
                                                             batch_columns,
                                                             results):
        store = ResultStore(tmp_path / "mix.store")
        half = len(results) // 2
        with store.writer(rows_per_segment=1000, compress=True) as writer:
            writer.append_batch("executions", {
                name: a[:half] for name, a in batch_columns.items()})
        with store.writer(rows_per_segment=1000) as writer:
            writer.append_batch("executions", {
                name: a[half:] for name, a in batch_columns.items()})
        assert ResultStore(store.root).query("executions").objects() == results

    def test_compressed_mmap_reads_identical(self, tmp_path, compressible):
        from repro.store.columnar import coerce_batch
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        coerced = coerce_batch(kind, compressible)
        store = ResultStore(tmp_path / "z.store")
        with store.writer(compress=True) as writer:
            writer.append_batch(kind, coerced)
        mapped = ResultStore(store.root)
        for meta in mapped.segments:
            columns = mapped.columns_for(meta)
            for name, array in coerced.items():
                assert np.array_equal(np.asarray(columns[name]), array), name

    def test_flipped_byte_in_compressed_segment_detected(self, tmp_path,
                                                         compressible):
        from repro.store.columnar import coerce_batch
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        store = ResultStore(tmp_path / "c.store")
        with store.writer(compress=True) as writer:
            writer.append_batch(kind, coerce_batch(kind, compressible))
        meta = store.segments[0]
        path = store.segments_dir / meta.data_filename
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # inside the last column's section
        path.write_bytes(bytes(raw))
        reopened = ResultStore(store.root)
        with pytest.raises(StoreCorruptionError):
            dict(reopened.columns_for(meta))

    def test_raw_nbytes_mismatch_detected(self, compressible):
        from repro.store.columnar import (coerce_batch, open_columns,
                                          pack_columns)
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        coerced = coerce_batch(kind, compressible)
        payload = bytearray(pack_columns(kind, coerced, compress=True))
        header_len = int.from_bytes(payload[4:8], "little")
        header = payload[8:8 + header_len]
        # Same-length digit swap keeps offsets valid while lying about the
        # inflated size.
        needle = b'"raw_nbytes": '
        at = header.index(needle) + len(needle)
        digit = header[at:at + 1]
        swapped = b"9" if digit != b"9" else b"8"
        payload[8 + at:8 + at + 1] = swapped
        lazy = open_columns(bytes(payload), kind,
                            expected_rows=coerced["bin_index"].size)
        with pytest.raises(ValueError, match="inflates to"):
            dict(lazy)


    @staticmethod
    def _rewrite_header(payload: bytes, mutate) -> bytes:
        """``payload`` with its JSON header passed through ``mutate``."""
        header_len = int.from_bytes(payload[4:8], "little")
        header = json.loads(payload[8:8 + header_len])
        mutate({entry["name"]: entry for entry in header["columns"]})
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        return (payload[:4] + len(encoded).to_bytes(4, "little") + encoded
                + payload[8 + header_len:])

    def test_numeric_sections_deflate_shuffled(self, compressible):
        from repro.store.columnar import (coerce_batch, open_columns,
                                          pack_columns)
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        coerced = coerce_batch(kind, compressible)
        payload = pack_columns(kind, coerced, compress=True)
        header = json.loads(
            payload[8:8 + int.from_bytes(payload[4:8], "little")])
        by_name = {entry["name"]: entry for entry in header["columns"]}
        for name in ("bin_index", "bin_start_s", "bin_seconds",
                     "requests", "payload_bytes"):
            assert by_name[name]["shuffle"] == 8, name
        for name in ("region", "cloud_api"):
            assert by_name[name]["encoding"] == "dict"
            assert "shuffle" not in by_name[name]
        decoded = open_columns(payload, kind,
                               expected_rows=coerced["bin_index"].size)
        for name, array in coerced.items():
            assert np.array_equal(decoded[name], array), name
            assert decoded[name].dtype == array.dtype
            assert not decoded[name].flags.writeable

    @pytest.mark.parametrize("column,value", [
        ("bin_seconds", 4), ("bin_seconds", 1), ("bin_seconds", 0),
        ("bin_seconds", -8), ("bin_seconds", 8.0), ("bin_seconds", "8"),
        ("bin_seconds", True), ("bin_seconds", None),
        # Only a compressed raw section may be shuffled.
        ("region", 4), ("payload_bytes", 8),
    ])
    def test_tampered_shuffle_is_corruption(self, tmp_path, compressible,
                                            column, value):
        from repro.store.columnar import (coerce_batch, open_columns,
                                          pack_columns)
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        rng = np.random.default_rng(0)
        # Random payload sizes stay uncompressed, so they carry no shuffle.
        batch = dict(compressible,
                     payload_bytes=rng.integers(0, 2 ** 62, 512,
                                                dtype=np.int64))
        coerced = coerce_batch(kind, batch)
        payload = pack_columns(kind, coerced, compress=True)

        def tamper(entries):
            entries[column]["shuffle"] = value

        tampered = self._rewrite_header(payload, tamper)
        with pytest.raises(ValueError, match="shuffle"):
            open_columns(tampered, kind, expected_rows=512)
        # Through the store it is a corrupt segment.
        store = ResultStore(tmp_path / "s.store")
        with store.writer(compress=True) as writer:
            writer.append_batch(kind, coerced)
        meta = store.segments[0]
        path = store.segments_dir / meta.data_filename
        assert path.read_bytes() == payload
        path.write_bytes(tampered)
        with pytest.raises(StoreCorruptionError):
            dict(ResultStore(store.root).columns_for(meta))

    def test_legacy_unshuffled_level6_payload_decodes(self, tmp_path,
                                                      compressible):
        """Segments written before shuffling (level-6 deflate of the plain
        value buffer, no ``shuffle`` key) still read bit for bit."""
        import zlib

        from repro.store.columnar import (COLUMNAR_MAGIC, coerce_batch,
                                          open_columns)
        from repro.store.schema import kind_for

        kind = kind_for("fleet_load")
        rng = np.random.default_rng(1)
        coerced = coerce_batch(kind, dict(
            compressible, bin_start_s=np.round(rng.uniform(0, 9e4, 512), 1),
            requests=rng.integers(0, 40, 512)))
        entries, sections = [], []
        for column in kind.columns:
            array = coerced[column.name]
            section = zlib.compress(array.tobytes(), 6)
            entries.append({"name": column.name, "encoding": "raw",
                            "dtype": array.dtype.str,
                            "compression": "zlib",
                            "raw_nbytes": array.nbytes,
                            "nbytes": len(section)})
            sections.append(section)
        header = json.dumps({"kind": kind.name, "rows": 512,
                             "columns": entries},
                            sort_keys=True).encode("utf-8")
        payload = b"".join([COLUMNAR_MAGIC,
                            len(header).to_bytes(4, "little"), header,
                            *sections])
        decoded = open_columns(payload, kind, expected_rows=512)
        for name, array in coerced.items():
            assert decoded[name].dtype == array.dtype, name
            assert decoded[name].tobytes() == array.tobytes(), name


class TestStoreByteAccounting:
    """`store info` and compaction account every byte a segment owns."""

    def test_columnar_segments_never_grow_sidecars(self, tmp_path, results):
        from repro.store.schema import execution_results_to_columns

        store = ResultStore(tmp_path / "col.store")
        with store.writer(rows_per_segment=4) as writer:
            writer.append_batch("executions",
                                execution_results_to_columns(results))
        before = ResultStore(store.root).format_summary()
        listing = sorted(store.segments_dir.iterdir())
        mapped = ResultStore(store.root)
        for meta in mapped.segments:
            mapped.columns_for(meta)
        assert sorted(store.segments_dir.iterdir()) == listing
        assert ResultStore(store.root).format_summary() == before

    def test_compact_reports_bytes_reclaimed(self, legacy):
        from repro.store import compact_store

        reader = ResultStore(legacy.root)
        for meta in reader.segments:
            reader.columns_for(meta)  # reads leave no extra files

        def du(store):
            total = 0
            for path in store.segments_dir.rglob("*"):
                if path.is_file():
                    total += path.stat().st_size
            return total

        before = du(legacy)
        stats = compact_store(legacy.root, rows_per_segment=10 ** 6)
        after = du(ResultStore(legacy.root))
        assert stats.bytes_reclaimed == before - after

    def test_export_reports_source_and_output_bytes(self, tmp_path,
                                                    legacy):
        from repro.store import export_store

        stats = export_store(legacy, tmp_path / "out.store",
                             output_format="columnar")
        exported = ResultStore(tmp_path / "out.store")
        measured = sum((exported.segments_dir / f).stat().st_size
                       for m in exported.segments for f in m.filenames
                       if (exported.segments_dir / f).exists())
        assert stats.output_bytes == measured
        assert stats.source_bytes > 0
        # Columnar re-encoding of a JSONL store reclaims real bytes.
        assert stats.output_bytes < stats.source_bytes


class TestEmptyBatchPinning:
    """Satellite pin: an empty batch is a validated no-op, not a write."""

    @pytest.fixture()
    def batch_columns(self, results):
        from repro.store.schema import execution_results_to_columns

        return execution_results_to_columns(results)

    def test_empty_batch_writes_nothing(self, tmp_path, batch_columns):
        store = ResultStore(tmp_path / "e.store")
        empty = {name: a[:0] for name, a in batch_columns.items()}
        with store.writer() as writer:
            assert writer.append_batch("executions", empty) == 0
            assert writer.rows_pending == 0
        reopened = ResultStore(store.root)
        assert not reopened.segments
        assert reopened.sequence == 0
        assert not reopened.segments_dir.is_dir() \
            or list(reopened.segments_dir.iterdir()) == []

    def test_empty_batch_is_still_validated(self, tmp_path, batch_columns):
        store = ResultStore(tmp_path / "e.store")
        empty = {name: a[:0] for name, a in batch_columns.items()}
        del empty["latency_ms"]
        with store.writer() as writer:
            with pytest.raises(ValueError, match="missing columns"):
                writer.append_batch("executions", empty)
            with pytest.raises(KeyError):
                writer.append_batch("not-a-kind", {})

    def test_empty_batch_between_real_ones_preserves_rows(self, tmp_path,
                                                          batch_columns,
                                                          results):
        store = ResultStore(tmp_path / "e.store")
        empty = {name: a[:0] for name, a in batch_columns.items()}
        with store.writer(rows_per_segment=1000) as writer:
            writer.append_batch("executions", batch_columns)
            assert writer.append_batch("executions", empty) == 0
        assert store.query("executions").objects() == results
