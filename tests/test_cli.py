"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_census_defaults(self):
        args = build_parser().parse_args(["census"])
        assert args.snapshot == "2021"
        assert args.scale == pytest.approx(0.05)

    def test_benchmark_arguments(self):
        args = build_parser().parse_args(
            ["benchmark", "--devices", "A20", "S21", "--backend", "xnnpack",
             "--inferences", "2", "--scale", "0.02"])
        assert args.devices == ["A20", "S21"]
        assert args.backend == "xnnpack"
        assert args.inferences == 2

    def test_invalid_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["benchmark", "--devices", "Pixel6"])

    @pytest.mark.parametrize("argv", [
        ["store", "query", "s.store", "--workers", "2"],
        ["serve", "s.store", "--scan-workers", "2"],
    ])
    def test_scan_fanout_flags_rejected(self, argv):
        # Queries scan on one thread: no flag selects a scan fan-out.
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2


class TestCommands:
    def test_census_runs(self, capsys):
        assert main(["census", "--scale", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "total apps" in output
        assert "models per framework" in output

    def test_benchmark_runs(self, capsys):
        assert main(["benchmark", "--scale", "0.02", "--devices", "S21",
                     "--inferences", "2"]) == 0
        output = capsys.readouterr().out
        assert "S21" in output
        assert "mean ms" in output

    def test_scenarios_runs(self, capsys):
        assert main(["scenarios", "--scale", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "Segm." in output

    def test_compare_runs(self, capsys):
        assert main(["compare", "--scale", "0.02", "--top", "5"]) == 0
        output = capsys.readouterr().out
        assert "models:" in output
        assert "cloud-ML apps" in output


class TestStoreCommands:
    @pytest.fixture()
    def store_path(self, tmp_path):
        path = tmp_path / "campaign.store"
        assert main(["sweep", "--scale", "0.02", "--devices", "S21",
                     "--store", str(path)]) == 0
        return path

    def test_parse_where_expressions(self):
        from repro.cli import _parse_where

        assert _parse_where("device_name=S21") == ("device_name", "==", "S21")
        assert _parse_where("latency_ms<=5.5") == ("latency_ms", "<=", 5.5)
        assert _parse_where("batch_size!=1") == ("batch_size", "!=", 1)
        with pytest.raises(Exception):
            _parse_where("nonsense")

    def test_sweep_store_streams_and_reports(self, tmp_path, capsys):
        path = tmp_path / "fresh.store"
        assert main(["sweep", "--scale", "0.02", "--devices", "S21",
                     "--store", str(path)]) == 0
        output = capsys.readouterr().out
        assert "streamed" in output
        assert "mean ms" in output

    def test_store_query_aggregate(self, store_path, capsys):
        assert main(["store", "query", str(store_path),
                     "--where", "device_name=S21",
                     "--group-by", "backend",
                     "--agg", "latency_ms:mean,median"]) == 0
        output = capsys.readouterr().out
        assert "latency_ms_mean" in output
        assert "segments" in output

    def test_store_query_rows(self, store_path, capsys):
        assert main(["store", "query", str(store_path), "--limit", "2"]) == 0
        output = capsys.readouterr().out
        assert "latency_ms" in output

    def test_store_report_tables(self, store_path, capsys):
        for table, marker in (("summary", "segments"),
                              ("latency_ecdf", "median ms"),
                              ("energy", "median mJ"),
                              ("cloud", "provider"),
                              ("latency_flops", "S21: "),
                              ("cloud_load", "store holds no fleet_load rows"),
                              ("tail_latency",
                               "store holds no fleet_events rows"),
                              ("drain", "store holds no fleet_events rows")):
            assert main(["store", "report", str(store_path),
                         "--table", table]) == 0
            assert marker in capsys.readouterr().out

    def test_store_report_cloud_text_honours_min_apps(self, store_path,
                                                      capsys):
        # Regression: text mode printed every API whatever --min-apps said.
        import json

        args = ["store", "report", str(store_path), "--table", "cloud"]
        assert main(args + ["--json"]) == 0
        every = json.loads(capsys.readouterr().out)["rows"]
        assert main(args + ["--json", "--min-apps", "3"]) == 0
        kept = json.loads(capsys.readouterr().out)["rows"]
        assert 0 < len(kept) < len(every)
        assert main(args + ["--min-apps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [f"{row['api']:<28}{row['provider']:<12}"
                             f"{row['apps']:>6}" for row in kept]

    def test_store_info_verifies(self, store_path, capsys):
        assert main(["store", "info", str(store_path), "--verify"]) == 0
        output = capsys.readouterr().out
        assert "executions" in output
        assert "checksums: OK" in output

    def test_sweep_chunk_size_flag(self):
        args = build_parser().parse_args(
            ["sweep", "--chunk-size", "16", "--store", "x.store"])
        assert args.chunk_size == 16
        assert args.store == "x.store"


class TestScenariosStore:
    def test_scenarios_persist_rows(self, tmp_path, capsys):
        path = tmp_path / "scenarios.store"
        assert main(["scenarios", "--scale", "0.15",
                     "--store", str(path)]) == 0
        output = capsys.readouterr().out
        assert "persisted" in output

        from repro.store import ResultStore

        store = ResultStore(path)
        assert store.num_rows("scenarios") > 0
        assert store.verify_integrity() == len(store.segments)
        for row in store.query("scenarios").rows():
            assert row["battery_discharge_mah"] >= 0.0


class TestStoreCompactCommand:
    def test_compact_preserves_queries(self, tmp_path, capsys):
        path = tmp_path / "compactable.store"
        # Two ingestion passes leave two small segments per kind.
        for _ in range(2):
            assert main(["sweep", "--scale", "0.02", "--devices", "S21",
                         "--store", str(path)]) == 0
        capsys.readouterr()

        from repro.store import ResultStore

        before = ResultStore(path).query("executions").rows()
        assert main(["store", "compact", str(path), "--verify"]) == 0
        output = capsys.readouterr().out
        assert "compacted" in output
        assert "checksums: OK" in output
        assert ResultStore(path).query("executions").rows() == before

        # A second pass has nothing left to merge.
        assert main(["store", "compact", str(path)]) == 0
        assert "nothing to compact" in capsys.readouterr().out


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.users == 50
        assert args.hours == pytest.approx(24.0)
        assert args.fleet_store is None

    def test_fleet_in_memory(self, capsys):
        assert main(["fleet", "--scale", "0.02", "--users", "8",
                     "--hours", "2", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "simulated" in output
        assert "p99 ms" in output

    def test_fleet_store_path_and_reports(self, tmp_path, capsys):
        path = tmp_path / "fleet.store"
        assert main(["fleet", "--scale", "0.02", "--users", "10",
                     "--hours", "3", "--store", str(path),
                     "--rows-per-segment", "1000"]) == 0
        output = capsys.readouterr().out
        assert "streamed" in output
        assert "battery drain per user" in output
        assert "cloud offload" in output

        from repro.store import ResultStore

        store = ResultStore(path)
        assert store.num_rows("fleet_events") > 0
        # The fleet_events kind is queryable through the generic store CLI.
        assert main(["store", "query", str(path), "--kind", "fleet_events",
                     "--group-by", "scenario",
                     "--agg", "latency_ms:p50,p99"]) == 0
        assert "latency_ms_p99" in capsys.readouterr().out

    def test_store_query_ungrouped_string_extremes(self, tmp_path, capsys):
        """Ungrouped min/max over a string column answer what the grouped
        path gives for one group, instead of a NumPy traceback."""
        from repro.campaign import ingest_fleet_batches

        store = ingest_fleet_batches(tmp_path / "s.store", 2,
                                     rows_per_batch=100)
        assert main(["store", "query", str(store.root), "--kind",
                     "fleet_events", "--agg", "model_name:min,max"]) == 0
        output = capsys.readouterr().out
        names = sorted(store.query("fleet_events")
                       .arrays("model_name")["model_name"].tolist())
        grouped = (store.query("fleet_events").group_by("scenario")
                   .agg(lo=("model_name", "min"), hi=("model_name", "max"))
                   .aggregate())
        assert len(grouped) == 1
        assert (grouped[0]["lo"], grouped[0]["hi"]) == (names[0], names[-1])
        assert names[0] in output and names[-1] in output


    def test_in_memory_and_store_device_tables_agree(self, tmp_path, capsys,
                                                     monkeypatch):
        """Both fleet paths count only requests served on the device: a
        congested population sheds requests, which neither table may
        count as on-device."""
        from repro.core.pipeline import GaugeNN
        from repro.fleet import congested_population

        monkeypatch.setattr(GaugeNN, "graphs_with_tasks", staticmethod(
            lambda analysis: congested_population()))
        args = ["fleet", "--scale", "0.02", "--users", "5", "--hours", "4",
                "--seed", "1"]

        def device_rows(output: str) -> list[str]:
            lines = output.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("device")) + 1
            return lines[start:lines.index("", start)]

        assert main(args) == 0
        in_memory = device_rows(capsys.readouterr().out)
        assert main(args + ["--store", str(tmp_path / "f.store")]) == 0
        from_store = device_rows(capsys.readouterr().out)
        assert in_memory and in_memory == from_store

        from repro.store import ResultStore

        store = ResultStore(tmp_path / "f.store")
        shed = store.query("fleet_events").where(target="shed").count()
        assert shed > 0  # the regime the old ~offloaded mask miscounted
        served = store.query("fleet_events").where(target="device").count()
        assert sum(int(row.split()[1]) for row in in_memory) == served

class TestFleetCloudCapacity:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert not args.cloud_capacity
        assert not args.diurnal
        assert not args.recharge
        assert args.queue_wait_ms == pytest.approx(2000.0)
        assert args.queue_overflow == "shed"
        assert args.cloud_bin_minutes == pytest.approx(15.0)
        assert args.cloud_max_passes == 8

    def test_cloud_capacity_in_memory(self, capsys):
        assert main(["fleet", "--scale", "0.02", "--users", "12",
                     "--hours", "4", "--cloud-capacity", "--diurnal"]) == 0
        output = capsys.readouterr().out
        assert "fixed point" in output
        assert "passes" in output
        assert "queue conservation: arrived" in output

    def test_cloud_capacity_store_report_round_trip(self, tmp_path, capsys):
        """Satellite gate: fleet CLI -> store -> report round trip, with
        compaction interacting with the fleet_load rows."""
        path = tmp_path / "cloud.store"
        # Overflowing the device queue to the cloud guarantees regional
        # load even when nobody capability- or battery-offloads.
        assert main(["fleet", "--scale", "0.02", "--users", "16",
                     "--hours", "6", "--cloud-capacity",
                     "--queue-wait-ms", "500", "--queue-overflow", "cloud",
                     "--store", str(path),
                     "--rows-per-segment", "500"]) == 0
        output = capsys.readouterr().out
        assert "queue conservation" in output
        assert "[OK]" in output

        from repro.cloud import LoadProfile, REFERENCE_REGIONS
        from repro.store import ResultStore

        store = ResultStore(path)
        assert store.num_rows("fleet_events") > 0
        assert store.num_rows("fleet_load") > 0
        regions = tuple(r.name for r in REFERENCE_REGIONS)
        before = LoadProfile.from_store(store, regions,
                                        6 * 3600.0, 15 * 60.0)
        assert before.total_requests > 0

        assert main(["store", "report", str(path),
                     "--table", "cloud_load"]) == 0
        report_out = capsys.readouterr().out
        assert "peak rps" in report_out

        # Compacting the sharded store must not change the reconstruction
        # or the report.
        assert main(["store", "compact", str(path), "--verify"]) == 0
        capsys.readouterr()
        after = LoadProfile.from_store(ResultStore(path), regions,
                                       6 * 3600.0, 15 * 60.0)
        import numpy as np

        assert np.array_equal(after.requests, before.requests)
        assert main(["store", "report", str(path),
                     "--table", "cloud_load"]) == 0
        assert capsys.readouterr().out == report_out

        # fleet_load is queryable through the generic store CLI too.
        assert main(["store", "query", str(path), "--kind", "fleet_load",
                     "--group-by", "region",
                     "--agg", "requests:sum"]) == 0
        assert "requests_sum" in capsys.readouterr().out

    def test_cloud_load_report_on_fleet_only_store(self, tmp_path, capsys):
        path = tmp_path / "plain.store"
        assert main(["fleet", "--scale", "0.02", "--users", "6",
                     "--hours", "2", "--store", str(path)]) == 0
        capsys.readouterr()
        assert main(["store", "report", str(path),
                     "--table", "cloud_load"]) == 0
        assert "no fleet_load rows" in capsys.readouterr().out

    def test_queue_and_recharge_flags(self, capsys):
        assert main(["fleet", "--scale", "0.02", "--users", "6",
                     "--hours", "30", "--recharge",
                     "--queue-wait-ms", "500",
                     "--queue-overflow", "cloud"]) == 0
        assert "simulated" in capsys.readouterr().out


class TestCampaignCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--store", "c.dir"])
        assert args.users == 100000
        assert args.shards == 8
        assert args.workload == "ambient"
        assert args.compress is False
        assert args.max_parallel is None

    def test_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run"])

    def test_round_trip_through_store_commands(self, tmp_path, capsys):
        root = tmp_path / "c.dir"
        assert main(["campaign", "run", "--users", "24", "--shards", "3",
                     "--store", str(root), "--hours", "6",
                     "--max-parallel", "1", "--compress"]) == 0
        output = capsys.readouterr().out
        assert "3 shards" in output
        assert "merged store:" in output

        merged = str(root / "merged.store")
        assert main(["store", "info", merged, "--verify"]) == 0
        output = capsys.readouterr().out
        assert "fleet_events" in output
        assert "fleet_load" in output
        assert "checksums: OK" in output

        from repro.store import ResultStore

        store = ResultStore(merged)
        assert store.num_rows("fleet_events") > 0
        assert store.num_rows("fleet_load") > 0

    def test_matches_unsharded_cli_run(self, tmp_path, capsys):
        import numpy as np

        for name, shards in (("a", "1"), ("b", "4")):
            assert main(["campaign", "run", "--users", "20", "--shards",
                         shards, "--store", str(tmp_path / name),
                         "--hours", "4", "--max-parallel", "1"]) == 0
        capsys.readouterr()

        from repro.store import ResultStore

        one = ResultStore(tmp_path / "a" / "merged.store")
        four = ResultStore(tmp_path / "b" / "merged.store")
        for kind in ("fleet_events", "fleet_load"):
            left = one.query(kind).arrays()
            right = four.query(kind).arrays()
            for name, array in left.items():
                assert np.array_equal(right[name], array), name


class TestStoreMergeCommand:
    def test_merge_round_trip(self, tmp_path, capsys):
        for name in ("x", "y"):
            assert main(["sweep", "--scale", "0.02", "--devices", "S21",
                         "--store", str(tmp_path / f"{name}.store")]) == 0
        capsys.readouterr()
        assert main(["store", "merge", str(tmp_path / "m.store"),
                     str(tmp_path / "x.store"), str(tmp_path / "y.store"),
                     "--verify"]) == 0
        output = capsys.readouterr().out
        assert "adopted" in output
        assert "hard-linked" in output

        from repro.store import ResultStore

        merged = ResultStore(tmp_path / "m.store")
        expected = ResultStore(tmp_path / "x.store").num_rows("executions") \
            + ResultStore(tmp_path / "y.store").num_rows("executions")
        assert merged.num_rows("executions") == expected
        assert merged.verify_integrity() == len(merged.segments)

    def test_merge_rejects_bad_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["store", "merge", "m.store", "s.store", "--kinds", "bogus"])

    def test_compact_and_export_accept_compress(self):
        args = build_parser().parse_args(
            ["store", "compact", "s.store", "--compress"])
        assert args.compress is True
        args = build_parser().parse_args(
            ["store", "export", "s.store", "d.store", "--compress"])
        assert args.compress is True
