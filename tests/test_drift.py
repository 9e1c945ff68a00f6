"""Tests for the drift policy layer (repro.obs.snapshot / repro.obs.drift)."""

import json

import pytest

from repro import obs
from repro.obs.drift import (BREACH, CLEAN, EXACT, TOLERATED, DriftPolicy,
                             DriftReport, bench_drift, classify_store_diff,
                             diff_snapshots, flatten_bench,
                             ingest_bench_files)
from repro.obs.snapshot import (SNAPSHOT_KIND, build_snapshot, load_snapshot,
                                write_snapshot)
from repro.store import ResultStore, diff_stores


def telemetry_store(path, *, run_id="run", events=1000, seconds=1.25):
    """A telemetry sidecar with one counter and one wall-clock metric."""
    obs.enable()
    try:
        obs.count("fleet.events_simulated", events)
        obs.count("store.rows_committed", 7)
        obs.observe("fleet.sim_seconds", seconds)
        with obs.span("campaign.simulate", items=events):
            pass
        obs.write_telemetry(path, run_id=run_id)
    finally:
        obs.disable()
    return path


class TestPolicy:
    def test_metric_class_patterns(self):
        policy = DriftPolicy()
        assert policy.metric_class_of("seed_seconds") == "wallclock"
        assert policy.metric_class_of("speedup") == "wallclock"
        assert policy.metric_class_of("fleet.sim_seconds") == "wallclock"
        assert policy.metric_class_of("events") == "deterministic"
        assert policy.metric_class_of("rows") == "deterministic"
        assert policy.metric_class_of("models") == "deterministic"

    def test_classify_value(self):
        policy = DriftPolicy(rel_tol=0.25)
        assert policy.classify_value(10.0, 10.0, True) == CLEAN
        assert policy.classify_value(10, 11, True) == EXACT
        assert policy.classify_value(10.0, 11.0, False) == TOLERATED
        assert policy.classify_value(10.0, 20.0, False) == BREACH

    def test_skips(self):
        policy = DriftPolicy()
        assert policy.skips("gates_enforced")
        assert not policy.skips("events")

    def test_report_severity_counts_and_exit_semantics(self):
        report = DriftReport()
        assert report.clean and report.max_severity == CLEAN
        report.add(CLEAN, "x", "m")
        report.add(TOLERATED, "x", "m2", baseline=1.0, current=1.1)
        report.add(EXACT, "x", "m3", baseline=1, current=2)
        assert report.severity_counts == {"clean": 1, "tolerated": 1,
                                          "breach": 0, "exact": 1}
        assert report.max_severity == EXACT
        # CLEAN findings are counted but not kept.
        assert len(report.findings) == 2
        assert report.to_json()["verdict"] == "exact"


class TestSnapshots:
    def test_round_trip_and_kind_marker(self, tmp_path):
        telemetry = telemetry_store(tmp_path / "t.store")
        snapshot = build_snapshot(telemetry=telemetry, run_id="run",
                                  meta={"scale": 0.05})
        assert snapshot["kind"] == SNAPSHOT_KIND
        assert snapshot["counters"]["fleet.events_simulated"] == 1000
        assert "fleet.sim_seconds" in snapshot["wallclock"]
        path = write_snapshot(tmp_path / "snap.json", snapshot)
        assert load_snapshot(path) == snapshot

    def test_load_rejects_non_snapshot_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"benchmark": "x"}))
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_identical_snapshots_are_clean(self, tmp_path):
        telemetry = telemetry_store(tmp_path / "t.store")
        snapshot = build_snapshot(telemetry=telemetry)
        assert diff_snapshots(snapshot, snapshot).clean

    def test_counter_drift_is_exact(self, tmp_path):
        a = build_snapshot(
            telemetry=telemetry_store(tmp_path / "a.store", events=1000))
        b = build_snapshot(
            telemetry=telemetry_store(tmp_path / "b.store", events=1001))
        report = diff_snapshots(a, b)
        assert report.max_severity == EXACT
        (finding,) = [f for f in report.findings
                      if f["metric"] == "fleet.events_simulated"]
        assert finding["baseline"] == 1000 and finding["current"] == 1001

    def test_wallclock_drift_uses_tolerance_band(self, tmp_path):
        a = build_snapshot(
            telemetry=telemetry_store(tmp_path / "a.store", seconds=1.0))
        near = build_snapshot(
            telemetry=telemetry_store(tmp_path / "b.store", seconds=1.2))
        far = build_snapshot(
            telemetry=telemetry_store(tmp_path / "c.store", seconds=5.0))
        assert diff_snapshots(a, near).max_severity == TOLERATED
        assert diff_snapshots(a, far).max_severity == BREACH

    def test_store_tables_are_report_payloads(self, tmp_path):
        from repro.android.cloud_apis import CLOUD_APIS
        from repro.core.records import AppRecord
        from repro.runtime import Backend
        from repro.runtime.executor import ExecutionResult
        from repro.serve.service import report_payload

        store = ResultStore(tmp_path / "campaign.store")
        with store.writer(rows_per_segment=3) as writer:
            for i, device in enumerate(("S21", "A20", "S21", "A70", "A20")):
                writer.append(ExecutionResult(
                    model_name="m", device_name=device, backend=Backend.CPU,
                    batch_size=1, thread_label="auto", latency_ms=1.5 + i,
                    energy_mj=10.0 + i, power_watts=2.0 + 0.1 * i,
                    flops=10 ** 6 * (i + 1), parameters=10,
                    peak_memory_bytes=100, num_inferences=1))
            for i in range(3):
                writer.append(AppRecord(
                    package=f"com.app{i}", title="app", category="TOOLS",
                    downloads=10, rating=4.0, frameworks_in_code=(),
                    native_libraries=(), accelerators=(),
                    cloud_apis=(CLOUD_APIS[i % 2].name,),
                    cloud_providers=(), model_count=0,
                    candidate_file_count=0, apk_size_bytes=1))

        snapshot = build_snapshot(store=store.root)
        tables = snapshot["tables"]
        assert list(tables) == ["latency_ecdf", "energy", "cloud",
                                "latency_flops"]
        for name in ("latency_ecdf", "energy", "cloud"):
            rows = report_payload(store, name)["rows"]
            assert rows
            assert tables[name] == {"columns": list(rows[0]),
                                    "rows": [list(row.values())
                                             for row in rows]}
        points = report_payload(store, "latency_flops")["points"]
        assert tables["latency_flops"]["rows"] == [
            [device, len(pairs), sum(l for l, _ in pairs),
             sum(f for _, f in pairs)] for device, pairs in points.items()]
        assert [row[:2] for row in tables["latency_flops"]["rows"]] == [
            ["S21", 2], ["A20", 2], ["A70", 1]]
        # Every per-device table lists devices in first-appearance order.
        orders = [[row[0] for row in tables[name]["rows"]]
                  for name in ("latency_ecdf", "energy", "latency_flops")]
        assert orders == [["S21", "A20", "A70"]] * 3

        path = write_snapshot(tmp_path / "snap.json", snapshot)
        assert load_snapshot(path) == snapshot
        assert diff_snapshots(load_snapshot(path),
                              build_snapshot(store=store.root)).clean

    def test_missing_counter_is_exact_missing_wallclock_tolerated(self):
        a = {"schema_version": 1, "counters": {"events": 5},
             "wallclock": {"sim_seconds": {"count": 1, "total": 1.0,
                                           "min": 1.0, "max": 1.0}}}
        b = {"schema_version": 1, "counters": {}, "wallclock": {}}
        report = diff_snapshots(a, b)
        severities = {f["metric"]: f["severity"] for f in report.findings}
        assert severities["events"] == "exact"
        assert severities["sim_seconds"] == "tolerated"

    def test_table_cell_drift_is_exact(self):
        table = {"columns": ["device", "samples"], "rows": [["S21", 10]]}
        changed = {"columns": ["device", "samples"], "rows": [["S21", 11]]}
        a = {"schema_version": 1, "tables": {"latency_ecdf": table}}
        b = {"schema_version": 1, "tables": {"latency_ecdf": changed}}
        report = diff_snapshots(a, b)
        assert report.max_severity == EXACT
        (finding,) = report.findings
        assert finding["source"] == "table:latency_ecdf"
        assert finding["metric"] == "samples" and finding["key"] == "S21"

    def test_meta_scale_mismatch_is_exact(self):
        a = {"schema_version": 1, "meta": {"scale": "0.05"}}
        b = {"schema_version": 1, "meta": {"scale": "0.15"}}
        assert diff_snapshots(a, b).max_severity == EXACT

    def test_schema_version_mismatch_refuses(self):
        with pytest.raises(ValueError, match="refresh the baseline"):
            diff_snapshots({"schema_version": 1}, {"schema_version": 2})

    def test_empty_baseline_is_flagged_in_notes(self):
        empty = {"schema_version": 1, "meta": {}, "tables": {},
                 "counters": {}, "wallclock": {}}
        report = diff_snapshots(empty, dict(empty))
        assert report.clean
        assert any("empty" in note for note in report.notes)

    def test_populated_baseline_has_no_empty_note(self, tmp_path):
        store = telemetry_store(tmp_path / "t.store")
        snapshot = build_snapshot(telemetry=store, run_id="run")
        report = diff_snapshots(snapshot, snapshot)
        assert report.clean
        assert not any("empty" in note for note in report.notes)


class TestStoreDiffClassification:
    def test_result_kind_drift_is_exact(self, tmp_path):
        import numpy as np

        def batch(latency):
            return {
                "user_id": np.arange(4, dtype=np.int64),
                "time_s": np.arange(4, dtype=float),
                "device_name": np.array(["S21"] * 4),
                "model_name": np.array(["m"] * 4),
                "scenario": np.array(["photo"] * 4),
                "backend": np.array(["cpu"] * 4),
                "region": np.array(["amer"] * 4),
                "target": np.array(["local"] * 4),
                "latency_ms": np.full(4, latency),
                "wait_ms": np.zeros(4),
                "energy_mj": np.ones(4),
                "throttle_factor": np.ones(4),
                "battery_fraction": np.ones(4),
                "discharge_mah": np.zeros(4),
                "cloud_api": np.array([""] * 4),
                "cloud_bytes": np.zeros(4, dtype=np.int64),
            }

        a = ResultStore(tmp_path / "a.store")
        with a.writer() as writer:
            writer.append_batch("fleet_events", batch(10.0))
        b = ResultStore(tmp_path / "b.store")
        with b.writer() as writer:
            writer.append_batch("fleet_events", batch(10.5))
        report = classify_store_diff(diff_stores(a, b))
        assert report.max_severity == EXACT  # 5% off, but exact class

    def test_telemetry_wallclock_rows_use_tolerance(self, tmp_path):
        a = telemetry_store(tmp_path / "a.store", seconds=1.0)
        b = telemetry_store(tmp_path / "b.store", seconds=1.1)
        report = classify_store_diff(
            diff_stores(ResultStore(a), ResultStore(b)))
        wallclock = [f for f in report.findings
                     if f["source"] == "store:telemetry_metrics"]
        assert wallclock and all(f["severity"] == "tolerated"
                                 for f in wallclock)

    def test_self_diff_classifies_clean(self, tmp_path):
        store = ResultStore(telemetry_store(tmp_path / "a.store"))
        assert classify_store_diff(diff_stores(store, store)).clean


class TestBenchDrift:
    def bench_payload(self, path, run_id, *, speedup=10.0, events=1000):
        path.write_text(json.dumps({
            "benchmark": "sweep", "run_id": run_id, "schema_version": 1,
            "scale": 0.15, "gates_enforced": True,
            "zoo": {"speedup": speedup, "seed_seconds": 1.0},
            "events": events}))
        return path

    def test_flatten_bench(self):
        leaves = flatten_bench({"benchmark": "x", "run_id": "r",
                                "schema_version": 1, "scale": 0.15,
                                "nested": {"speedup": 5.0, "ok": True},
                                "label": "text", "series": [1, 2]})
        assert leaves == {"scale": 0.15, "nested.speedup": 5.0,
                          "nested.ok": 1.0}

    def test_ingest_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "trajectory.store")
        path = self.bench_payload(tmp_path / "BENCH_sweep.json", "r1")
        first = ingest_bench_files(store, [path])
        assert first["ingested"] == 1 and first["rows"] > 0
        again = ingest_bench_files(store, [path])
        assert again["ingested"] == 0 and again["skipped"] == 1
        arrays = store.query("bench_runs").arrays("benchmark")
        assert arrays["benchmark"].size == first["rows"]

    def test_single_run_notes_not_compared(self, tmp_path):
        store = ResultStore(tmp_path / "trajectory.store")
        ingest_bench_files(
            store, [self.bench_payload(tmp_path / "b.json", "r1")])
        report = bench_drift(store)
        assert report.clean
        assert any("single run" in note for note in report.notes)

    def test_speedup_erosion_breaches(self, tmp_path):
        store = ResultStore(tmp_path / "trajectory.store")
        ingest_bench_files(store, [
            self.bench_payload(tmp_path / "r1.json", "r1", speedup=10.0)])
        ingest_bench_files(store, [
            self.bench_payload(tmp_path / "r2.json", "r2", speedup=6.0)])
        report = bench_drift(store)
        assert report.max_severity == BREACH
        (finding,) = [f for f in report.findings
                      if f["metric"] == "zoo.speedup"]
        assert finding["severity"] == "breach"
        assert finding["key"] == "r1->r2"

    def test_deterministic_bench_metric_drift_is_exact(self, tmp_path):
        store = ResultStore(tmp_path / "trajectory.store")
        ingest_bench_files(store, [
            self.bench_payload(tmp_path / "r1.json", "r1", events=1000)])
        ingest_bench_files(store, [
            self.bench_payload(tmp_path / "r2.json", "r2", events=1001)])
        report = bench_drift(store)
        assert report.max_severity == EXACT
        assert any(f["metric"] == "events" and f["severity"] == "exact"
                   for f in report.findings)
        # gates_enforced is skipped entirely by policy.
        assert not any("gates_enforced" in f["metric"]
                       for f in report.findings)

    def test_empty_store_notes(self, tmp_path):
        report = bench_drift(ResultStore(tmp_path / "empty.store"))
        assert report.clean
        assert any("nothing to compare" in note for note in report.notes)


class TestCli:
    def test_snapshot_then_clean_drift(self, tmp_path, capsys):
        from repro.cli import main

        telemetry = telemetry_store(tmp_path / "t.store", run_id="smoke")
        snap = tmp_path / "baseline.json"
        assert main(["obs", "snapshot", "--telemetry", str(telemetry),
                     "--run", "smoke", "--out", str(snap),
                     "--meta", "scale=0.05"]) == 0
        assert load_snapshot(snap)["meta"]["scale"] == "0.05"
        assert main(["obs", "drift", "--baseline", str(snap),
                     "--telemetry", str(telemetry), "--run", "smoke"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_drift_exit_codes_by_severity(self, tmp_path, capsys):
        from repro.cli import main

        baseline = telemetry_store(tmp_path / "a.store", run_id="smoke")
        snap = tmp_path / "baseline.json"
        assert main(["obs", "snapshot", "--telemetry", str(baseline),
                     "--run", "smoke", "--out", str(snap)]) == 0
        exact = telemetry_store(tmp_path / "b.store", run_id="smoke",
                                events=1001)
        report_path = tmp_path / "report.json"
        assert main(["obs", "drift", "--baseline", str(snap),
                     "--telemetry", str(exact), "--run", "smoke",
                     "--report", str(report_path)]) == 3
        payload = json.loads(report_path.read_text())
        assert payload["verdict"] == "exact"

        tolerated = telemetry_store(tmp_path / "c.store", run_id="smoke",
                                    seconds=1.4)
        assert main(["obs", "drift", "--baseline", str(snap),
                     "--telemetry", str(tolerated), "--run", "smoke"]) == 1
        # CI mode: wall-clock drift alone cannot fail the build.
        assert main(["obs", "drift", "--baseline", str(snap),
                     "--telemetry", str(tolerated), "--run", "smoke",
                     "--fail-on", "exact"]) == 0
        capsys.readouterr()

    def test_obs_report_graceful_without_telemetry(self, tmp_path, capsys):
        import numpy as np

        from repro.cli import main

        store = ResultStore(tmp_path / "campaign.store")
        with store.writer() as writer:
            writer.append_batch("fleet_load", {
                "region": np.array(["amer"]),
                "cloud_api": np.array(["Vision"]),
                "bin_index": np.zeros(1, dtype=np.int64),
                "bin_start_s": np.zeros(1),
                "bin_seconds": np.full(1, 900.0),
                "requests": np.ones(1, dtype=np.int64),
                "payload_bytes": np.zeros(1, dtype=np.int64),
            })
        assert main(["obs", "report", str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "no matching telemetry" in out and "fleet_load" in out

    def test_obs_report_wrong_run_lists_available(self, tmp_path, capsys):
        from repro.cli import main

        telemetry = telemetry_store(tmp_path / "t.store", run_id="smoke")
        assert main(["obs", "report", str(telemetry),
                     "--run", "nope"]) == 1
        out = capsys.readouterr().out
        assert "available runs" in out and "smoke" in out

    def test_bench_mode_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        bench_store = tmp_path / "trajectory.store"
        r1 = tmp_path / "r1.json"
        r1.write_text(json.dumps({"benchmark": "x", "run_id": "r1",
                                  "schema_version": 1, "scale": 0.15,
                                  "speedup": 10.0}))
        assert main(["obs", "drift", "--bench", str(r1),
                     "--bench-store", str(bench_store)]) == 0
        r2 = tmp_path / "r2.json"
        r2.write_text(json.dumps({"benchmark": "x", "run_id": "r2",
                                  "schema_version": 1, "scale": 0.15,
                                  "speedup": 6.0}))
        assert main(["obs", "drift", "--bench", str(r2),
                     "--bench-store", str(bench_store)]) == 2
        out = capsys.readouterr().out
        assert "BREACH" in out
