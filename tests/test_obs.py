"""Tests for ``repro.obs``: timing, collector semantics, the disabled-mode
no-op contract, deterministic-counter bit-identity across pool variants,
cross-process span stitching, the store-backed sink and its reports, and
the CLI surface (``obs report``, ``--telemetry``, the ``store info``
telemetry heading)."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.campaign import ambient_spec, run_campaign
from repro.fleet.population import FleetSpec, zoo_population
from repro.fleet.simulator import FleetSimulator
from repro.obs.collector import Collector
from repro.obs.metrics import (DETERMINISTIC, TelemetrySnapshot, WALLCLOCK,
                               merge_counters, merge_values)
from repro.obs.sink import write_telemetry
from repro.obs.report import (metrics_table, run_timeline, shard_skew,
                              stage_breakdown)
from repro.obs.timing import Stopwatch
from repro.obs.tracing import NO_SPAN
from repro.runtime.pool import iter_mapped_chunks
from repro.store import ResultStore

NUM_USERS = 18
HORIZON_S = 4 * 3600.0

TRACE_COLUMNS = ("times_s", "latency_ms", "energy_mj", "throttle",
                 "battery_fraction", "discharge_mah", "offloaded")


@pytest.fixture(autouse=True)
def _telemetry_off():
    """No test leaks an enabled collector into the next."""
    yield
    obs.disable()


@pytest.fixture(scope="module")
def fleet_spec():
    return FleetSpec(graphs_with_tasks=zoo_population(), num_users=NUM_USERS,
                     horizon_s=HORIZON_S, seed=3)


# ---------------------------------------------------------------------------
# Stopwatch
# ---------------------------------------------------------------------------
class TestStopwatch:
    def test_context_manager_measures(self):
        with Stopwatch() as watch:
            assert watch.running
            sum(range(1000))
        assert not watch.running
        assert watch.elapsed_s > 0.0

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_time_call_returns_result_and_seconds(self):
        result, seconds = Stopwatch.time_call(sum, range(100))
        assert result == 4950
        assert seconds > 0.0

    def test_best_of_returns_minimum(self):
        calls = []
        result, seconds = Stopwatch.best_of(3, calls.append, None)
        assert len(calls) == 3
        assert result is None
        assert seconds > 0.0

    def test_best_of_rejects_nonpositive_repeats(self):
        with pytest.raises(ValueError):
            Stopwatch.best_of(0, sum, range(3))


# ---------------------------------------------------------------------------
# Collector semantics
# ---------------------------------------------------------------------------
class TestCollector:
    def test_counters_add_exactly(self):
        collector = Collector()
        collector.count("a", 2)
        collector.count("a", 3)
        collector.count("b")
        snapshot = collector.snapshot()
        assert snapshot.counters == {"a": 5, "b": 1}

    def test_observe_folds_count_total_min_max(self):
        collector = Collector()
        for value in (2.0, 5.0, 1.0):
            collector.observe("delta", value)
        assert collector.snapshot().values["delta"] == [3, 8.0, 1.0, 5.0]

    def test_span_nesting_parents(self):
        collector = Collector()
        with collector.span("outer"):
            with collector.span("inner"):
                pass
        spans = {record.name: record for record in collector.snapshot().spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id == 0
        assert spans["inner"].duration_s <= spans["outer"].duration_s

    def test_absorb_remaps_ids_and_reparents_roots(self):
        coordinator = Collector()
        with coordinator.span("dispatch") as dispatch:
            parent = dispatch.span_id
        worker = Collector()
        with worker.span("chunk"):
            with worker.span("leaf"):
                pass
        worker.count("items", 7)
        coordinator.absorb(worker.snapshot(), parent_id=parent)

        snapshot = coordinator.snapshot()
        assert snapshot.counters == {"items": 7}
        spans = {record.name: record for record in snapshot.spans}
        # Worker ids were remapped into the coordinator's space: unique.
        ids = [record.span_id for record in snapshot.spans]
        assert len(ids) == len(set(ids)) == 3
        assert spans["chunk"].parent_id == spans["dispatch"].span_id
        assert spans["leaf"].parent_id == spans["chunk"].span_id

    def test_push_pop_parent_restores_stack(self):
        collector = Collector()
        token = collector.push_parent(42)
        assert collector.current_span_id() == 42
        collector.pop_parent(token)
        assert collector.current_span_id() == 0

    def test_snapshot_merge(self):
        left = TelemetrySnapshot(counters={"a": 1}, values={"v": [1, 2.0, 2.0, 2.0]})
        right = TelemetrySnapshot(counters={"a": 2, "b": 5},
                                  values={"v": [1, 4.0, 4.0, 4.0]})
        merge_counters(left.counters, right.counters)
        merge_values(left.values, right.values)
        assert left.counters == {"a": 3, "b": 5}
        assert left.values["v"] == [2, 6.0, 2.0, 4.0]


# ---------------------------------------------------------------------------
# Disabled-mode contract
# ---------------------------------------------------------------------------
class TestDisabledMode:
    def test_disabled_span_is_shared_noop_singleton(self):
        assert not obs.enabled()
        assert obs.span("anything") is NO_SPAN
        assert obs.span("other", shard=3, items=9) is NO_SPAN
        with obs.span("noop"):
            pass  # enter/exit are free and raise nothing

    def test_disabled_count_observe_are_noops(self):
        obs.count("never", 5)
        obs.observe("never", 1.0)
        obs.enable()
        snapshot = obs.disable()
        assert snapshot.counters == {}
        assert snapshot.values == {}

    def test_forced_span_measures_but_never_records(self):
        span = obs.span("campaign.stage", force=True)
        assert span is not NO_SPAN
        with span:
            sum(range(100))
        assert span.duration_s > 0.0
        obs.enable()
        assert obs.disable().spans == []

    def test_enable_disable_roundtrip(self):
        collector = obs.enable()
        assert obs.enabled()
        assert obs.get_collector() is collector
        obs.count("x")
        snapshot = obs.disable()
        assert not obs.enabled()
        assert snapshot.counters == {"x": 1}
        assert obs.disable() is None


# ---------------------------------------------------------------------------
# Output bit-identity and deterministic counters
# ---------------------------------------------------------------------------
class TestDeterminism:
    def _collect(self, spec, **kwargs):
        return FleetSimulator(spec, **kwargs).collect()

    def test_simulation_output_identical_with_telemetry_on(self, fleet_spec):
        baseline = self._collect(fleet_spec, max_workers=1)
        obs.enable()
        traced = self._collect(fleet_spec, max_workers=1)
        obs.disable()
        for ours, reference in zip(traced, baseline):
            for column in TRACE_COLUMNS:
                assert np.array_equal(getattr(ours, column),
                                      getattr(reference, column)), column

    def test_deterministic_counters_identical_across_pool_variants(
            self, fleet_spec):
        variants = {
            "serial": dict(max_workers=1),
            "threads": dict(max_workers=3, chunk_size=5),
        }
        counters = {}
        for name, kwargs in variants.items():
            obs.enable()
            self._collect(fleet_spec, **kwargs)
            counters[name] = obs.disable().counters
        assert counters["serial"]["fleet.users_simulated"] == NUM_USERS
        assert counters["serial"]["fleet.events_simulated"] > 0
        assert counters["threads"] == counters["serial"]


# ---------------------------------------------------------------------------
# Cross-boundary span stitching
# ---------------------------------------------------------------------------
def _doubling_chunk(items):
    """Module-level (picklable) chunk body emitting one span per item."""
    out = []
    for item in items:
        with obs.span("work", items=1):
            out.append(item * 2)
    return out


def _collector_probe(items):
    """Module-level (picklable) chunk body: the pid that ran each item and
    whether a collector was installed there.  Each item holds its worker
    for a moment, so every idle worker of a pool takes one."""
    time.sleep(0.05)
    return [(os.getpid(), obs.get_collector() is not None) for _ in items]


class TestStitching:
    def _fan_out(self, **pool_kwargs):
        run_chunk = _doubling_chunk
        collector = obs.enable()
        with collector.span("fan"):
            results = list(iter_mapped_chunks(run_chunk, list(range(10)),
                                              chunk_size=3, **pool_kwargs))
        snapshot = obs.disable()
        assert sorted(results) == [x * 2 for x in range(10)]
        return snapshot

    def _assert_stitched(self, snapshot):
        ids = {record.span_id for record in snapshot.spans}
        fan = next(r for r in snapshot.spans if r.name == "fan")
        work = [r for r in snapshot.spans if r.name == "work"]
        assert len(work) == 10
        # No orphans: every parent id resolves within the run (or root).
        for record in snapshot.spans:
            assert record.parent_id == 0 or record.parent_id in ids
        # Every leaf sits under the fan-out span that dispatched it.
        for record in work:
            assert record.parent_id == fan.span_id

    def test_thread_pool_spans_parent_under_dispatcher(self):
        self._assert_stitched(self._fan_out(max_workers=3))

    def test_process_pool_spans_stitch_across_boundary(self):
        self._assert_stitched(
            self._fan_out(max_workers=2, use_processes=True))

    def test_inline_path_nests_naturally(self):
        self._assert_stitched(self._fan_out(max_workers=1))


# ---------------------------------------------------------------------------
# Sink + reports
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def telemetry_store(fleet_spec, tmp_path_factory):
    """One traced fleet run persisted into a sidecar store."""
    path = tmp_path_factory.mktemp("obs") / "telemetry.store"
    obs.enable()
    collector = obs.get_collector()
    with collector.span("run"):
        FleetSimulator(fleet_spec, max_workers=2, chunk_size=4).run_to_store(
            tmp_path_factory.mktemp("obs-fleet") / "fleet.store")
    rows = write_telemetry(path, run_id="test")
    obs.disable()
    assert rows > 0
    return ResultStore(path)


class TestSinkAndReports:
    def test_sink_requires_snapshot_or_enabled_collector(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_telemetry(tmp_path / "t.store")

    def test_sidecar_holds_only_telemetry_kinds(self, telemetry_store):
        kinds = {meta.kind for meta in telemetry_store.segments}
        assert kinds == {"telemetry_metrics", "telemetry_spans"}

    def test_metrics_roundtrip_by_class(self, telemetry_store):
        rows = metrics_table(telemetry_store, run_id="test")
        by_name = {row["metric"]: row for row in rows}
        assert by_name["fleet.users_simulated"]["value_i"] == NUM_USERS
        assert by_name["fleet.users_simulated"]["metric_class"] == DETERMINISTIC
        deterministic = metrics_table(telemetry_store,
                                      metric_class=DETERMINISTIC)
        assert {row["metric_class"] for row in deterministic} == {DETERMINISTIC}
        assert {row["metric_class"]
                for row in metrics_table(telemetry_store)} >= {DETERMINISTIC}

    def test_run_timeline_tree(self, telemetry_store):
        rows = run_timeline(telemetry_store, run_id="test")
        assert rows
        roots = [row for row in rows if row["depth"] == 0]
        assert len(roots) == 1 and roots[0]["name"] == "run"
        ids = {row["span_id"] for row in rows}
        for row in rows:
            assert row["parent_id"] == 0 or row["parent_id"] in ids
        offsets = [row["offset_s"] for row in rows]
        assert offsets == sorted(offsets)
        assert min(offsets) == 0.0

    def test_stage_breakdown_totals(self, telemetry_store):
        rows = stage_breakdown(telemetry_store, run_id="test")
        by_name = {row["name"]: row for row in rows}
        chunk = by_name["fleet.simulate_chunk"]
        assert chunk["items"] == NUM_USERS
        assert chunk["total_s"] >= chunk["max_s"] >= chunk["mean_s"] > 0.0
        totals = [row["total_s"] for row in rows]
        assert totals == sorted(totals, reverse=True)

    def test_reports_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "empty.store")
        assert run_timeline(store) == []
        assert stage_breakdown(store) == []
        assert shard_skew(store) == []
        assert metrics_table(store) == []

    def test_unknown_run_id_filters_everything(self, telemetry_store):
        assert run_timeline(telemetry_store, run_id="nope") == []


    def test_run_filters_scan_only_that_runs_segments(self, tmp_path):
        path = tmp_path / "telemetry.store"
        for run_id in ("a", "b"):
            collector = Collector()
            collector.count(f"demo.{run_id}", 3)
            with collector.span("stage", items=2):
                pass
            with collector.span(f"stage.{run_id}", shard=0, items=1):
                pass
            write_telemetry(path, collector.snapshot(), run_id=run_id)
        # The oracle: run "b" alone in a store of its own.
        write_telemetry(tmp_path / "b.store", collector.snapshot(),
                        run_id="b")
        store = ResultStore(path)
        assert [len(store.segments_for(kind))
                for kind in ("telemetry_metrics", "telemetry_spans")] == [2, 2]

        obs.enable()
        stages = stage_breakdown(store, run_id="b")
        metrics = metrics_table(store, run_id="b")
        snapshot = obs.disable()
        # Each table reads one segment of its kind; the run-"a" segment's
        # manifest stats prune it unread.
        assert snapshot.counter("query.segments_scanned") == 2
        assert snapshot.counter("query.segments_pruned") == 2
        alone = ResultStore(tmp_path / "b.store")
        assert stages == stage_breakdown(alone)
        assert metrics == metrics_table(alone)
        assert {row["name"] for row in stages} == {"stage", "stage.b"}
        assert [row["metric"] for row in metrics] == ["demo.b"]


# ---------------------------------------------------------------------------
# Campaign integration: derived seconds + shard skew
# ---------------------------------------------------------------------------
class TestCampaignSpans:
    def test_result_seconds_derive_from_spans_when_disabled(self, tmp_path):
        spec = ambient_spec(12, seed=5, horizon_s=2 * 3600.0)
        result = run_campaign(spec, tmp_path / "c", shards=3,
                              use_processes=False)
        assert result.simulate_seconds > 0.0
        assert result.merge_seconds > 0.0
        for shard in result.shard_results:
            assert shard.seconds > 0.0

    def test_traced_campaign_stitches_shards_and_reports_skew(self, tmp_path):
        spec = ambient_spec(12, seed=5, horizon_s=2 * 3600.0)
        obs.enable()
        run_campaign(spec, tmp_path / "c", shards=3, use_processes=True)
        rows = write_telemetry(tmp_path / "telemetry.store",
                               run_id="campaign")
        snapshot = obs.disable()
        assert rows > 0

        spans = {record.name: record for record in snapshot.spans}
        simulate = spans["campaign.simulate"]
        shard_spans = [r for r in snapshot.spans if r.name == "campaign.shard"]
        assert len(shard_spans) == 3
        for record in shard_spans:
            assert record.parent_id == simulate.span_id
            assert record.shard >= 0

        skew = shard_skew(tmp_path / "telemetry.store", name="campaign.shard")
        assert sorted(row["shard"] for row in skew) == [0, 1, 2]
        assert sum(row["items"] for row in skew) == 12
        mean_skew = sum(row["skew"] for row in skew) / len(skew)
        assert mean_skew == pytest.approx(1.0)

    def test_kept_workers_follow_each_call_telemetry(self, tmp_path):
        """Shard workers outlive the call that forked them, so each chunk
        carries its own call's telemetry state: workers forked inside a
        traced campaign record nothing in later untraced calls, and a later
        traced campaign still stitches its shards."""
        spec = ambient_spec(12, seed=5, horizon_s=2 * 3600.0)

        def probe():
            results = iter_mapped_chunks(_collector_probe, list(range(6)),
                                         max_workers=3, chunk_size=1,
                                         use_processes=True)
            return [entry for entry in results if entry[0] != os.getpid()]

        # Size the kept pool to one worker first, so the traced campaign
        # forks its two workers while the coordinator's collector is on.
        list(iter_mapped_chunks(_collector_probe, [0, 1], max_workers=2,
                                chunk_size=1, use_processes=True))
        obs.enable()
        run_campaign(spec, tmp_path / "traced", shards=3, max_parallel=3)
        obs.disable()
        for name in ("plain-1", "plain-2"):
            run_campaign(spec, tmp_path / name, shards=3, max_parallel=3)
        workers = probe()
        assert len(workers) == 4
        assert len({pid for pid, _ in workers}) == 2
        assert not any(installed for _, installed in workers)

        obs.enable()
        run_campaign(spec, tmp_path / "traced-again", shards=3,
                     max_parallel=3)
        snapshot = obs.disable()
        simulate = next(r for r in snapshot.spans
                        if r.name == "campaign.simulate")
        shard_spans = [r for r in snapshot.spans if r.name == "campaign.shard"]
        assert len(shard_spans) == 3
        assert {r.parent_id for r in shard_spans} == {simulate.span_id}
        # Every call above ran on the same two kept workers.
        assert {pid for pid, _ in probe()} == {pid for pid, _ in workers}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCli:
    def test_fleet_telemetry_flag_then_obs_report(self, tmp_path, capsys):
        from repro.cli import main

        telemetry = tmp_path / "telemetry.store"
        assert main(["fleet", "--users", "6", "--hours", "2",
                     "--telemetry", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert not obs.enabled()  # the CLI wrapper always disables again

        for table in ("run_timeline", "stages", "metrics"):
            assert main(["obs", "report", str(telemetry),
                         "--table", table]) == 0
        out = capsys.readouterr().out
        assert "fleet.simulate_chunk" in out
        assert "deterministic" in out

        assert main(["obs", "report", str(telemetry), "--table",
                     "run_timeline", "--run", "nope"]) == 1

    def test_store_info_splits_telemetry_heading(self, tmp_path, capsys):
        from repro.cli import main

        collector = Collector()
        collector.count("demo", 1)
        path = tmp_path / "telemetry.store"
        write_telemetry(path, collector.snapshot(), run_id="demo")
        assert main(["store", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "telemetry_metrics" in out
