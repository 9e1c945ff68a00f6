"""Tests for the shared-capacity cloud layer: capacity curves, load
profiles, the two-pass interference fixed point, device queueing,
diurnal arrivals and the recharge model."""

import numpy as np
import pytest

from repro.cloud import (
    ApiCapacity,
    CapacityModel,
    CloudRegion,
    FIG15_API_NAMES,
    InterferenceConfig,
    InterferenceSimulator,
    LoadProfile,
    ServiceTable,
    load_report,
)
from repro.devices.battery import RechargeSchedule
from repro.devices.device import PHONES
from repro.fleet import (
    DiurnalProfile,
    FleetSimulator,
    FleetSpec,
    QueuePolicy,
    ROUTE_CLOUD,
    ROUTE_DEVICE,
    ROUTE_QUEUED,
    ROUTE_SHED,
    RoutingPolicy,
    congested_population,
    derive_user_region,
    simulate_user_naive,
    zoo_population,
)
from repro.store import ResultStore

TRACE_COLUMNS = ("latency_ms", "energy_mj", "throttle", "battery_fraction",
                 "discharge_mah", "wait_ms")

#: Small capacity so modest test fleets visibly congest the APIs.
TIGHT_CAPACITY = CapacityModel(
    regions=(CloudRegion("east"), CloudRegion("west", capacity_scale=0.5)),
    default=ApiCapacity(base_service_ms=45.0, servers=3, per_server_rps=2.0),
)


def assert_traces_equal(fast, slow, context=""):
    assert np.array_equal(fast.route, slow.route), context
    for name in TRACE_COLUMNS:
        np.testing.assert_allclose(
            getattr(fast, name), getattr(slow, name),
            rtol=1e-9, atol=1e-9, err_msg=f"{context}: {name}")


@pytest.fixture(scope="module")
def congested_spec():
    """Low-tier phones running a segmentation model that queues when hot."""
    return FleetSpec(graphs_with_tasks=congested_population(),
                     num_users=8, horizon_s=24 * 3600.0,
                     devices=(PHONES[0],), seed=5)


@pytest.fixture(scope="module")
def congested_traces(congested_spec):
    return FleetSimulator(congested_spec, max_workers=1).collect()


class TestCapacityModel:
    def test_service_time_monotone_in_load(self):
        model = CapacityModel()
        loads = np.linspace(0.0, 30.0, 50)
        service = model.service_ms("Speech", "us-central", loads)
        assert np.all(np.diff(service) >= 0)
        assert service[0] == pytest.approx(model.default.base_service_ms)

    def test_smaller_regions_congest_earlier(self):
        model = CapacityModel()
        load = 4.0
        big = float(model.service_ms("Speech", "us-central", load))
        small = float(model.service_ms("Speech", "apac-se", load))
        assert small > big

    def test_overload_saturates_finite(self):
        model = CapacityModel()
        ceiling = model.saturated_service_ms("Speech", "us-central")
        beyond = float(model.service_ms("Speech", "us-central", 1e9))
        assert np.isfinite(ceiling)
        assert beyond == pytest.approx(ceiling)

    def test_api_overrides_apply(self):
        model = CapacityModel(api_capacities={
            "Speech": ApiCapacity(base_service_ms=120.0)})
        assert float(model.service_ms("Speech", "us-central", 0.0)) \
            == pytest.approx(120.0)
        assert float(model.service_ms("Vision/Face", "us-central", 0.0)) \
            == pytest.approx(model.default.base_service_ms)

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            CapacityModel().region("mars")
        with pytest.raises(KeyError):
            CapacityModel(api_capacities={"NotAnApi": ApiCapacity()})

    def test_validation(self):
        with pytest.raises(ValueError):
            CloudRegion("", 1.0)
        with pytest.raises(ValueError):
            CloudRegion("x", 0.0)
        with pytest.raises(ValueError):
            ApiCapacity(servers=0)
        with pytest.raises(ValueError):
            CapacityModel(regions=())
        with pytest.raises(ValueError):
            CapacityModel(regions=(CloudRegion("a"), CloudRegion("a")))
        with pytest.raises(ValueError):
            CapacityModel(max_utilization=1.0)


class TestRegionAssignment:
    def test_deterministic_and_seed_scoped(self):
        regions = ("east", "west")
        assert derive_user_region(0, 7, regions) \
            == derive_user_region(0, 7, regions)
        picks = {derive_user_region(0, uid, regions) for uid in range(50)}
        assert picks == set(regions)

    def test_independent_of_event_plan(self):
        """Changing the region list never perturbs a user's draws."""
        base = FleetSpec(graphs_with_tasks=zoo_population(), num_users=4,
                         horizon_s=3600.0, seed=3)
        sharded = FleetSpec(graphs_with_tasks=zoo_population(), num_users=4,
                            horizon_s=3600.0, seed=3,
                            regions=("east", "west"))
        for uid in range(4):
            _, plan_a = base.materialize(uid)
            _, plan_b = sharded.materialize(uid)
            assert np.array_equal(plan_a.times, plan_b.times)
            assert np.array_equal(plan_a.noise, plan_b.noise)
            assert np.array_equal(plan_a.rtt_ms, plan_b.rtt_ms)


class TestLoadProfile:
    def _traces(self, num_users=12):
        spec = FleetSpec(graphs_with_tasks=zoo_population(),
                         num_users=num_users, horizon_s=4 * 3600.0,
                         seed=2, regions=("east", "west"))
        return spec, FleetSimulator(spec, max_workers=1).collect()

    def test_counts_offloaded_requests_only(self):
        spec, traces = self._traces()
        profile = LoadProfile(spec.regions, spec.horizon_s, 900.0)
        added = sum(profile.add_trace(t) for t in traces)
        offloaded = sum(t.num_offloaded for t in traces)
        assert added == offloaded == profile.total_requests

    def test_merge_is_pure_addition(self):
        """Any split of the traces merges to the identical grid."""
        spec, traces = self._traces()
        whole = LoadProfile(spec.regions, spec.horizon_s, 900.0)
        for trace in traces:
            whole.add_trace(trace)
        left = LoadProfile(spec.regions, spec.horizon_s, 900.0)
        right = LoadProfile(spec.regions, spec.horizon_s, 900.0)
        for trace in traces[::2]:
            left.add_trace(trace)
        for trace in reversed(traces[1::2]):  # order must not matter
            right.add_trace(trace)
        merged = left.merge(right)
        assert np.array_equal(merged.requests, whole.requests)
        assert np.array_equal(merged.payload_bytes, whole.payload_bytes)

    def test_store_round_trip_across_segment_splits(self, tmp_path):
        spec, traces = self._traces()
        profile = LoadProfile(spec.regions, spec.horizon_s, 900.0)
        for trace in traces:
            profile.add_trace(trace)
        store = ResultStore(tmp_path / "load.store")
        # Tiny segments: the cells land scattered across many segments.
        with store.writer(rows_per_segment=2) as writer:
            count = writer.append_many(profile.cells())
        assert count == store.num_rows("fleet_load")
        rebuilt = LoadProfile.from_store(store, spec.regions, spec.horizon_s,
                                         900.0)
        assert np.array_equal(rebuilt.requests, profile.requests)
        assert np.array_equal(rebuilt.payload_bytes, profile.payload_bytes)

    def test_merge_shape_mismatch_rejected(self):
        a = LoadProfile(("east",), 3600.0, 900.0)
        b = LoadProfile(("east",), 3600.0, 600.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_bin_indices_clip_to_horizon(self):
        profile = LoadProfile(("east",), 3600.0, 900.0)
        assert profile.num_bins == 4
        bins = profile.bin_indices(np.array([0.0, 899.9, 900.0, 3599.9]))
        assert list(bins) == [0, 0, 1, 3]


class TestServiceTable:
    def test_constant_table(self):
        table = ServiceTable.constant(("east",), FIG15_API_NAMES,
                                      3600.0, 900.0, 45.0)
        assert table.num_bins == 4
        assert np.all(table.service_ms == 45.0)

    def test_lookup_follows_bins(self):
        grid = np.arange(8, dtype=np.float64).reshape(1, 2, 4)
        table = ServiceTable(("east",), ("a", "b"), 900.0, grid)
        times = np.array([0.0, 950.0, 3599.0, 1e9])
        assert list(table.service_for("east", "b", times)) \
            == [4.0, 5.0, 7.0, 7.0]

    def test_max_delta(self):
        a = ServiceTable.constant(("east",), ("a",), 1800.0, 900.0, 45.0)
        b = ServiceTable.constant(("east",), ("a",), 1800.0, 900.0, 47.5)
        assert a.max_delta_ms(b) == pytest.approx(2.5)


class TestDeviceQueueing:
    def test_congestion_produces_sheds_and_waits(self, congested_traces):
        shed = sum(t.num_shed for t in congested_traces)
        assert shed > 0, "tuned population should overflow the device queue"
        waits = np.concatenate([t.wait_ms for t in congested_traces
                                if t.num_events])
        assert float(waits.max()) > 0.0
        # Served on-device requests never wait beyond the overflow cap.
        for trace in congested_traces:
            served = trace.route == ROUTE_DEVICE
            if served.any():
                assert float(trace.wait_ms[served].max()) <= 2000.0

    def test_conservation_invariant_per_user(self, congested_traces):
        for trace in congested_traces:
            counts = trace.route_counts()
            assert sum(counts.values()) == trace.num_events
            assert counts["device"] == trace.num_on_device
            assert counts["shed"] == trace.num_shed

    def test_vectorised_matches_reference_under_congestion(
            self, congested_spec):
        simulator = FleetSimulator(congested_spec, max_workers=1)
        for user_id in range(congested_spec.num_users):
            assert_traces_equal(simulator.simulate_user(user_id),
                                simulate_user_naive(congested_spec, user_id),
                                context=f"user {user_id}")

    def test_shed_requests_cost_nothing(self, congested_traces):
        for trace in congested_traces:
            shed = trace.route == ROUTE_SHED
            if shed.any():
                assert np.all(trace.energy_mj[shed] == 0.0)
                assert np.all(trace.discharge_mah[shed] == 0.0)
                assert np.all(trace.throttle[shed] == 1.0)

    def test_served_latency_includes_wait(self, congested_traces):
        for trace in congested_traces:
            served = trace.route == ROUTE_DEVICE
            if served.any():
                assert np.all(trace.latency_ms[served]
                              >= trace.wait_ms[served])

    def test_overflow_to_cloud_instead_of_shedding(self, congested_spec):
        from dataclasses import replace

        policy = RoutingPolicy(queue=QueuePolicy(max_wait_ms=2000.0,
                                                 overflow="cloud"))
        spec = replace(congested_spec, policy=policy)
        simulator = FleetSimulator(spec, max_workers=1)
        traces = simulator.collect()
        assert sum(t.num_shed for t in traces) == 0
        assert sum(t.num_offloaded for t in traces) > 0
        for user_id in range(spec.num_users):
            assert_traces_equal(simulator.simulate_user(user_id),
                                simulate_user_naive(spec, user_id),
                                context=f"user {user_id}")

    def test_unbounded_queue_leaves_backlog_at_horizon(self):
        # Seed 17 places a congested video-call session across the horizon
        # end, so the uncapped queue is still draining when time runs out.
        policy = RoutingPolicy(
            queue=QueuePolicy(max_wait_ms=float("inf")))
        spec = FleetSpec(graphs_with_tasks=congested_population(),
                         num_users=12, horizon_s=24 * 3600.0,
                         devices=(PHONES[0],), seed=17, policy=policy)
        simulator = FleetSimulator(spec, max_workers=1)
        traces = simulator.collect()
        assert sum(t.num_shed for t in traces) == 0
        queued = sum(t.num_queued for t in traces)
        assert queued > 0, "an uncapped queue should still be busy at the horizon"
        for trace in traces:
            backlog = trace.route == ROUTE_QUEUED
            if backlog.any():
                # The backlog is a suffix property of the congested tail:
                # nothing after the first queued event is served on-device.
                first = int(np.argmax(backlog))
                assert not (trace.route[first:] == ROUTE_DEVICE).any()
        for user_id in range(spec.num_users):
            assert_traces_equal(simulator.simulate_user(user_id),
                                simulate_user_naive(spec, user_id),
                                context=f"user {user_id}")

    def test_queue_policy_validation(self):
        with pytest.raises(ValueError):
            QueuePolicy(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            QueuePolicy(overflow="retry")


class TestRecharge:
    def _spec(self, recharge):
        return FleetSpec(graphs_with_tasks=zoo_population(), num_users=10,
                         horizon_s=3 * 86400.0, seed=2, recharge=recharge)

    def test_multi_day_horizon_recovers_at_boundaries(self):
        spec = self._spec(RechargeSchedule())
        traces = FleetSimulator(spec, max_workers=1).collect()
        rises = sum(1 for t in traces if t.num_events
                    and (np.diff(t.battery_fraction) > 1e-12).any())
        assert rises > 0, "recharge should lift some battery trajectory"

    def test_without_recharge_drain_is_monotone(self):
        spec = self._spec(None)
        for trace in FleetSimulator(spec, max_workers=1).collect():
            if trace.num_events:
                assert np.all(np.diff(trace.battery_fraction) <= 1e-15)

    def test_vectorised_matches_reference_across_days(self):
        spec = self._spec(RechargeSchedule(start_hour=2.0, duration_h=3.0,
                                           level=0.9))
        simulator = FleetSimulator(spec, max_workers=1)
        for user_id in range(spec.num_users):
            assert_traces_equal(simulator.simulate_user(user_id),
                                simulate_user_naive(spec, user_id),
                                context=f"user {user_id}")

    def test_boundaries(self):
        schedule = RechargeSchedule(start_hour=1.0, duration_h=4.0)
        ends = schedule.boundaries(3 * 86400.0)
        assert list(ends) == [5 * 3600.0, 86400.0 + 5 * 3600.0,
                              2 * 86400.0 + 5 * 3600.0]
        assert schedule.boundaries(3600.0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RechargeSchedule(start_hour=24.0)
        with pytest.raises(ValueError):
            RechargeSchedule(duration_h=0.0)
        with pytest.raises(ValueError):
            RechargeSchedule(level=0.0)


class TestDiurnal:
    def test_night_quieter_than_evening(self):
        profile = DiurnalProfile.default()
        u = np.linspace(0.0, 1.0, 50_000, endpoint=False)
        starts = profile.session_start_times(u, 86400.0)
        night = float(((starts % 86400.0) < 6 * 3600.0).mean())
        evening = float(((starts % 86400.0) >= 18 * 3600.0).mean())
        assert night < 0.10
        assert evening > 0.30

    def test_flat_profile_reduces_to_uniform(self):
        profile = DiurnalProfile(hourly_weights=(1.0,) * 24)
        u = np.array([0.0, 0.25, 0.5, 0.999])
        np.testing.assert_allclose(
            profile.session_start_times(u, 86400.0), u * 86400.0)

    def test_tiles_across_multi_day_horizons(self):
        profile = DiurnalProfile.default()
        u = np.linspace(0.0, 1.0, 20_000, endpoint=False)
        starts = profile.session_start_times(u, 2 * 86400.0)
        assert float(starts.max()) < 2 * 86400.0
        day_one = float((starts < 86400.0).mean())
        assert 0.4 < day_one < 0.6  # both days carry the same profile

    def test_consumes_one_draw_per_session(self):
        """Enabling diurnal must not shift any later draw in the plan."""
        base = FleetSpec(graphs_with_tasks=zoo_population(), num_users=6,
                         horizon_s=86400.0, seed=4)
        shaped = FleetSpec(graphs_with_tasks=zoo_population(), num_users=6,
                           horizon_s=86400.0, seed=4,
                           diurnal=DiurnalProfile.default())
        for uid in range(6):
            _, plan_a = base.materialize(uid)
            _, plan_b = shaped.materialize(uid)
            assert plan_a.num_events == plan_b.num_events
            np.testing.assert_allclose(plan_a.noise, plan_b.noise)
            np.testing.assert_allclose(plan_a.rtt_ms, plan_b.rtt_ms)
            assert plan_a.start_battery_fraction \
                == plan_b.start_battery_fraction

    def test_vectorised_matches_reference(self):
        spec = FleetSpec(graphs_with_tasks=zoo_population(), num_users=8,
                         horizon_s=86400.0, seed=6,
                         diurnal=DiurnalProfile.default())
        simulator = FleetSimulator(spec, max_workers=1)
        for user_id in range(spec.num_users):
            assert_traces_equal(simulator.simulate_user(user_id),
                                simulate_user_naive(spec, user_id),
                                context=f"user {user_id}")

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_weights=(1.0,) * 23)
        with pytest.raises(ValueError):
            DiurnalProfile(hourly_weights=(0.0,) + (1.0,) * 23)


class TestInterference:
    @pytest.fixture(scope="class")
    def spec(self):
        # 40 users over 8 h: the full-size unet users capability-offload
        # their whole video calls, so the APIs see real sustained load.
        return FleetSpec(graphs_with_tasks=zoo_population(), num_users=40,
                         horizon_s=8 * 3600.0, seed=0)

    @pytest.fixture(scope="class")
    def result(self, spec):
        simulator = InterferenceSimulator(
            spec, TIGHT_CAPACITY, config=InterferenceConfig(bin_seconds=900.0))
        return simulator.run()

    def test_converges_within_bounded_passes(self, result):
        assert result.converged
        assert result.passes <= InterferenceConfig().max_passes + 1
        assert result.deltas_ms[-1] <= InterferenceConfig().tolerance_ms

    def test_interference_inflates_cloud_latency(self, spec, result):
        nominal = spec.policy.cloud.service_ms
        assert result.peak_service_ms > nominal
        # Final traces carry the inflated service times.
        cloud_lat = np.concatenate([
            t.latency_ms[t.route == ROUTE_CLOUD]
            for t in result.traces if t.num_offloaded])
        flat = FleetSimulator(
            InterferenceSimulator(spec, TIGHT_CAPACITY).spec,
            max_workers=1).collect()
        flat_lat = np.concatenate([
            t.latency_ms[t.route == ROUTE_CLOUD]
            for t in flat if t.num_offloaded])
        assert float(cloud_lat.mean()) > float(flat_lat.mean())

    def test_bit_identical_across_pool_kinds(self, spec, result):
        config = InterferenceConfig(bin_seconds=900.0)
        chunked = InterferenceSimulator(spec, TIGHT_CAPACITY, config=config,
                                        max_workers=3, chunk_size=4).run()
        threaded = InterferenceSimulator(spec, TIGHT_CAPACITY, config=config,
                                         max_workers=2).run()
        for other in (chunked, threaded):
            assert other.passes == result.passes
            assert other.converged == result.converged
            assert np.array_equal(other.table.service_ms,
                                  result.table.service_ms)
            assert np.array_equal(other.profile.requests,
                                  result.profile.requests)
            for a, b in zip(result.traces, other.traces):
                assert np.array_equal(a.route, b.route)
                assert np.array_equal(a.latency_ms, b.latency_ms)
                assert np.array_equal(a.wait_ms, b.wait_ms)

    def test_reference_loop_matches_under_frozen_table(self, spec, result):
        aligned = InterferenceSimulator(spec, TIGHT_CAPACITY).spec
        simulator = FleetSimulator(aligned, max_workers=1,
                                   service_table=result.table)
        for user_id in range(6):
            assert_traces_equal(
                simulator.simulate_user(user_id),
                simulate_user_naive(aligned, user_id,
                                    service_table=result.table),
                context=f"user {user_id}")

    def test_run_to_store_persists_events_and_load(self, spec, tmp_path):
        from repro.fleet import queue_summary

        store = ResultStore(tmp_path / "cloud.store")
        simulator = InterferenceSimulator(
            spec, TIGHT_CAPACITY, config=InterferenceConfig(bin_seconds=900.0))
        rows, result = simulator.run_to_store(store)
        assert rows == store.num_rows("fleet_events") \
            + store.num_rows("fleet_load")
        assert store.num_rows("fleet_load") > 0
        # The persisted profile reconstructs the in-memory one exactly.
        rebuilt = LoadProfile.from_store(
            store, simulator.spec.regions, spec.horizon_s, 900.0)
        assert np.array_equal(rebuilt.requests, result.profile.requests)
        # Conservation, audited externally against the streamed count.
        assert result.arrived == store.num_rows("fleet_events")
        summary = queue_summary(store, expected_arrived=result.arrived)
        assert summary["conserved"]
        assert summary["arrived"] == store.num_rows("fleet_events")
        # And the load report serves from the same rows.
        report = load_report(store)
        assert sum(r["requests"] for r in report) \
            == result.profile.total_requests

    def test_store_time_bin_query_matches_profile(self, spec, tmp_path):
        """Query.bin over persisted events reproduces the load grid."""
        store = ResultStore(tmp_path / "bins.store")
        simulator = InterferenceSimulator(
            spec, TIGHT_CAPACITY, config=InterferenceConfig(bin_seconds=900.0))
        _, result = simulator.run_to_store(store)
        grouped = (store.query("fleet_events")
                   .where(target="cloud")
                   .bin("time_s", 900.0)
                   .group_by("region", "cloud_api", "time_s_bin")
                   .agg(requests=("latency_ms", "count"))
                   .aggregate())
        profile = result.profile
        assert grouped, "congested run should offload"
        total = 0
        for row in grouped:
            r = profile.regions.index(row["region"])
            a = profile.apis.index(row["cloud_api"])
            assert profile.requests[r, a, int(row["time_s_bin"])] \
                == row["requests"]
            total += int(row["requests"])
        assert total == profile.total_requests

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InterferenceConfig(bin_seconds=0.0)
        with pytest.raises(ValueError):
            InterferenceConfig(damping=0.0)
        with pytest.raises(ValueError):
            InterferenceConfig(max_passes=0)
        with pytest.raises(ValueError):
            InterferenceConfig(tolerance_ms=-1.0)
