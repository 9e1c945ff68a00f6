"""Tests for the fleet traffic simulator: population, arrivals, routing,
vectorised-vs-reference equivalence, determinism and store ingestion."""

import numpy as np
import pytest

from repro.core.scenarios import STANDARD_SCENARIOS
from repro.devices.device import DEV_BOARDS, PHONES
from repro.fleet import (
    CloudProfile,
    FleetEvent,
    FleetSimulator,
    FleetSpec,
    RoutingPolicy,
    battery_drain_ecdf,
    cloud_api_for_scenario,
    derive_user_seed,
    generate_arrivals,
    offload_summary,
    simulate_user_naive,
    tail_latency_table,
    zoo_population,
)
from repro.store import ResultStore

#: A compact population spec reused across the module.
NUM_USERS = 16
HORIZON_S = 4 * 3600.0


@pytest.fixture(scope="module")
def population():
    return zoo_population()


@pytest.fixture(scope="module")
def spec(population):
    return FleetSpec(graphs_with_tasks=population, num_users=NUM_USERS,
                     horizon_s=HORIZON_S, seed=1)


@pytest.fixture(scope="module")
def traces(spec):
    return FleetSimulator(spec, max_workers=1).collect()


class TestPopulation:
    def test_user_seed_depends_only_on_coordinates(self):
        assert derive_user_seed(0, 3) == derive_user_seed(0, 3)
        assert derive_user_seed(0, 3) != derive_user_seed(0, 4)
        assert derive_user_seed(0, 3) != derive_user_seed(1, 3)

    def test_materialize_is_deterministic(self, spec):
        user_a, plan_a = spec.materialize(5)
        user_b, plan_b = spec.materialize(5)
        assert user_a == user_b
        assert np.array_equal(plan_a.times, plan_b.times)
        assert np.array_equal(plan_a.noise, plan_b.noise)
        assert np.array_equal(plan_a.rtt_ms, plan_b.rtt_ms)
        assert plan_a.start_battery_fraction == plan_b.start_battery_fraction

    def test_users_draw_valid_attributes(self, spec):
        for user_id in range(spec.num_users):
            user, plan = spec.materialize(user_id)
            assert user.device in spec.devices
            assert user.scenario in spec.eligible_scenarios
            assert user.scenario.applies_to(user.task, user.graph.modality)
            low, high = spec.start_battery_range
            assert low <= plan.start_battery_fraction <= high
            assert np.all(np.diff(plan.times) >= 0)
            assert plan.noise.shape == plan.times.shape == plan.rtt_ms.shape

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="no scenario matches"):
            FleetSpec(graphs_with_tasks=(), num_users=4)

    def test_rejects_batteryless_devices(self, population):
        with pytest.raises(ValueError, match="battery"):
            FleetSpec(graphs_with_tasks=population, num_users=4,
                      devices=DEV_BOARDS)  # Q855/Q888 are bench-powered

    def test_zoo_population_covers_every_scenario(self, spec):
        assert len(spec.eligible_scenarios) == len(STANDARD_SCENARIOS)


class TestArrivals:
    def test_arrivals_sorted_within_horizon(self, population):
        rng = np.random.default_rng(1)
        graph, _ = population[2]
        times = generate_arrivals(STANDARD_SCENARIOS[2], graph, rng, 86400.0)
        assert times.size > 0
        assert np.all(times >= 0) and np.all(times < 86400.0)
        assert np.all(np.diff(times) >= 0)

    def test_segmentation_ticks_at_frame_rate(self, population):
        rng = np.random.default_rng(2)
        graph = next(g for g, t in population if t == "semantic segmentation")
        scenario = next(s for s in STANDARD_SCENARIOS if s.name == "Segm.")
        times = generate_arrivals(scenario, graph, rng, 86400.0)
        gaps = np.diff(times)
        in_session = gaps[gaps < 1.0]
        assert in_session.size > 0
        assert np.allclose(in_session, 1.0 / 15.0)

    def test_scenario_arrival_rates_derive_from_counts(self, population):
        audio = STANDARD_SCENARIOS[0]
        graph = next(g for g, t in population if t == "sound recognition")
        rate = audio.arrival_rate_hz(graph)
        assert rate == pytest.approx(
            audio.inference_count(graph) / audio.session_seconds)
        typing = STANDARD_SCENARIOS[1]
        assert typing.arrival_rate_hz(graph) == pytest.approx(275 / 600)


class TestRouting:
    def test_scenario_cloud_apis_are_fig15_categories(self):
        for scenario in STANDARD_SCENARIOS:
            assert cloud_api_for_scenario(scenario)

    def test_capability_offload(self):
        policy = RoutingPolicy()
        assert policy.offloads_for_capability(100.0, 66.7)
        assert not policy.offloads_for_capability(10.0, 66.7)

    def test_battery_saver_threshold(self):
        policy = RoutingPolicy(battery_saver_threshold=0.3)
        assert policy.offloads_for_battery(0.29)
        assert not policy.offloads_for_battery(0.30)

    def test_cloud_latency_includes_transfer(self):
        cloud = CloudProfile(uplink_mbps=8.0, service_ms=40.0)
        latency = cloud.latency_ms(60.0, payload_bytes=100_000)
        assert latency == pytest.approx(60.0 + 40.0 + 100.0)

    def test_heavy_model_offloads_everywhere(self, spec, traces):
        """The full-size unet misses the frame deadline on every phone."""
        heavy = [t for t in traces
                 if t.user.graph.name == "unet_lite"
                 and t.user.scenario.name == "Segm."]
        for trace in heavy:
            assert trace.num_offloaded == trace.num_events


class TestSimulatorEquivalence:
    def test_vectorised_loop_matches_reference(self, spec):
        simulator = FleetSimulator(spec, max_workers=1)
        for user_id in range(spec.num_users):
            fast = simulator.simulate_user(user_id)
            slow = simulate_user_naive(spec, user_id)
            assert np.array_equal(fast.offloaded, slow.offloaded)
            for name in ("latency_ms", "energy_mj", "throttle",
                         "battery_fraction", "discharge_mah"):
                np.testing.assert_allclose(
                    getattr(fast, name), getattr(slow, name),
                    rtol=1e-9, atol=1e-9, err_msg=f"user {user_id}: {name}")

    def test_battery_saver_switch_matches_reference(self, population):
        """Force the battery switch: on-device video calls, start level just
        above the saver threshold."""
        light_segmentation = population[2]
        spec = FleetSpec(
            graphs_with_tasks=(light_segmentation,), num_users=10,
            horizon_s=86400.0,
            policy=RoutingPolicy(battery_saver_threshold=0.6),
            start_battery_range=(0.602, 0.615), seed=7)
        simulator = FleetSimulator(spec, max_workers=1)
        switched = 0
        for user_id in range(spec.num_users):
            fast = simulator.simulate_user(user_id)
            slow = simulate_user_naive(spec, user_id)
            assert np.array_equal(fast.offloaded, slow.offloaded)
            np.testing.assert_allclose(fast.battery_fraction,
                                       slow.battery_fraction,
                                       rtol=1e-9, atol=1e-9)
            if 0 < fast.num_offloaded < fast.num_events:
                switched += 1
                # Once under the threshold, every later event is offloaded.
                first = int(np.argmax(fast.offloaded))
                assert fast.offloaded[first:].all()
        assert switched > 0, "spec should trigger at least one battery switch"

    def test_throttling_engages_under_sustained_load(self, traces):
        throttled = [t for t in traces if t.num_events
                     and float(t.throttle.min()) < 0.99]
        assert throttled, "15 FPS segmentation should heat some device"
        for trace in throttled:
            floor = 0.69  # lowest tier floor, with a little float slack
            assert float(trace.throttle.min()) >= floor


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self, spec, traces):
        threaded = FleetSimulator(spec, max_workers=4).collect()
        chunked = FleetSimulator(spec, max_workers=3, chunk_size=2).collect()
        for other in (threaded, chunked):
            assert len(other) == len(traces)
            for a, b in zip(traces, other):
                assert a.user == b.user
                for name in ("times_s", "latency_ms", "energy_mj", "throttle",
                             "battery_fraction", "discharge_mah", "offloaded"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_bit_identical_across_slices_and_blocks(self, spec, traces,
                                                    monkeypatch):
        """Many pool slices, many blocks per slice, inline and threaded."""
        from repro.fleet import simulator as fleet_simulator

        monkeypatch.setattr(fleet_simulator, "BLOCK_USERS", 3)
        for simulator in (FleetSimulator(spec, max_workers=1),
                          FleetSimulator(spec, max_workers=2)):
            assert simulator._slice_users(NUM_USERS) <= 3
            other = list(simulator.iter_traces(max_cells=40))
            assert [t.user.user_id for t in other] == list(range(NUM_USERS))
            for a, b in zip(traces, other):
                for name in ("times_s", "latency_ms", "energy_mj", "throttle",
                             "battery_fraction", "discharge_mah", "wait_ms",
                             "route"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_traces_stream_in_user_order(self, traces):
        assert [t.user.user_id for t in traces] == list(range(NUM_USERS))


class TestStoreIngestion:
    def test_run_to_store_round_trips(self, spec, traces, tmp_path):
        store = ResultStore(tmp_path / "fleet.store")
        rows = FleetSimulator(spec, max_workers=2).run_to_store(
            store, rows_per_segment=512)
        total = sum(t.num_events for t in traces)
        assert rows == total
        assert store.num_rows("fleet_events") == total
        assert len(store.segments) >= 2  # actually sharded at this size
        assert store.verify_integrity() == len(store.segments)

        # The persisted stream equals the in-memory traces, row for row.
        persisted = store.iter_rows("fleet_events")
        for trace in traces:
            for row in trace.rows():
                assert next(persisted) == row
        assert next(persisted, None) is None

        # Round-trip through the typed deserialiser.
        events = store.query("fleet_events").where(user_id=0).objects()
        assert all(isinstance(event, FleetEvent) for event in events)
        assert len(events) == traces[0].num_events

    def test_fleet_reports_from_store(self, spec, tmp_path):
        store = ResultStore(tmp_path / "reports.store")
        FleetSimulator(spec, max_workers=1).run_to_store(store)

        table = tail_latency_table(store, group_by="device_name")
        assert table
        for row in table:
            assert row["events"] > 0
            assert row["p50_ms"] <= row["p90_ms"] <= row["p99_ms"] <= row["p999_ms"]

        by_scenario = tail_latency_table(store, group_by="scenario",
                                         target=None)
        assert sum(r["events"] for r in by_scenario) == store.num_rows("fleet_events")

        ecdf = battery_drain_ecdf(store)
        assert ecdf.values[0] >= 0.0

        summary = offload_summary(store)
        assert summary["events"] == store.num_rows("fleet_events")
        assert 0.0 <= summary["offload_fraction"] <= 1.0
        assert sum(e["requests"] for e in summary["by_api"].values()) \
            == summary["offloaded"]

    def test_empty_store_reports_raise(self, tmp_path):
        store = ResultStore(tmp_path / "empty.store")
        with pytest.raises(ValueError):
            battery_drain_ecdf(store)


class TestTraceSemantics:
    def test_energy_battery_consistency(self, traces):
        for trace in traces:
            if not trace.num_events:
                continue
            voltage = trace.user.device.battery.voltage
            np.testing.assert_allclose(
                trace.discharge_mah,
                trace.energy_mj / (voltage * 3600.0), rtol=1e-12)
            assert np.all(np.diff(trace.battery_fraction) <= 1e-15)
            assert np.all(trace.battery_fraction >= 0.0)

    def test_cloud_events_cost_radio_not_compute(self, spec, traces):
        cloud = spec.policy.cloud
        for trace in traces:
            if not trace.num_offloaded:
                continue
            offloaded = trace.offloaded
            np.testing.assert_allclose(
                trace.energy_mj[offloaded],
                cloud.radio_power_watts * trace.latency_ms[offloaded],
                rtol=1e-12)
            assert np.all(trace.throttle[offloaded] == 1.0)

    def test_phones_only_default_population(self, traces):
        assert {t.user.device.name for t in traces} \
            <= {device.name for device in PHONES}
