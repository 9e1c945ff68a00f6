"""Per-event reference implementation of the fleet event loop.

This is the semantic specification the vectorised simulator is measured
against: the same users, the same plans, the same routing, queueing and
recharge policies — but each event walks individually through the stateful
device objects (:class:`~repro.devices.thermal.ThermalState`,
:class:`~repro.devices.battery.BatteryState`) and re-evaluates the latency
and energy models per event, the way a straightforward simulator would.

The queue semantics are the single-server FIFO of
:mod:`repro.fleet.queueing`: a request starts at
``max(arrival, previous completion)``; its wait above the policy cap sheds
(or offloads) it; service past the horizon leaves it ``queued``.  Thermal
idle runs on the nominal-completion clock, heat accumulates in nominal busy
units (PR 3's convention), and queue occupancy uses the actual throttled,
noisy execution time — which is exactly what makes sustained over-deadline
load congest.  At every :class:`~repro.devices.battery.RechargeSchedule`
boundary the battery recharges and the thermal state resets (hours idle on
the charger).

``tests/test_fleet.py`` and ``tests/test_cloud.py`` assert the two loops
produce equivalent traces; ``benchmarks/test_bench_fleet.py`` and
``benchmarks/test_bench_cloud.py`` measure the vectorised loop's speedup
over this one (>= 5x enforced).

:func:`materialize_reference` plays the same role for the population: it
builds one user and their plan with every step per user, the
specification :meth:`~repro.fleet.population.FleetSpec.materialize_block`
is held byte-identical to by ``tests/test_fleet_population.py`` and
measured against by ``benchmarks/test_bench_ingest.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.devices.thermal import ThermalModel
from repro.fleet.arrivals import generate_arrivals
from repro.fleet.population import (FleetSpec, UserPlan, VirtualUser,
                                    derive_user_region, derive_user_seed)
from repro.fleet.queueing import (ROUTE_CLOUD, ROUTE_DEVICE, ROUTE_QUEUED,
                                  ROUTE_SHED)
from repro.fleet.router import cloud_api_for_scenario
from repro.fleet.simulator import MIN_NOISE_FACTOR, UserTrace
from repro.runtime.energy_model import EnergyModel
from repro.runtime.latency_model import LatencyModel

__all__ = ["materialize_reference", "simulate_user_naive"]


def materialize_reference(spec: FleetSpec,
                          user_id: int) -> tuple[VirtualUser, UserPlan]:
    """Build user ``user_id`` and their full event plan, one user at a time.

    Every RNG draw happens here, in a fixed order, from the user's own
    derived seed; every other step of the plan is evaluated for this user
    alone.
    """
    if not 0 <= user_id < spec.num_users:
        raise ValueError(f"user_id must be in [0, {spec.num_users})")
    seed = derive_user_seed(spec.seed, user_id)
    rng = np.random.default_rng(seed)

    eligible = spec.eligible_scenarios
    scenario = eligible[int(rng.integers(len(eligible)))]
    device = spec.devices[int(rng.choice(len(spec.devices),
                                         p=spec._device_weights()))]
    pool = spec.scenario_pool(scenario)
    graph, task = pool[int(rng.integers(len(pool)))]
    low, high = spec.start_battery_range
    start_fraction = float(rng.uniform(low, high))

    times = generate_arrivals(scenario, graph, rng, spec.horizon_s,
                              diurnal=spec.diurnal)
    noise = 1.0 + spec.noise_fraction * rng.standard_normal(times.size)
    rtt_ms = spec.policy.cloud.draw_rtt_ms(rng, times.size)

    user = VirtualUser(
        user_id=user_id,
        device=device,
        graph=graph,
        task=task,
        scenario=scenario,
        backend=spec._backend_for(device, graph),
        seed=seed,
        region=derive_user_region(spec.seed, user_id, spec.regions),
    )
    plan = UserPlan(
        times=times,
        noise=noise,
        rtt_ms=rtt_ms,
        start_battery_fraction=start_fraction,
    )
    return user, plan


def simulate_user_naive(spec: FleetSpec, user_id: int,
                        service_table=None) -> UserTrace:
    """Simulate one user with a per-event Python loop (no batching, no cache).

    ``service_table`` mirrors the simulator's frozen cloud service-time
    lookup; ``None`` uses the routing policy's constant service time.
    """
    user, plan = spec.materialize(user_id)
    policy = spec.policy
    queue = policy.queue
    device = user.device
    latency_model = LatencyModel(device)
    energy_model = EnergyModel(device)
    thermal = ThermalModel.for_device(device.is_dev_board, device.tier).state()
    battery = device.battery.state(plan.start_battery_fraction)
    payload_bytes = policy.cloud.payload_bytes(user.graph)
    cloud_api = cloud_api_for_scenario(user.scenario)
    deadline_ms = user.scenario.deadline_ms
    horizon_s = spec.horizon_s

    boundaries: list[float] = []
    if spec.recharge is not None:
        boundaries = [float(b) for b in spec.recharge.boundaries(horizon_s)]

    n = plan.num_events
    latency = np.zeros(n)
    energy = np.zeros(n)
    throttle = np.ones(n)
    fraction = np.empty(n)
    discharge = np.zeros(n)
    wait_ms = np.zeros(n)
    route = np.full(n, ROUTE_DEVICE, dtype=np.int64)

    nominal_ms = float("nan")
    completion = -math.inf
    nominal_end = -math.inf
    for i in range(n):
        time_s = float(plan.times[i])
        while boundaries and time_s >= boundaries[0]:
            # Overnight on the charger: battery back to the schedule level,
            # SoC cold, device queue drained.
            boundaries.pop(0)
            spec.recharge.apply(battery)
            thermal.reset()
            completion = -math.inf
            nominal_end = -math.inf
        # The naive loop re-evaluates the roofline for every event — the
        # per-event cost the vectorised path amortises away.
        nominal_ms = latency_model.graph_latency_ms(user.graph, user.backend)
        power_watts = energy_model.inference_power_watts(user.backend)
        busy_s = nominal_ms / 1e3
        if service_table is not None:
            service_ms = float(service_table.service_for(
                user.region, cloud_api, np.array([time_s]))[0])
        else:
            service_ms = policy.cloud.service_ms

        if (policy.offloads_for_capability(nominal_ms, deadline_ms)
                or policy.offloads_for_battery(battery.fraction)):
            route[i] = ROUTE_CLOUD
            lat = policy.cloud.latency_ms(float(plan.rtt_ms[i]),
                                          payload_bytes, service_ms)
            en = policy.cloud.energy_mj(lat)
        else:
            start = time_s if completion < time_s else completion
            wait_s = start - time_s
            if wait_s > queue.max_wait_s:
                if queue.overflows_to_cloud:
                    route[i] = ROUTE_CLOUD
                    lat = policy.cloud.latency_ms(float(plan.rtt_ms[i]),
                                                  payload_bytes, service_ms)
                    en = policy.cloud.energy_mj(lat)
                else:
                    route[i] = ROUTE_SHED
                    wait_ms[i] = wait_s * 1e3
                    fraction[i] = battery.fraction
                    continue
            elif start >= horizon_s:
                route[i] = ROUTE_QUEUED
                wait_ms[i] = (horizon_s - time_s) * 1e3
                fraction[i] = battery.fraction
                continue
            else:
                if nominal_end > -math.inf:
                    thermal.cool_down(max(0.0, start - nominal_end))
                factor = thermal.throttle_factor
                exec_ms = nominal_ms / factor * max(float(plan.noise[i]),
                                                    MIN_NOISE_FACTOR)
                thermal.heat_up(busy_s)
                nominal_end = start + busy_s
                completion = start + exec_ms / 1e3
                throttle[i] = factor
                wait_ms[i] = wait_s * 1e3
                lat = wait_s * 1e3 + exec_ms
                en = power_watts * exec_ms

        latency[i] = lat
        energy[i] = en
        discharge[i] = battery.drain_mj(en)
        fraction[i] = battery.fraction

    return UserTrace(
        user=user,
        times_s=plan.times,
        latency_ms=latency,
        energy_mj=energy,
        throttle=throttle,
        battery_fraction=fraction,
        discharge_mah=discharge,
        wait_ms=wait_ms,
        route=route,
        nominal_ms=(latency_model.graph_latency_ms(user.graph, user.backend)
                    if n == 0 else nominal_ms),
        payload_bytes=payload_bytes,
        cloud_api=cloud_api,
    )
