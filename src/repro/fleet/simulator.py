"""The deterministic discrete-event fleet simulator.

:class:`FleetSimulator` evolves a :class:`~repro.fleet.population.FleetSpec`
population over virtual time: every user's requests arrive by their
scenario's arrival process, execute through the runtime's latency/energy
models with **stateful** per-device thermal heat-up/cool-down and battery
discharge carried across events, queue behind each other on the device (a
single-server FIFO with the :class:`~repro.fleet.queueing.QueuePolicy`'s
overflow cap), and route to cloud APIs when the
:class:`~repro.fleet.router.RoutingPolicy` triggers.

The event loop is evaluated **vectorised over blocks of users**:

* the nominal (cold) latency and power of a (device, model, backend) combo
  are computed once and reused for every event that hits it — the same
  batching idea as the sweep's cached compatibility checks;
* the horizon splits into *recharge spans* at the
  :class:`~repro.devices.battery.RechargeSchedule` boundaries (battery back
  to the schedule level, SoC cold after hours on the charger, queue
  drained); every (user, span) pair of a block is one row of a padded
  matrix, so the thermal recurrence (row-wise
  :func:`~repro.analysis.stats.exponential_decay_scan_rows`), the battery-saver
  switch (one ``cumsum`` + ``argmax``) and the battery trajectory are a
  handful of array ops per *block*, not per user — and because each row's
  prefix sums are its own sequential ``cumsum``, a trace is bit-identical
  whichever block it lands in (a block of one is :meth:`FleetSimulator.
  simulate_user`);
* spans where the device demonstrably cannot congest (worst-case execution
  shorter than every arrival gap) take that fully-array path; spans that
  *can* congest run an exact sequential queue recursion (Lindley with
  shedding) over precomputed arrays — still far cheaper than the per-event
  reference, which re-evaluates the cost models for every request;
* offloaded requests read their cloud service time from an optional frozen
  per-(region, API, time-bin) service table — the hook the
  :mod:`repro.cloud` interference simulator uses to model shared-capacity
  congestion deterministically.

Because every user is materialised from a seed derived from their own
coordinates (:func:`~repro.fleet.population.derive_user_seed`), users are
embarrassingly parallel: the simulator fans user shards out on the shared
ordered pool (:func:`~repro.runtime.pool.iter_mapped_chunks`, thread or
process based) and the resulting event stream is **bit-identical for any
worker count, chunk size or pool kind**.  Streams ingest into a
:class:`~repro.store.store.ResultStore` via :meth:`FleetSimulator.run_to_store`
one column batch per block (:func:`append_traces`) with O(1) result
retention — the memory-flat path for million-event fleets.

The per-event reference loop in :mod:`repro.fleet.reference` implements the
same semantics through the stateful device objects one event at a time; the
fleet and cloud benchmarks hold the two equivalent and measure the speedup.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.analysis.stats import exponential_decay_scan_rows
from repro.devices.thermal import ThermalModel, throttle_factors
from repro.fleet.events import FleetEvent
from repro.fleet.population import FleetSpec, UserPlan, VirtualUser
from repro.fleet.queueing import (ROUTE_CLOUD, ROUTE_DEVICE, ROUTE_QUEUED,
                                  ROUTE_SHED, ROUTE_TARGETS)
from repro.fleet.router import cloud_api_for_scenario
from repro.runtime.energy_model import EnergyModel
from repro.runtime.latency_model import LatencyModel
from repro.runtime.pool import iter_mapped_chunks, resolve_workers

__all__ = ["UserTrace", "FleetSimulator", "fleet_events_batch",
           "append_traces"]

#: Lower clamp on the latency noise multiplier (mirrors the executor's
#: half-nominal floor on measured samples).
MIN_NOISE_FACTOR = 0.5

#: Users per pool slice when ``chunk_size`` is not given (the cap when the
#: users are split across workers); blocks close inside a slice.
BLOCK_USERS = 256

#: Padded (row x event) cells of one block, and events per appended batch,
#: when no larger segment size applies.
BLOCK_CELLS = 8192


@dataclass
class UserTrace:
    """Columnar event trace of one simulated user (arrays in event order)."""

    user: VirtualUser
    times_s: np.ndarray
    latency_ms: np.ndarray
    energy_mj: np.ndarray
    throttle: np.ndarray
    battery_fraction: np.ndarray
    discharge_mah: np.ndarray
    #: Queue wait per event, ms (0 where the request never queued).
    wait_ms: np.ndarray
    #: Route code per event (see :mod:`repro.fleet.queueing`).
    route: np.ndarray
    #: Cold single-inference latency of the user's combo (ms).
    nominal_ms: float
    #: Uplink payload bytes per offloaded request.
    payload_bytes: int
    #: Cloud API category serving this user's offloads.
    cloud_api: str

    @property
    def num_events(self) -> int:
        """Number of requests in the trace."""
        return int(self.times_s.size)

    @property
    def offloaded(self) -> np.ndarray:
        """Boolean mask of cloud-served requests (kept for PR 3 callers)."""
        return self.route == ROUTE_CLOUD

    @property
    def num_offloaded(self) -> int:
        """Number of requests served by the cloud API."""
        return int((self.route == ROUTE_CLOUD).sum())

    @property
    def num_shed(self) -> int:
        """Requests dropped by the device-queue overflow policy."""
        return int((self.route == ROUTE_SHED).sum())

    @property
    def num_queued(self) -> int:
        """Requests still waiting in the device queue at the horizon."""
        return int((self.route == ROUTE_QUEUED).sum())

    @property
    def num_on_device(self) -> int:
        """Requests served by on-device inference."""
        return int((self.route == ROUTE_DEVICE).sum())

    def route_counts(self) -> dict:
        """Per-route event counts; their sum equals ``num_events`` exactly."""
        return {target: int((self.route == code).sum())
                for code, target in enumerate(ROUTE_TARGETS)}

    def rows(self) -> Iterator[dict]:
        """Store rows (plain-scalar dicts) in event order."""
        user = self.user
        device_name = user.device.name
        model_name = user.graph.name
        scenario = user.scenario.name
        backend = user.backend.value
        region = user.region
        for i in range(self.num_events):
            target = ROUTE_TARGETS[int(self.route[i])]
            cloud = target == "cloud"
            yield {
                "user_id": user.user_id,
                "time_s": float(self.times_s[i]),
                "device_name": device_name,
                "model_name": model_name,
                "scenario": scenario,
                "backend": backend,
                "region": region,
                "target": target,
                "latency_ms": float(self.latency_ms[i]),
                "wait_ms": float(self.wait_ms[i]),
                "energy_mj": float(self.energy_mj[i]),
                "throttle_factor": float(self.throttle[i]),
                "battery_fraction": float(self.battery_fraction[i]),
                "discharge_mah": float(self.discharge_mah[i]),
                "cloud_api": self.cloud_api if cloud else "",
                "cloud_bytes": self.payload_bytes if cloud else 0,
            }

    def column_batch(self) -> dict[str, np.ndarray]:
        """The trace as one ``fleet_events`` column batch (event order).

        The one-trace case of :func:`fleet_events_batch`: persisted values
        are exactly those of :meth:`rows` — the two paths are
        interchangeable row for row.
        """
        return fleet_events_batch([self])

    def events(self) -> Iterator[FleetEvent]:
        """The trace as :class:`FleetEvent` objects, in event order."""
        for row in self.rows():
            yield FleetEvent(**row)


#: ``fleet_events`` float columns and the :class:`UserTrace` fields they hold.
_FLOAT_COLUMNS = (("latency_ms", "latency_ms"), ("wait_ms", "wait_ms"),
                  ("energy_mj", "energy_mj"), ("throttle_factor", "throttle"),
                  ("battery_fraction", "battery_fraction"),
                  ("discharge_mah", "discharge_mah"))


def fleet_events_batch(traces: Sequence[UserTrace]) -> dict[str, np.ndarray]:
    """A list of traces as one ``fleet_events`` column batch (trace order).

    The batch-native ingestion payload for
    :meth:`~repro.store.writer.StoreWriter.append_batch`: one
    ``np.concatenate`` per per-event column and one ``np.repeat`` of the
    per-user constants, whatever the number of traces.  Persisted values
    are exactly those of :meth:`UserTrace.rows`.

    String widths follow the per-trace batches this replaces: a trace with
    no events adds no value (and so cannot widen a column), and a trace
    with no offloads contributes ``""`` rather than its unused API name to
    ``cloud_api``.  Every array is built here and frozen, so the writer
    adopts it without its defensive copy.
    """
    traces = [trace for trace in traces if trace.num_events]
    counts = [trace.num_events for trace in traces]
    clouds = [trace.route == ROUTE_CLOUD for trace in traces]

    def repeat(values, dtype=None) -> np.ndarray:
        return np.repeat(np.array(values, dtype=dtype), counts)

    def concat(arrays, dtype) -> np.ndarray:
        return np.concatenate(arrays) if arrays else np.empty(0, dtype)

    cloud = concat(clouds, bool)
    route = concat([trace.route for trace in traces], np.int64)
    users = [trace.user for trace in traces]
    batch = {
        "user_id": repeat([user.user_id for user in users], np.int64),
        "time_s": concat([trace.times_s for trace in traces], np.float64),
        "device_name": repeat([user.device.name for user in users], str),
        "model_name": repeat([user.graph.name for user in users], str),
        "scenario": repeat([user.scenario.name for user in users], str),
        "backend": repeat([user.backend.value for user in users], str),
        "region": repeat([user.region for user in users], str),
        "target": np.array(ROUTE_TARGETS)[route],
    }
    for column, field_name in _FLOAT_COLUMNS:
        batch[column] = concat([getattr(trace, field_name)
                                for trace in traces], np.float64)
    api = repeat([trace.cloud_api if mask.any() else ""
                  for trace, mask in zip(traces, clouds)], str)
    batch["cloud_api"] = np.where(cloud, api, "")
    batch["cloud_bytes"] = np.where(
        cloud, repeat([trace.payload_bytes for trace in traces], np.int64),
        0).astype(np.int64)
    for array in batch.values():
        array.setflags(write=False)
    return batch


def append_traces(writer, traces: Sequence[UserTrace]) -> int:
    """Append a block of traces to a store writer; returns the rows.

    One :func:`fleet_events_batch` per block, except that the block is cut
    after every trace where appending trace by trace would have sealed a
    segment.  A seal takes string column widths from what is buffered at
    that moment, so with these cuts the block path writes the per-user
    path's segments byte for byte.
    """
    ends = np.cumsum([trace.num_events for trace in traces])
    segments = (writer.batch_rows_pending("fleet_events") + ends) \
        // writer.rows_per_segment
    cuts = np.flatnonzero(np.diff(segments, prepend=0) > 0) + 1
    rows = start = 0
    for stop in [*cuts.tolist(), len(traces)]:
        if stop > start:
            rows += writer.append_batch("fleet_events",
                                        fleet_events_batch(traces[start:stop]))
        start = stop
    return rows


class _Constants(NamedTuple):
    """Per-(device, backend, graph, scenario) constants of the event loop."""

    nominal_ms: float
    power_watts: float
    payload_bytes: int
    cloud_api: str
    #: The device misses the scenario deadline even cold: all cloud.
    capability: bool
    thermal: ThermalModel
    #: ``battery.voltage * 3600`` (mAh per mJ divisor).
    voltage_hours: float
    capacity_mah: float


class _Block:
    """One block of users evolved together; every array op spans the block.

    Each non-empty (user, recharge span) pair is one row of a padded matrix
    (padding repeats the row's last event, so it adds zero gaps and is
    masked out).  Per-row constants broadcast through the same elementwise
    IEEE operations the one-user loop would run, and every prefix sum is
    ``np.cumsum(..., axis=1)`` — a sequential ``add.accumulate`` per row —
    so each row equals its own 1-D evaluation bit for bit and a trace never
    depends on the block it was evaluated in.

    Users whose device misses the scenario deadline even cold go straight
    to the cloud.  Spans where the device demonstrably cannot congest
    (worst-case execution shorter than every arrival gap) take the array
    path — thermal decay scan
    (:func:`~repro.analysis.stats.exponential_decay_scan_rows`), throttle
    (:func:`~repro.devices.thermal.throttle_factors`), battery-saver switch,
    cloud tail (:meth:`~repro.fleet.router.CloudProfile.latency_ms`) — each
    through the same helper the one-user code calls.  Spans that *can*
    congest run :meth:`FleetSimulator._simulate_span_queued`, the exact
    sequential queue recursion.
    """

    def __init__(self, simulator: "FleetSimulator", members: Sequence) -> None:
        self.simulator = simulator
        self.policy = simulator.spec.policy
        self.users = [member[0] for member in members]
        self.plans = [member[1] for member in members]
        self.spans = [member[2] for member in members]
        consts = [simulator._constants(user) for user in self.users]
        self.consts = consts
        self.counts = np.array([plan.num_events for plan in self.plans],
                               dtype=np.int64)
        self.offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        total = int(self.offsets[-1])

        def column(values) -> np.ndarray:
            return np.array(list(values), dtype=np.float64)

        # Per-user constants, indexed by position in the block.
        self.capability = np.array([const.capability for const in consts],
                                   dtype=bool)
        self.nominal = column(const.nominal_ms for const in consts)
        self.busy = self.nominal / 1e3
        self.power = column(const.power_watts for const in consts)
        self.payload = np.array([const.payload_bytes for const in consts],
                                dtype=np.int64)
        self.floor = column(const.thermal.throttle_floor for const in consts)
        self.time_constant = column(const.thermal.time_constant_s
                                    for const in consts)
        self.tau = column(const.thermal.cooldown_tau_s for const in consts)
        self.voltage_hours = column(const.voltage_hours for const in consts)
        self.capacity = column(const.capacity_mah for const in consts)

        # Per-event inputs and outputs, users back to back.
        plans = self.plans
        self.times = np.concatenate([plan.times for plan in plans])
        self.noise = np.maximum(
            np.concatenate([plan.noise for plan in plans]), MIN_NOISE_FACTOR)
        self.rtt = np.concatenate([plan.rtt_ms for plan in plans])
        table = simulator.service_table
        if table is not None:
            self.service = np.concatenate([
                table.service_for(user.region, const.cloud_api, plan.times)
                for user, plan, const in zip(self.users, plans, consts)])
        else:
            self.service = np.full(total, self.policy.cloud.service_ms)
        self.latency = np.zeros(total)
        self.energy = np.zeros(total)
        self.throttle = np.ones(total)
        self.wait_ms = np.zeros(total)
        self.route = np.full(total, ROUTE_DEVICE, dtype=np.int64)
        self.fraction = np.empty(total)
        self.discharge = np.zeros(total)

    def run(self) -> list[UserTrace]:
        self._offload_capability()
        rows = self._rows()
        if rows:
            congestible = self._congestible()
            fast = np.flatnonzero(~self.capability[self.row_user]
                                  & ~congestible)
            if fast.size:
                self._fast_rows(fast)
            for row in np.flatnonzero(congestible):
                self._queued_row(int(row))
            self._battery()
        return self._traces()

    def _cloud_latency(self, cells: np.ndarray,
                       payload: np.ndarray) -> np.ndarray:
        """Cloud latency of flat event positions (their users' payloads)."""
        return self.policy.cloud.latency_ms(self.rtt[cells], payload,
                                            self.service[cells])

    def _offload_capability(self) -> None:
        """Users who miss the deadline even cold: the whole trace to cloud."""
        if not self.capability.any():
            return
        cells = np.flatnonzero(np.repeat(self.capability, self.counts))
        lat_cloud = self._cloud_latency(
            cells, np.repeat(self.payload, self.counts)[cells])
        self.route[cells] = ROUTE_CLOUD
        self.latency[cells] = lat_cloud
        self.energy[cells] = self.policy.cloud.energy_mj(lat_cloud)

    def _rows(self) -> int:
        """Lay out one padded row per non-empty span; returns the row count."""
        row_user, row_start, row_len, row_fraction = [], [], [], []
        for position, spans in enumerate(self.spans):
            offset = int(self.offsets[position])
            for lo, hi, span_fraction in spans:
                if hi > lo:
                    row_user.append(position)
                    row_start.append(offset + lo)
                    row_len.append(hi - lo)
                    row_fraction.append(span_fraction)
        if not row_user:
            return 0
        self.row_user = np.array(row_user, dtype=np.int64)
        self.row_len = np.array(row_len, dtype=np.int64)
        self.row_fraction = np.array(row_fraction, dtype=np.float64)[:, None]
        cols = np.arange(int(self.row_len.max()))
        self.valid = cols < self.row_len[:, None]
        #: Flat event position of every cell (padding repeats the last).
        self.index = np.array(row_start, dtype=np.int64)[:, None] \
            + np.minimum(cols, self.row_len[:, None] - 1)
        return len(row_user)

    def _congestible(self) -> np.ndarray:
        """Rows whose smallest arrival gap a worst-case execution exceeds."""
        rows = self.row_user.size
        if self.index.shape[1] < 2:
            return np.zeros(rows, dtype=bool)
        # Worst-case execution time: throttled to the floor, noisiest draw
        # of the user's whole plan.  If even that fits inside the span's
        # smallest arrival gap, the queue can never form.
        nonempty = np.flatnonzero(self.counts)
        noise_max = np.zeros(self.counts.size)
        noise_max[nonempty] = np.maximum.reduceat(self.noise,
                                                  self.offsets[nonempty])
        max_exec = self.busy / self.floor * noise_max
        times = self.times[self.index]
        gaps = np.where(self.valid[:, 1:], times[:, 1:] - times[:, :-1],
                        np.inf)
        return ~self.capability[self.row_user] & (self.row_len > 1) \
            & (gaps.min(axis=1) < max_exec[self.row_user])

    def _fast_rows(self, rows: np.ndarray) -> None:
        """Congestion-free rows: no queue, no sheds."""
        width = int(self.row_len[rows].max())
        index = self.index[rows, :width]
        valid = self.valid[rows, :width]
        owner = self.row_user[rows]
        busy = self.busy[owner][:, None]

        # --- on-device phase ------------------------------------------- #
        times = self.times[index]
        gaps = np.empty_like(times)
        gaps[:, 0] = times[:, 0]
        np.subtract(times[:, 1:], times[:, :-1], out=gaps[:, 1:])
        gaps[:, 1:] -= busy
        np.maximum(gaps, 0.0, out=gaps)

        # Padding adds zero decay, so each row's valid prefix is its own scan.
        heat_after = exponential_decay_scan_rows(
            gaps / self.tau[owner][:, None], busy)
        # Heat at decision time (before this event's busy contribution);
        # clamp the scan's float residue when decayed heat is ~0.
        heat_before = np.maximum(heat_after - busy, 0.0)
        throttle = throttle_factors(heat_before,
                                    self.time_constant[owner][:, None],
                                    self.floor[owner][:, None])
        lat_dev = self.nominal[owner][:, None] / throttle * self.noise[index]
        energy_dev = self.power[owner][:, None] * lat_dev

        # Battery-saver switch: discharge is monotone within a span, so the
        # first event that *starts* under the threshold flips the rest of
        # the span to the cloud.
        mah_dev = energy_dev / self.voltage_hours[owner][:, None]
        drained_before = np.zeros_like(mah_dev)
        np.cumsum(mah_dev[:, :-1], axis=1, out=drained_before[:, 1:])
        fraction_before = self.row_fraction[rows] \
            - drained_before / self.capacity[owner][:, None]
        # Clamp at empty before comparing: an over-drained pack reads 0,
        # exactly like BatteryState.fraction in the reference loop (with
        # threshold 0.0 — "saver disabled" — neither loop may offload).
        np.maximum(fraction_before, 0.0, out=fraction_before)
        below = (fraction_before < self.policy.battery_saver_threshold) \
            & valid
        switch = np.where(below.any(axis=1), below.argmax(axis=1),
                          self.row_len[rows])
        on_device = np.arange(width) < switch[:, None]
        cells = index[on_device]
        self.latency[cells] = lat_dev[on_device]
        self.energy[cells] = energy_dev[on_device]
        self.throttle[cells] = throttle[on_device]

        # --- cloud phase ------------------------------------------------ #
        offloaded = valid & ~on_device
        if offloaded.any():
            cells = index[offloaded]
            lat_cloud = self._cloud_latency(cells, np.broadcast_to(
                self.payload[owner][:, None], index.shape)[offloaded])
            self.route[cells] = ROUTE_CLOUD
            self.latency[cells] = lat_cloud
            self.energy[cells] = self.policy.cloud.energy_mj(lat_cloud)

    def _queued_row(self, row: int) -> None:
        """A congestible row through the exact sequential queue recursion."""
        position = int(self.row_user[row])
        lo = int(self.offsets[position])
        user = slice(lo, int(self.offsets[position + 1]))
        start = int(self.index[row, 0]) - lo
        const = self.consts[position]
        self.simulator._simulate_span_queued(
            self.users[position], self.plans[position],
            slice(start, start + int(self.row_len[row])),
            float(self.row_fraction[row, 0]), const.nominal_ms,
            const.power_watts, const.payload_bytes, self.noise[user],
            self.service[user], const.thermal, self.latency[user],
            self.energy[user], self.throttle[user], self.wait_ms[user],
            self.route[user])

    def _battery(self) -> None:
        """Battery trajectory per recharge span, clamped at empty."""
        self.discharge = self.energy / np.repeat(self.voltage_hours,
                                                 self.counts)
        drained = np.cumsum(self.discharge[self.index], axis=1)
        trajectory = self.row_fraction \
            - drained / self.capacity[self.row_user][:, None]
        self.fraction[self.index[self.valid]] = trajectory[self.valid]
        np.maximum(self.fraction, 0.0, out=self.fraction)

    def _traces(self) -> list[UserTrace]:
        traces = []
        for position, (user, plan, const) in enumerate(
                zip(self.users, self.plans, self.consts)):
            view = slice(int(self.offsets[position]),
                         int(self.offsets[position + 1]))
            traces.append(UserTrace(
                user=user,
                times_s=plan.times,
                latency_ms=self.latency[view],
                energy_mj=self.energy[view],
                throttle=self.throttle[view],
                battery_fraction=self.fraction[view],
                discharge_mah=self.discharge[view],
                wait_ms=self.wait_ms[view],
                route=self.route[view],
                nominal_ms=const.nominal_ms,
                payload_bytes=const.payload_bytes,
                cloud_api=const.cloud_api,
            ))
        return traces


class FleetSimulator:
    """Runs a :class:`FleetSpec` population over virtual time.

    ``service_table`` (optional) is a frozen cloud service-time lookup with a
    ``service_for(region, api, times_s) -> ndarray`` method — when present,
    offloaded requests read their service time from it instead of the routing
    policy's constant; see :mod:`repro.cloud.interference`.
    """

    def __init__(self, spec: FleetSpec, *, max_workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 use_processes: bool = False,
                 service_table=None) -> None:
        self.spec = spec
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.use_processes = use_processes
        self.service_table = service_table
        #: device.name -> (LatencyModel, EnergyModel).
        self._model_cache: dict = {}
        #: (device.name, backend, id(graph), scenario.name) -> _Constants.
        self._constants_cache: dict = {}
        self._boundaries: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        # Process-pool workers rebuild the caches: the graph-identity keys of
        # the parent process would be meaningless (or worse, collide) there.
        state = dict(self.__dict__)
        state["_model_cache"] = {}
        state["_constants_cache"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Cached per-combo constants (the "batch through graph_latency_ms" hook)
    # ------------------------------------------------------------------ #
    def _constants(self, user: VirtualUser) -> _Constants:
        """Everything the event loop needs that is fixed per combo,
        computed once per (device, backend, graph, scenario)."""
        key = (user.device.name, user.backend, id(user.graph),
               user.scenario.name)
        cached = self._constants_cache.get(key)
        if cached is None:
            models = self._model_cache.get(user.device.name)
            if models is None:
                models = (LatencyModel(user.device), EnergyModel(user.device))
                self._model_cache[user.device.name] = models
            latency_model, energy_model = models
            policy = self.spec.policy
            nominal_ms = latency_model.graph_latency_ms(user.graph,
                                                        user.backend)
            payload_bytes = policy.cloud.payload_bytes(user.graph)
            battery = user.device.battery
            cached = _Constants(
                nominal_ms=nominal_ms,
                power_watts=energy_model.inference_power_watts(user.backend),
                payload_bytes=payload_bytes,
                cloud_api=cloud_api_for_scenario(user.scenario),
                capability=policy.offloads_for_capability(
                    nominal_ms, user.scenario.deadline_ms),
                thermal=ThermalModel.for_device(user.device.is_dev_board,
                                                user.device.tier),
                voltage_hours=battery.voltage * 3600.0,
                capacity_mah=battery.capacity_mah,
            )
            self._constants_cache[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Recharge spans
    # ------------------------------------------------------------------ #
    def _span_slices(self, times: np.ndarray,
                     start_fraction: float) -> list[tuple[int, int, float]]:
        """``(lo, hi, span_start_fraction)`` event slices between recharges."""
        recharge = self.spec.recharge
        if recharge is None:
            return [(0, times.size, start_fraction)]
        if self._boundaries is None:
            self._boundaries = recharge.boundaries(self.spec.horizon_s)
        if not self._boundaries.size:
            return [(0, times.size, start_fraction)]
        cuts = np.searchsorted(times, self._boundaries, side="left")
        edges = [0, *[int(c) for c in cuts], times.size]
        return [(edges[k], edges[k + 1],
                 start_fraction if k == 0 else recharge.level)
                for k in range(len(edges) - 1)]

    def _member(self, user_id: int):
        """Materialise one user: ``(user, plan, spans)``."""
        user, plan = self.spec.materialize(user_id)
        return user, plan, self._span_slices(plan.times,
                                             plan.start_battery_fraction)

    # ------------------------------------------------------------------ #
    # The block event loop
    # ------------------------------------------------------------------ #
    def simulate_user(self, user_id: int) -> UserTrace:
        """Evolve one user over the horizon (a block of one)."""
        return _Block(self, [self._member(user_id)]).run()[0]

    def _simulate_blocks(self, user_ids: Sequence[int],
                         max_cells: int) -> list[UserTrace]:
        """Simulate users in order, evaluated in budgeted blocks.

        Users are materialised :data:`BLOCK_USERS` at a time
        (:meth:`FleetSpec.materialize_block`), each exactly once; a block
        closes before the user whose spans would push its padded matrix
        (rows x longest row) past ``max_cells``, so a dense user cannot
        inflate the matrices of the sparse users around it.
        """
        traces: list[UserTrace] = []
        members: list = []
        rows = width = 0
        for first in range(0, len(user_ids), BLOCK_USERS):
            for user, plan in self.spec.materialize_block(
                    user_ids[first:first + BLOCK_USERS]):
                spans = self._span_slices(plan.times,
                                          plan.start_battery_fraction)
                lengths = [hi - lo for lo, hi, _ in spans if hi > lo]
                if lengths:
                    grown = max(width, max(lengths))
                    if members and (rows + len(lengths)) * grown > max_cells:
                        traces += _Block(self, members).run()
                        members, rows, grown = [], 0, max(lengths)
                    rows += len(lengths)
                    width = grown
                members.append((user, plan, spans))
        if members:
            traces += _Block(self, members).run()
        return traces

    def _simulate_span_queued(self, user, plan: UserPlan, span: slice,
                              span_fraction: float, nominal_ms: float,
                              power_watts: float, payload_bytes: int,
                              noise: np.ndarray, service_ms: np.ndarray,
                              thermal: ThermalModel, latency, energy,
                              throttle, wait_ms, route) -> None:
        """Congestible span: exact sequential queue recursion.

        Single-server FIFO over the *actual* (throttled, noisy) execution
        time; thermal idle is measured from the nominal completion
        (PR 3's convention), heat accumulates in nominal busy units; the
        battery saver is checked per event against the running drain.  The
        per-event arithmetic matches :func:`~repro.fleet.reference.
        simulate_user_naive` operation for operation.
        """
        policy = self.spec.policy
        cloud = policy.cloud
        queue = policy.queue
        battery = user.device.battery
        voltage_hours = battery.voltage * 3600.0
        capacity_mah = battery.capacity_mah
        threshold = policy.battery_saver_threshold
        max_wait_s = queue.max_wait_s
        overflow_to_cloud = queue.overflows_to_cloud
        horizon_s = self.spec.horizon_s
        radio = cloud.radio_power_watts
        tau = thermal.cooldown_tau_s
        busy_s = nominal_ms / 1e3

        times = plan.times
        rtt = plan.rtt_ms
        heat = 0.0
        completion = -math.inf       # actual completion of the last served
        nominal_end = -math.inf      # nominal completion (thermal clock)
        drained_mah = 0.0

        for i in range(span.start, span.stop):
            t = float(times[i])
            fraction_now = max(span_fraction - drained_mah / capacity_mah, 0.0)
            if fraction_now < threshold:
                lat = cloud.latency_ms(float(rtt[i]), payload_bytes,
                                       float(service_ms[i]))
                route[i] = ROUTE_CLOUD
                latency[i] = lat
                en = radio * lat
            else:
                start = t if completion < t else completion
                wait_s = start - t
                if wait_s > max_wait_s:
                    if overflow_to_cloud:
                        lat = cloud.latency_ms(float(rtt[i]), payload_bytes,
                                               float(service_ms[i]))
                        route[i] = ROUTE_CLOUD
                        latency[i] = lat
                        en = radio * lat
                    else:
                        route[i] = ROUTE_SHED
                        wait_ms[i] = wait_s * 1e3
                        continue
                elif start >= horizon_s:
                    route[i] = ROUTE_QUEUED
                    wait_ms[i] = (horizon_s - t) * 1e3
                    continue
                else:
                    if nominal_end > -math.inf:
                        idle = max(0.0, start - nominal_end)
                        heat *= math.exp(-idle / tau)
                    factor = thermal.throttle_factor(heat)
                    exec_ms = nominal_ms / factor * float(noise[i])
                    heat += busy_s
                    nominal_end = start + busy_s
                    completion = start + exec_ms / 1e3
                    throttle[i] = factor
                    wait_ms[i] = wait_s * 1e3
                    latency[i] = wait_s * 1e3 + exec_ms
                    en = power_watts * exec_ms
            energy[i] = en
            drained_mah += en / voltage_hours

    # ------------------------------------------------------------------ #
    # Fan-out
    # ------------------------------------------------------------------ #
    def _simulate_chunk(self, user_ids: Sequence[int], *,
                        max_cells: int = BLOCK_CELLS) -> list[UserTrace]:
        """One pool slice: its users' traces, in order, one per user."""
        collector = obs.get_collector()
        if collector is None:
            # Disabled-mode hot path: one check per chunk, nothing else.
            return self._simulate_blocks(user_ids, max_cells)
        with collector.span("fleet.simulate_chunk", items=len(user_ids)):
            traces = self._simulate_blocks(user_ids, max_cells)
        # Per-trace totals sum exactly, so chunking/pool kind can't move
        # them — the deterministic class.
        collector.count("fleet.users_simulated", len(traces))
        collector.count("fleet.events_simulated",
                        sum(trace.num_events for trace in traces))
        collector.count("fleet.events_offloaded",
                        sum(trace.num_offloaded for trace in traces))
        collector.count("fleet.events_shed",
                        sum(trace.num_shed for trace in traces))
        return traces

    def _slice_users(self, num_users: int) -> int:
        """Users per pool slice: ``chunk_size``, else sized to the pool.

        Inline runs take :data:`BLOCK_USERS` at a time; pools split the
        users into about four slices per worker (at most ``BLOCK_USERS``
        each), so a small fleet still fans out across every worker.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        workers = resolve_workers(num_users, self.max_workers)
        if workers <= 1 and not self.use_processes:
            return BLOCK_USERS
        return max(1, min(BLOCK_USERS, -(-num_users // (workers * 4))))

    def iter_traces(self, user_range: Optional[tuple[int, int]] = None, *,
                    max_cells: int = BLOCK_CELLS) -> Iterator[UserTrace]:
        """Stream users' traces in user-id order.

        Fans slices of consecutive user ids out on the shared ordered pool
        (``chunk_size`` users per slice, else :meth:`_slice_users`); each
        slice is simulated in blocks of at most ``max_cells`` padded cells.
        Per-user seeds and row-wise block evaluation make the stream
        bit-identical for any worker count, chunk size, pool kind or block
        budget.  Nothing is retained after the caller consumes a trace.

        ``user_range`` restricts the stream to the half-open id range
        ``[lo, hi)`` — the campaign coordinator's sharding hook.  Because
        every user materialises from a seed derived from their own id,
        the traces of a range are bit-identical to the same ids' slice of
        the full stream.
        """
        if user_range is None:
            lo, hi = 0, self.spec.num_users
        else:
            lo, hi = user_range
            if not 0 <= lo <= hi <= self.spec.num_users:
                raise ValueError(
                    f"user_range {user_range!r} outside "
                    f"[0, {self.spec.num_users}]")
        yield from iter_mapped_chunks(
            functools.partial(self._simulate_chunk, max_cells=max_cells),
            range(lo, hi),
            max_workers=self.max_workers,
            chunk_size=self._slice_users(hi - lo),
            use_processes=self.use_processes,
        )

    def iter_blocks(self, user_range: Optional[tuple[int, int]] = None, *,
                    rows_per_segment: Optional[int] = None
                    ) -> Iterator[list[UserTrace]]:
        """:meth:`iter_traces` grouped into lists of consecutive traces.

        The ingest unit of :func:`append_traces`: a list closes once it
        holds ``max(rows_per_segment, BLOCK_CELLS)`` events — the same
        budget that bounds the padded cells of each simulated block.
        """
        budget = max(rows_per_segment or 0, BLOCK_CELLS)
        block: list[UserTrace] = []
        events = 0
        for trace in self.iter_traces(user_range, max_cells=budget):
            block.append(trace)
            events += trace.num_events
            if events >= budget:
                yield block
                block, events = [], 0
        if block:
            yield block

    def collect(self) -> list[UserTrace]:
        """Every trace in user order (for in-memory analysis at small scales)."""
        return list(self.iter_traces())

    def run_to_store(self, store, *, rows_per_segment: int = 8192,
                     user_range: Optional[tuple[int, int]] = None) -> int:
        """Stream the whole simulation into a results store; returns the row count.

        ``store`` is a :class:`~repro.store.store.ResultStore` (or a path to
        create one at).  Users are simulated in blocks and their traces
        appended in groups (:meth:`iter_blocks`), each group as **one**
        column batch (:func:`append_traces`) cut where per-user appends would
        have sealed, so the committed ``fleet_events`` segments are
        byte-identical to appending every trace's
        :meth:`UserTrace.column_batch` on its own.  Segments are checksummed
        and committed in deterministic (user, time) order, so a crash loses
        at most the trailing partial segment; memory stays flat in the
        number of events.  ``user_range`` restricts the run to a half-open
        user-id range.  ``benchmarks/test_bench_ingest.py`` holds this path
        >= 2x faster than one :meth:`simulate_user` (a block of one) plus one
        append per user, and >= 5x faster than per-row ingestion.
        """
        from repro.store.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        with obs.span("fleet.run_to_store"):
            with store.writer(rows_per_segment=rows_per_segment) as writer:
                for block in self.iter_blocks(
                        user_range, rows_per_segment=rows_per_segment):
                    append_traces(writer, block)
        return writer.rows_committed
