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
embarrassingly parallel: the simulator fans user slices out on the shared
ordered thread pool (:func:`~repro.runtime.pool.iter_mapped_chunks`) and
the resulting event stream is **bit-identical for any worker count or
chunk size**.  Process fan-out is the campaign coordinator's:
:func:`repro.campaign.run_campaign` shards user ranges across processes.

Users arrive as :class:`~repro.fleet.population.UserBlock` columns
(:meth:`~repro.fleet.population.FleetSpec.materialize_columns`): code
arrays into the spec's devices, models, scenarios and regions, and flat
plan arrays.  The simulated block is also the unit the store writers
consume (:meth:`FleetSimulator.iter_blocks`): :func:`append_block` appends
a block's ``fleet_events`` column batches straight from its flat arrays,
with no per-user :class:`UserTrace`, ``VirtualUser`` or ``UserPlan`` on
the way, and :meth:`~repro.cloud.load.LoadProfile.add_block` counts its
offloads in one pass.  :meth:`FleetSimulator.run_to_store` streams a
fleet into a :class:`~repro.store.store.ResultStore` that way with O(1)
result retention — the memory-flat path for million-event fleets.
:class:`UserTrace` is the per-user view of a block (:meth:`FleetSimulator.
iter_traces`, :meth:`~FleetSimulator.simulate_user`), and its
:meth:`~UserTrace.column_batch` is the per-user semantic reference the
block batches are held byte-identical to.

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
from repro.fleet.population import FleetSpec, UserBlock, VirtualUser
from repro.fleet.queueing import (ROUTE_CLOUD, ROUTE_DEVICE, ROUTE_QUEUED,
                                  ROUTE_SHED, ROUTE_TARGETS)
from repro.fleet.router import cloud_api_for_scenario
from repro.runtime.backends import Backend
from repro.runtime.energy_model import EnergyModel
from repro.runtime.latency_model import LatencyModel
from repro.runtime.pool import iter_mapped_chunks, resolve_workers
from repro.store.kernels import dense_unique

__all__ = ["UserTrace", "FleetSimulator", "fleet_events_batch",
           "append_block"]

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


#: ``fleet_events`` float columns: (column, :class:`UserTrace` field,
#: :class:`_Block` array).
_FLOAT_COLUMNS = (("latency_ms", "latency_ms", "latency"),
                  ("wait_ms", "wait_ms", "wait_ms"),
                  ("energy_mj", "energy_mj", "energy"),
                  ("throttle_factor", "throttle", "throttle"),
                  ("battery_fraction", "battery_fraction", "fraction"),
                  ("discharge_mah", "discharge_mah", "discharge"))

#: ``target`` value of each route code.
_TARGETS = np.array(ROUTE_TARGETS)


def fleet_events_batch(traces: Sequence[UserTrace]) -> dict[str, np.ndarray]:
    """A list of traces as one ``fleet_events`` column batch (trace order).

    The per-user semantic reference behind :meth:`UserTrace.column_batch`:
    one ``np.concatenate`` per per-event column and one ``np.repeat`` of
    the per-user constants.  Persisted values are exactly those of
    :meth:`UserTrace.rows`; :meth:`_Block.column_batch` builds the same
    batch from a simulated block's arrays.

    String widths follow the per-trace batches: a trace with no events adds
    no value (and so cannot widen a column), and a trace with no offloads
    contributes ``""`` rather than its unused API name to ``cloud_api``.
    Every array is built here and frozen, so the writer adopts it without
    its defensive copy.
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
        "target": _TARGETS[route],
    }
    for column, field_name, _ in _FLOAT_COLUMNS:
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


def append_block(writer, block: "_Block") -> int:
    """Append a simulated block to a store writer; returns the rows.

    One :meth:`_Block.column_batch` per block, except that the block is cut
    after every user where appending user by user (one
    :meth:`UserTrace.column_batch` each) would have sealed a segment.  A
    seal takes string column widths from what is buffered at that moment,
    so with these cuts the block path writes the per-user path's segments
    byte for byte.
    """
    segments = (writer.batch_rows_pending("fleet_events")
                + block.offsets[1:]) // writer.rows_per_segment
    cuts = np.flatnonzero(np.diff(segments, prepend=0) > 0) + 1
    rows = start = 0
    for stop in [*cuts.tolist(), block.counts.size]:
        if block.offsets[stop] > block.offsets[start]:
            rows += writer.append_batch("fleet_events",
                                        block.column_batch(start, stop))
        start = stop
    return rows


class _Constants(NamedTuple):
    """Per-(device, graph, scenario) constants of the event loop."""

    backend: Backend
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


def _text(codes: np.ndarray, values: Sequence[str],
          repeats: np.ndarray) -> np.ndarray:
    """``np.repeat(np.array([values[c] for c in codes], dtype=str),
    repeats)``, decoding each distinct code once.

    The table holds only the values present, so its width is that of the
    widest of them, exactly as the per-value array's would be.
    """
    present, inverse = dense_unique(codes, len(values))
    table = np.array([values[code] for code in present.tolist()], dtype=str)
    return np.repeat(table[inverse], repeats)


class _Block:
    """One block of users evolved together; every array op spans the block.

    Built from a :class:`~repro.fleet.population.UserBlock` as it is: the
    per-event inputs are its flat plan arrays, and the per-user constants
    are computed once per distinct (device, model, scenario) combo of the
    block (:meth:`FleetSimulator._constants`) and gathered by each user's
    combo index — no per-user object is built.  Each non-empty (user,
    recharge span) pair is one row of a padded matrix (padding repeats the
    row's last event, so it adds zero gaps and is masked out).  Per-row
    constants broadcast through the same elementwise IEEE operations the
    one-user loop would run, and every prefix sum is
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

    :meth:`run` freezes the per-event output arrays (users back to back,
    user ``i``'s events at ``offsets[i]:offsets[i + 1]``) and returns the
    block itself: :meth:`column_batch` slices them into ``fleet_events``
    batches, and :meth:`traces` into per-user :class:`UserTrace` views.
    """

    def __init__(self, simulator: "FleetSimulator",
                 columns: UserBlock) -> None:
        self.simulator = simulator
        spec = simulator.spec
        self.policy = spec.policy
        self.columns = columns
        self.user_ids = columns.user_ids
        self.offsets = columns.offsets
        self.counts = columns.counts
        total = int(self.offsets[-1])

        # One _Constants per distinct combo; ``combo`` indexes them per user.
        graphs, scenarios = len(spec.graphs_with_tasks), len(spec.scenarios)
        present, self.combo = dense_unique(
            (columns.device * graphs + columns.graph) * scenarios
            + columns.scenario, len(spec.devices) * graphs * scenarios)
        consts = [simulator._constants(key // scenarios // graphs,
                                       key // scenarios % graphs,
                                       key % scenarios)
                  for key in present.tolist()]
        self.consts = consts
        names = [const.cloud_api for const in consts]
        #: Cloud API names, and each user's index into them.
        self.api_names = sorted(set(names))
        self.api = np.array([self.api_names.index(name) for name in names],
                            dtype=np.int64)[self.combo]

        def per_user(values, dtype=np.float64) -> np.ndarray:
            return np.array(values, dtype=dtype)[self.combo]

        # Per-user constants, indexed by position in the block.
        self.capability = per_user([const.capability for const in consts],
                                   bool)
        self.nominal = per_user([const.nominal_ms for const in consts])
        self.busy = self.nominal / 1e3
        self.power = per_user([const.power_watts for const in consts])
        self.payload = per_user([const.payload_bytes for const in consts],
                                np.int64)
        self.floor = per_user([const.thermal.throttle_floor
                               for const in consts])
        self.time_constant = per_user([const.thermal.time_constant_s
                                       for const in consts])
        self.tau = per_user([const.thermal.cooldown_tau_s
                             for const in consts])
        self.voltage_hours = per_user([const.voltage_hours
                                       for const in consts])
        self.capacity = per_user([const.capacity_mah for const in consts])

        # Per-event inputs and outputs, users back to back.
        self.times = columns.times
        self.noise = np.maximum(columns.noise, MIN_NOISE_FACTOR)
        self.rtt = columns.rtt_ms
        table = simulator.service_table
        if table is not None:
            # service_for is elementwise: one lookup per (region, API).
            self.service = np.empty(total)
            apis = len(self.api_names)
            group = np.repeat(columns.region * apis + self.api, self.counts)
            for key in dense_unique(group, len(spec.regions) * apis
                                    )[0].tolist():
                cells = np.flatnonzero(group == key)
                self.service[cells] = table.service_for(
                    spec.regions[key // apis], self.api_names[key % apis],
                    self.times[cells])
        else:
            self.service = np.full(total, self.policy.cloud.service_ms)
        self.latency = np.zeros(total)
        self.energy = np.zeros(total)
        self.throttle = np.ones(total)
        self.wait_ms = np.zeros(total)
        self.route = np.full(total, ROUTE_DEVICE, dtype=np.int64)
        self.fraction = np.empty(total)
        self.discharge = np.zeros(total)

    def run(self) -> "_Block":
        """Evolve the block; returns it with its output arrays frozen."""
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
        # Frozen owners make every slice chain-read-only, so the writer
        # adopts column_batch()'s arrays without its defensive copy.
        for array in (self.times, self.latency, self.energy, self.throttle,
                      self.wait_ms, self.route, self.fraction,
                      self.discharge):
            array.setflags(write=False)
        return self

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
        row_user, row_start, row_len, row_fraction = \
            self.simulator._span_rows(self.columns)
        if not row_user.size:
            return 0
        self.row_user = row_user
        self.row_len = row_len
        self.row_fraction = row_fraction[:, None]
        cols = np.arange(int(row_len.max()))
        self.valid = cols < row_len[:, None]
        #: Flat event position of every cell (padding repeats the last).
        self.index = row_start[:, None] \
            + np.minimum(cols, row_len[:, None] - 1)
        return int(row_user.size)

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
        self.simulator._simulate_span_queued(
            self.times[user], self.rtt[user],
            slice(start, start + int(self.row_len[row])),
            float(self.row_fraction[row, 0]),
            self.consts[self.combo[position]], self.noise[user],
            self.service[user], self.latency[user], self.energy[user],
            self.throttle[user], self.wait_ms[user], self.route[user])

    def _battery(self) -> None:
        """Battery trajectory per recharge span, clamped at empty."""
        self.discharge = self.energy / np.repeat(self.voltage_hours,
                                                 self.counts)
        drained = np.cumsum(self.discharge[self.index], axis=1)
        trajectory = self.row_fraction \
            - drained / self.capacity[self.row_user][:, None]
        self.fraction[self.index[self.valid]] = trajectory[self.valid]
        np.maximum(self.fraction, 0.0, out=self.fraction)

    def traces(self) -> list[UserTrace]:
        """One :class:`UserTrace` per user, viewing the block's arrays."""
        traces = []
        bounds = self.offsets.tolist()
        for position, ((user, plan), combo) in enumerate(zip(
                self.columns.pairs(), self.combo.tolist())):
            const = self.consts[combo]
            view = slice(bounds[position], bounds[position + 1])
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

    def column_batch(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Users ``[start, stop)`` as one ``fleet_events`` column batch.

        Equal, array for array and dtype for dtype, to
        :func:`fleet_events_batch` over the same users' traces: per-event
        columns are slices of the block's frozen arrays, per-user values
        one ``np.repeat`` each.  String columns decode the users' codes
        through a table of the values present (:func:`_text`) and repeat
        only over users with events, so an empty user cannot widen them,
        and ``cloud_api`` is ``""`` for users without offloads.  Every
        column is chain-read-only.
        """
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        counts = self.counts[start:stop]
        active = start + np.flatnonzero(counts)
        repeats = self.counts[active]
        route = self.route[lo:hi]
        cloud = route == ROUTE_CLOUD
        offloads = np.logical_or.reduceat(cloud, self.offsets[active] - lo)
        columns = self.columns
        names = self.simulator._names
        combo = self.combo[active]
        batch = {
            "user_id": np.repeat(self.user_ids[start:stop], counts),
            "time_s": self.times[lo:hi],
            "device_name": _text(columns.device[active], names["device"],
                                 repeats),
            "model_name": _text(columns.graph[active], names["model"],
                                repeats),
            "scenario": _text(columns.scenario[active], names["scenario"],
                              repeats),
            "backend": _text(combo, [const.backend.value
                                     for const in self.consts], repeats),
            "region": _text(columns.region[active], names["region"],
                            repeats),
            "target": _TARGETS[route],
        }
        for column, _, name in _FLOAT_COLUMNS:
            batch[column] = getattr(self, name)[lo:hi]
        # Users without offloads in the batch take code len(api_names): "".
        api = np.where(offloads, self.api[active], len(self.api_names))
        batch["cloud_api"] = np.where(cloud, _text(
            api, [*self.api_names, ""], repeats), "")
        batch["cloud_bytes"] = np.where(
            cloud, np.repeat(self.payload[start:stop], counts), 0)
        for array in batch.values():
            array.setflags(write=False)
        return batch


class FleetSimulator:
    """Runs a :class:`FleetSpec` population over virtual time.

    ``service_table`` (optional) is a frozen cloud service-time lookup with a
    ``service_for(region, api, times_s) -> ndarray`` method — when present,
    offloaded requests read their service time from it instead of the routing
    policy's constant; see :mod:`repro.cloud.interference`.
    """

    def __init__(self, spec: FleetSpec, *, max_workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 service_table=None) -> None:
        self.spec = spec
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.service_table = service_table
        #: Decoded value of every code of a UserBlock's string columns.
        self._names = {
            "device": [device.name for device in spec.devices],
            "model": [graph.name for graph, _ in spec.graphs_with_tasks],
            "scenario": [scenario.name for scenario in spec.scenarios],
            "region": list(spec.regions),
        }
        #: device.name -> (LatencyModel, EnergyModel).
        self._model_cache: dict = {}
        #: (device, graph, scenario) code -> _Constants.
        self._constants_cache: dict = {}
        self._boundaries: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Cached per-combo constants (the "batch through graph_latency_ms" hook)
    # ------------------------------------------------------------------ #
    def _constants(self, device_code: int, graph_code: int,
                   scenario_code: int) -> _Constants:
        """Everything the event loop needs that is fixed per combo,
        computed once per (device, graph, scenario) code of the spec."""
        key = (device_code, graph_code, scenario_code)
        cached = self._constants_cache.get(key)
        if cached is None:
            spec = self.spec
            device = spec.devices[device_code]
            graph = spec.graphs_with_tasks[graph_code][0]
            scenario = spec.scenarios[scenario_code]
            backend = spec._backend_for(device, graph)
            models = self._model_cache.get(device.name)
            if models is None:
                models = (LatencyModel(device), EnergyModel(device))
                self._model_cache[device.name] = models
            latency_model, energy_model = models
            policy = spec.policy
            nominal_ms = latency_model.graph_latency_ms(graph, backend)
            battery = device.battery
            cached = _Constants(
                backend=backend,
                nominal_ms=nominal_ms,
                power_watts=energy_model.inference_power_watts(backend),
                payload_bytes=policy.cloud.payload_bytes(graph),
                cloud_api=cloud_api_for_scenario(scenario),
                capability=policy.offloads_for_capability(
                    nominal_ms, scenario.deadline_ms),
                thermal=ThermalModel.for_device(device.is_dev_board,
                                                device.tier),
                voltage_hours=battery.voltage * 3600.0,
                capacity_mah=battery.capacity_mah,
            )
            self._constants_cache[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Recharge spans
    # ------------------------------------------------------------------ #
    def _span_rows(self, columns: UserBlock
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(user, first event, events, start fraction)`` of every
        non-empty span between recharges, users in order and each user's
        spans in time order.

        An event at time ``t`` is in span ``k``, the number of recharge
        boundaries at or before ``t``; span 0 starts at the user's own
        battery level, every later one at the schedule's.
        """
        counts = columns.counts
        recharge = self.spec.recharge
        if recharge is not None and self._boundaries is None:
            self._boundaries = recharge.boundaries(self.spec.horizon_s)
        if recharge is None or not self._boundaries.size:
            users = np.flatnonzero(counts)
            return (users, columns.offsets[users], counts[users],
                    columns.start_fraction[users])
        total = columns.times.size
        owner = np.repeat(np.arange(counts.size), counts)
        span = np.searchsorted(self._boundaries, columns.times, side="right")
        first = np.ones(total, dtype=bool)
        first[1:] = (owner[1:] != owner[:-1]) | (span[1:] != span[:-1])
        starts = np.flatnonzero(first)
        users = owner[starts]
        return (users, starts, np.diff(starts, append=total),
                np.where(span[starts] == 0, columns.start_fraction[users],
                         recharge.level))

    # ------------------------------------------------------------------ #
    # The block event loop
    # ------------------------------------------------------------------ #
    def simulate_user(self, user_id: int) -> UserTrace:
        """Evolve one user over the horizon (a block of one)."""
        return _Block(self, self.spec.materialize_columns(
            [user_id])).run().traces()[0]

    def _simulate_blocks(self, user_ids: Sequence[int],
                         max_cells: int) -> list[UserTrace]:
        """:meth:`_run_blocks` as one :class:`UserTrace` per user."""
        return [trace for block in self._run_blocks(user_ids, max_cells)
                for trace in block.traces()]

    def _run_blocks(self, user_ids: Sequence[int], max_cells: int,
                    collector=None) -> list[_Block]:
        """Simulate users in order, evaluated in budgeted blocks.

        Users are materialised :data:`BLOCK_USERS` at a time
        (:meth:`FleetSpec.materialize_columns`), each exactly once; a block
        closes before the user whose spans would push its padded matrix
        (rows x longest row) past ``max_cells``, so a dense user cannot
        inflate the matrices of the sparse users around it.  A block may
        join users of consecutive materialised blocks
        (:meth:`UserBlock.concat`).  With a ``collector``, each
        materialisation and each block's evaluation is a span.
        """
        blocks: list[_Block] = []
        pieces: list[UserBlock] = []
        rows = width = 0
        for first in range(0, len(user_ids), BLOCK_USERS):
            ids = user_ids[first:first + BLOCK_USERS]
            if collector is None:
                columns = self.spec.materialize_columns(ids)
            else:
                with collector.span("fleet.population.materialize",
                                    items=len(ids)):
                    columns = self.spec.materialize_columns(ids)
            row_users, _, row_lengths, _ = self._span_rows(columns)
            spans = np.bincount(row_users, minlength=len(columns))
            longest = np.zeros(len(columns), dtype=np.int64)
            np.maximum.at(longest, row_users, row_lengths)
            lo = 0
            for position in np.flatnonzero(spans).tolist():
                count = int(spans[position])
                longest_row = int(longest[position])
                grown = max(width, longest_row)
                if (pieces or position > lo) \
                        and (rows + count) * grown > max_cells:
                    if position > lo:
                        pieces.append(columns.take(lo, position))
                    blocks.append(self._evolve(pieces, collector))
                    pieces, lo, rows, grown = [], position, 0, longest_row
                rows += count
                width = grown
            pieces.append(columns.take(lo, len(columns)))
        if pieces:
            blocks.append(self._evolve(pieces, collector))
        return blocks

    def _evolve(self, pieces: list[UserBlock], collector) -> _Block:
        """One simulated block of the users of ``pieces``, back to back."""
        columns = UserBlock.concat(pieces)
        if collector is None:
            return _Block(self, columns).run()
        with collector.span("fleet.simulator.simulate", items=len(columns)):
            return _Block(self, columns).run()

    def _simulate_span_queued(self, times: np.ndarray, rtt: np.ndarray,
                              span: slice, span_fraction: float,
                              const: _Constants, noise: np.ndarray,
                              service_ms: np.ndarray, latency, energy,
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
        nominal_ms = const.nominal_ms
        power_watts = const.power_watts
        payload_bytes = const.payload_bytes
        thermal = const.thermal
        voltage_hours = const.voltage_hours
        capacity_mah = const.capacity_mah
        threshold = policy.battery_saver_threshold
        max_wait_s = queue.max_wait_s
        overflow_to_cloud = queue.overflows_to_cloud
        horizon_s = self.spec.horizon_s
        radio = cloud.radio_power_watts
        tau = thermal.cooldown_tau_s
        busy_s = nominal_ms / 1e3

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
                        max_cells: int = BLOCK_CELLS) -> list[_Block]:
        """One pool slice: its users' simulated blocks, in order."""
        collector = obs.get_collector()
        if collector is None:
            # Disabled-mode hot path: one check per chunk, nothing else.
            return self._run_blocks(user_ids, max_cells)
        with collector.span("fleet.simulate_chunk", items=len(user_ids)):
            blocks = self._run_blocks(user_ids, max_cells, collector)
        # Per-block totals sum exactly, so chunking/worker count can't move
        # them — the deterministic class.
        collector.count("fleet.users_simulated",
                        sum(block.counts.size for block in blocks))
        collector.count("fleet.events_simulated",
                        sum(block.route.size for block in blocks))
        collector.count("fleet.events_offloaded", sum(
            int(np.count_nonzero(block.route == ROUTE_CLOUD))
            for block in blocks))
        collector.count("fleet.events_shed", sum(
            int(np.count_nonzero(block.route == ROUTE_SHED))
            for block in blocks))
        return blocks

    def _slice_users(self, num_users: int) -> int:
        """Users per pool slice: ``chunk_size``, else sized to the pool.

        Inline runs take :data:`BLOCK_USERS` at a time; pools split the
        users into about four slices per worker (at most ``BLOCK_USERS``
        each), so a small fleet still fans out across every worker.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        workers = resolve_workers(num_users, self.max_workers)
        if workers <= 1:
            return BLOCK_USERS
        return max(1, min(BLOCK_USERS, -(-num_users // (workers * 4))))

    def iter_blocks(self, user_range: Optional[tuple[int, int]] = None, *,
                    rows_per_segment: Optional[int] = None
                    ) -> Iterator[_Block]:
        """Stream simulated blocks of consecutive users, in user-id order.

        The unit the store writers consume (:func:`append_block`,
        :meth:`~repro.cloud.load.LoadProfile.add_block`).  Fans slices of
        consecutive user ids out on the shared ordered pool (``chunk_size``
        users per slice, else :meth:`_slice_users`); each slice is
        simulated in blocks of at most ``max(rows_per_segment,
        BLOCK_CELLS)`` padded cells.  Per-user seeds and row-wise block
        evaluation make every user's events bit-identical for any worker
        count, chunk size or block budget.  Nothing is retained after the
        caller consumes a block.

        ``user_range`` restricts the stream to the half-open id range
        ``[lo, hi)`` — the campaign coordinator's sharding hook.  Because
        every user materialises from a seed derived from their own id,
        the events of a range are bit-identical to the same ids' slice of
        the full stream.
        """
        return self._iter_blocks(user_range,
                                 max(rows_per_segment or 0, BLOCK_CELLS))

    def iter_traces(self, user_range: Optional[tuple[int, int]] = None, *,
                    max_cells: int = BLOCK_CELLS) -> Iterator[UserTrace]:
        """Stream users' traces in user-id order: the simulated blocks of
        :meth:`iter_blocks` (at most ``max_cells`` padded cells each), one
        :class:`UserTrace` view per user."""
        for block in self._iter_blocks(user_range, max_cells):
            yield from block.traces()

    def _iter_blocks(self, user_range: Optional[tuple[int, int]],
                     max_cells: int) -> Iterator[_Block]:
        if user_range is None:
            lo, hi = 0, self.spec.num_users
        else:
            lo, hi = user_range
            if not 0 <= lo <= hi <= self.spec.num_users:
                raise ValueError(
                    f"user_range {user_range!r} outside "
                    f"[0, {self.spec.num_users}]")
        return iter_mapped_chunks(
            functools.partial(self._simulate_chunk, max_cells=max_cells),
            range(lo, hi),
            max_workers=self.max_workers,
            chunk_size=self._slice_users(hi - lo),
        )

    def collect(self) -> list[UserTrace]:
        """Every trace in user order (for in-memory analysis at small scales)."""
        return list(self.iter_traces())

    def run_to_store(self, store, *, rows_per_segment: int = 8192,
                     user_range: Optional[tuple[int, int]] = None) -> int:
        """Stream the whole simulation into a results store; returns the row count.

        ``store`` is a :class:`~repro.store.store.ResultStore` (or a path to
        create one at).  Users are simulated in blocks (:meth:`iter_blocks`)
        and each block is appended straight from its arrays as **one**
        column batch (:func:`append_block`), cut where per-user appends
        would have sealed, so the committed ``fleet_events`` segments are
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
                    append_block(writer, block)
        return writer.rows_committed
