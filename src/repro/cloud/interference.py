"""Two-pass deterministic cross-user interference on shared cloud capacity.

The fleet's routing creates a feedback loop the single-pass simulator cannot
see: offloaded traffic raises regional load, load raises API service times
(:mod:`repro.cloud.capacity`), slower cloud responses burn more radio energy,
earlier battery-saver switches offload *more* traffic — and queue overflow
policies that spill to the cloud add on-device congestion into the same
pool.  :class:`InterferenceSimulator` resolves that loop as a **damped fixed
point over frozen tables**:

1. **Pass 1** runs the existing vectorised per-user loop at the nominal
   (unloaded) service time and aggregates offload demand into a time-binned
   regional :class:`~repro.cloud.load.LoadProfile`;
2. each subsequent pass re-simulates with service times read from the
   *frozen* table of the previous iterate, producing a new profile; the
   table is updated by damped blending (``table += damping * (target -
   table)``) and the iteration stops when the largest per-bin change falls
   under ``tolerance_ms`` — or at ``max_passes``, whichever first;
3. a final pass runs at the converged frozen table and is the definitive
   result: its traces, events and load profile are what :meth:`run` returns
   and :meth:`run_to_store` persists (``fleet_events`` + ``fleet_load``
   rows).

Every pass is a pure function of (spec, frozen table): users are
materialised from their own derived seeds, profiles merge by exact integer
addition, and the capacity curve is deterministic — so the entire multi-pass
run is **bit-identical for any worker count or chunk size**,
which ``benchmarks/test_bench_cloud.py`` enforces together with the bounded
iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro import obs
from repro.cloud.capacity import CapacityModel
from repro.cloud.load import FIG15_API_NAMES, LoadProfile, ServiceTable
from repro.fleet.population import FleetSpec
from repro.fleet.simulator import FleetSimulator, UserTrace, append_block

__all__ = ["InterferenceConfig", "InterferenceResult", "InterferenceSimulator"]


@dataclass(frozen=True)
class InterferenceConfig:
    """Knobs of the damped fixed-point iteration."""

    #: Width of the load/service time bins, seconds.
    bin_seconds: float = 900.0
    #: Fraction of each pass's target table blended into the iterate.
    damping: float = 0.5
    #: Cap on the fixed-point loop's profile passes, *including* the initial
    #: nominal pass (the definitive final pass after convergence is on top).
    #: At least 2 is needed for any interference feedback to apply.
    max_passes: int = 8
    #: Convergence gate: largest per-bin service-time change, ms.
    tolerance_ms: float = 0.05

    def __post_init__(self) -> None:
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")
        if self.tolerance_ms < 0:
            raise ValueError("tolerance_ms must be non-negative")


@dataclass
class InterferenceResult:
    """Outcome of a converged (or capped) interference run."""

    #: The frozen service-time table of the final pass.
    table: ServiceTable
    #: Offload demand of the final pass.
    profile: LoadProfile
    #: Total simulation passes executed (nominal + iterations + final).
    passes: int
    #: Whether the table change fell under the tolerance before the cap.
    converged: bool
    #: Per-iteration ``max |delta service_ms|`` history.
    deltas_ms: list[float] = field(default_factory=list)
    #: Final traces (populated by :meth:`InterferenceSimulator.run`).
    traces: Optional[list[UserTrace]] = None
    #: Arrivals of the final pass, counted while streaming — the external
    #: side of the queue-conservation audit
    #: (``repro.fleet.reports.queue_summary(store, expected_arrived=...)``).
    arrived: Optional[int] = None

    @property
    def peak_service_ms(self) -> float:
        """Slowest (region, API, bin) service time of the converged table."""
        return float(self.table.service_ms.max())


class InterferenceSimulator:
    """Damped fixed-point fleet simulation over shared cloud capacity."""

    def __init__(self, spec: FleetSpec, capacity: CapacityModel, *,
                 config: Optional[InterferenceConfig] = None,
                 max_workers: Optional[int] = None,
                 chunk_size: Optional[int] = None) -> None:
        if spec.regions != capacity.region_names:
            # Align the population's region shards with the capacity model
            # rather than erroring: region assignment is a separate hash
            # stream, so this never perturbs any user's event plan.
            spec = replace(spec, regions=capacity.region_names)
        self.spec = spec
        self.capacity = capacity
        self.config = config or InterferenceConfig()
        self.max_workers = max_workers
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ #
    # Single passes
    # ------------------------------------------------------------------ #
    def _simulator(self, table: Optional[ServiceTable]) -> FleetSimulator:
        return FleetSimulator(
            self.spec,
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            service_table=table,
        )

    def _empty_profile(self) -> LoadProfile:
        return LoadProfile(self.spec.regions, self.spec.horizon_s,
                           self.config.bin_seconds)

    def _nominal_table(self) -> ServiceTable:
        return ServiceTable.constant(
            self.spec.regions, FIG15_API_NAMES, self.spec.horizon_s,
            self.config.bin_seconds, self.spec.policy.cloud.service_ms)

    def _profile_pass(self, table: Optional[ServiceTable]) -> LoadProfile:
        """One streaming simulation pass, reduced to its load profile."""
        profile = self._empty_profile()
        for block in self._simulator(table).iter_blocks():
            profile.add_block(block)
        return profile

    def _target_table(self, profile: LoadProfile) -> np.ndarray:
        return self.capacity.service_table(profile)

    # ------------------------------------------------------------------ #
    # The fixed point
    # ------------------------------------------------------------------ #
    def solve(self) -> InterferenceResult:
        """Iterate to the damped fixed point; no final traces retained.

        The convergence metric is the distance between the current table and
        the target it induces (``max |f(load(table)) - table|``): under the
        tolerance means the table reproduces itself.  While demand is still
        moving, updates are damped (``damping`` of the way to the target) to
        keep the discrete routing feedback from oscillating; once two
        consecutive passes produce *bit-identical* demand profiles, the
        iteration takes the full undamped step — with stable demand the
        target is already the fixed point, so crawling toward it
        geometrically would only waste passes.
        """
        config = self.config
        table = self._nominal_table()
        passes = 0
        converged = False
        deltas: list[float] = []
        profile = self._empty_profile()
        previous_requests: Optional[np.ndarray] = None
        with obs.span("cloud.solve"):
            for iteration in range(config.max_passes):
                # Pass 1 runs at the nominal table == the plain PR 3 loop.
                with obs.span("cloud.pass", items=self.spec.num_users,
                              detail=f"iteration {iteration + 1}"):
                    profile = self._profile_pass(table if iteration else None)
                passes += 1
                target = self._target_table(profile)
                delta = float(np.abs(target - table.service_ms).max()) \
                    if target.size else 0.0
                deltas.append(delta)
                # The convergence trajectory is a pure function of (spec,
                # capacity, config) — pass counts are deterministic-class;
                # the delta magnitudes are floats, kept as observations.
                obs.observe("cloud.delta_ms", delta)
                if delta <= config.tolerance_ms:
                    converged = True
                    break
                demand_stable = (previous_requests is not None
                                 and np.array_equal(previous_requests,
                                                    profile.requests))
                blended = target if demand_stable else (
                    table.service_ms
                    + config.damping * (target - table.service_ms))
                table = ServiceTable(table.regions, table.apis,
                                     table.bin_seconds, blended)
                previous_requests = profile.requests.copy()
        obs.count("cloud.passes", passes)
        return InterferenceResult(table=table, profile=profile,
                                  passes=passes, converged=converged,
                                  deltas_ms=deltas)

    def run(self) -> InterferenceResult:
        """Solve the fixed point, then collect the definitive final pass."""
        result = self.solve()
        with obs.span("cloud.final_pass", items=self.spec.num_users):
            traces = self._simulator(result.table).collect()
        profile = self._empty_profile()
        for trace in traces:
            profile.add_trace(trace)
        result.traces = traces
        result.profile = profile
        result.arrived = sum(trace.num_events for trace in traces)
        result.passes += 1
        obs.count("cloud.passes", 1)
        return result

    def run_to_store(self, store, *,
                     rows_per_segment: int = 8192) -> tuple[int, "InterferenceResult"]:
        """Solve, then stream the final pass into a results store.

        Writes the final pass's ``fleet_events`` rows (memory-flat, one
        column batch per simulated block exactly like
        :meth:`FleetSimulator.run_to_store`) followed by the converged load
        profile as one ``fleet_load`` column batch.  Returns
        ``(rows_committed, result)``; ``result.traces`` stays ``None`` —
        the store holds them.
        """
        from repro.store.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        result = self.solve()
        profile = self._empty_profile()
        arrived = 0
        with obs.span("cloud.final_pass", items=self.spec.num_users):
            with store.writer(rows_per_segment=rows_per_segment) as writer:
                for block in self._simulator(result.table).iter_blocks(
                        rows_per_segment=rows_per_segment):
                    profile.add_block(block)
                    arrived += append_block(writer, block)
                writer.append_batch("fleet_load", profile.column_batch())
        result.profile = profile
        result.arrived = arrived
        result.passes += 1
        obs.count("cloud.passes", 1)
        return writer.rows_committed, result
