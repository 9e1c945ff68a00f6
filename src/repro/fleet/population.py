"""The virtual population: who owns which device and runs which app.

A :class:`FleetSpec` declares a population the way a
:class:`~repro.runtime.sweep.SweepSpec` declares a sweep: everything about
user ``i`` — device (weighted by market tier), model, scenario, backend,
starting battery level, request arrival times, measurement noise — is a
deterministic function of the spec and the user's own coordinates, through
one RNG seeded by :func:`derive_user_seed`.  That is the property the whole
subsystem rests on: any worker can materialise any user independently, so
fleet results are bit-identical for every worker count, chunking and pool
kind.

Users are materialised a block at a time
(:meth:`FleetSpec.materialize_block`): the block's seeds are hashed in one
vectorised pass (:func:`seed_states`), only the RNG draws run per user, in
the per-user order, and the rest of every plan is array code over the
whole block.  On 1,200 sparse Ambient users that is ~16 µs per user
against ~60 µs for the one-user-at-a-time reference
(:func:`~repro.fleet.reference.materialize_reference`), and against
~25 µs with one ``default_rng`` per user (median of 8 trials, each best of
5 interleaved runs, 2-vCPU Intel Xeon container).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.core.scenarios import STANDARD_SCENARIOS, Scenario
from repro.devices.battery import RechargeSchedule
from repro.devices.device import Device, PHONES
from repro.dnn.graph import Graph
from repro.fleet.arrivals import (MIN_SESSION_S, DiurnalProfile,
                                  session_shape_for, session_ticks)
from repro.fleet.router import RoutingPolicy
from repro.runtime.backends import Backend, profile_for

__all__ = ["derive_user_seed", "seed_states", "derive_user_region",
           "VirtualUser", "UserPlan", "FleetSpec", "zoo_population",
           "congested_population", "preferred_backend"]

#: Device-tier market weights for assigning phones to users (low tiers are
#: the volume segment — the paper's motivation for measuring the A20).
TIER_WEIGHTS = {"low": 5.0, "mid": 3.0, "high": 2.0}


def preferred_backend(device: Device, graph: Graph) -> Backend:
    """Fastest portable backend of a (device, graph) pair: XNNPACK when it
    can run, the plain CPU interpreter otherwise.

    The single eligibility rule behind both :meth:`FleetSpec._backend_for`
    (which memoises it per combo) and :func:`congested_population` (which
    must evaluate candidate graphs under the backend the fleet would really
    assign them).
    """
    profile = profile_for(Backend.XNNPACK)
    device_ok = not (profile.requires_qualcomm
                     and device.soc.vendor != "Qualcomm")
    device_ok = device_ok and not (
        profile.requires_accelerator
        and device.soc.accelerator(profile.target) is None)
    return (Backend.XNNPACK if device_ok and profile.supports_graph(graph)
            else Backend.CPU)


def zoo_population(weight_seed: int = 0) -> tuple[tuple[Graph, str], ...]:
    """A reference (graph, task) set covering every standard scenario.

    Synthetic snapshots at small scales often contain no model for the
    Table 4 scenario tasks; this zoo-built set guarantees an eligible
    population.  It deliberately includes *two* segmentation variants — a
    mobile-sized one that meets the 15 FPS deadline on-device (and therefore
    heats the SoC: the throttling regime) and the full-size one that no
    phone can run in a frame period (the capability-offload regime).
    """
    from repro.dnn.zoo import autocomplete_lstm, sound_recognition, unet_lite

    return (
        (sound_recognition(weight_seed=weight_seed), "sound recognition"),
        (autocomplete_lstm(weight_seed=weight_seed), "auto-complete"),
        (unet_lite("unet_lite_128", resolution=128, base_filters=8, depth=3,
                   weight_seed=weight_seed), "semantic segmentation"),
        (unet_lite(weight_seed=weight_seed), "semantic segmentation"),
    )


def congested_population(device: Optional[Device] = None, *,
                         band: tuple[float, float] = (0.74, 0.97),
                         weight_seed: int = 0) -> tuple[tuple[Graph, str], ...]:
    """A population whose segmentation model congests the device queue.

    Picks a ``unet_lite`` variant whose *cold* latency on ``device`` (default:
    the low-tier phone) lands inside ``band`` of the 15 FPS frame deadline:
    cold inference meets the deadline (so the request is not capability
    -offloaded), but the thermally throttled steady state does not — sustained
    video calls therefore build a real queue, the regime the queueing layer
    and its shed/overflow policies exist for.  The search is deterministic
    (fixed candidate grid, analytic latency model), so every caller gets the
    same graph.
    """
    from repro.dnn.zoo import unet_lite
    from repro.runtime.latency_model import LatencyModel

    device = device or PHONES[0]
    deadline_ms = next(s for s in STANDARD_SCENARIOS
                       if s.name == "Segm.").deadline_ms
    low, high = band
    latency_model = LatencyModel(device)
    candidates = [
        (resolution, base_filters, depth)
        for resolution in (96, 112, 128, 144, 160, 176, 192, 224, 256)
        for base_filters in (4, 6, 8, 12, 16, 24)
        for depth in (2, 3)
    ]
    for resolution, base_filters, depth in candidates:
        graph = unet_lite(
            f"unet_congested_{resolution}_{base_filters}_{depth}",
            resolution=resolution, base_filters=base_filters, depth=depth,
            weight_seed=weight_seed)
        nominal_ms = latency_model.graph_latency_ms(
            graph, preferred_backend(device, graph))
        if low * deadline_ms < nominal_ms <= high * deadline_ms:
            return ((graph, "semantic segmentation"),)
    raise RuntimeError(
        f"no unet_lite candidate lands within {band} of the "
        f"{deadline_ms:.1f} ms frame deadline on {device.name}")


def derive_user_seed(base_seed: int, user_id: int) -> int:
    """Deterministic 64-bit RNG seed for one virtual user.

    Depends only on the spec seed and the user's id — never on sharding or
    scheduling — mirroring :func:`~repro.runtime.sweep.derive_job_seed`.
    """
    material = f"{base_seed}|fleet-user|{user_id}"
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "little")


# NumPy's SeedSequence hash (``numpy/random/bit_generator.pyx``): pool size
# 4, 32-bit words.  The constant each hash call xors in and multiplies by
# depends on the call count only, never on the data, so both are fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int
                    ) -> list[tuple[np.uint32, np.uint32]]:
    """(xor operand, multiplier) of each of ``count`` successive hash calls:
    a call xors in the running constant, then multiplies by its next value."""
    constants, value = [], init
    for _ in range(count):
        following = value * mult & _MASK32
        constants.append((np.uint32(value), np.uint32(following)))
        value = following
    return constants


#: ``hashmix`` calls: 4 pool words, then 12 cross-mixes; 8 output words.
_HASHMIX = _hash_constants(_INIT_A, _MULT_A, 16)
_OUTPUT = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(value: np.ndarray, constants: tuple[np.uint32, np.uint32]
          ) -> np.ndarray:
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed.

    Returns an ``(n, 4)`` uint64 array, row ``i`` for ``seeds[i]`` (each in
    ``[0, 2**64)``), from one pass of uint32 array operations over the
    whole block instead of one ``SeedSequence`` per seed.  A 64-bit seed
    is one or two 32-bit entropy words, and a pool slot without an entropy
    word hashes 0, so a seed below ``2**32`` is exactly its zero-padded
    two-word case: one two-word path covers every seed.  These four words
    are what ``np.random.PCG64(seed)`` seeds itself from.
    """
    words = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    zero = np.zeros(len(words), dtype=np.uint32)
    # uint32 array arithmetic wraps modulo 2**32, as the C hash does.
    pool = [_hash(words.astype(np.uint32), _HASHMIX[0]),  # low word
            _hash((words >> np.uint64(32)).astype(np.uint32), _HASHMIX[1]),
            _hash(zero, _HASHMIX[2]),
            _hash(zero, _HASHMIX[3])]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _HASHMIX[call]))
                call += 1
    state = np.empty((len(words), 8), dtype=np.uint32)
    for out in range(8):
        state[:, out] = _hash(pool[out % 4], _OUTPUT[out])
    # Little-endian word pairs, as SeedSequence assembles them.
    return state.astype("<u4", copy=False).view("<u8").astype(
        np.uint64, copy=False)


class _PrecomputedState(ISeedSequence):
    """One row of :func:`seed_states`, handed to ``np.random.PCG64``.

    PCG64 seeds itself from ``generate_state(4, np.uint64)``; this returns
    the precomputed row so the generator equals ``default_rng(seed)``
    without building a ``SeedSequence``.  It cannot spawn.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's 4 uint64 seeding words are held")
        return self._state


def derive_user_region(base_seed: int, user_id: int,
                       regions: Sequence[str]) -> str:
    """Deterministic cloud-region assignment of one virtual user.

    A separate hash stream from :func:`derive_user_seed`, so adding or
    removing regions never shifts any draw of the user's event plan — only
    which regional capacity pool their offloaded requests land in.
    """
    if not regions:
        raise ValueError("regions must be non-empty")
    material = f"{base_seed}|fleet-region|{user_id}"
    digest = hashlib.sha256(material.encode()).digest()
    return regions[int.from_bytes(digest[:8], "little") % len(regions)]


@dataclass(frozen=True)
class VirtualUser:
    """One member of the population: a (device, model, scenario) tuple."""

    user_id: int
    device: Device
    graph: Graph
    task: str
    scenario: Scenario
    backend: Backend
    seed: int
    #: Cloud region this user's offloaded requests are served from.
    region: str = "global"


@dataclass(frozen=True)
class UserPlan:
    """Pre-drawn randomness of one user's day, shared by both event loops.

    The vectorised simulator and the naive per-event reference consume the
    same plan arrays, so they differ only in how the event loop is evaluated
    — exactly the comparison the fleet benchmark wants to make.
    """

    #: Sorted request arrival times, seconds from simulation start.
    times: np.ndarray
    #: Per-request latency noise multipliers (uncapped; loops clamp at 0.5).
    noise: np.ndarray
    #: Per-request network RTT draws for offloaded execution, ms.
    rtt_ms: np.ndarray
    #: Battery level at simulation start, as a fraction of capacity.
    start_battery_fraction: float

    @property
    def num_events(self) -> int:
        """Number of requests the user issues over the horizon."""
        return int(self.times.size)


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of a fleet simulation."""

    graphs_with_tasks: tuple[tuple[Graph, str], ...]
    num_users: int
    horizon_s: float = 86400.0
    devices: tuple[Device, ...] = PHONES
    scenarios: tuple[Scenario, ...] = STANDARD_SCENARIOS
    policy: RoutingPolicy = field(default_factory=RoutingPolicy)
    noise_fraction: float = 0.02
    #: Battery level users start the horizon at, drawn uniformly.
    start_battery_range: tuple[float, float] = (0.25, 1.0)
    seed: int = 0
    #: Cloud regions users are hashed across (the capacity model's shards).
    regions: tuple[str, ...] = ("global",)
    #: Night/day session-start modulation (``None`` = uniform over the day).
    diurnal: Optional[DiurnalProfile] = None
    #: Nightly charging windows (``None`` = batteries only ever drain).
    recharge: Optional[RechargeSchedule] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "graphs_with_tasks",
                           tuple((g, t) for g, t in self.graphs_with_tasks))
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValueError("FleetSpec requires at least one region")
        if self.num_users <= 0:
            raise ValueError("num_users must be positive")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not self.devices:
            raise ValueError("FleetSpec requires at least one device")
        if any(device.battery is None for device in self.devices):
            raise ValueError(
                "fleet devices need a battery (bench-powered boards cannot "
                "model user battery budgets)")
        if self.noise_fraction < 0:
            raise ValueError("noise_fraction must be non-negative")
        low, high = self.start_battery_range
        if not 0.0 < low <= high <= 1.0:
            raise ValueError("start_battery_range must satisfy 0 < low <= high <= 1")
        if not self._eligible_scenarios():
            raise ValueError(
                "no scenario matches any (graph, task) pair of the spec")

    # ------------------------------------------------------------------ #
    # Scenario pools (memoised — materialisation consults them once per
    # user, so the per-spec derivations must not be recomputed on that hot
    # path)
    # ------------------------------------------------------------------ #
    _CACHE_ATTRS = ("_pool_cache", "_eligible_cache", "_backend_cache",
                    "_weights_cache", "_cdf_cache", "_arrival_cache")

    def __getstate__(self) -> dict:
        # Process-pool workers rebuild the memos; the backend cache is keyed
        # by graph identity, which does not survive pickling.
        state = dict(self.__dict__)
        for name in self._CACHE_ATTRS:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def scenario_pool(self, scenario: Scenario) -> tuple[tuple[Graph, str], ...]:
        """(graph, task) pairs a scenario can run, CPU-executable only."""
        cache = getattr(self, "_pool_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_pool_cache", cache)
        pool = cache.get(scenario.name)
        if pool is None:
            cpu = profile_for(Backend.CPU)
            pool = tuple(
                (graph, task) for graph, task in self.graphs_with_tasks
                if scenario.applies_to(task, graph.modality)
                and cpu.supports_graph(graph)
            )
            cache[scenario.name] = pool
        return pool

    def _eligible_scenarios(self) -> tuple[Scenario, ...]:
        cached = getattr(self, "_eligible_cache", None)
        if cached is None:
            cached = tuple(s for s in self.scenarios if self.scenario_pool(s))
            object.__setattr__(self, "_eligible_cache", cached)
        return cached

    @property
    def eligible_scenarios(self) -> tuple[Scenario, ...]:
        """Scenarios with at least one compatible model in the spec."""
        return self._eligible_scenarios()

    # ------------------------------------------------------------------ #
    # User materialisation
    # ------------------------------------------------------------------ #
    def _device_weights(self) -> np.ndarray:
        """Tier-weighted device draw probabilities, memoised per spec.

        The per-user reference passes this to ``rng.choice`` once per user,
        so at campaign scale the list comprehension + normalisation would
        dominate its fixed per-user cost; the cached array is identical
        (same float ops), so every RNG draw is unchanged.
        """
        cached = getattr(self, "_weights_cache", None)
        if cached is None:
            weights = np.array(
                [TIER_WEIGHTS.get(d.tier, 1.0) for d in self.devices])
            cached = weights / weights.sum()
            cached.setflags(write=False)
            object.__setattr__(self, "_weights_cache", cached)
        return cached

    def _backend_for(self, device: Device, graph: Graph) -> Backend:
        """:func:`preferred_backend`, memoised per (device, graph):
        ``supports_graph`` scans every layer, and the same few combos repeat
        across the whole population."""
        cache = getattr(self, "_backend_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_backend_cache", cache)
        key = (device.name, id(graph))
        backend = cache.get(key)
        if backend is None:
            backend = preferred_backend(device, graph)
            cache[key] = backend
        return backend

    def _device_cdf(self) -> np.ndarray:
        """Normalised CDF of :meth:`_device_weights`, memoised per spec.

        Built with exactly the operations ``Generator.choice(n, p=w)`` runs,
        so ``searchsorted(cdf, rng.random(), side="right")`` picks the same
        device from the same single draw, minus ``choice``'s per-call
        validation.
        """
        cached = getattr(self, "_cdf_cache", None)
        if cached is None:
            cached = self._device_weights().cumsum()
            cached /= cached[-1]
            cached.setflags(write=False)
            object.__setattr__(self, "_cdf_cache", cached)
        return cached

    def _arrival_params(self, scenario: Scenario,
                        graph: Graph) -> tuple[float, float, float]:
        """``(expected_sessions, mean_session_s, rate_hz)`` of a (scenario,
        graph) pair over the horizon, memoised like :meth:`_backend_for`."""
        cache = getattr(self, "_arrival_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_arrival_cache", cache)
        key = (scenario.name, id(graph))
        params = cache.get(key)
        if params is None:
            shape = session_shape_for(scenario)
            params = (shape.sessions_per_day * self.horizon_s / 86400.0,
                      shape.mean_session_s, scenario.arrival_rate_hz(graph))
            cache[key] = params
        return params

    def materialize(self, user_id: int) -> tuple[VirtualUser, UserPlan]:
        """Build user ``user_id`` and their full event plan (a block of one).

        Every RNG draw comes from the user's own derived seed, in a fixed
        order — materialising user 7 yields the same user and plan whether
        it happens in the main process, a thread, worker 3 of a process
        pool, or inside any block.
        """
        return self.materialize_block([user_id])[0]

    def materialize_block(self, user_ids: Sequence[int]
                          ) -> list[tuple[VirtualUser, UserPlan]]:
        """Build a block of users and their plans, in ``user_ids`` order.

        Equal, field for field and byte for byte, to
        :func:`~repro.fleet.reference.materialize_reference` of each id.
        Seeding is one pass over the block: :func:`seed_states` hashes
        every user's seed at once, and each user's generator is a PCG64
        seeded from its row — the same state as ``default_rng(seed)``.
        Only the RNG draws stay per user: scenario, device, model,
        battery level, session count, starts and durations (pass 1), then
        the two per-event normal draws from the same generator (pass 2) —
        the per-user order of every stream is unchanged.  Everything in
        between (the diurnal inverse CDF, duration floor, tick expansion,
        horizon mask, per-user sort) and after (noise, RTTs) runs once over
        the whole block; each plan's arrays are views into block arrays.
        """
        eligible = self._eligible_scenarios()
        devices = self.devices
        cdf = self._device_cdf()
        low, high = self.start_battery_range
        horizon_s = self.horizon_s
        diurnal = self.diurnal

        # Pass 1: per-user draws up to the session durations.
        users: list = []
        rngs: list = []
        session_counts: list[int] = []
        rates: list[float] = []
        start_draws: list[np.ndarray] = []
        duration_draws: list[np.ndarray] = []
        seeds: list[int] = []
        for user_id in user_ids:
            if not 0 <= user_id < self.num_users:
                raise ValueError(f"user_id must be in [0, {self.num_users})")
            seeds.append(derive_user_seed(self.seed, user_id))
        for user_id, seed, state in zip(user_ids, seeds, seed_states(seeds)):
            # Equal to default_rng(seed): PCG64 seeded from the same words.
            rng = np.random.Generator(np.random.PCG64(
                _PrecomputedState(state)))
            # integers(1) draws nothing, so a single choice is skipped.
            scenario = (eligible[int(rng.integers(len(eligible)))]
                        if len(eligible) > 1 else eligible[0])
            device = devices[int(cdf.searchsorted(rng.random(),
                                                  side="right"))]
            pool = self.scenario_pool(scenario)
            graph, task = (pool[int(rng.integers(len(pool)))]
                           if len(pool) > 1 else pool[0])
            # uniform(low, high) is exactly low + (high - low) * random().
            start_fraction = low + (high - low) * rng.random()
            expected, mean_s, rate_hz = self._arrival_params(scenario, graph)
            sessions = 0
            if rate_hz > 0:
                sessions = int(rng.poisson(expected))
                if sessions:
                    # Start uniforms, mapped to times per block:
                    # uniform(0, horizon) is exactly horizon * random().
                    start_draws.append(rng.random(sessions))
                    duration_draws.append(rng.exponential(mean_s, sessions))
            users.append((user_id, seed, scenario, device, graph, task,
                          start_fraction))
            rngs.append(rng)
            session_counts.append(sessions)
            rates.append(rate_hz)

        # Block step: every session of the block at once.
        block = len(users)
        if start_draws:
            owner = np.repeat(np.arange(block), session_counts)
            uniform = np.concatenate(start_draws)
            starts = (horizon_s * uniform if diurnal is None else
                      diurnal.session_start_times(uniform, horizon_s))
            durations = np.maximum(np.concatenate(duration_draws),
                                   MIN_SESSION_S)
            times, session = session_ticks(
                starts, durations, np.asarray(rates)[owner])
            keep = times < horizon_s
            times = times[keep]
            tick_owner = owner[session][keep]
            order = np.lexsort((times, tick_owner))
            times = times[order]
            counts = np.bincount(tick_owner, minlength=block)
        else:
            times = np.empty(0, dtype=np.float64)
            counts = np.zeros(block, dtype=np.int64)

        # Pass 2: the per-event normals, from each user's own generator.
        noise_draws: list[np.ndarray] = []
        rtt_draws: list[np.ndarray] = []
        for rng, count in zip(rngs, counts.tolist()):
            if count:
                noise_draws.append(rng.standard_normal(count))
                rtt_draws.append(rng.standard_normal(count))
        if noise_draws:
            noise = 1.0 + self.noise_fraction * np.concatenate(noise_draws)
            rtt_ms = self.policy.cloud.rtt_ms_from_normals(
                np.concatenate(rtt_draws))
        else:
            noise = rtt_ms = times  # no events in the block: all empty

        single_region = self.regions[0] if len(self.regions) == 1 else None
        materialised = []
        bounds = [0, *np.cumsum(counts).tolist()]
        for position, (user_id, seed, scenario, device, graph, task,
                       start_fraction) in enumerate(users):
            view = slice(bounds[position], bounds[position + 1])
            user = VirtualUser(
                user_id=user_id,
                device=device,
                graph=graph,
                task=task,
                scenario=scenario,
                backend=self._backend_for(device, graph),
                seed=seed,
                region=(single_region if single_region is not None else
                        derive_user_region(self.seed, user_id, self.regions)),
            )
            plan = UserPlan(
                times=times[view],
                noise=noise[view],
                rtt_ms=rtt_ms[view],
                start_battery_fraction=start_fraction,
            )
            materialised.append((user, plan))
        return materialised
