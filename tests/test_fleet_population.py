"""Block materialisation is the per-user population, byte for byte (hypothesis).

A differential test in the sense of generated semantic-conflict tests:
:meth:`FleetSpec.materialize_block` (per-user RNG draws, every other step
of the plan once per block) is compared against
:func:`~repro.fleet.reference.materialize_reference` (the whole plan built
one user at a time) on generated specs and generated blocks of user ids.
Every :class:`VirtualUser` field and the bytes of every plan array must
match.  Plan digests of fixed (spec, seed) inputs are pinned to the values
the per-user population produced before block materialisation existed.
The block's seeding (:func:`~repro.fleet.population.seed_states`) is held
to NumPy's own ``SeedSequence`` the same way.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign import ambient_scenario, ambient_spec
from repro.campaign.workloads import zoo_spec
from repro.core.scenarios import Scenario
from repro.devices.battery import RechargeSchedule
from repro.devices.device import PHONES
from repro.dnn.graph import Modality
from repro.fleet import DiurnalProfile, FleetSpec, VirtualUser, zoo_population
from repro.fleet.population import _PrecomputedState, seed_states
from repro.fleet.reference import materialize_reference

HOUR = 3600.0


def _no_inferences(graph) -> int:
    return 0


def _silent_scenario() -> Scenario:
    """A scenario whose arrival rate is zero: its users draw no sessions."""
    return Scenario(name="Silent", task_filter=("sound recognition",),
                    modality=Modality.AUDIO, inference_count=_no_inferences,
                    description="Never issues a request")


@st.composite
def specs(draw) -> FleetSpec:
    """Ambient or zoo populations with every plan-shaping option varied."""
    family = draw(st.sampled_from(["ambient", "zoo", "silent"]))
    # Short horizons leave most users without a session and cut sessions
    # at the horizon mask; zoo days stay short to keep dense users small.
    horizon_s = draw(st.sampled_from(
        [60.0, 0.5 * HOUR, 3 * HOUR] + ([86400.0, 2 * 86400.0]
                                         if family != "zoo" else [])))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    num_users = draw(st.integers(min_value=1, max_value=400))
    if family == "zoo":
        spec = zoo_spec(num_users, seed=seed, horizon_s=horizon_s)
    else:
        spec = ambient_spec(num_users, seed=seed, horizon_s=horizon_s)
        if family == "silent":
            spec = replace(spec, scenarios=(ambient_scenario(),
                                            _silent_scenario()))
    return replace(
        spec,
        diurnal=draw(st.sampled_from([None, DiurnalProfile.default()])),
        regions=draw(st.sampled_from([("global",), ("east", "west", "south")])),
        recharge=draw(st.sampled_from([None, RechargeSchedule()])),
        noise_fraction=draw(st.sampled_from([0.0, 0.02, 0.3])),
        devices=draw(st.sampled_from([PHONES, (PHONES[-1],)])),
    )


@st.composite
def blocks(draw):
    """A spec and a block of its user ids: any order, gaps and repeats."""
    spec = draw(specs())
    ids = st.integers(min_value=0, max_value=spec.num_users - 1)
    user_ids = draw(st.one_of(
        st.lists(ids, min_size=1, max_size=1),
        st.lists(ids, max_size=40),
        st.builds(lambda lo, n: list(range(lo, min(lo + n, spec.num_users))),
                  ids, st.integers(min_value=1, max_value=300)),
    ))
    return spec, user_ids


def _assert_same(actual, expected) -> None:
    (user, plan), (ref_user, ref_plan) = actual, expected
    assert type(user) is VirtualUser
    for field in fields(VirtualUser):
        assert getattr(user, field.name) == getattr(ref_user, field.name), \
            field.name
    assert plan.start_battery_fraction == ref_plan.start_battery_fraction
    assert type(plan.start_battery_fraction) is float
    for name in ("times", "noise", "rtt_ms"):
        array, ref = getattr(plan, name), getattr(ref_plan, name)
        assert array.dtype == ref.dtype and array.shape == ref.shape, name
        assert array.tobytes() == ref.tobytes(), name


@given(block=blocks())
@example(block=(ambient_spec(50, seed=0, horizon_s=60.0), list(range(50))))
@example(block=(ambient_spec(30, seed=4), [29, 3, 17, 3, 0]))
@example(block=(zoo_spec(4, seed=2, horizon_s=2 * HOUR), [2]))
@settings(max_examples=60, deadline=None)
def test_block_matches_per_user_reference(block):
    spec, user_ids = block
    materialised = spec.materialize_block(user_ids)
    assert len(materialised) == len(user_ids)
    for user_id, pair in zip(user_ids, materialised):
        _assert_same(pair, materialize_reference(spec, user_id))


@given(block=blocks())
@settings(max_examples=15, deadline=None)
def test_materialize_is_a_block_of_one(block):
    spec, user_ids = block
    for user_id in user_ids[:5]:
        _assert_same(spec.materialize(user_id),
                     materialize_reference(spec, user_id))


def test_blocks_without_sessions():
    spec = ambient_spec(200, seed=3, horizon_s=1.0)
    materialised = spec.materialize_block(range(200))
    assert all(plan.num_events == 0 for _, plan in materialised)
    for user_id, pair in enumerate(materialised):
        _assert_same(pair, materialize_reference(spec, user_id))
    assert spec.materialize_block([]) == []


def _plan_digest(spec: FleetSpec, pairs) -> str:
    digest = hashlib.sha256()
    for user, plan in pairs:
        digest.update(repr((
            user.user_id, user.device.name, user.graph.name, user.task,
            user.scenario.name, user.backend.name, user.seed, user.region,
            plan.start_battery_fraction)).encode())
        for array in (plan.times, plan.noise, plan.rtt_ms):
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


#: name -> (spec, digest of every user's plan as the per-user population
#: materialised it before block materialisation).
PINNED = {
    "ambient": (lambda: ambient_spec(600, seed=11),
                "4af6c4f8ef8356b006ef88a3bdb32caa2594434cbc4050d16f4d01e3600c11d8"),
    "ambient_5h": (lambda: ambient_spec(300, seed=7, horizon_s=5 * HOUR),
                   "bc9c15cb9a937190be500786bda7db2a61b9ce42f5dabfa84fcb5fb3f82b95ba"),
    "zoo": (lambda: zoo_spec(40, seed=3, horizon_s=6 * HOUR),
            "e706453dbf8d8bfb2b43f25c67c031a4dfaa0a6bf51cd4df42afb5217fc6eda8"),
    "zoo_diurnal_regions": (lambda: FleetSpec(
        graphs_with_tasks=zoo_population(), num_users=30,
        horizon_s=8 * HOUR, seed=5, diurnal=DiurnalProfile.default(),
        regions=("east", "west", "south")),
        "a542716a319a25854df955932d4848dfe37bf35499a9cc83a6171bb14872e777"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_plan_digests(name):
    build, expected = PINNED[name]
    spec = build()
    assert _plan_digest(spec, spec.materialize_block(
        range(spec.num_users))) == expected
    assert _plan_digest(spec, [materialize_reference(spec, user_id)
                               for user_id in range(spec.num_users)]) \
        == expected


@pytest.mark.parametrize("user_ids", [[-1], [0, 5], [2, 0, 5, 1]])
def test_out_of_range_id_raises(user_ids):
    spec = ambient_spec(5, seed=0)
    with pytest.raises(ValueError, match="user_id"):
        spec.materialize_block(user_ids)
    for user_id in (-1, 5):
        with pytest.raises(ValueError, match="user_id"):
            spec.materialize(user_id)


SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
seed_lists = st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                      max_size=50)


@given(seeds=seed_lists)
@example(seeds=[])
@example(seeds=[0])
@example(seeds=[1])
@example(seeds=[2**32 - 1])
@example(seeds=[2**32])
@example(seeds=[2**64 - 1])
@example(seeds=SEED_EDGES)
@settings(max_examples=200, deadline=None)
def test_seed_states_match_seed_sequence(seeds):
    states = seed_states(seeds)
    assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
    for seed, row in zip(seeds, states, strict=True):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes(), seed


@given(seeds=seed_lists)
@example(seeds=SEED_EDGES)
@settings(max_examples=50, deadline=None)
def test_generator_from_row_is_default_rng(seeds):
    for seed, row in zip(seeds, seed_states(seeds), strict=True):
        rng = np.random.Generator(np.random.PCG64(_PrecomputedState(row)))
        reference = np.random.default_rng(seed)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(3).tobytes() == reference.random(3).tobytes()


def test_precomputed_state_holds_only_pcg64_seeding_words():
    state = _PrecomputedState(seed_states([7])[0])
    with pytest.raises(ValueError):
        state.generate_state(8, np.uint64)
    with pytest.raises(ValueError):
        state.generate_state(4, np.uint32)
