"""Block ingestion is the per-user path, byte for byte (hypothesis).

A differential test in the sense of generated semantic-conflict tests: the
block path (``FleetSimulator.run_to_store`` — users simulated a padded
block at a time, appended as one batch per block) is compared against the
per-user reference (``simulate_user`` plus one ``column_batch`` append per
trace) on generated populations, and must seal byte-identical segments.
A second property fixes the block budget so blocks close mid-population,
and the writer property checks that how a batch stream is split into
``append_batch`` calls never changes what is sealed.  Segment sha256 lists
of fixed (spec, seed) inputs are pinned to the values the per-user
simulator wrote before block evaluation existed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign import ambient_spec, synthetic_fleet_batch
from repro.campaign.workloads import zoo_spec
from repro.cloud.load import FIG15_API_NAMES, ServiceTable
from repro.devices.battery import RechargeSchedule
from repro.devices.device import PHONES
from repro.fleet import (DiurnalProfile, FleetSimulator, FleetSpec,
                         QueuePolicy, RoutingPolicy, congested_population,
                         zoo_population)
from repro.store import ResultStore, kind_for

HOUR = 3600.0


def _service_table(spec: FleetSpec, seed: int) -> ServiceTable:
    """A frozen service table with a different value in every cell."""
    bins = int(np.ceil(spec.horizon_s / 900.0))
    rng = np.random.default_rng(seed)
    grid = 45.0 + 200.0 * rng.random(
        (len(spec.regions), len(FIG15_API_NAMES), bins))
    return ServiceTable(spec.regions, FIG15_API_NAMES, 900.0, grid)


#: name -> (spec builder(users, seed), user-count ceiling).  Dense and
#: queueing families get short horizons and few users to stay fast.
FAMILIES = {
    "ambient": (lambda users, seed: ambient_spec(users, seed=seed), 300),
    "zoo": (lambda users, seed: zoo_spec(users, seed=seed,
                                         horizon_s=2 * HOUR), 12),
    "diurnal": (lambda users, seed: FleetSpec(
        graphs_with_tasks=zoo_population(), num_users=users,
        horizon_s=6 * HOUR, seed=seed,
        diurnal=DiurnalProfile.default()), 10),
    "recharge": (lambda users, seed: replace(
        ambient_spec(users, seed=seed, horizon_s=3 * 86400.0),
        recharge=RechargeSchedule(start_hour=2.0, duration_h=3.0,
                                  level=0.9)), 120),
    "queue_shed": (lambda users, seed: FleetSpec(
        graphs_with_tasks=congested_population(), num_users=users,
        horizon_s=4 * HOUR, devices=(PHONES[0],), seed=seed,
        policy=RoutingPolicy(queue=QueuePolicy(max_wait_ms=2000.0))), 5),
    "service_table": (lambda users, seed: replace(
        zoo_spec(users, seed=seed, horizon_s=2 * HOUR),
        regions=("east", "west")), 12),
}


def _simulator(family: str, users: int, seed: int) -> FleetSimulator:
    spec = FAMILIES[family][0](users, seed)
    table = _service_table(spec, seed) if family == "service_table" else None
    return FleetSimulator(spec, max_workers=1, service_table=table)


def _segment_shas(store: ResultStore) -> list[str]:
    return [meta.sha256 for meta in store.segments]


def _per_user_store(simulator: FleetSimulator, path, rows_per_segment: int
                    ) -> ResultStore:
    """The reference: one ``column_batch`` append per simulated user."""
    store = ResultStore(path)
    kind = kind_for("fleet_events")
    with store.writer(rows_per_segment=rows_per_segment) as writer:
        for user_id in range(simulator.spec.num_users):
            writer.append_batch(
                kind, simulator.simulate_user(user_id).column_batch())
    return store


@st.composite
def populations(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    users = draw(st.integers(min_value=1, max_value=FAMILIES[family][1]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return family, users, seed


@given(population=populations(),
       rows_per_segment=st.integers(min_value=64, max_value=4096))
@example(population=("zoo", 12, 0), rows_per_segment=64)
@example(population=("ambient", 300, 3), rows_per_segment=64)
@example(population=("recharge", 40, 1), rows_per_segment=64)
@settings(max_examples=25, deadline=None)
def test_block_run_to_store_matches_per_user_path(tmp_path_factory, population,
                                                  rows_per_segment):
    family, users, seed = population
    base = tmp_path_factory.mktemp("blocks")
    simulator = _simulator(family, users, seed)
    reference = _per_user_store(simulator, base / "per_user.store",
                                rows_per_segment)
    rows = simulator.run_to_store(base / "block.store",
                                  rows_per_segment=rows_per_segment)
    block = ResultStore(base / "block.store")
    assert rows == reference.num_rows("fleet_events")
    assert _segment_shas(block) == _segment_shas(reference)


@given(population=populations(),
       max_cells=st.integers(min_value=1, max_value=2000))
@example(population=("recharge", 30, 5), max_cells=3)
@example(population=("queue_shed", 5, 17), max_cells=50)
@settings(max_examples=25, deadline=None)
def test_any_block_budget_gives_per_user_traces(population, max_cells):
    family, users, seed = population
    simulator = _simulator(family, users, seed)
    traces = simulator._simulate_blocks(range(users), max_cells)
    assert [trace.user.user_id for trace in traces] == list(range(users))
    for trace in traces:
        alone = simulator.simulate_user(trace.user.user_id)
        for field in ("times_s", "latency_ms", "energy_mj", "throttle",
                      "battery_fraction", "discharge_mah", "wait_ms",
                      "route"):
            assert np.array_equal(getattr(trace, field),
                                  getattr(alone, field)), field


@given(rows=st.integers(min_value=0, max_value=300),
       rows_per_segment=st.integers(min_value=8, max_value=64),
       splits=st.lists(st.lists(st.integers(min_value=0, max_value=300),
                                max_size=12), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_writer_seals_the_same_segments_for_any_split(tmp_path_factory, rows,
                                                      rows_per_segment,
                                                      splits):
    stream = synthetic_fleet_batch(0, rows, seed=rows_per_segment)
    base = tmp_path_factory.mktemp("splits")
    sealed = []
    for index, cuts in enumerate(splits):
        store = ResultStore(base / f"split-{index}.store")
        edges = [0, *sorted(min(cut, rows) for cut in cuts), rows]
        appended = 0
        with store.writer(rows_per_segment=rows_per_segment) as writer:
            for lo, hi in zip(edges, edges[1:]):
                writer.append_batch("fleet_events", {
                    name: array[lo:hi] for name, array in stream.items()})
                appended += hi - lo
                pending = appended - writer.rows_committed
                assert writer.rows_pending == pending
                assert writer.batch_rows_pending("fleet_events") == pending
                assert pending < rows_per_segment
        assert writer.rows_pending == 0
        assert writer.rows_committed == rows
        sealed.append(_segment_shas(store))
    assert all(shas == sealed[0] for shas in sealed)


#: Segment sha256 lists (hashed together) that the per-user simulator wrote
#: for these inputs before block evaluation, at the given segment size.
PINNED = {
    ("ambient", 1000, 0, 8192):
        "713ff42fcaa7105144a59c6c71b2832eee22187a199014ee57b38a00dfab3f1e",
    ("zoo_1h", 150, 0, 8192):
        "82eaba5c665a2b38861977f9866a75e54d565280b6b3ddd36889708ef42af76a",
    ("diurnal", 30, 6, 4096):
        "6d03baa5437ced73e0ab46281575a47670795c2cabc8915e5eecbeab99684a9b",
    ("recharge", 20, 2, 2048):
        "d38a3ad5e93eba5990567b30c70a8af4c6041750ebfb6146b22daa6054bab01e",
}


def _pinned_spec(name: str, users: int, seed: int) -> FleetSpec:
    if name == "ambient":
        return ambient_spec(users, seed=seed)
    if name == "zoo_1h":
        return zoo_spec(users, seed=seed, horizon_s=HOUR)
    if name == "diurnal":
        return FleetSpec(graphs_with_tasks=zoo_population(),
                         num_users=users, horizon_s=86400.0, seed=seed,
                         diurnal=DiurnalProfile.default())
    return FleetSpec(graphs_with_tasks=zoo_population(), num_users=users,
                     horizon_s=3 * 86400.0, seed=seed,
                     recharge=RechargeSchedule(start_hour=2.0, duration_h=3.0,
                                               level=0.9))


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: key[0])
def test_segments_match_the_per_user_simulator(tmp_path, key):
    import hashlib

    name, users, seed, rows_per_segment = key
    FleetSimulator(_pinned_spec(name, users, seed), max_workers=1
                   ).run_to_store(tmp_path, rows_per_segment=rows_per_segment)
    shas = _segment_shas(ResultStore(tmp_path))
    assert hashlib.sha256("".join(shas).encode()).hexdigest() == PINNED[key]


# --------------------------------------------------------------------------- #
# Block-native ingest: column batches and load counts from a block's arrays
# --------------------------------------------------------------------------- #
def _blocks(simulator: FleetSimulator, max_cells: int) -> list:
    return simulator._run_blocks(range(simulator.spec.num_users), max_cells)


def _spans(size: int, draw) -> list[tuple[int, int]]:
    """The whole block, two halves, and one drawn user range."""
    lo = draw(st.integers(min_value=0, max_value=size))
    hi = draw(st.integers(min_value=lo, max_value=size))
    return [(0, size), (0, size // 2), (size // 2, size), (lo, hi)]


@given(population=populations(), max_cells=st.integers(1, 4000),
       data=st.data())
@example(population=("ambient", 300, 1), max_cells=50, data=None)
@example(population=("service_table", 12, 2), max_cells=4000, data=None)
@settings(max_examples=25, deadline=None)
def test_block_column_batch_equals_per_user_reference(population, max_cells,
                                                      data):
    from repro.fleet.simulator import fleet_events_batch
    from repro.store.columnar import coerce_batch

    simulator = _simulator(*population)
    kind = kind_for("fleet_events")
    for block in _blocks(simulator, max_cells):
        traces = block.traces()
        spans = [(0, len(traces))] if data is None else \
            _spans(len(traces), data.draw)
        for start, stop in spans:
            batch = block.column_batch(start, stop)
            reference = fleet_events_batch(traces[start:stop])
            assert list(batch) == list(reference)
            for name, array in batch.items():
                assert array.dtype == reference[name].dtype, name
                assert np.array_equal(array, reference[name]), name
            # No hidden copies: every column is chain-read-only, so the
            # writer adopts it as it is.
            coerced = coerce_batch(kind, batch)
            for name in batch:
                assert coerced[name] is batch[name], name


def _load_profiles(simulator: FleetSimulator, max_cells: int):
    from repro.cloud.load import LoadProfile

    spec = simulator.spec
    by_block = LoadProfile(spec.regions, spec.horizon_s, 900.0)
    by_trace = LoadProfile(spec.regions, spec.horizon_s, 900.0)
    added = per_trace = 0
    for block in _blocks(simulator, max_cells):
        added += by_block.add_block(block)
        per_trace += sum(by_trace.add_trace(trace)
                         for trace in block.traces())
    return (added, by_block), (per_trace, by_trace)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [1, 2])
def test_add_block_equals_add_trace(family, seed):
    simulator = _simulator(family, FAMILIES[family][1], seed)
    (added, by_block), (per_trace, by_trace) = _load_profiles(simulator, 200)
    assert added == per_trace
    assert np.array_equal(by_block.requests, by_trace.requests)
    assert np.array_equal(by_block.payload_bytes, by_trace.payload_bytes)


def test_add_block_counts_blocks_with_empty_users():
    # Four hours leave many Ambient users without events; a one-cell
    # budget closes a block before every user with events.
    simulator = FleetSimulator(ambient_spec(60, seed=3, horizon_s=4 * HOUR),
                               max_workers=1)
    blocks = _blocks(simulator, 1)
    assert any((block.counts == 0).any() for block in blocks)
    (added, by_block), (per_trace, by_trace) = _load_profiles(simulator, 1)
    assert added == per_trace > 0
    assert np.array_equal(by_block.requests, by_trace.requests)
    assert np.array_equal(by_block.payload_bytes, by_trace.payload_bytes)


#: ``ShardResult.offloaded`` and the merged ``fleet_load`` segment sha256 of
#: a 2-shard zoo campaign, as shards counting one ``add_trace`` per trace
#: wrote them.
CAMPAIGN_LOAD = (
    (7672, 2009),
    "2629180e44a5007f093c999d8a02e7d487068879b1cee2fa76091b77f092c991")


def test_campaign_load_rows_match_per_trace_counting(tmp_path):
    from repro.campaign import run_campaign
    from repro.cloud.load import LoadProfile

    spec = zoo_spec(24, seed=2, horizon_s=2 * HOUR)
    run = run_campaign(spec, tmp_path / "campaign", shards=2,
                       max_parallel=1, use_processes=False)
    offloaded = tuple(shard.offloaded for shard in run.shard_results)
    shas = [meta.sha256 for meta in run.store.segments_for("fleet_load")]
    assert (offloaded, shas) == (CAMPAIGN_LOAD[0], [CAMPAIGN_LOAD[1]])

    profile = LoadProfile(spec.regions, spec.horizon_s, 900.0)
    simulator = FleetSimulator(spec, max_workers=1)
    assert sum(profile.add_trace(trace)
               for trace in simulator.iter_traces()) == run.offloaded
    rows = run.store.query("fleet_load").arrays("region", "cloud_api",
                                                "bin_index", "requests",
                                                "payload_bytes")
    expected = profile.column_batch()
    for name, array in rows.items():
        assert np.array_equal(array, expected[name]), name


# --------------------------------------------------------------------------- #
# Columnar users: codes and flat plan arrays, no per-user objects
# --------------------------------------------------------------------------- #
@st.composite
def column_blocks(draw):
    """A FAMILIES spec, optionally multi-region, diurnal or one minute long
    (most users then draw no session), and ids with gaps and repeats."""
    family, users, seed = draw(populations())
    spec = FAMILIES[family][0](users, seed)
    spec = replace(
        spec,
        regions=draw(st.sampled_from([spec.regions,
                                      ("east", "west", "south")])),
        diurnal=draw(st.sampled_from([spec.diurnal,
                                      DiurnalProfile.default()])),
        horizon_s=draw(st.sampled_from([spec.horizon_s, 60.0])))
    ids = draw(st.lists(st.integers(0, spec.num_users - 1), max_size=40))
    return spec, ids


@given(block=column_blocks())
@example(block=(ambient_spec(40, seed=2, horizon_s=60.0), [3, 3, 0, 39, 3]))
@example(block=(replace(zoo_spec(6, seed=4, horizon_s=HOUR),
                        regions=("east", "west", "south")), [5, 1, 5]))
@settings(max_examples=40, deadline=None)
def test_column_codes_decode_to_the_reference(block):
    from repro.fleet.reference import materialize_reference

    spec, ids = block
    columns = spec.materialize_columns(ids)
    assert len(columns) == len(ids)
    assert columns.offsets[0] == 0
    assert columns.offsets[-1] == columns.times.size
    for position, user_id in enumerate(ids):
        user, plan = materialize_reference(spec, user_id)
        device = spec.devices[columns.device[position]]
        graph, task = spec.graphs_with_tasks[columns.graph[position]]
        assert columns.user_ids[position] == user_id
        assert columns.seeds[position] == user.seed
        assert device is user.device
        assert graph is user.graph and task == user.task
        assert spec.scenarios[columns.scenario[position]] is user.scenario
        assert spec._backend_for(device, graph) is user.backend
        assert spec.regions[columns.region[position]] == user.region
        assert columns.start_fraction[position] \
            == plan.start_battery_fraction
        view = slice(columns.offsets[position], columns.offsets[position + 1])
        for name in ("times", "noise", "rtt_ms"):
            array, ref = getattr(columns, name)[view], getattr(plan, name)
            assert array.dtype == ref.dtype, name
            assert array.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("seed", [1, 2])
def test_grouped_service_lookup_equals_per_user_service_for(seed):
    simulator = _simulator("service_table", FAMILIES["service_table"][1],
                           seed)
    table = simulator.service_table
    for block in _blocks(simulator, 200):
        expected = [table.service_for(trace.user.region, trace.cloud_api,
                                      trace.times_s)
                    for trace in block.traces()]
        assert block.service.tobytes() == np.concatenate(expected).tobytes()


def test_store_paths_build_no_per_user_objects(monkeypatch, tmp_path):
    from repro.campaign.coordinator import ShardTask, _run_shard
    from repro.cloud import (ApiCapacity, CapacityModel, CloudRegion,
                             InterferenceSimulator)
    from repro.fleet import population

    built = {"VirtualUser": 0, "UserPlan": 0}
    for name in built:
        def counting(*args, _name=name, _class=getattr(population, name),
                     **kwargs):
            built[_name] += 1
            return _class(*args, **kwargs)
        monkeypatch.setattr(population, name, counting)

    spec = replace(zoo_spec(12, seed=1, horizon_s=2 * HOUR),
                   regions=("east", "west"))
    FleetSimulator(spec, max_workers=1).run_to_store(
        tmp_path / "fleet.store", rows_per_segment=256)
    _run_shard(ShardTask(spec=spec, shard_index=0, lo=2, hi=11,
                         root=str(tmp_path / "shard.store")))
    capacity = CapacityModel(
        regions=(CloudRegion("east"), CloudRegion("west")),
        default=ApiCapacity(base_service_ms=45.0, servers=3,
                            per_server_rps=2.0))
    InterferenceSimulator(spec, capacity, max_workers=1).run_to_store(
        tmp_path / "cloud.store")
    assert built == {"VirtualUser": 0, "UserPlan": 0}

    # The per-user views are still there for the callers that ask for them.
    traces = list(FleetSimulator(spec, max_workers=1).iter_traces())
    assert built == {"VirtualUser": len(traces), "UserPlan": len(traces)}
