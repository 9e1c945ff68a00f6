"""The campaign coordinator: shard, simulate, adopt, add.

A campaign run is four deterministic steps:

1. **Shard** — :func:`shard_ranges` splits ``[0, num_users)`` into
   contiguous, balanced half-open ranges.  Contiguity matters: adopting
   shard segments in shard order then reproduces the unsharded run's
   (user, time) event order exactly.
2. **Simulate** — the coordinator runs the first :class:`ShardTask` (and
   every ``max_parallel``-th after it) itself and the rest in shard
   processes (:func:`~repro.runtime.pool.iter_mapped_chunks` over the task
   list), each streaming its users into a shard-local store a simulated
   block at a time (:func:`~repro.fleet.simulator.append_block`, exactly the
   ``run_to_store`` path) and counting each block's offloads into the
   shard's :class:`~repro.cloud.load.LoadProfile`
   (:meth:`~repro.cloud.load.LoadProfile.add_block`).  Per-user seeds
   (:func:`~repro.fleet.population.derive_user_seed`) make each shard's
   output independent of every other shard.  The shard processes are
   forked once per process and reused by every later campaign (a
   one-shot CLI run forks once, as before).  They run the code, and hold
   the open files and mappings, of the moment they were forked, so a
   shard reads everything through its pickled task and the module-level
   shard body, never through state set up after the fork.
3. **Adopt** — the merged store takes ownership of every shard's sealed
   ``fleet_events`` segments by hard link
   (:func:`~repro.store.merge.adopt_segments`): no row is rewritten, no
   checksum recomputed; cost is per segment file.
4. **Add** — the shards' integer demand grids sum exactly
   (:meth:`LoadProfile.merge` over the vectorised
   :meth:`LoadProfile.from_store`), and the merged grid seals as one
   ``fleet_load`` segment **in the same manifest commit** as the adopted
   event segments — readers see the whole campaign or none of it.

Bit-identity for any shard count falls out of invariants, not luck:
user materialisation depends only on (base seed, user id); event order
is (user, time) and shards are contiguous user ranges adopted in order;
demand grids are integers under addition.  ``tests/test_campaign.py``
pins all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import obs
from repro.cloud.load import LoadProfile
from repro.fleet.population import FleetSpec
from repro.fleet.simulator import FleetSimulator, append_block
from repro.runtime.pool import iter_mapped_chunks
from repro.store.columnar import coerce_batch
from repro.store.merge import MergeStats, adopt_segments
from repro.store.schema import kind_for
from repro.store.segment import write_columnar_segment
from repro.store.store import ResultStore

__all__ = ["CampaignResult", "ShardResult", "ShardTask", "run_campaign",
           "shard_ranges"]

#: Default segment size of campaign stores (rows per sealed segment).
ROWS_PER_SEGMENT = 65536


def shard_ranges(num_users: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, num_users)`` into ``shards`` contiguous balanced ranges.

    Every range's size is ``num_users // shards`` or one more (the
    remainder spreads over the leading ranges), ranges are returned in
    user order, and their concatenation is exactly ``[0, num_users)`` —
    the properties the merge's order guarantee rests on.  Ranges may be
    empty when ``shards > num_users``.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    if num_users < 0:
        raise ValueError("num_users must be non-negative")
    base, extra = divmod(num_users, shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order (pickled into its shard process, unless the
    coordinator runs it itself)."""

    spec: FleetSpec
    shard_index: int
    lo: int
    hi: int
    #: Shard-local store directory.
    root: str
    rows_per_segment: int = ROWS_PER_SEGMENT
    compress: bool = False
    bin_seconds: float = 900.0


@dataclass(frozen=True)
class ShardResult:
    """What one shard simulated and wrote."""

    shard_index: int
    users: int
    events: int
    offloaded: int
    segments: int
    seconds: float


def _run_shard(task: ShardTask) -> ShardResult:
    """Simulate one user range into its shard-local store (shard body).

    ``ShardResult.seconds`` derives from the shard's ``campaign.shard``
    span (forced, so it measures even with telemetry off); with telemetry
    on the span lands under the coordinator's ``campaign.simulate`` —
    directly for the shard the coordinator runs itself, re-parented after
    riding back through the pool for the others.
    """
    span = obs.span("campaign.shard", shard=task.shard_index,
                    items=task.hi - task.lo, force=True)
    with span:
        simulator = FleetSimulator(task.spec, max_workers=1)
        store = ResultStore(task.root)
        profile = LoadProfile(task.spec.regions, task.spec.horizon_s,
                              task.bin_seconds)
        events = offloaded = 0
        with store.writer(rows_per_segment=task.rows_per_segment,
                          compress=task.compress) as writer:
            for block in simulator.iter_blocks(
                    (task.lo, task.hi),
                    rows_per_segment=task.rows_per_segment):
                offloaded += profile.add_block(block)
                events += append_block(writer, block)
            # The shard's demand grid rides in the same store; the merge
            # rebuilds and sums the grids rather than adopting these rows.
            writer.append_batch("fleet_load", profile.column_batch())
    return ShardResult(shard_index=task.shard_index,
                       users=task.hi - task.lo, events=events,
                       offloaded=offloaded,
                       segments=writer.segments_sealed,
                       seconds=span.duration_s)


def _run_shard_chunk(tasks: Sequence[ShardTask]) -> list[ShardResult]:
    """Pool chunk body: one shard per task, in order."""
    return [_run_shard(task) for task in tasks]


@dataclass(frozen=True)
class CampaignResult:
    """A finished campaign: where the merged store is and what it holds."""

    store_root: str
    users: int
    events: int
    offloaded: int
    shard_results: tuple[ShardResult, ...]
    merge: MergeStats
    simulate_seconds: float
    merge_seconds: float

    @property
    def store(self) -> ResultStore:
        """Open the merged store."""
        return ResultStore(self.store_root)


def run_campaign(spec: FleetSpec, root: Union[str, Path], *,
                 shards: int, bin_seconds: float = 900.0,
                 rows_per_segment: int = ROWS_PER_SEGMENT,
                 compress: bool = False,
                 max_parallel: Optional[int] = None,
                 use_processes: bool = True) -> CampaignResult:
    """Run ``spec``'s whole population sharded; merge into one store.

    ``root`` becomes the campaign directory: ``shard-NNNN.store`` per
    shard plus the queryable ``merged.store``.  ``shards`` fixes the
    user-range split (output is bit-identical for any value);
    ``max_parallel`` caps the shards simulated at once, this process
    included (default: one per CPU; never more than shards).  This
    process simulates the first of every ``max_parallel`` consecutive
    shards itself while a pool of ``max_parallel - 1`` shard processes
    takes the others, so ``max_parallel=1`` forks nothing; that pool is
    forked by the first campaign in this process and kept for later
    ones.  Shard stores are left in place after the merge — their event
    segments are hard links to the merged store's files, so they cost
    directory entries, not data; delete them freely.
    """
    root = Path(root)
    merged = ResultStore(root / "merged.store")
    if merged.segments:
        raise ValueError(
            f"campaign destination {merged.root} already holds committed "
            f"segments; merge never appends to a finished campaign")
    tasks = [
        ShardTask(spec=spec, shard_index=index, lo=lo, hi=hi,
                  root=str(root / f"shard-{index:04d}.store"),
                  rows_per_segment=rows_per_segment, compress=compress,
                  bin_seconds=bin_seconds)
        for index, (lo, hi) in enumerate(shard_ranges(spec.num_users, shards))
    ]
    # Stage seconds derive from forced spans — measured with telemetry
    # off, additionally traced (with the shard spans re-parented beneath
    # ``campaign.simulate``) when it is on.
    simulate_span = obs.span("campaign.simulate", items=len(tasks),
                             force=True)
    with simulate_span:
        shard_results = tuple(iter_mapped_chunks(
            _run_shard_chunk, tasks,
            max_workers=max_parallel, chunk_size=1,
            use_processes=use_processes,
        ))

    merge_span = obs.span("campaign.merge", items=len(tasks), force=True)
    with merge_span:
        shard_stores = [ResultStore(task.root) for task in tasks]
        adopted, merge_stats = adopt_segments(
            merged, shard_stores, kinds=("fleet_events",))
        profile = LoadProfile(spec.regions, spec.horizon_s, bin_seconds)
        for shard_store in shard_stores:
            profile.merge(LoadProfile.from_store(
                shard_store, spec.regions, spec.horizon_s, bin_seconds))
        metas = list(adopted)
        load_batch = profile.column_batch()
        if load_batch["bin_index"].size:
            load_kind = kind_for("fleet_load")
            metas.append(write_columnar_segment(
                merged.segments_dir, merged._allocate_name("fleet_load"),
                load_kind, coerce_batch(load_kind, load_batch),
                compress=compress))
        if metas:
            # One manifest generation commits the adopted event segments AND
            # the merged demand grid: the only visibility switch of the merge.
            merged._commit(metas)

    return CampaignResult(
        store_root=str(merged.root),
        users=spec.num_users,
        events=sum(result.events for result in shard_results),
        offloaded=sum(result.offloaded for result in shard_results),
        shard_results=shard_results,
        merge=merge_stats,
        simulate_seconds=simulate_span.duration_s,
        merge_seconds=merge_span.duration_s,
    )
