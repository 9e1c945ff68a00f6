"""Ordered, bounded fan-out over a thread or process pool.

The fleet sweep, the fleet traffic simulator and the campaign
coordinator all dispatch many deterministic jobs and need the same
streaming discipline:

* results come back **in submission order** regardless of completion order,
  so downstream consumers (store writers, reports) see a deterministic
  stream;
* consecutive jobs are batched into **chunked slices** so tiny analytic jobs
  amortise pool dispatch;
* a **bounded submission window** keeps only a few chunks in flight per
  worker, so a slow consumer (e.g. a disk writer) exerts backpressure and
  completed results never pile up in undrained futures — the memory-flat
  property million-job streams rely on.

:func:`iter_mapped_chunks` is that discipline, extracted once; callers
provide a per-chunk callable and consume a flat iterator of per-item
results.  The simulators fan out on threads only: their slices are too
small to repay a process pool's fork and pickling cost.  Process fan-out
(``use_processes``, with a picklable chunk callable) belongs to the
campaign coordinator's shard processes (:func:`repro.campaign.run_campaign`),
whose per-shard work does.  Query scans do not fan out at all: one pass
over a column view is cheaper on the calling thread than split across
threads.

On the process branch the caller is one of the workers: of every
``max_workers`` consecutive slices it runs the first itself, unpickled,
while a pool one worker smaller works on the others, and it drains the
pool's results in slice order.  A worker cap therefore counts the
caller, and a cap of one (or a single slice) forks nothing.

Being the single fan-out point also makes this the single telemetry
stitch point (:mod:`repro.obs`): when a collector is enabled, process
workers run each chunk under a fresh worker-local collector and ship its
snapshot back alongside the results — exactly as ``MergeStats`` rides
back from campaign shards — and the coordinator absorbs it, re-parenting
the worker's spans under whichever span submitted the fan-out.  The
slice the caller runs itself records straight into the coordinator's
collector, under that same span.  Thread workers share the coordinator's
collector directly and only need their parent stack seeded.  With
telemetry disabled (the default), the only extra cost on this path is one
``get_collector()`` check per call.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent import futures
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from repro import obs

__all__ = ["iter_mapped_chunks", "resolve_workers"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def resolve_workers(num_items: int, max_workers: Optional[int]) -> int:
    """Worker count for a job list: one per item, up to the explicit cap
    (else up to the CPUs).

    Never more workers than items: a forking process pool starts every
    worker it is sized for, even when fewer tasks arrive.
    """
    if max_workers is not None and max_workers <= 0:
        raise ValueError("max_workers must be positive when given")
    cap = max_workers if max_workers is not None else os.cpu_count() or 1
    return max(1, min(num_items, cap))


def iter_mapped_chunks(
    run_chunk: Callable[[Sequence[ItemT]], Sequence[ResultT]],
    items: Sequence[ItemT],
    *,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    use_processes: bool = False,
) -> Iterator[ResultT]:
    """Map ``run_chunk`` over ``items`` on a pool, streaming results in order.

    ``run_chunk`` receives a slice of consecutive items and returns the
    slice's results in slice order (one per item, or one per group of
    items, as the fleet simulator's blocks are); the iterator yields the
    concatenation in the original item order.  Slices hold ``chunk_size``
    items (one when it is not given) and never more workers run than
    there are slices.  With one worker everything runs inline — no pool,
    no reordering risk, no pickling.  With ``use_processes`` the caller
    counts as one of the ``max_workers``: it runs every ``max_workers``-th
    slice itself, the first among them, beside a process pool one worker
    smaller that takes the rest.  ``run_chunk`` must be picklable when
    ``use_processes`` is set (e.g. a bound method of a picklable object).
    """
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError("chunk_size must be positive when given")
    if not items:
        return
    collector = obs.get_collector()
    if collector is not None:
        # Deterministic regardless of how the items end up chunked.
        collector.count("pool.items_mapped", len(items))
    chunk = chunk_size or 1
    workers = resolve_workers(-(-len(items) // chunk), max_workers)
    if workers <= 1:
        for lo in range(0, len(items), chunk):
            yield from run_chunk(items[lo:lo + chunk])
        return

    slices = enumerate(items[i:i + chunk]
                       for i in range(0, len(items), chunk))

    submitted = run_chunk
    pool_workers = workers
    stitch_parent: Optional[int] = None
    if use_processes:
        # The caller is a worker too: it runs every ``workers``-th slice,
        # the first among them, and the pool is one worker smaller, so
        # forking never outnumbers the cap.
        pool_workers -= 1
        if collector is not None:
            submitted = _CollectingChunk(run_chunk)
            stitch_parent = collector.current_span_id()
    elif collector is not None:
        submitted = _seeded_chunk(run_chunk, collector,
                                  collector.current_span_id())

    pool_cls = (futures.ProcessPoolExecutor if use_processes
                else futures.ThreadPoolExecutor)
    with pool_cls(max_workers=pool_workers) as pool:
        # In slice order: the pool's futures and the caller's own slices.
        pending: deque = deque()
        in_pool = 0

        def top_up() -> None:
            nonlocal in_pool
            while in_pool < pool_workers * 2:
                index, slice_ = next(slices, (0, None))
                if slice_ is None:
                    return
                if use_processes and index % workers == 0:
                    pending.append(slice_)
                else:
                    pending.append(pool.submit(submitted, slice_))
                    in_pool += 1

        top_up()
        while pending:
            head = pending.popleft()
            if not isinstance(head, futures.Future):
                # Runs while the pool works, its spans directly under the
                # submitting span.
                yield from run_chunk(head)
                continue
            batch = head.result()
            in_pool -= 1
            top_up()
            if stitch_parent is not None:
                batch, snapshot = batch
                collector.absorb(snapshot, parent_id=stitch_parent)
            yield from batch


class _CollectingChunk:
    """Process-pool chunk wrapper: collect worker telemetry, ship it back.

    Installs a **fresh** collector in the worker for the chunk's duration
    (never a fork-inherited one — that would double-count into a
    collector whose snapshot never leaves the worker) and returns
    ``(results, snapshot)`` for the coordinator to absorb.
    """

    __slots__ = ("run_chunk",)

    def __init__(self, run_chunk: Callable) -> None:
        self.run_chunk = run_chunk

    def __call__(self, items: Sequence):
        worker = obs.Collector()
        previous = obs._install(worker)
        try:
            results = self.run_chunk(items)
        finally:
            obs._install(previous)
        return results, worker.snapshot()


def _seeded_chunk(run_chunk: Callable, collector, parent_id: int) -> Callable:
    """Thread-pool chunk wrapper: seed the worker thread's parent stack.

    Worker threads share the coordinator's collector, but their
    thread-local parent stacks start empty — without seeding, chunk spans
    would all become roots instead of children of the submitting span.
    """

    def run(items: Sequence):
        token = collector.push_parent(parent_id)
        try:
            return run_chunk(items)
        finally:
            collector.pop_parent(token)

    return run
