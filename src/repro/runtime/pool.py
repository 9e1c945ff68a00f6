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

That pool is forked once per process and kept: the first process
fan-out forks it, and every later one with the same worker count reuses
it, so a process that runs many campaigns pays for the fork and the
copy-on-write faults it brings once, not per call.  A one-shot CLI run
forks once, as it always did, and the workers are joined at interpreter
exit.  A kept worker runs the code, and holds the open files and
mappings, of the moment it was forked; it sees nothing imported, patched
or opened later.  Chunk callables must therefore be module-level, as
pickling already requires, and everything a chunk reads must reach it
through its items.  A call that ends early cancels its chunks that have
not started and waits for those that have, so no chunk outlives its
call; a pool whose worker died is replaced on the next call.

Being the single fan-out point also makes this the single telemetry
stitch point (:mod:`repro.obs`): when a collector is enabled, process
workers run each chunk under a fresh worker-local collector and ship its
snapshot back alongside the results — exactly as ``MergeStats`` rides
back from campaign shards — and the coordinator absorbs it, re-parenting
the worker's spans under whichever span submitted the fan-out.  When it
is not, each chunk removes whatever collector the kept worker holds, so
telemetry follows the call, never the fork.  The slice the caller runs
itself records straight into the coordinator's collector, under that
same span.  Thread workers share the coordinator's collector directly
and only need their parent stack seeded.  With telemetry disabled (the
default), the only extra cost on this path is one ``get_collector()``
check per call.
"""

from __future__ import annotations

import os
import threading
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
    smaller that takes the rest.  That pool is the process's kept pool,
    forked by the first such call and reused by later ones, so its
    workers run the code of the moment they were forked: ``run_chunk``
    must be picklable when ``use_processes`` is set — a module-level
    function, or a bound method of a picklable object.  When the
    iterator ends early (a chunk or the consumer raised, or it was
    closed), chunks not yet started are cancelled and running ones are
    waited for before it returns.
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
        submitted = _WorkerChunk(run_chunk, collector is not None)
        if collector is not None:
            stitch_parent = collector.current_span_id()
        pool = _kept_process_pool(pool_workers)
    else:
        if collector is not None:
            submitted = _seeded_chunk(run_chunk, collector,
                                      collector.current_span_id())
        pool = futures.ThreadPoolExecutor(max_workers=pool_workers)
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

    try:
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
    finally:
        # An early exit (a chunk or the caller raised, or the consumer
        # closed the iterator) cancels the chunks not yet started and waits
        # for the running ones: none of this call's chunks outlives it.
        submitted_futures = [head for head in pending
                             if isinstance(head, futures.Future)]
        for future in submitted_futures:
            future.cancel()
        futures.wait(submitted_futures)
        if not use_processes:
            pool.shutdown()


#: ``(pool, its worker count)``: the process pool every process fan-out
#: reuses, forked on the first.  Like any live ``ProcessPoolExecutor``, it
#: is joined at interpreter exit by ``concurrent.futures`` itself.
_kept: Optional[tuple] = None
_kept_lock = threading.Lock()


def _kept_process_pool(workers: int) -> futures.Executor:
    """The kept process pool of ``workers`` workers, forked if need be.

    A kept pool of another size is replaced, not reused: a larger one
    would run more chunks at once than the call's cap allows.  So is a
    broken one (a worker died) and one built from a class that is no
    longer ``futures.ProcessPoolExecutor`` (tests stand thread pools in
    for it).  The old pool is shut down first, so its threads are joined
    before the new pool forks.  Callers on several threads share the one
    pool, so they must agree on its worker count: a call that replaces
    it shuts down the pool another call may still be submitting to.
    """
    global _kept
    pool_cls = futures.ProcessPoolExecutor
    with _kept_lock:
        if _kept is not None:
            pool, kept_workers = _kept
            if (type(pool) is pool_cls and kept_workers == workers
                    and not pool._broken):
                return pool
            _kept = None
            pool.shutdown()
        pool = pool_cls(max_workers=workers)
        _kept = (pool, workers)
        return pool


class _WorkerChunk:
    """Process-pool chunk wrapper: the worker's telemetry follows the call.

    A kept worker outlives the call that forked it, so every chunk
    installs its own call's state in the worker: a **fresh** collector
    when the call is traced (never a fork-inherited one — that would
    collect into a collector whose snapshot never leaves the worker), and
    none when it is not.  A traced chunk returns ``(results, snapshot)``
    for the coordinator to absorb.
    """

    __slots__ = ("run_chunk", "traced")

    def __init__(self, run_chunk: Callable, traced: bool) -> None:
        self.run_chunk = run_chunk
        self.traced = traced

    def __call__(self, items: Sequence):
        worker = obs.Collector() if self.traced else None
        obs._install(worker)
        results = self.run_chunk(items)
        return (results, worker.snapshot()) if self.traced else results


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
