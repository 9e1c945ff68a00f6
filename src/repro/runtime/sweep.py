"""Declarative fleet sweeps: expand, prune, fan out, collect.

The paper's headline measurement is a Cartesian sweep — ~1,600 unique models
x 6 devices x 7 backends x batch sizes x thread configurations — and most of
those combinations either cannot run (SNPE on non-Qualcomm silicon, recurrent
ops on accelerator delegates) or are embarrassingly parallel.  This module
gives the sweep a first-class shape:

* :class:`SweepSpec` declares the product space plus measurement knobs;
* :meth:`SweepSpec.expand` enumerates :class:`SweepJob` combinations in a
  fixed deterministic order, deriving an independent per-job RNG seed from the
  spec seed and the job coordinates, so results do not depend on worker count
  or completion order;
* :class:`SweepRunner` prunes incompatible combinations up front with cheap
  cached checks (device-level and graph-level compatibility are each evaluated
  once per (device|graph, backend) pair, not once per job), then fans the
  surviving jobs out across a thread pool — optionally in
  ``chunk_size`` batched job slices so tiny analytic jobs amortise dispatch —
  and streams :class:`~repro.runtime.executor.ExecutionResult` values in job
  order: to an optional callback and the returned list (:meth:`SweepRunner.run`),
  as a pull-style iterator that retains nothing (:meth:`SweepRunner.iter_results`),
  or straight into a persistent, crash-safe results store
  (:meth:`SweepRunner.run_to_store`), ready for the records/reports layer.

Workers share :class:`~repro.dnn.graph.Graph` instances, whose memoised
aggregates make each job a handful of array ops; races on a graph's memo are
benign because every cached value is a deterministic pure function.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro import obs
from repro.devices.device import Device
from repro.devices.scheduler import ThreadConfig
from repro.dnn.graph import Graph
from repro.runtime.backends import Backend, profile_for
from repro.runtime.executor import ExecutionResult, Executor
from repro.runtime.pool import iter_mapped_chunks

__all__ = ["SweepJob", "SweepSpec", "SweepRunner", "derive_job_seed"]


def derive_job_seed(base_seed: int, device_name: str, model_name: str,
                    backend: Backend, batch_size: int, thread_label: str) -> int:
    """Deterministic 64-bit RNG seed for one job of a sweep.

    Depends only on the spec seed and the job's own coordinates — never on
    expansion order, pruning decisions or scheduling — which is what makes
    sweep results reproducible under any worker count and any job subset.
    """
    material = (f"{base_seed}|{device_name}|{model_name}|{backend.value}"
                f"|{batch_size}|{thread_label}")
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True, eq=False)
class SweepJob:
    """One fully-specified (device, model, backend, batch, threads) job."""

    device: Device
    graph: Graph
    backend: Backend
    batch_size: int = 1
    threads: Optional[ThreadConfig] = None
    num_inferences: int = 10
    warmup: int = 2
    seed: int = 0

    @property
    def thread_label(self) -> str:
        """Fig. 12-style thread label (``auto`` when unpinned default)."""
        return self.threads.label if self.threads is not None else "auto"


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a fleet sweep.

    ``thread_configs`` may contain ``None`` entries meaning "let the scheduler
    pick" (the executor's default).  ``seed`` is the base of every derived
    per-job seed.
    """

    devices: tuple[Device, ...]
    graphs: tuple[Graph, ...]
    backends: tuple[Backend, ...] = (Backend.CPU,)
    batch_sizes: tuple[int, ...] = (1,)
    thread_configs: tuple[Optional[ThreadConfig], ...] = (None,)
    num_inferences: int = 10
    warmup: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "graphs", tuple(self.graphs))
        object.__setattr__(
            self, "backends", tuple(Backend(b) for b in self.backends))
        object.__setattr__(
            self, "batch_sizes", tuple(int(b) for b in self.batch_sizes))
        object.__setattr__(self, "thread_configs", tuple(self.thread_configs))
        if not self.devices:
            raise ValueError("SweepSpec requires at least one device")
        if not self.backends:
            raise ValueError("SweepSpec requires at least one backend")
        if not self.batch_sizes:
            raise ValueError("SweepSpec requires at least one batch size")
        if not self.thread_configs:
            raise ValueError("SweepSpec requires at least one thread config")
        if any(b <= 0 for b in self.batch_sizes):
            raise ValueError("batch sizes must be positive")
        if self.num_inferences <= 0:
            raise ValueError("num_inferences must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")

    @property
    def num_combinations(self) -> int:
        """Size of the unpruned Cartesian product."""
        return (len(self.devices) * len(self.graphs) * len(self.backends)
                * len(self.batch_sizes) * len(self.thread_configs))

    def expand(self) -> Iterator[SweepJob]:
        """Enumerate every combination in deterministic nesting order."""
        for device in self.devices:
            for graph in self.graphs:
                for backend in self.backends:
                    for batch_size in self.batch_sizes:
                        for threads in self.thread_configs:
                            label = (threads.label if threads is not None
                                     else "auto")
                            yield SweepJob(
                                device=device,
                                graph=graph,
                                backend=backend,
                                batch_size=batch_size,
                                threads=threads,
                                num_inferences=self.num_inferences,
                                warmup=self.warmup,
                                seed=derive_job_seed(
                                    self.seed, device.name, graph.name,
                                    backend, batch_size, label),
                            )


class SweepRunner:
    """Expands a :class:`SweepSpec`, prunes it, and runs it on a worker pool.

    ``chunk_size`` batches consecutive jobs into per-worker slices so each
    pool task amortises its dispatch overhead over many tiny analytic jobs
    (the GIL-bound regime a per-job thread fan-out loses in).  Neither it
    nor ``max_workers`` can change any number: every job's RNG seed is
    derived from its own coordinates, so results are bit-identical across
    worker counts and chunk sizes.
    """

    def __init__(self, spec: SweepSpec, *, max_workers: Optional[int] = None,
                 noise_fraction: float = 0.02,
                 include_screen_power: bool = False,
                 chunk_size: Optional[int] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive when given")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive when given")
        self.spec = spec
        self.max_workers = max_workers
        self.noise_fraction = noise_fraction
        self.include_screen_power = include_screen_power
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #
    def compatible_jobs(self) -> list[SweepJob]:
        """Expanded jobs minus combinations that cannot run.

        Compatibility splits into a device-level part (vendor / accelerator
        requirements) and a graph-level part (framework + operator coverage);
        each part is evaluated once per (device|graph, backend) pair and
        reused across the rest of the product, so pruning a large sweep costs
        far less than one executor run.
        """
        with obs.span("sweep.prune", items=self.spec.num_combinations):
            jobs = self._expand_compatible()
        obs.count("sweep.jobs_compatible", len(jobs))
        obs.count("sweep.jobs_pruned",
                  self.spec.num_combinations - len(jobs))
        return jobs

    def _expand_compatible(self) -> list[SweepJob]:
        """The pruning loop proper (span-wrapped by :meth:`compatible_jobs`)."""
        device_ok: dict[tuple[str, Backend], bool] = {}
        graph_ok: dict[tuple[int, Backend], bool] = {}
        jobs: list[SweepJob] = []
        for job in self.spec.expand():
            device_key = (job.device.name, job.backend)
            ok = device_ok.get(device_key)
            if ok is None:
                profile = profile_for(job.backend)
                ok = not (profile.requires_qualcomm
                          and job.device.soc.vendor != "Qualcomm")
                ok = ok and not (profile.requires_accelerator
                                 and job.device.soc.accelerator(profile.target)
                                 is None)
                device_ok[device_key] = ok
            if not ok:
                continue
            graph_key = (id(job.graph), job.backend)
            ok = graph_ok.get(graph_key)
            if ok is None:
                ok = profile_for(job.backend).supports_graph(job.graph)
                graph_ok[graph_key] = ok
            if ok:
                jobs.append(job)
        return jobs

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run_job(self, job: SweepJob) -> ExecutionResult:
        executor = Executor(
            job.device,
            include_screen_power=self.include_screen_power,
            noise_fraction=self.noise_fraction,
            seed=job.seed,
        )
        return executor.run(
            job.graph,
            job.backend,
            batch_size=job.batch_size,
            threads=job.threads,
            num_inferences=job.num_inferences,
            warmup=job.warmup,
        )

    def _run_chunk(self, jobs: Sequence[SweepJob]) -> list[ExecutionResult]:
        """Run one slice of consecutive jobs serially (one pool task)."""
        collector = obs.get_collector()
        if collector is None:
            return [self._run_job(job) for job in jobs]
        with collector.span("sweep.run_chunk", items=len(jobs)):
            results = [self._run_job(job) for job in jobs]
        collector.count("sweep.jobs_executed", len(results))
        return results

    def iter_results(self) -> Iterator[ExecutionResult]:
        """Stream results in deterministic job order without collecting them.

        This is the memory-flat path for million-job sweeps: results are
        yielded as the pool produces them (held back only as far as order
        preservation requires) and nothing is retained after the caller
        consumes a value.  Seeds are per-job, so the stream is bit-identical
        for any worker count or chunk size.
        """
        # Bounded submission window, chunked slices and in-order draining all
        # live in :func:`repro.runtime.pool.iter_mapped_chunks`, shared with
        # the fleet simulator's user fan-out.
        yield from iter_mapped_chunks(
            self._run_chunk,
            self.compatible_jobs(),
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
        )

    def run(self, on_result: Optional[Callable[[ExecutionResult], None]] = None,
            *, collect: bool = True) -> list[ExecutionResult]:
        """Run every compatible job and return results in job order.

        ``on_result`` is invoked once per result, in the same deterministic
        job order, as results stream in — e.g. to append to a records store or
        feed an incremental report.  With ``collect=False`` the returned list
        stays empty and no result is retained after its callback ran, so a
        million-job sweep holds O(1) results in memory; use
        :meth:`iter_results` for a pull-style stream.
        """
        results: list[ExecutionResult] = []
        for result in self.iter_results():
            if on_result is not None:
                on_result(result)
            if collect:
                results.append(result)
        return results

    def run_to_store(self, store, *, rows_per_segment: int = 4096,
                     on_result: Optional[Callable[[ExecutionResult], None]] = None
                     ) -> int:
        """Stream the sweep into a persistent results store; returns the row count.

        ``store`` is a :class:`~repro.store.store.ResultStore` (or a path to
        create one at).  Results are batched in deterministic job order —
        ``rows_per_segment`` results pivot into one column batch
        (:func:`~repro.store.schema.execution_results_to_columns`) and seal
        as one checksummed columnar segment — so a crash loses at most the
        trailing partial segment and a reopened store serves exactly the
        committed prefix.  Memory holds at most one segment's results.
        """
        from repro.store.schema import execution_results_to_columns
        from repro.store.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        with store.writer(rows_per_segment=rows_per_segment) as writer:
            chunk: list[ExecutionResult] = []
            for result in self.iter_results():
                chunk.append(result)
                if on_result is not None:
                    on_result(result)
                if len(chunk) >= rows_per_segment:
                    writer.append_batch(
                        "executions", execution_results_to_columns(chunk))
                    chunk = []
            if chunk:
                writer.append_batch(
                    "executions", execution_results_to_columns(chunk))
        return writer.rows_committed

    @staticmethod
    def results_by_device(results: Iterable[ExecutionResult]
                          ) -> dict[str, list[ExecutionResult]]:
        """Group sweep results per device name (the reports-layer shape)."""
        grouped: dict[str, list[ExecutionResult]] = {}
        for result in results:
            grouped.setdefault(result.device_name, []).append(result)
        return grouped
