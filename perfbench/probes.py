"""Traced runs: spans around the calls into each layer, and their self times.

The program is not edited.  :class:`Tracer` rebinds public functions and
methods of the layer modules to wrappers that open an ``obs.span`` named
after the layer (``store.segment.seal``, ``serve.service.query``, ...),
turns the existing :mod:`repro.obs` collector on, and restores every
binding on exit.  The wrapper spans therefore nest with the spans the
program already emits (``campaign.shard``, ``store.flush``,
``serve.request``), and spans recorded in campaign shard processes come
back through the pool's telemetry stitching (forked workers inherit the
rebound functions).

:func:`attribute` turns the recorded spans into self times: a span's self
time is its duration minus the part of its interval that its children
cover.  Everything under the benchmark's own root spans (``bench.op``,
``bench.commit``) is attributed; the roots' own self time is the
unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro import obs
from repro.obs import SpanRecord

#: Root span names the workloads open around each operation.
ROOTS = ("bench.op", "bench.commit")
#: Spans whose subtrees keep their own split of self times.
SCOPES = ("serve.service.query", "serve.service.report_payload")

_local = threading.local()


def _file_bytes(directory, meta) -> int:
    total = 0
    for name in meta.filenames:
        try:
            total += (Path(directory) / name).stat().st_size
        except FileNotFoundError:
            pass  # derived caches may be absent
    return total


def _after_load(span, args, kwargs, result) -> None:
    span.items = _file_bytes(args[0], args[1])


def _after_seal(span, args, kwargs, result) -> None:
    span.items = _file_bytes(args[0], result)


#: QueryStats fields a terminal span records in its detail.
QUERY_STATS = ("segments_total", "segments_skipped", "segments_scanned",
               "segments_cached", "rows_scanned", "rows_matched")


def _after_terminal(span, args, kwargs, result) -> None:
    stats = args[0].stats
    span.detail = ";".join(f"{name}={getattr(stats, name)}"
                           for name in QUERY_STATS)
    _local.scanned = True


def _before_service_query(span, args, kwargs) -> None:
    _local.scanned = False


def _after_service_query(span, args, kwargs, result) -> None:
    span.detail = "cold" if getattr(_local, "scanned", False) else "warm"


def _before_report(span, args, kwargs) -> None:
    span.detail = str(args[1] if len(args) > 1 else kwargs.get("table", ""))


#: (module, attribute path, span name[, before hook[, after hook]]).
#: Functions imported by name into another module are rebound there too,
#: because that is the binding the caller resolves.  Columns decode lazily
#: on first access, outside ``load_columns``; the three private codec
#: steps are probed so that time is not left inside the query terminals.
PROBES: tuple = (
    ("repro.fleet.population", "FleetSpec.materialize",
     "fleet.population.materialize"),
    ("repro.fleet.simulator", "FleetSimulator.simulate_user",
     "fleet.simulator.simulate"),
    ("repro.fleet.simulator", "UserTrace.column_batch",
     "fleet.simulator.simulate"),
    ("repro.store.writer", "StoreWriter.append_batch",
     "store.writer.append_batch"),
    ("repro.store.writer", "coerce_batch", "store.columnar.coerce"),
    ("repro.campaign.coordinator", "coerce_batch", "store.columnar.coerce"),
    ("repro.store.writer", "write_columnar_segment", "store.segment.seal",
     None, _after_seal),
    ("repro.campaign.coordinator", "write_columnar_segment",
     "store.segment.seal", None, _after_seal),
    ("repro.cloud.load", "LoadProfile.add_trace", "cloud.load.add_trace"),
    ("repro.cloud.load", "LoadProfile.merge", "cloud.load.merge"),
    ("repro.cloud.load", "LoadProfile.from_store", "cloud.load.merge"),
    ("repro.campaign.coordinator", "adopt_segments", "store.merge.adopt"),
    ("repro.store.segment", "load_columns", "store.segment.load_columns",
     None, _after_load),
    ("repro.store.columnar", "_decode_column", "store.columnar.decode"),
    ("repro.store.columnar", "_decode_dict", "store.columnar.decode"),
    ("repro.store.columnar", "_inflated_section", "store.columnar.decode"),
    ("repro.store.query", "Query.aggregate", "store.query.terminal",
     None, _after_terminal),
    ("repro.store.query", "Query.arrays", "store.query.terminal",
     None, _after_terminal),
    ("repro.store.query", "Query.rows", "store.query.terminal",
     None, _after_terminal),
    ("repro.store.query", "Query.count", "store.query.terminal",
     None, _after_terminal),
    ("repro.store.kernels", "factorize_parts", "store.kernels.factorize"),
    ("repro.store.kernels", "GroupedReducer.reduce", "store.kernels.reduce"),
    ("repro.store.serving", "ReportServer.refresh",
     "store.serving.report_server"),
    ("repro.store.serving", "ReportServer.summary",
     "store.serving.report_server"),
    ("repro.store.serving", "ReportServer.latency_ecdf_by_device",
     "store.serving.report_server"),
    ("repro.store.serving", "ReportServer.energy_distributions",
     "store.serving.report_server"),
    ("repro.store.serving", "ReportServer.latency_vs_flops",
     "store.serving.report_server"),
    ("repro.store.serving", "ReportServer.cloud_api_usage",
     "store.serving.report_server"),
    ("repro.fleet", "tail_latency_table", "fleet.reports.tail_latency"),
    ("repro.fleet", "battery_drain_ecdf", "fleet.reports.drain"),
    ("repro.cloud", "load_report", "cloud.load.load_report"),
    ("repro.serve.service", "report_payload", "serve.service.report_payload",
     _before_report),
    ("repro.serve.service", "QueryService.query", "serve.service.query",
     _before_service_query, _after_service_query),
    ("repro.serve.snapshot", "SnapshotManager.poll", "serve.snapshot.poll"),
)


def _spanned(fn: Callable, name: str, before=None, after=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name) as span:
            if before is not None:
                before(span, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
        return result
    return wrapper


class ServeLinks:
    """Joins client requests to the server thread that dispatches them.

    Clients tag each request target with a URL fragment (``#<tag>``),
    which the router ignores.  The dispatch wrapper looks the tag up,
    parents the handler thread's spans under the client's ``bench.op``
    span and records when dispatch began and ended, so queue wait (client
    send to dispatch start) and respond time (dispatch end to the client's
    last byte) can be measured at those boundaries.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._parents: dict[str, int] = {}
        self._dispatched: dict[str, tuple[float, float]] = {}

    def register(self, tag: str, span_id: int) -> None:
        with self._lock:
            self._parents[tag] = span_id

    def take(self, tag: str) -> Optional[tuple[float, float]]:
        with self._lock:
            self._parents.pop(tag, None)
            return self._dispatched.pop(tag, None)

    def wrap_dispatch(self, fn: Callable) -> Callable:
        links = self

        @functools.wraps(fn)
        def dispatch(app, method, target, body):
            tag = target.partition("#")[2]
            with links._lock:
                parent = links._parents.get(tag, 0)
            collector = obs.get_collector()
            token = (collector.push_parent(parent)
                     if collector is not None and parent else None)
            started = time.time()
            try:
                return fn(app, method, target, body)
            finally:
                ended = time.time()
                if token is not None:
                    collector.pop_parent(token)
                with links._lock:
                    links._dispatched[tag] = (started, ended)
        return dispatch


class Tracer:
    """Context manager: probes installed and the obs collector on."""

    def __init__(self) -> None:
        self.links = ServeLinks()
        #: Spans measured at boundaries no wrapper can enclose.
        self.synthetic: list[SpanRecord] = []
        # Far above any id the collector allocates; next() is atomic.
        self._synthetic_ids = itertools.count(1 << 48)
        self._restore: list[tuple[object, str, object]] = []
        self.snapshot = None

    def _rebind(self, owner, attr: str, make: Callable[[Callable], Callable]
                ) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        new = (classmethod(make(raw.__func__))
               if isinstance(raw, classmethod) else make(raw))
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for module_name, path, name, *hooks in PROBES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            before, after = (list(hooks) + [None, None])[:2]
            self._rebind(owner, attr, functools.partial(
                _spanned, name=name, before=before, after=after))
        from repro.serve.app import ServeApp
        self._rebind(ServeApp, "_dispatch", self.links.wrap_dispatch)
        obs.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self.snapshot = obs.disable()
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def add_interval(self, name: str, parent_id: int, start_s: float,
                     end_s: float) -> None:
        """Record a span measured from timestamps at a layer boundary."""
        self.synthetic.append(SpanRecord(
            span_id=next(self._synthetic_ids), parent_id=parent_id,
            name=name, start_s=start_s, duration_s=max(0.0, end_s - start_s)))

    def ledger(self) -> "Ledger":
        return attribute(list(self.snapshot.spans) + self.synthetic)


@dataclass
class Ledger:
    """Self times and counts of one traced run."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    durations: dict = field(default_factory=lambda: defaultdict(list))
    #: Span name -> summed ``items`` (bytes for seals and segment loads).
    items: dict = field(default_factory=lambda: defaultdict(int))
    #: ``name.key`` -> summed ``key=value`` pairs of span details.
    tallies: dict = field(default_factory=lambda: defaultdict(int))
    scoped: dict = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    root_s: float = 0.0
    root_self_s: float = 0.0
    roots: int = 0
    orphans: int = 0

    @property
    def unattributed_frac(self) -> float:
        return self.root_self_s / self.root_s if self.root_s else 0.0

    def calls(self, name: str) -> int:
        return sum(len(values) for (span, _), values in self.durations.items()
                   if span == name)


def _covered(start: float, end: float, children: list[SpanRecord]) -> float:
    """Length of ``[start, end]`` covered by the union of child intervals."""
    covered = 0.0
    cursor = start
    for child in sorted(children, key=lambda record: record.start_s):
        lo = max(child.start_s, cursor)
        hi = min(child.start_s + child.duration_s, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def attribute(spans: list[SpanRecord]) -> Ledger:
    """Self time per span name over the subtrees of the root spans.

    Self times are also kept per *scope*, the nearest enclosing
    :data:`SCOPES` span as ``(name, detail)``, so the split of, say, a cold
    ``/v1/query`` can be told apart from that of a report request.
    """
    children: dict[int, list[SpanRecord]] = defaultdict(list)
    for record in spans:
        children[record.parent_id].append(record)
    ledger = Ledger()
    stack = [(record, None) for record in children.get(0, ())
             if record.name in ROOTS]
    ledger.orphans = len(children.get(0, ())) - len(stack)
    while stack:
        record, scope = stack.pop()
        kids = children.get(record.span_id, [])
        start = record.start_s
        own = max(0.0, record.duration_s
                  - _covered(start, start + record.duration_s, kids))
        if record.name in ROOTS:
            ledger.roots += 1
            ledger.root_s += record.duration_s
            ledger.root_self_s += own
        else:
            if record.name in SCOPES:
                scope = (record.name, record.detail)
            ledger.self_s[record.name] += own
            ledger.items[record.name] += record.items
            detail = record.detail
            if "=" in detail:
                for pair in detail.split(";"):
                    key, _, value = pair.partition("=")
                    ledger.tallies[f"{record.name}.{key}"] += int(value)
                detail = ""
            ledger.durations[(record.name, detail)].append(
                record.duration_s)
            if scope is not None:
                ledger.scoped[scope][record.name] += own
        stack.extend((kid, scope) for kid in kids)
    return ledger
