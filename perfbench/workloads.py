"""The four workloads: inputs from ``(generator, params, seed)``, a timed
loop of operations through public entry points, and correctness checks.

Every workload follows one shape.  :meth:`Workload.setup` builds the
inputs from the seed and returns a digest of what it built (a rebuild must
match it bit for bit).  :meth:`Workload.measure` runs operations until the
time is up and the sample rule of :mod:`summary` is met, optionally under a
:class:`probes.Tracer`, and checks each operation's output.  A failed check
counts as a failed operation.

===================  ==================================================
``fleet_stream``     ``FleetSimulator.run_to_store``: one append per user
``campaign_sharded`` ``run_campaign`` over 2 shard processes, compressed
``report_cold``      all 8 report tables from a freshly opened store
``serve_live``       2 keep-alive clients on ``/v1/query`` and
                     ``/v1/report``, with live commits beside them
===================  ==================================================
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import http.client
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qsl, urlencode, urlsplit

import numpy as np

from repro import obs
from repro.campaign import (ambient_spec, ingest_fleet_batches, run_campaign,
                            synthetic_fleet_batch)
from repro.fleet.simulator import FleetSimulator
from repro.serve import QuerySpec, ServeApp, ServerThread, service
from repro.serve.service import REPORT_TABLES
from repro.store import ResultStore, StoreCorruptionError
from repro.store.schema import kind_for

import summary
from summary import (HostSpeed, content_digest, samples_needed,
                     segment_digest, store_bytes)

#: Operations may run on past ``--seconds`` until the sample rule holds,
#: but never beyond this multiple of it.
OVERRUN = 4.0


#: Seconds between host-speed samples (see :class:`summary.HostSpeed`).
SAMPLE_EVERY_S = 0.5


@dataclass
class Measurement:
    """What one timed loop did."""

    attempted: int = 0
    failed: int = 0
    #: Wall seconds of the loop (ops, checks and host-speed samples).
    wall_s: float = 0.0
    #: Work items completed (events, report tables or requests).
    items: int = 0
    #: ``(start, end)`` of each operation ``op_p50_ms`` summarises.
    ops: list = field(default_factory=list)
    #: ``(start, end)`` stretches the throughput is taken over.
    busy: list = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    bytes_per_row: float = 0.0
    #: Named metrics of this workload: name -> (value, unit).
    details: dict = field(default_factory=dict)
    #: Per-layer values the trace cannot see (campaign results, caches).
    layers: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def add_op(self, start: float, end: float) -> None:
        self.ops.append((start, end))
        self.busy.append((start, end))

    @property
    def op_ms(self) -> list:
        """Wall-clock latencies of the operations."""
        return [(end - start) * 1e3 for start, end in self.ops]

    @property
    def ref_op_ms(self) -> list:
        """Latencies at the reference host speed."""
        return [self.speed.scaled(start, end) * 1e3
                for start, end in self.ops]

    @property
    def throughput(self) -> float:
        """Work items per wall-clock second."""
        seconds = sum(end - start for start, end in self.busy)
        return self.items / seconds if seconds else 0.0

    @property
    def ref_throughput(self) -> float:
        """Work items per second at the reference host speed."""
        seconds = sum(self.speed.scaled(start, end)
                      for start, end in self.busy)
        return self.items / seconds if seconds else 0.0


def _op_span(tracer):
    return obs.span("bench.op") if tracer is not None \
        else contextlib.nullcontext()


def _loop_done(started: float, seconds: float, have: int, need: int) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed >= seconds * OVERRUN or (elapsed >= seconds
                                            and have >= need)


def _pct(samples: list, q: float) -> float:
    """A reported percentile, NaN when the run lacks the samples for it."""
    try:
        return summary.percentile(samples, q)
    except summary.InsufficientSamples:
        return float("nan")


def _events_digest(store) -> str:
    kind = kind_for("fleet_events")
    return content_digest(store.query("fleet_events").arrays(),
                          kind.column_names)


class Workload:
    """One named workload (subclasses fill in the three steps)."""

    name = ""
    item_unit = ""
    #: Samples of ``op_ms`` the median needs.
    need_ops = samples_needed(0.5)

    def __init__(self, seed: int, work: Path, **size) -> None:
        self.seed = seed
        self.work = work
        self.size = size
        self._builds = 0

    def fresh_dir(self, stem: str) -> Path:
        self._builds += 1
        path = self.work / f"{stem}-{self._builds}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> str:
        raise NotImplementedError

    def measure(self, seconds: float, tracer=None) -> Measurement:
        raise NotImplementedError


class _WriteWorkload(Workload):
    """Shared loop of the two write workloads: one whole run per op."""

    item_unit = "events"

    def setup(self) -> str:
        # The input is the Ambient spec; building it includes the event
        # count the simulator produces at this (users, seed), which every
        # run's committed rows are checked against.
        users = self.size["users"]
        self.spec = ambient_spec(users, seed=self.seed)
        simulator = FleetSimulator(self.spec, max_workers=1)
        self.expected = sum(trace.num_events
                            for trace in simulator.iter_traces())
        return hashlib.sha256(
            f"ambient_spec|users={users}|seed={self.seed}|"
            f"horizon_s={self.spec.horizon_s}|events={self.expected}"
            .encode()).hexdigest()

    def run_op(self, root: Path) -> tuple[ResultStore, int, object]:
        raise NotImplementedError

    def check_first(self, store: ResultStore, result: Measurement) -> bool:
        """Extra check of a loop's first output (later ones equal it)."""
        return True

    def measure(self, seconds: float, tracer=None) -> Measurement:
        result = Measurement()
        expected = self.expected
        digests: set[str] = set()
        runs = []
        started = time.perf_counter()
        while not _loop_done(started, seconds, len(result.ops),
                             self.need_ops):
            root = self.fresh_dir("op")
            result.attempted += 1
            if result.speed.since_last() >= SAMPLE_EVERY_S:
                result.speed.sample()
            t0 = time.perf_counter()
            with _op_span(tracer):
                store, rows, run = self.run_op(root)
            result.add_op(t0, time.perf_counter())
            try:
                store.verify_integrity()
            except (StoreCorruptionError, OSError) as exc:
                result.fail(f"verify_integrity: {exc}")
                continue
            committed = store.num_rows("fleet_events")
            if not rows == committed == expected:
                result.fail(f"committed rows {committed}, run reported "
                            f"{rows}, simulator produced {expected}")
                continue
            digests.add(segment_digest(store))
            if len(digests) > 1:
                result.fail("a repeated run wrote different segments")
                continue
            if len(runs) == 0 and not self.check_first(store, result):
                continue
            result.items += committed
            result.bytes_per_row = store_bytes(store) / committed
            runs.append(run)
            shutil.rmtree(root, ignore_errors=True)
        result.speed.sample()
        result.wall_s = time.perf_counter() - started
        result.details = {
            "ingest_events_per_s": (result.throughput, "events/s"),
            "store_bytes_per_event": (result.bytes_per_row, "B/event"),
        }
        result.layers = self.run_layers(runs)
        return result

    def run_layers(self, runs: list) -> dict:
        users = self.size["users"]
        return {"fleet.users": users,
                "fleet.events": self.expected}


class FleetStream(_WriteWorkload):
    """``repro fleet --store``: one ``append_batch`` per simulated user."""

    name = "fleet_stream"

    def run_op(self, root: Path):
        rows = FleetSimulator(self.spec, max_workers=1).run_to_store(root)
        return ResultStore(root), rows, None


class CampaignSharded(_WriteWorkload):
    """``repro campaign run``: 2 shard processes, adopt-merge, compression."""

    name = "campaign_sharded"

    def run_op(self, root: Path):
        run = run_campaign(self.spec, root, shards=2, max_parallel=2,
                           compress=True)
        return run.store, run.events, run

    def check_first(self, store: ResultStore, result: Measurement) -> bool:
        # Shard invariance: the sharded store holds exactly the events the
        # single-process run_to_store writes at the same (users, seed).
        if not hasattr(self, "_reference"):
            root = self.fresh_dir("reference")
            FleetSimulator(self.spec, max_workers=1).run_to_store(root)
            self._reference = _events_digest(ResultStore(root))
            shutil.rmtree(root, ignore_errors=True)
        if _events_digest(store) != self._reference:
            result.fail("sharded fleet_events differ from run_to_store's")
            return False
        return True

    def run_layers(self, runs: list) -> dict:
        layers = super().run_layers(runs)
        if not runs:
            return layers
        shard_max = [max(shard.seconds for shard in run.shard_results)
                     for run in runs]
        skew = [max(shard.seconds for shard in run.shard_results)
                / float(np.mean([shard.seconds
                                 for shard in run.shard_results]))
                for run in runs]
        simulate = [run.simulate_seconds for run in runs]
        layers.update({
            "campaign.simulate_s": float(np.mean(simulate)),
            "campaign.merge_s": float(np.mean([run.merge_seconds
                                               for run in runs])),
            "campaign.shard_s_max": float(np.mean(shard_max)),
            "campaign.shard_skew": float(np.mean(skew)),
            "runtime.pool.fanout_overhead_s": float(
                np.mean(simulate) - np.mean(shard_max)),
        })
        return layers


class ReportCold(Workload):
    """``store report --json`` for every table, each from a fresh open."""

    name = "report_cold"
    item_unit = "tables"
    need_ops = samples_needed(0.9)

    def setup(self) -> str:
        from repro.android.appgen import (AppGenerator, GeneratorConfig,
                                          ModelPool)
        from repro.android.playstore import PlayStore
        from repro.core.pipeline import GaugeNN
        from repro.devices.device import DEVICE_FLEET
        from repro.runtime import Backend, SweepRunner, SweepSpec

        # GaugeNN 2021 snapshot at a reduced scale, its CPU/XNNPACK sweep,
        # and an Ambient campaign (fleet_events + fleet_load), all seeded.
        config = dataclasses.replace(
            GeneratorConfig.snapshot_2021(scale=self.size["scale"]),
            seed=self.seed)
        analysis = GaugeNN(PlayStore(
            [AppGenerator(config, ModelPool()).generate()])
        ).analyze_snapshot("2021")
        campaign = run_campaign(
            ambient_spec(self.size["users"], seed=self.seed),
            self.fresh_dir("input"), shards=2, max_parallel=2, compress=True)
        store = campaign.store
        GaugeNN.persist_snapshot(analysis, store)
        SweepRunner(SweepSpec(
            devices=DEVICE_FLEET, graphs=tuple(GaugeNN.unique_graphs(analysis)),
            backends=(Backend.CPU, Backend.XNNPACK), seed=self.seed),
            max_workers=1).run_to_store(store)
        store.verify_integrity()
        self.root = store.root
        return segment_digest(ResultStore(self.root))

    def measure(self, seconds: float, tracer=None) -> Measurement:
        result = Measurement()
        first: Optional[list[bytes]] = None
        table_ms: dict[str, list[float]] = {t: [] for t in REPORT_TABLES}
        started = time.perf_counter()
        while not _loop_done(started, seconds, len(result.ops),
                             self.need_ops):
            result.attempted += 1
            encoded = []
            if result.speed.since_last() >= SAMPLE_EVERY_S:
                result.speed.sample()
            t0 = time.perf_counter()
            with _op_span(tracer):
                for table in REPORT_TABLES:
                    t_table = time.perf_counter()
                    with obs.span("store.open"):
                        store = ResultStore(self.root)
                    # Through the module, so a traced run sees the call.
                    payload = service.report_payload(store, table)
                    with obs.span("report.json_encode"):
                        encoded.append(json.dumps(payload).encode())
                    table_ms[table].append(
                        (time.perf_counter() - t_table) * 1e3)
            result.add_op(t0, time.perf_counter())
            if first is None:
                first = encoded
            elif encoded != first:
                result.fail("a report cycle differs from the first cycle")
                continue
            result.items += len(REPORT_TABLES)
        result.speed.sample()
        result.wall_s = time.perf_counter() - started
        store = ResultStore(self.root)
        result.bytes_per_row = store_bytes(store) / store.num_rows()
        result.details = {
            "report_cycle_p50_ms": (_pct(result.op_ms, 0.5), "ms"),
            "report_cycle_p90_ms": (_pct(result.op_ms, 0.9), "ms"),
            "event_rows": (store.num_rows("fleet_events"), "rows"),
        }
        for table, values in table_ms.items():
            result.details[f"table_p50_ms.{table}"] = (
                _pct(values, 0.5), "ms")
        return result


# --------------------------------------------------------------------------- #
# serve_live
# --------------------------------------------------------------------------- #
_GROUP_SETS = (("device_name",), ("backend",), ("region",), ("model_name",),
               ("device_name", "backend"), ("region", "target"),
               ("model_name", "backend"), ("device_name", "region"),
               ("backend", "region", "target"))
_AGG_LISTS = ((("latency_ms", "mean"), ("latency_ms", "p99")),
              (("energy_mj", "sum"),),
              (("latency_ms", "p50"), ("wait_ms", "mean")),
              (("discharge_mah", "sum"), ("latency_ms", "count")),
              (("latency_ms", "p90"), ("energy_mj", "mean"),
               ("battery_fraction", "min")))
_FILTERS = ("none", "latency", "target", "energy")
_SERVE_TABLES = ("tail_latency", "drain", "summary")


def query_catalogue(seed: int, size: int) -> list[str]:
    """``size`` distinct grouped ``/v1/query`` targets, most popular first.

    The shapes (group-by set, aggregations, kind of filter) and their
    popularity order are fixed, so every seed asks the same mix of work;
    the seed draws the filter thresholds.
    """
    shapes = [(g, a, f) for g in range(len(_GROUP_SETS))
              for a in range(len(_AGG_LISTS)) for f in range(len(_FILTERS))]
    order = np.random.default_rng(0x5E4E).permutation(len(shapes))
    rng = np.random.default_rng((seed, 0x5E4E))
    targets = []
    for index in order[:size]:
        group, agg, where = shapes[index]
        params = [("kind", "fleet_events")]
        if _FILTERS[where] == "latency":
            params.append(("where", f"latency_ms<{rng.integers(20, 200)}"))
        elif _FILTERS[where] == "target":
            params.append(("where", "target=device"))
        elif _FILTERS[where] == "energy":
            params.append(("where", f"energy_mj>{rng.integers(40, 200)}"))
        params.append(("group_by", ",".join(_GROUP_SETS[group])))
        by_column: dict[str, list[str]] = {}
        for column, fn in _AGG_LISTS[agg]:
            by_column.setdefault(column, []).append(fn)
        params.extend(("agg", f"{column}:{','.join(fns)}")
                      for column, fns in by_column.items())
        targets.append("/v1/query?" + urlencode(params))
    return targets


def request_schedule(seed: int, catalogue: list[str], length: int, *,
                     zipf_s: float = 1.1, report_share: float = 0.1
                     ) -> list[str]:
    """Seeded request targets: Zipf over the catalogue plus report tables."""
    rng = np.random.default_rng((seed, 0x5C4D))
    weights = 1.0 / np.arange(1, len(catalogue) + 1) ** zipf_s
    picks = rng.choice(len(catalogue), size=length, p=weights / weights.sum())
    reports = rng.random(length) < report_share
    tables = rng.integers(0, len(_SERVE_TABLES), length)
    return [f"/v1/report/{_SERVE_TABLES[tables[i]]}" if reports[i]
            else catalogue[picks[i]] for i in range(length)]


class ServeLive(Workload):
    """Closed-loop HTTP reads beside periodic live commits."""

    name = "serve_live"
    item_unit = "requests"
    need_cold = samples_needed(0.9)
    need_warm = samples_needed(0.99)

    def setup(self) -> str:
        root = self.fresh_dir("input")
        store = ingest_fleet_batches(
            root, self.size["batches"], rows_per_batch=self.size["rows"],
            seed=self.seed, rows_per_segment=self.size["rows"])
        self.root = root
        self.catalogue = query_catalogue(self.seed, self.size["catalogue"])
        self.schedule = request_schedule(self.seed, self.catalogue, 1 << 17)
        return segment_digest(store)

    def measure(self, seconds: float, tracer=None) -> Measurement:
        live = self.fresh_dir("live")
        shutil.copytree(self.root, live)
        app = ServeApp(live, port=0, refresh_s=3600.0)
        run = _ServeRun(self, app, live, tracer)
        with ServerThread(app) as server:
            run.drive(server.url, seconds)
        run.writer.close()
        result = run.result
        run.verify(result)
        store = ResultStore(live)
        result.bytes_per_row = store_bytes(store) / store.num_rows()
        result.ops = run.requests["cold"]
        cold = result.op_ms
        warm = [(end - start) * 1e3 for start, end in run.requests["warm"]]
        result.details = {
            "query_cold_p50_ms": (_pct(cold, 0.5), "ms"),
            "query_cold_p90_ms": (_pct(cold, 0.9), "ms"),
            "query_warm_p50_ms": (_pct(warm, 0.5), "ms"),
            "query_warm_p99_ms": (_pct(warm, 0.99), "ms"),
            "serve_rps": (result.throughput, "req/s"),
            "live_commit_p50_ms": (_pct(run.commit_ms, 0.5), "ms"),
            "commits": (len(run.commit_ms), "count"),
            "report_requests": (len(run.requests["report"]), "count"),
        }
        cache = app.cache.stats()
        result.layers = {
            "serve.cache.result_hit_ratio": _ratio(cache["result"]),
            "serve.cache.segment_hit_ratio": _ratio(cache["segment"]),
            "serve.cache.segment_entries": cache["segment"]["entries"],
            "serve.generation_advances": app.manager.advances,
        }
        result.details["segment_tier_hits"] = (cache["segment"]["hits"],
                                               "count")
        result.details["segment_tier_misses"] = (cache["segment"]["misses"],
                                                 "count")
        shutil.rmtree(live, ignore_errors=True)
        return result


def _ratio(tier: dict) -> float:
    total = tier["hits"] + tier["misses"]
    return tier["hits"] / total if total else 0.0


class _ServeRun:
    """One closed-loop run against a started server.

    A commit falls due every ``commit_every`` requests, so which requests
    find the result cache cold is a function of the seeded schedule, not of
    how fast the host runs.  Before each commit both clients pause while
    the host speed is sampled on an idle server; paused time is not part
    of the run's throughput.
    """

    def __init__(self, workload: ServeLive, app: ServeApp, live: Path,
                 tracer) -> None:
        self.workload = workload
        self.app = app
        self.live = live
        self.tracer = tracer
        self.size = workload.size
        self.writer = ResultStore(live).writer(
            rows_per_segment=self.size["rows"])
        self.result = Measurement()
        #: kind -> [(start, end)] of each answered request.
        self.requests: dict[str, list] = {"cold": [], "warm": [],
                                          "report": []}
        self.commit_ms: list[float] = []
        self.samples: list[tuple[str, bytes]] = []
        self._answered: set[tuple[int, str]] = set()
        self._cond = threading.Condition()
        self._paused = False
        self._in_flight = 0
        self._active_since = 0.0
        self._cursor = 0

    def _next(self, started: float, seconds: float
              ) -> Optional[tuple[int, bool]]:
        """The next schedule index and whether a commit is due before it;
        ``None`` once the run is complete."""
        with self._cond:
            while self._paused:
                self._cond.wait()
            elapsed = time.perf_counter() - started
            enough = (len(self.requests["cold"]) >= self.workload.need_cold
                      and len(self.requests["warm"])
                      >= self.workload.need_warm
                      and len(self.commit_ms) >= self.workload.need_ops)
            if elapsed >= seconds * OVERRUN or (elapsed >= seconds
                                                and enough):
                return None
            index = self._cursor
            self._cursor += 1
            self._in_flight += 1
            return index, index > 0 and index % self.size["commit_every"] == 0

    def _done(self) -> None:
        with self._cond:
            self._in_flight -= 1
            self._cond.notify_all()

    def drive(self, url: str, seconds: float) -> None:
        host, port = urlsplit(url).hostname, urlsplit(url).port
        self.result.speed.sample()
        started = self._active_since = time.perf_counter()
        clients = [threading.Thread(target=self._client,
                                    args=(n, host, port, started, seconds),
                                    name=f"perfbench-client-{n}")
                   for n in range(2)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        ended = time.perf_counter()
        self.result.busy.append((self._active_since, ended))
        self.result.wall_s = ended - started
        self.result.speed.sample()

    def _pause_and_sample(self) -> None:
        """Let the other client's request finish, sample the host, resume."""
        with self._cond:
            self._paused = True
            while self._in_flight > 1:
                self._cond.wait()
            self.result.busy.append((self._active_since, time.perf_counter()))
        self.result.speed.sample()
        with self._cond:
            self._paused = False
            self._active_since = time.perf_counter()
            self._cond.notify_all()

    def _commit(self) -> None:
        batch_index = self.size["batches"] + len(self.commit_ms)
        span = (obs.span("bench.commit") if self.tracer is not None
                else contextlib.nullcontext())
        with span:
            self.writer.append_batch("fleet_events", synthetic_fleet_batch(
                batch_index, self.size["commit_rows"],
                seed=self.workload.seed))
            t0 = time.perf_counter()
            self.writer.flush()
            self.app.manager.poll()
            elapsed = (time.perf_counter() - t0) * 1e3
        with self._cond:
            self.commit_ms.append(elapsed)

    def _client(self, number: int, host: str, port: int, started: float,
                seconds: float) -> None:
        schedule = self.workload.schedule
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            while True:
                step = self._next(started, seconds)
                if step is None:
                    break
                index, commit = step
                try:
                    if commit:
                        # The pause waits out the other client, so commits
                        # (and the single writer) never overlap.
                        self._pause_and_sample()
                        self._commit()
                    target = schedule[index % len(schedule)]
                    tag = f"{number}-{index}"
                    try:
                        status, body, interval = self._request(
                            connection, f"{target}#{tag}", tag)
                    except (OSError, http.client.HTTPException) as exc:
                        with self._cond:
                            self.result.attempted += 1
                            self.result.fail(f"{target}: {exc!r}")
                        connection.close()
                        connection = http.client.HTTPConnection(
                            host, port, timeout=30)
                        continue
                    self._record(index, target, status, body, interval)
                finally:
                    self._done()
        finally:
            connection.close()

    def _request(self, connection, target: str, tag: str):
        tracer = self.tracer
        span = obs.span("bench.op") if tracer is not None \
            else contextlib.nullcontext()
        with span as opened:
            if tracer is not None:
                tracer.links.register(tag, opened.span_id)
            sent = time.time()
            t0 = time.perf_counter()
            connection.request("GET", target)
            response = connection.getresponse()
            body = response.read()
            t1 = time.perf_counter()
            received = time.time()
            if tracer is not None:
                dispatched = tracer.links.take(tag)
                if dispatched is not None:
                    tracer.add_interval("serve.app.queue_wait",
                                        opened.span_id, sent, dispatched[0])
                    tracer.add_interval("serve.app.respond", opened.span_id,
                                        dispatched[1], received)
        return response.status, body, (t0, t1)

    def _record(self, index: int, target: str, status: int, body: bytes,
                interval: tuple[float, float]) -> None:
        with self._cond:
            self.result.attempted += 1
            if status != 200:
                self.result.fail(f"{target}: HTTP {status}")
                return
            self.result.items += 1
            if target.startswith("/v1/report/"):
                kind = "report"
            else:
                key = (json.loads(body)["generation"], target)
                kind = "warm" if key in self._answered else "cold"
                self._answered.add(key)
            self.requests[kind].append(interval)
            if index % 16 == 0:
                self.samples.append((target, body))

    def verify(self, result: Measurement) -> None:
        """Sampled responses must equal the offline answer at their generation."""
        store = ResultStore(self.live)
        for target, body in self.samples:
            served = json.loads(body)
            snapshot = store.open_snapshot(generation=served["generation"])
            url = urlsplit(target)
            if url.path.startswith("/v1/report/"):
                offline = json.dumps(service.report_payload(
                    snapshot, url.path[len("/v1/report/"):])).encode()
                if offline != body:
                    result.fail(f"{target}: served report differs offline")
                continue
            spec = QuerySpec.from_params(parse_qsl(url.query))
            query = snapshot.query(spec.kind)
            spec.apply(query)
            offline = {"kind": spec.kind, "generation": snapshot.generation,
                       "rows": query.aggregate()}
            served.pop("stats")
            if json.dumps(offline) != json.dumps(served):
                result.fail(f"{target}: served rows differ offline")


WORKLOADS = {cls.name: cls for cls in (FleetStream, CampaignSharded,
                                       ReportCold, ServeLive)}

#: Sizes the benchmark runs at, and a tiny set for the harness self-test.
SIZES = {
    "fleet_stream": {"users": 1000},
    "campaign_sharded": {"users": 2000},
    "report_cold": {"scale": 0.05, "users": 8000},
    "serve_live": {"batches": 48, "rows": 1024, "catalogue": 180,
                   "commit_every": 300, "commit_rows": 512},
}
TINY_SIZES = {
    "fleet_stream": {"users": 30},
    "campaign_sharded": {"users": 40},
    "report_cold": {"scale": 0.02, "users": 200},
    "serve_live": {"batches": 3, "rows": 256, "catalogue": 40,
                   "commit_every": 100, "commit_rows": 64},
}
