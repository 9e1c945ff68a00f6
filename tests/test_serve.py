"""repro.serve: snapshot isolation, caches, HTTP endpoints, live ingest.

The contract under test is the PR 9 tentpole: every served response is
evaluated against one pinned manifest generation and is bit-identical to
the offline ``store query`` / ``store report --json`` paths at that
generation — including while a StoreWriter commits into the same
directory — and the result cache and the store's column views accelerate
repeats without changing a byte.  Bit-identity is always asserted through JSON text, the wire
format, so float formatting differences cannot hide.
"""

from __future__ import annotations

import gc
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.campaign import (BackgroundIngest, ingest_fleet_batches,
                            synthetic_fleet_batch)
from repro.serve import (QueryService, QuerySpec, Router, ServeApp,
                         ServeCache, ServerThread, SnapshotManager,
                         report_payload)
from repro.store import ReportServer, ResultStore, compact_store


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture()
def fleet_store(tmp_path):
    """Six committed generations of synthetic fleet events."""
    return ingest_fleet_batches(tmp_path / "fleet.store", 3,
                                rows_per_batch=400, rows_per_segment=256)


# --------------------------------------------------------------------------- #
# Store layer: generations and snapshots
# --------------------------------------------------------------------------- #
class TestGenerations:
    def test_generation_advances_per_commit(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        assert store.generation == 0
        with store.writer(rows_per_segment=64) as writer:
            writer.append_batch("fleet_events", synthetic_fleet_batch(0, 50))
            writer.flush()
            first = store.generation
            writer.append_batch("fleet_events", synthetic_fleet_batch(1, 50))
            writer.flush()
        assert first == 1
        assert store.generation == 2
        # The log maps each generation to its committed segment prefix.
        assert store.generations() == {1: 1, 2: 2}

    def test_snapshot_pins_generation_across_appends(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        with store.writer(rows_per_segment=64) as writer:
            writer.append_batch("fleet_events", synthetic_fleet_batch(0, 50))
            writer.flush()
            snapshot = store.open_snapshot()
            pinned_rows = snapshot.num_rows()
            pinned = dumps(snapshot.query("fleet_events")
                           .group_by("region").agg(n=("latency_ms", "count"))
                           .aggregate())
            writer.append_batch("fleet_events", synthetic_fleet_batch(1, 50))
            writer.flush()
            store.refresh()
            assert store.num_rows() > pinned_rows
            # The pinned view is immutable: same rows, same aggregate bytes.
            assert snapshot.num_rows() == pinned_rows
            assert dumps(snapshot.query("fleet_events")
                         .group_by("region").agg(n=("latency_ms", "count"))
                         .aggregate()) == pinned

    def test_open_snapshot_at_historical_generation(self, fleet_store):
        generations = sorted(fleet_store.generations())
        past = generations[0]
        snapshot = fleet_store.open_snapshot(generation=past)
        assert snapshot.generation == past
        assert len(snapshot.segments) == fleet_store.generations()[past]
        assert snapshot.num_rows() < fleet_store.num_rows()
        with pytest.raises(KeyError):
            fleet_store.open_snapshot(generation=99999)

    def test_snapshot_matches_reopened_prefix(self, tmp_path):
        # A snapshot at generation g serves exactly what a fresh reader saw
        # when g was the tip: replay the same batches and compare bytes.
        live = ingest_fleet_batches(tmp_path / "live", 3, rows_per_batch=300,
                                    rows_per_segment=128)
        generations = sorted(live.generations())
        target = generations[len(generations) // 2]
        prefix_batches = 0
        reference_root = tmp_path / "ref"
        # Commits happen once per sealed chunk + once per flush; replaying
        # batch-by-batch and stopping when the generation matches finds the
        # batch prefix that produced generation `target`.
        reference = ResultStore(reference_root)
        with reference.writer(rows_per_segment=128) as writer:
            while reference.generation < target:
                writer.append_batch(
                    "fleet_events",
                    synthetic_fleet_batch(prefix_batches, 300))
                writer.flush()
                prefix_batches += 1
        assert reference.generation == target
        snapshot = live.open_snapshot(generation=target)
        assert dumps(report_payload(snapshot, "tail_latency")) == \
            dumps(report_payload(reference, "tail_latency"))

    def test_replacement_commit_resets_log(self, fleet_store):
        before = fleet_store.generation
        compact_store(fleet_store)
        assert fleet_store.generation == before + 1
        # Historical prefixes died with the old segment list.
        assert list(fleet_store.generations()) == [fleet_store.generation]

    def test_generation_log_is_capped(self, tmp_path, monkeypatch):
        import repro.store.store as store_module

        monkeypatch.setattr(store_module, "GENERATION_LOG_CAP", 16)
        store = ResultStore(tmp_path / "s")
        with store.writer(rows_per_segment=8) as writer:
            for index in range(16 + 5):
                writer.append_batch("fleet_events",
                                    synthetic_fleet_batch(index, 2))
                writer.flush()
        log = store.generations()
        assert len(log) == 16
        assert store.generation in log
        # The oldest retained entry is still openable; older ones are gone.
        oldest = min(log)
        store.open_snapshot(generation=oldest)
        with pytest.raises(KeyError):
            store.open_snapshot(generation=oldest - 1)

    def test_legacy_manifest_without_generation(self, fleet_store):
        # Manifests written before this PR carry no generation fields; they
        # adopt sequence as their generation on first read.
        manifest_path = fleet_store.root / "MANIFEST.json"
        data = json.loads(manifest_path.read_text())
        del data["generation"]
        del data["generations"]
        manifest_path.write_text(json.dumps(data))
        reopened = ResultStore(fleet_store.root)
        assert reopened.generation == data["sequence"]
        assert reopened.generations() == {
            data["sequence"]: len(data["segments"])}
        reopened.open_snapshot(generation=reopened.generation)

    def test_info_payload_shape(self, fleet_store):
        payload = fleet_store.info_payload()
        assert payload["generation"] == fleet_store.generation
        assert payload["rows"] == fleet_store.num_rows()
        assert payload["kinds"] == {"fleet_events":
                                    fleet_store.num_rows("fleet_events")}
        assert len(payload["segment_list"]) == len(fleet_store.segments)
        assert json.loads(json.dumps(payload)) == payload


# --------------------------------------------------------------------------- #
# Satellite: concurrent writer/reader + crash-mid-seal
# --------------------------------------------------------------------------- #
class TestConcurrentWriterReader:
    def test_readers_pin_while_writer_seals(self, tmp_path):
        root = tmp_path / "live.store"
        ingest_fleet_batches(root, 1, rows_per_batch=200,
                             rows_per_segment=128)
        reader = ResultStore(root)
        ingest = BackgroundIngest(root, num_batches=6, rows_per_batch=200,
                                  rows_per_segment=128, interval_s=0.002)
        observed: list[tuple[int, str]] = []
        ingest.start()
        for _ in range(20):
            reader.refresh()
            snapshot = reader.open_snapshot()
            observed.append(
                (snapshot.generation, dumps(report_payload(snapshot,
                                                           "tail_latency"))))
        ingest.finish()
        reader.refresh()
        # Every observation replays bit-identically at its pinned generation.
        for generation, payload in observed:
            snapshot = reader.open_snapshot(generation=generation)
            assert dumps(report_payload(snapshot, "tail_latency")) == payload

    def test_crash_mid_seal_leaves_served_generation_intact(self, fleet_store):
        snapshot = fleet_store.open_snapshot()
        served = dumps(report_payload(snapshot, "tail_latency"))
        # A writer dying mid-seal leaves a partial segment tmp file and
        # sealed-but-uncommitted segment files (a valid .colseg, and a torn
        # legacy .jsonl row log); none are manifest-referenced.
        seg_dir = fleet_store.segments_dir
        sealed = seg_dir / fleet_store.segments[-1].data_filename
        (seg_dir / "fleet_events-099997.colseg").write_bytes(
            sealed.read_bytes())
        (seg_dir / "fleet_events-099999.jsonl").write_text('{"torn": ')
        (seg_dir / "fleet_events-099998.colseg.tmp").write_bytes(b"\x00\x01")
        (fleet_store.root / "MANIFEST.json.tmp").write_text('{"format_')
        fleet_store.refresh()
        assert fleet_store.open_snapshot().generation == snapshot.generation
        assert dumps(report_payload(fleet_store.open_snapshot(),
                                    "tail_latency")) == served
        reopened = ResultStore(fleet_store.root)
        assert reopened.generation == snapshot.generation
        assert dumps(report_payload(reopened, "tail_latency")) == served

    def test_live_handle_payload_reads_its_own_generation(self, tmp_path):
        # Regression: a payload over a live handle used to let the
        # ReportServer refresh the handle mid-payload, so "summary"
        # labelled generation N carried generation N+1 rows, and every
        # later table on the handle reported N+1.
        root = tmp_path / "live.store"
        ingest_fleet_batches(root, 2, rows_per_batch=300,
                             rows_per_segment=128)
        reader = ResultStore(root)
        pinned = reader.generation
        with ResultStore(root).writer(rows_per_segment=128) as writer:
            writer.append_batch("fleet_events",
                                synthetic_fleet_batch(2, 300))
        assert ResultStore(root).generation > pinned
        for table in ("summary", "tail_latency", "drain"):
            expected = report_payload(
                ResultStore(root).open_snapshot(generation=pinned), table)
            assert expected["generation"] == pinned
            assert dumps(report_payload(reader, table)) == dumps(expected)
        assert reader.generation == pinned


# --------------------------------------------------------------------------- #
# Satellite: ReportServer staleness across replacement commits
# --------------------------------------------------------------------------- #
class TestReportServerStaleness:
    def test_drop_only_replacement_invalidates(self, tmp_path):
        store = ingest_fleet_batches(tmp_path / "s", 2, rows_per_batch=200,
                                     rows_per_segment=128)
        # fleet_events has no figure tables, so grow an executions store too.
        sweep_store = tmp_path / "s"
        server = ReportServer(ResultStore(sweep_store))
        totals = server.summary()["rows"]
        assert totals["fleet_events"] == 400
        # A retention trim: replacement commit that only *drops* a segment —
        # the regression this satellite fixes (the old rule keyed
        # invalidation on "new segments loaded" and kept stale extracts).
        victim = server.store
        victim.refresh()
        victim._commit([], replacing=victim.segments[-1:])
        assert server.summary()["rows"]["fleet_events"] < 400


# --------------------------------------------------------------------------- #
# Serve service + router (in-process)
# --------------------------------------------------------------------------- #
class TestQueryServiceAndRouter:
    @pytest.fixture()
    def stack(self, fleet_store):
        cache = ServeCache()
        manager = SnapshotManager(ResultStore(fleet_store.root), cache=cache)
        service = QueryService(manager, cache=cache)
        return manager, service, Router(service), cache

    def test_health_kinds_stats(self, stack):
        manager, service, router, _ = stack
        status, health = router.dispatch("GET", "/v1/health")
        assert status == 200 and health["status"] == "ok"
        assert health["generation"] == manager.generation
        status, kinds = router.dispatch("GET", "/v1/kinds")
        assert kinds["kinds"]["fleet_events"] == 1200
        status, stats = router.dispatch("GET", "/v1/stats")
        assert stats["served_generation"] == manager.generation
        assert stats["cache"]["segment"]["max_entries"] > 0
        # /v1/stats embeds the exact `store info --json` payload fields.
        for key in ("generation", "rows", "kinds", "segment_list"):
            assert key in stats

    def test_query_matches_offline_engine(self, stack, fleet_store):
        _, service, router, _ = stack
        status, served = router.dispatch(
            "GET", "/v1/query?kind=fleet_events&where=target=cloud"
                   "&group_by=region&agg=latency_ms:mean,p99")
        assert status == 200
        offline = (fleet_store.query("fleet_events")
                   .where("target", "==", "cloud").group_by("region")
                   .agg(latency_ms_mean=("latency_ms", "mean"),
                        latency_ms_p99=("latency_ms", "p99"))
                   .aggregate())
        assert dumps(served["rows"]) == dumps(offline)

    def test_group_key_overflow_is_a_400(self, stack):
        _, _, router, _ = stack
        status, payload = router.dispatch(
            "GET", "/v1/query?kind=fleet_events&group_by=time_s,latency_ms,"
                   "wait_ms,energy_mj,throttle_factor,battery_fraction,"
                   "discharge_mah&agg=latency_ms:count")
        assert status == 400 and "int64" in payload["error"]

    def test_post_query_equals_get_query(self, stack):
        _, _, router, _ = stack
        _, get_payload = router.dispatch(
            "GET", "/v1/query?kind=fleet_events&where=latency_ms<20"
                   "&agg=energy_mj:sum")
        body = json.dumps({"kind": "fleet_events",
                           "where": [["latency_ms", "<", 20]],
                           "agg": [["energy_mj", "sum"]]}).encode()
        _, post_payload = router.dispatch("POST", "/v1/query", body)
        assert dumps(get_payload) == dumps(post_payload)

    def test_ungrouped_string_extremes_are_a_200(self, stack, fleet_store):
        _, _, router, _ = stack
        status, payload = router.dispatch(
            "GET", "/v1/query?kind=fleet_events&agg=device_name:min,max")
        assert status == 200
        names = sorted(fleet_store.query("fleet_events")
                       .arrays("device_name")["device_name"].tolist())
        assert payload["rows"] == [{"device_name_min": names[0],
                                    "device_name_max": names[-1]}]

    def test_report_equals_offline_payload(self, stack, fleet_store):
        _, _, router, _ = stack
        for table in ("summary", "tail_latency", "drain", "latency_ecdf"):
            status, served = router.dispatch("GET", f"/v1/report/{table}")
            assert status == 200
            assert dumps(served) == dumps(report_payload(fleet_store, table))

    def test_result_cache_hits_on_repeat(self, stack):
        _, _, router, cache = stack
        target = "/v1/query?kind=fleet_events&group_by=device_name&agg=latency_ms:p90"
        _, first = router.dispatch("GET", target)
        hits_before = cache.stats()["result"]["hits"]
        _, second = router.dispatch("GET", target)
        assert cache.stats()["result"]["hits"] == hits_before + 1
        assert dumps(first) == dumps(second)

    def test_view_extends_across_generation_advance(self, stack):
        manager, service, router, cache = stack
        target = "/v1/query?kind=fleet_events&group_by=region&agg=discharge_mah:sum"
        _, first = router.dispatch("GET", target)
        views = cache.stats()["segment"]
        assert views["entries"] == 1 and views["misses"] == 1
        assert views["segments"] == first["stats"]["segments_scanned"]
        assert views["bytes"] > 0
        assert first["stats"]["segments_cached"] == 0
        # New commits arrive; the result tier is evicted, and the kind's
        # column view extends by the two new segments instead of being
        # rebuilt.
        with ResultStore(manager.store.root).writer(
                rows_per_segment=128) as writer:
            writer.append_batch("fleet_events", synthetic_fleet_batch(7, 200))
            writer.flush()
        assert manager.poll() is True
        _, second = router.dispatch("GET", target)
        assert second["generation"] > first["generation"]
        extended = cache.stats()["segment"]
        assert extended["misses"] == 1
        assert extended["hits"] == views["hits"] + 1
        assert extended["segments"] == views["segments"] + 2
        assert second["stats"]["segments_scanned"] == extended["segments"]
        # And the sums still equal a cold offline evaluation.
        offline = (ResultStore(manager.store.root).query("fleet_events")
                   .group_by("region").agg(discharge_mah_sum=("discharge_mah",
                                                              "sum"))
                   .aggregate())
        assert dumps(second["rows"]) == dumps(offline)

    def test_compaction_clears_caches(self, stack):
        manager, _, router, cache = stack
        router.dispatch("GET", "/v1/report/tail_latency")
        assert cache.stats()["result"]["entries"] == 1
        compact_store(ResultStore(manager.store.root))
        assert manager.poll() is True
        assert manager.invalidations == 1
        assert cache.stats()["result"]["entries"] == 0
        assert cache.stats()["segment"]["entries"] == 0

    def test_error_statuses(self, stack):
        _, _, router, _ = stack
        assert router.dispatch("GET", "/v1/nope")[0] == 404
        assert router.dispatch("GET", "/v1/report/bogus")[0] == 404
        assert router.dispatch("POST", "/v1/health")[0] == 405
        assert router.dispatch("GET", "/v1/query?where=latency<")[0] == 400
        assert router.dispatch("GET", "/v1/query?kind=bogus")[0] == 400
        assert router.dispatch("POST", "/v1/query", b"{nope")[0] == 400
        status, payload = router.dispatch(
            "GET", "/v1/query?where=no_such_column=1&kind=fleet_events")
        assert status == 400 and "error" in payload

    def test_uncached_service_still_serves(self, fleet_store):
        manager = SnapshotManager(ResultStore(fleet_store.root), cache=None)
        router = Router(QueryService(manager, cache=None))
        status, payload = router.dispatch("GET", "/v1/report/summary")
        assert status == 200
        assert dumps(payload) == dumps(report_payload(fleet_store, "summary"))
        status, stats = router.dispatch("GET", "/v1/stats")
        assert stats["cache"] is None


# --------------------------------------------------------------------------- #
# HTTP server (real sockets)
# --------------------------------------------------------------------------- #
class TestServeHTTP:
    @pytest.fixture()
    def server(self, fleet_store):
        app = ServeApp(fleet_store.root, port=0, refresh_s=0.05)
        with ServerThread(app) as thread:
            yield thread

    def get(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_endpoints_over_http(self, server, fleet_store):
        status, health = self.get(server.url + "/v1/health")
        assert status == 200 and health["rows"] == 1200
        status, report = self.get(server.url + "/v1/report/tail_latency")
        assert dumps(report) == dumps(report_payload(fleet_store,
                                                     "tail_latency"))

    def test_post_query_over_http(self, server, fleet_store):
        body = json.dumps({"kind": "fleet_events", "group_by": ["backend"],
                           "agg": ["latency_ms:median"]}).encode()
        request = urllib.request.Request(
            server.url + "/v1/query", data=body,
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        offline = (fleet_store.query("fleet_events").group_by("backend")
                   .agg(latency_ms_median=("latency_ms", "median"))
                   .aggregate())
        assert dumps(payload["rows"]) == dumps(offline)

    def test_keep_alive_reuses_connection(self, server):
        host, port = server.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            for _ in range(3):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            connection.close()

    def test_stop_closes_idle_keep_alive_connection(self, fleet_store,
                                                    caplog):
        """Exiting with a keep-alive client still connected leaves no
        pending handler or open transport behind, and does not stall."""
        app = ServeApp(fleet_store.root, port=0, refresh_s=0.05)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with ServerThread(app) as server:
                host, port = server.url.removeprefix("http://").split(":")
                connection = http.client.HTTPConnection(host, int(port),
                                                        timeout=10)
                connection.request("GET", "/v1/health")
                assert connection.getresponse().read()
                started = time.perf_counter()
            stop_s = time.perf_counter() - started
            connection.close()
            gc.collect()
        assert stop_s < 2.0
        assert not [warning for warning in caught
                    if "unclosed transport" in str(warning.message)]
        assert "destroyed but it is pending" not in caplog.text

    def test_http_error_body(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(server.url + "/v1/report/bogus")
        assert excinfo.value.code == 404
        assert "error" in json.loads(excinfo.value.read())

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /v1/health HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"GET /v1/health HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"a" * (70 * 1024)
         + b"\r\n\r\n", 431),
        (b"POST /v1/query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
         413),
    ], ids=["length-abc", "length-negative", "header-over-64k",
            "body-too-large"])
    def test_malformed_request_answers_status(self, server, request_bytes,
                                              status):
        host, port = server.url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(request_bytes)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines
        assert "error" in json.loads(body)
        # The server survived: the next connection is served normally.
        status_ok, health = self.get(server.url + "/v1/health")
        assert status_ok == 200 and health["rows"] == 1200

    def test_read_deadlines_close_idle_and_answer_slow(self, fleet_store,
                                                       monkeypatch):
        """A silent client is dropped quietly; a half-sent header block gets
        408 + close; neither holds the server up for the next client."""
        from repro.serve import app as app_module

        monkeypatch.setattr(app_module, "IDLE_TIMEOUT_S", 0.2)
        monkeypatch.setattr(app_module, "REQUEST_TIMEOUT_S", 0.2)
        app = ServeApp(fleet_store.root, port=0, refresh_s=0.05)
        with ServerThread(app) as server:
            host, port = server.url.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)),
                                          timeout=10) as silent:
                started = time.perf_counter()
                assert silent.recv(65536) == b""  # closed, no response
                assert time.perf_counter() - started < 5.0
            with socket.create_connection((host, int(port)),
                                          timeout=10) as slow:
                slow.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n")
                response = b""
                while chunk := slow.recv(65536):
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            assert lines[0].startswith("HTTP/1.1 408 ")
            assert "Connection: close" in lines
            assert "error" in json.loads(body)
            status, health = self.get(server.url + "/v1/health")
            assert status == 200 and health["rows"] == 1200

    def test_serves_fresh_generation_during_live_ingest(self, tmp_path):
        root = tmp_path / "live.store"
        ingest_fleet_batches(root, 1, rows_per_batch=150,
                             rows_per_segment=128)
        app = ServeApp(root, port=0, refresh_s=0.02)
        with ServerThread(app) as server:
            sampled = []
            ingest = BackgroundIngest(root, num_batches=5,
                                      rows_per_batch=150,
                                      rows_per_segment=128,
                                      interval_s=0.02)
            ingest.start()
            for _ in range(12):
                sampled.append(self.get(server.url
                                        + "/v1/report/tail_latency")[1])
            ingest.finish()
            deadline = threading.Event()
            for _ in range(100):  # wait for the worker to reach the tip
                if self.get(server.url + "/v1/health")[1]["rows"] == 900:
                    break
                deadline.wait(0.05)
            assert self.get(server.url + "/v1/health")[1]["rows"] == 900
        # Each sampled response replays bit-identically at its generation.
        store = ResultStore(root)
        for payload in sampled:
            snapshot = store.open_snapshot(generation=payload["generation"])
            assert dumps(report_payload(snapshot, "tail_latency")) == \
                dumps(payload)


# --------------------------------------------------------------------------- #
# Scan-free answers on the event loop
# --------------------------------------------------------------------------- #
_GROUPED = ("/v1/query?kind=fleet_events&where=latency_ms<120"
            "&group_by=device_name,backend&agg=latency_ms:mean,p99")


def _raw_request(url: str, request: bytes) -> tuple[list[str], bytes]:
    """Send ``request`` on a fresh socket; read until the server closes."""
    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return head.decode("latin-1").split("\r\n"), body


class TestLoopAnswers:
    """Result-tier hits, health and kinds are dispatched on the event loop;
    scans never are, and the bytes are those of the handler-thread path."""

    @pytest.fixture()
    def server(self, fleet_store):
        # No background polls: the tests advance the generation themselves.
        app = ServeApp(fleet_store.root, port=0, refresh_s=3600.0)
        with ServerThread(app) as thread:
            yield thread

    @staticmethod
    def fetch(connection, target: str) -> bytes:
        connection.request("GET", target)
        response = connection.getresponse()
        assert response.status == 200
        return response.read()

    @staticmethod
    def offline_query(source) -> dict:
        query = (source.query("fleet_events").where("latency_ms", "<", 120)
                 .group_by("device_name", "backend")
                 .agg(latency_ms_mean=("latency_ms", "mean"),
                      latency_ms_p99=("latency_ms", "p99")))
        rows = query.aggregate()
        stats = query.stats
        return {"kind": "fleet_events", "generation": source.generation,
                "rows": rows,
                "stats": {name: getattr(stats, name) for name in (
                    "segments_total", "segments_skipped", "segments_scanned",
                    "segments_cached", "rows_scanned", "rows_matched")}}

    def test_repeats_are_counted_hits_with_identical_bytes(self, server,
                                                            fleet_store):
        cache = server.app.cache
        host, port = server.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        offline = {
            _GROUPED: json.dumps(self.offline_query(
                fleet_store.open_snapshot())).encode(),
            "/v1/report/drain": json.dumps(
                report_payload(fleet_store, "drain")).encode(),
        }
        try:
            for target, expected in offline.items():
                before = cache.stats()["result"]
                first = self.fetch(connection, target)
                after_first = cache.stats()["result"]
                assert (after_first["misses"], after_first["hits"]) == \
                    (before["misses"] + 1, before["hits"])
                assert first == expected
                for repeat in range(1, 4):
                    assert self.fetch(connection, target) == first
                    counted = cache.stats()["result"]
                    assert (counted["misses"], counted["hits"]) == \
                        (after_first["misses"], after_first["hits"] + repeat)
        finally:
            connection.close()

    @pytest.mark.parametrize("request_line, headers", [
        ("GET {target} HTTP/1.0", ""),
        ("GET {target} HTTP/1.1", "Connection: close\r\n"),
    ], ids=["http-1.0", "connection-close"])
    def test_hit_honours_connection_close(self, server, request_line,
                                          headers):
        for _ in range(2):  # a miss, then a hit
            request = (request_line.format(target=_GROUPED) + "\r\n"
                       + "Host: x\r\n" + headers + "\r\n").encode()
            lines, body = _raw_request(server.url, request)
            assert lines[0] == "HTTP/1.1 200 OK"
            assert "Connection: close" in lines
            assert json.loads(body)["rows"]
        assert server.app.cache.stats()["result"]["hits"] == 1

    def test_every_request_dispatches_where_it_should(self, server,
                                                      monkeypatch):
        """Through ``_dispatch`` always: on the loop for health, kinds and
        hits, on a handler thread for misses and ``/v1/stats``."""
        dispatched = []
        original = ServeApp._dispatch

        def recording(app, method, target, body):
            dispatched.append((target, threading.get_ident()))
            return original(app, method, target, body)

        monkeypatch.setattr(ServeApp, "_dispatch", recording)
        host, port = server.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        targets = ["/v1/health", "/v1/kinds", "/v1/stats", _GROUPED,
                   _GROUPED, "/v1/report/drain", "/v1/report/drain"]
        try:
            for target in targets:
                self.fetch(connection, target)
        finally:
            connection.close()
        loop = server._thread.ident
        assert [target for target, _ in dispatched] == targets
        assert [thread == loop for _, thread in dispatched] == \
            [True, True, False, False, True, False, True]

    def test_scans_never_run_on_the_loop(self, server, monkeypatch):
        from repro.serve.routes import Router as RouterClass
        from repro.store.query import Query

        scan_threads = []
        original_scan = Query._scan

        def recording_scan(self, *args, **kwargs):
            scan_threads.append(threading.get_ident())
            return original_scan(self, *args, **kwargs)

        monkeypatch.setattr(Query, "_scan", recording_scan)
        app = server.app
        loop_thread = server._thread.ident
        root = app.store.root

        def commit(index: int) -> None:
            with ResultStore(root).writer(rows_per_segment=256) as writer:
                writer.append_batch("fleet_events",
                                    synthetic_fleet_batch(index, 50))
            assert app.manager.poll() is True

        host, port = server.url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            self.fetch(connection, _GROUPED)
            self.fetch(connection, "/v1/report/tail_latency")
            # A commit and a poll between two identical requests.
            commit(10)
            after_commit = json.loads(self.fetch(connection, _GROUPED))
            assert after_commit["generation"] == app.manager.generation
            # A commit between the loop's scan-free decision and its answer:
            # the request goes to a handler thread, counted once, as a miss.
            decided = []
            original_check = RouterClass.scan_free

            def racing_check(router, method, target, body=None):
                free = original_check(router, method, target, body)
                if free and target.startswith("/v1/query") and not decided:
                    decided.append(target)
                    commit(11)
                return free

            monkeypatch.setattr(RouterClass, "scan_free", racing_check)
            before = app.cache.stats()["result"]
            raced = json.loads(self.fetch(connection, _GROUPED))
            counted = app.cache.stats()["result"]
            assert decided == [_GROUPED]
            assert (counted["misses"], counted["hits"]) == \
                (before["misses"] + 1, before["hits"])
            snapshot = ResultStore(root).open_snapshot(
                generation=raced["generation"])
            assert raced["generation"] == app.manager.generation
            assert dumps(raced) == dumps(self.offline_query(snapshot))
            # Health and kinds answer on the loop with no scan at all.
            for target in ("/v1/health", "/v1/kinds", _GROUPED):
                self.fetch(connection, target)
        finally:
            connection.close()
        assert len(scan_threads) >= 4
        assert loop_thread not in scan_threads


def _split_responses(data: bytes) -> list[tuple[str, dict, bytes]]:
    """``(status line, headers, body)`` of each response in ``data``."""
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers["Content-Length"])
        responses.append((status, headers, rest[:length]))
        data = rest[length:]
    return responses


class TestFraming:
    """How request heads are read: one read per head, CRLF or bare LF,
    pipelined or trickled, and the per-connection deadlines."""

    @pytest.fixture()
    def server(self, fleet_store):
        app = ServeApp(fleet_store.root, port=0, refresh_s=3600.0)
        with ServerThread(app) as thread:
            yield thread

    @staticmethod
    def connect(server) -> socket.socket:
        host, port = server.url.removeprefix("http://").split(":")
        return socket.create_connection((host, int(port)), timeout=10)

    @staticmethod
    def read_all(sock: socket.socket) -> bytes:
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
        return data

    def test_request_line_over_the_limit_is_a_414(self, server):
        lines, body = _raw_request(
            server.url, b"GET /v1/health?x=" + b"a" * (70 * 1024)
            + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        assert lines[0].startswith("HTTP/1.1 414 ")
        assert "Connection: close" in lines
        assert "error" in json.loads(body)
        lines, body = _raw_request(
            server.url, b"GET /v1/health HTTP/1.1\r\nConnection: close"
                        b"\r\n\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"

    def test_bare_lf_head_is_answered(self, server):
        lines, body = _raw_request(
            server.url, b"GET /v1/kinds HTTP/1.1\nHost: x\n"
                        b"Connection: close\n\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Connection: close" in lines
        assert json.loads(body)["kinds"]["fleet_events"] == 1200

    def test_pipelined_requests_are_answered_in_order(self, server):
        spec = json.dumps({"kind": "fleet_events",
                           "agg": ["latency_ms:count"]}).encode()
        with self.connect(server) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + str(len(spec)).encode()
                + b"\r\n\r\n" + spec
                + b"GET /v1/kinds HTTP/1.1\r\nHost: x\r\n\r\n"
                + b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                  b"Connection: close\r\n\r\n")
            responses = _split_responses(self.read_all(sock))
        assert [status for status, _, _ in responses] == \
            ["HTTP/1.1 200 OK"] * 3
        assert [headers["Connection"] for _, headers, _ in responses] == \
            ["keep-alive", "keep-alive", "close"]
        query, kinds, health = (json.loads(body) for _, _, body in responses)
        assert query["rows"] == [{"latency_ms_count": 1200}]
        assert kinds["kinds"] == {"fleet_events": 1200}
        assert health["status"] == "ok"

    def test_trickled_head_within_the_deadline_is_answered(
            self, fleet_store, monkeypatch, caplog):
        """Once a request's first byte is in, only the request deadline
        binds: a head trickled for longer than the idle timeout is
        answered.  A request that then stalls gets its 408, and neither
        logs an error."""
        from repro.serve import app as app_module

        monkeypatch.setattr(app_module, "IDLE_TIMEOUT_S", 0.3)
        monkeypatch.setattr(app_module, "REQUEST_TIMEOUT_S", 3.0)
        request = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
        app = ServeApp(fleet_store.root, port=0, refresh_s=3600.0)
        with ServerThread(app) as server, self.connect(server) as sock:
            started = time.perf_counter()
            for byte in range(len(request)):
                sock.sendall(request[byte:byte + 1])
                time.sleep(0.6 / len(request))
            assert time.perf_counter() - started > 0.3
            sock.sendall(b"GET /v1/kinds HTTP/1.1\r\n")  # then stalls
            responses = _split_responses(self.read_all(sock))
        assert [status.split()[1] for status, _, _ in responses] == \
            ["200", "408"]
        assert json.loads(responses[0][2])["status"] == "ok"
        assert responses[1][1]["Connection"] == "close"
        assert not [record for record in caplog.records
                    if record.levelname in ("ERROR", "CRITICAL")]


class TestParseOnce:
    """One parse per GET target, keyed without its ``#`` fragment; the
    result tier keys on the parsed spec, so spellings share one entry."""

    _SPELLINGS = (
        _GROUPED,
        "/v1/query?agg=latency_ms:mean,p99&group_by=device_name"
        "&group_by=backend&where=latency_ms<120&kind=fleet_events",
        _GROUPED + "#tag",
    )

    def test_spellings_share_one_miss_and_the_same_bytes(self, fleet_store):
        app = ServeApp(fleet_store.root, port=0, refresh_s=3600.0)
        with ServerThread(app) as server:
            host, port = server.url.removeprefix("http://").split(":")
            connection = http.client.HTTPConnection(host, int(port),
                                                    timeout=10)
            try:
                bodies = [TestLoopAnswers.fetch(connection, target)
                          for target in self._SPELLINGS * 2]
            finally:
                connection.close()
        counted = app.cache.stats()["result"]
        assert (counted["misses"], counted["hits"]) == (1, 5)
        assert set(bodies) == {bodies[0]}
        assert json.loads(bodies[0]) == \
            TestLoopAnswers.offline_query(fleet_store.open_snapshot())

    def test_fragments_do_not_grow_the_parse_memo(self, fleet_store):
        from repro.serve.routes import MAX_PARSED

        cache = ServeCache()
        manager = SnapshotManager(ResultStore(fleet_store.root), cache=cache)
        router = Router(QueryService(manager, cache=cache))
        for tag in range(5000):
            assert router.scan_free("GET", f"{_GROUPED}#{tag}") is False
        assert router.dispatch("GET", f"{_GROUPED}#last")[0] == 200
        assert router.scan_free("GET", f"{_GROUPED}#again") is True
        assert router._parse_get.cache_info().currsize == 1
        for limit in range(1, MAX_PARSED + 50):
            router.scan_free("GET", f"/v1/query?kind=fleet_events"
                                    f"&limit={limit}")
        assert router._parse_get.cache_info().currsize == MAX_PARSED


# --------------------------------------------------------------------------- #
# Satellite: CLI `store info --json` / `store report --json`
# --------------------------------------------------------------------------- #
class TestServeCLI:
    def test_store_info_json(self, fleet_store, capsys):
        from repro.cli import main

        assert main(["store", "info", str(fleet_store.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == fleet_store.info_payload()
        assert payload["generation"] == fleet_store.generation
        assert payload["kinds"]["fleet_events"] == 1200

    def test_store_info_json_verify(self, fleet_store, capsys):
        from repro.cli import main

        assert main(["store", "info", str(fleet_store.root), "--json",
                     "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified_segments"] == len(fleet_store.segments)

    def test_store_report_json_matches_payload(self, fleet_store, capsys):
        from repro.cli import main

        for table in ("summary", "tail_latency", "drain"):
            assert main(["store", "report", str(fleet_store.root),
                         "--table", table, "--json"]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert dumps(printed) == dumps(report_payload(fleet_store, table))

    def test_store_report_human_tables(self, fleet_store, capsys):
        from repro.cli import main

        assert main(["store", "report", str(fleet_store.root),
                     "--table", "tail_latency"]) == 0
        assert "p999 ms" in capsys.readouterr().out
        assert main(["store", "report", str(fleet_store.root),
                     "--table", "drain"]) == 0
        assert "median drain" in capsys.readouterr().out
