"""The asyncio HTTP front end of :mod:`repro.serve` (stdlib only).

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server`:
request lines and headers are parsed by hand, bodies read by
``Content-Length``, responses are JSON with keep-alive connections.
Requests that need no scan — ``/v1/health``, ``/v1/kinds`` and a
``/v1/query`` or ``/v1/report`` answer the result cache holds — are
dispatched on the event loop itself, a dictionary lookup with no thread
hand-off.  Every scan runs on a thread pool, so a store-scanning query
never stalls the accept loop, and NumPy evaluation gets real threads (it
releases the GIL in the kernels that matter); a cached answer that a
commit invalidates between the check and the dispatch goes to the pool
too.

:class:`ServeApp` wires the whole stack: live store → snapshot manager →
query service → router, plus the background refresh worker.  ``repro
serve`` calls :meth:`ServeApp.run`; tests and benchmarks use
:class:`ServerThread`, which runs the same loop on a daemon thread and
exposes the bound URL.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Union

from repro import obs
from repro.serve.cache import ServeCache
from repro.serve.routes import Router
from repro.serve.service import QueryService, ScanRequired
from repro.serve.snapshot import SnapshotManager
from repro.serve.worker import RefreshWorker
from repro.store.store import ResultStore

__all__ = ["ServeApp", "ServerThread"]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 414: "URI Too Long",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}
#: Hard cap on request bodies; /v1/query specs are tiny.
_MAX_BODY = 1 << 20
#: Seconds a connection may wait for the first byte of its next request;
#: an idle (keep-alive or silent) connection past it is closed quietly.
IDLE_TIMEOUT_S = 30.0
#: Seconds from a request's first byte until its request line, headers
#: and body are in; a slower request is answered 408 and closed.
REQUEST_TIMEOUT_S = 10.0


class _BadRequest(Exception):
    """A request the parser rejects: answered with ``status``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _content_length(headers: dict[str, str]) -> int:
    """The declared body length; only plain decimal digits are accepted."""
    value = headers.get("content-length", "") or "0"
    if not (value.isascii() and value.isdigit()):
        raise _BadRequest(400, f"invalid Content-Length {value[:32]!r}")
    length = int(value)
    if length > _MAX_BODY:
        raise _BadRequest(413, "request body too large")
    return length


class ServeApp:
    """One serving stack over one store directory."""

    def __init__(self, root: Union[str, Path], *, host: str = "127.0.0.1",
                 port: int = 8736, refresh_s: float = 1.0, cache: bool = True,
                 max_result_entries: int = 256,
                 compact_segments: Optional[int] = None,
                 handler_threads: int = 8) -> None:
        self.store = ResultStore(root)
        self.cache = (ServeCache(max_result_entries=max_result_entries)
                      if cache else None)
        self.manager = SnapshotManager(self.store, cache=self.cache)
        self.service = QueryService(self.manager, cache=self.cache)
        self.router = Router(self.service)
        self.worker = RefreshWorker(self.manager, interval_s=refresh_s,
                                    compact_segments=compact_segments)
        self._host = host
        self._port = port
        self._executor = ThreadPoolExecutor(
            max_workers=handler_threads,
            thread_name_prefix="repro-serve-handler")
        self._server: Optional[asyncio.base_events.Server] = None
        #: Open connections: handler task -> its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.url: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> str:
        """Bind the listener and start the refresh worker; returns the URL."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port)
        host, port = self._server.sockets[0].getsockname()[:2]
        self.url = f"http://{host}:{port}"
        if not self.worker.is_alive():
            self.worker.start()
        return self.url

    async def stop(self) -> None:
        """Stop accepting, close every open connection, stop the worker.

        Idle keep-alive clients would otherwise leave their handlers
        pending (and their transports open) past the loop's end; on Python
        3.12+ ``Server.wait_closed`` also waits for them, so the handlers
        are closed, cancelled and awaited before it.
        """
        self.worker.stop()
        if self._server is not None:
            self._server.close()
            await asyncio.sleep(0)  # let just-accepted handlers register
            handlers = list(self._connections)
            for handler, writer in self._connections.items():
                writer.close()
                handler.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    def run(self) -> None:  # pragma: no cover - interactive entry point
        """Serve until interrupted (the ``repro serve`` foreground path)."""

        async def main() -> None:
            url = await self.start()
            print(f"repro serve: {self.store.root} at generation "
                  f"{self.manager.generation} on {url}", flush=True)
            await asyncio.Event().wait()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as bad:
                    await self._respond(writer, bad.status,
                                        {"error": str(bad)}, keep_alive=False)
                    break
                if request is None:
                    break
                method, target, version, headers, body = request

                obs.count("serve.requests")
                status, payload = await self._answer(loop, method, target,
                                                     body)

                default = "keep-alive" if version == "HTTP/1.1" else "close"
                keep = headers.get("connection", default).lower() != "close"
                await self._respond(writer, status, payload, keep_alive=keep)
                if not keep:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        except asyncio.CancelledError:
            if self._server is not None and self._server.is_serving():
                raise
            # stop() cancelled this handler: ending normally keeps Python
            # 3.11's stream done-callback from logging the cancellation as
            # an unhandled error.
        finally:
            del self._connections[handler]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @classmethod
    async def _read_request(cls, reader: asyncio.StreamReader):
        """``(method, target, version, headers, body)``, or ``None`` at EOF.

        ``None`` too when no byte of a request arrives within
        :data:`IDLE_TIMEOUT_S`.  Malformed input raises :class:`_BadRequest`
        with the status to answer: 400 for a bad request line or
        ``Content-Length``, 408 for a request still incomplete
        :data:`REQUEST_TIMEOUT_S` after its first byte, 413 for an
        oversized body, 414/431 for a request or header line longer than
        the stream reader's limit (which ``readline`` reports as
        :class:`ValueError`).
        """
        try:
            async with asyncio.timeout(IDLE_TIMEOUT_S):
                first = await reader.read(1)
        except TimeoutError:
            return None
        if not first:
            return None
        try:
            async with asyncio.timeout(REQUEST_TIMEOUT_S):
                return await cls._read_rest(reader, first)
        except TimeoutError:
            raise _BadRequest(408, "request not received in time")

    @classmethod
    async def _read_rest(cls, reader: asyncio.StreamReader, first: bytes):
        """The request after its first byte (see :meth:`_read_request`)."""
        try:
            request_line = first + await reader.readline()
        except ValueError:
            raise _BadRequest(414, "request line too long")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest(400, "malformed request line")
        try:
            headers = await cls._read_headers(reader)
        except ValueError:
            raise _BadRequest(431, "request header line too long")
        if headers is None:
            return None
        length = _content_length(headers)
        body = await reader.readexactly(length) if length else b""
        return (*parts, headers, body)

    async def _answer(self, loop: asyncio.AbstractEventLoop, method: str,
                      target: str, body: bytes) -> tuple[int, dict]:
        """Dispatch one request: on the loop when it needs no scan.

        A scan-free request (:meth:`Router.scan_free`: health, kinds, a
        result-tier hit) is dispatched right here, sparing it the round
        trip to a handler thread.  Every other request — and a hit that a
        commit turned into a miss since the check, which
        :class:`ScanRequired` reports uncounted — is dispatched on the
        handler pool, so no scan ever runs on the loop.
        """
        if self.router.scan_free(method, target, body):
            try:
                with self.service.cached_only():
                    return self._dispatch(method, target, body)
            except ScanRequired:
                pass
        return await loop.run_in_executor(
            self._executor, self._dispatch, method, target, body)

    def _dispatch(self, method: str, target: str,
                  body: bytes) -> tuple[int, dict]:
        """Router dispatch, shielded against handler bugs."""
        try:
            with obs.span("serve.request"):
                return self.router.dispatch(method, target, body)
        except ScanRequired:
            raise
        except Exception as exc:  # a handler bug must not kill the connection
            obs.count("serve.errors")
            return 500, {"error": f"internal error: {exc}"}

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader
                            ) -> Optional[dict[str, str]]:
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: dict, *, keep_alive: bool) -> None:
        data = json.dumps(payload).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        writer.write(head.encode("latin-1") + data)
        await writer.drain()


class ServerThread:
    """Run a :class:`ServeApp` on a daemon thread (tests and benchmarks).

    Context manager: entering starts the event loop on its own thread and
    blocks until the socket is bound; ``url`` then accepts connections.
    Exiting stops the server, the refresh worker and the loop.
    """

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    @property
    def url(self) -> str:
        assert self.app.url is not None, "server not started"
        return self.app.url

    def __enter__(self) -> "ServerThread":
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve loop failed to start")
        if self._failure is not None:
            raise RuntimeError("serve startup failed") from self._failure
        return self

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            await self.app.start()
        except BaseException as exc:
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.app.stop()

    def close(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __exit__(self, *exc_info) -> None:
        self.close()
