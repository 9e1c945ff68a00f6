"""The asyncio HTTP front end of :mod:`repro.serve` (stdlib only).

A deliberately small HTTP/1.1 server on asyncio streams: each request
head (request line and headers, CRLF or bare-LF lines) is read in one
call and parsed by hand, bodies are read by ``Content-Length``, and
responses are JSON with keep-alive connections.  Each connection keeps
its read deadlines — :data:`IDLE_TIMEOUT_S` waiting for a request,
:data:`REQUEST_TIMEOUT_S` from a request's first byte to its last — on
one timer that is re-armed lazily, when it fires, rather than once per
request.

Requests that need no scan — ``/v1/health``, ``/v1/kinds`` and a
``/v1/query`` or ``/v1/report`` answer the result cache holds — are
dispatched on the event loop itself: a hit is one memoised parse of its
target, one cache lookup and a write of the response bytes the cache
entry was encoded to when it was put, with no thread hand-off.  Every
scan runs on a thread pool, so a store-scanning query never stalls the
accept loop, and NumPy evaluation gets real threads (it releases the GIL
in the kernels that matter); a cached answer that a commit invalidates
between the check and the dispatch goes to the pool too.

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
from repro.serve.cache import EncodedPayload, ServeCache
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
#: Bytes a request head may take (the stream reader's buffer limit).
_READ_LIMIT = 1 << 16


class _BadRequest(Exception):
    """A request the parser rejects: answered with ``status``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Expired(Exception):
    """A read deadline passed: ``idle`` with no byte of a request in."""

    def __init__(self, idle: bool) -> None:
        super().__init__("idle" if idle else "request not received in time")
        self.idle = idle


def _head_end(buffer: bytearray, start: int) -> int:
    """End of the first empty line at or after ``start``, or 0."""
    crlf = buffer.find(b"\n\r\n", start)
    lf = buffer.find(b"\n\n", start)
    if lf >= 0 and (crlf < 0 or lf < crlf):
        return lf + 2
    return crlf + 3 if crlf >= 0 else 0


class _RequestReader(asyncio.StreamReader):
    """One connection's stream: whole request heads, and its deadlines.

    :meth:`read_head` is ``readuntil`` over the two ways a head can end
    (an empty line after CRLF or bare-LF lines), written against the
    stream's own buffer as ``readuntil`` is.  The deadlines live on one
    timer: between :meth:`start_request` and :meth:`end_request` the
    connection must see a request's first byte within
    :data:`IDLE_TIMEOUT_S` and the whole request within
    :data:`REQUEST_TIMEOUT_S` of it.  Requests only move the deadline;
    the timer is re-armed when it fires, never later than the shorter of
    the two timeouts ahead, so no deadline set since can be missed.  An
    expired deadline fails the pending read with :class:`_Expired`.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(limit=_READ_LIMIT, loop=loop)
        self._clock = loop.time
        self._call_at = loop.call_at
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Whether a request is being read (its head or body).
        self._reading = False
        #: When the connection began waiting for the current request.
        self._waiting_since = 0.0
        #: When the current request's first byte came in (``None``: not yet).
        self._arrived: Optional[float] = None

    def feed_data(self, data: bytes) -> None:
        if self._reading and self._arrived is None:
            self._arrived = self._clock()
        super().feed_data(data)

    def start_request(self) -> None:
        """Begin waiting for (and reading) the next request."""
        now = self._clock()
        self._reading = True
        self._waiting_since = now
        self._arrived = now if self._buffer else None
        if self._timer is None:
            self._arm(now)

    def end_request(self) -> None:
        """The request is in, or has failed: no deadline until the next
        one starts.  An expiry the caller has seen (or that came after
        the bytes it read were in) is spent, so it fails no later write
        (``drain`` raises the reader's exception) or read."""
        self._reading = False
        if isinstance(self._exception, _Expired):
            self._exception = None

    def close_deadlines(self) -> None:
        """Cancel the timer (the connection is ending)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _deadline(self) -> Optional[float]:
        if not self._reading:
            return None
        if self._arrived is None:
            return self._waiting_since + IDLE_TIMEOUT_S
        return self._arrived + REQUEST_TIMEOUT_S

    def _arm(self, now: float) -> None:
        when = now + min(IDLE_TIMEOUT_S, REQUEST_TIMEOUT_S)
        deadline = self._deadline()
        if deadline is not None and deadline < when:
            when = deadline
        self._timer = self._call_at(when, self._fire)

    def _fire(self) -> None:
        self._timer = None
        now = self._clock()
        deadline = self._deadline()
        if deadline is not None and now >= deadline:
            self.set_exception(_Expired(idle=self._arrived is None))
        else:
            self._arm(now)

    async def read_head(self) -> bytes:
        """The next request head, through its terminating empty line.

        Raises :class:`_BadRequest` when the head runs past
        :data:`_READ_LIMIT` (414 if its request line does, else 431)
        and, like ``readuntil``, :class:`asyncio.IncompleteReadError` at
        end of stream.
        """
        buffer = self._buffer
        start = 0
        while True:
            if self._exception is not None:
                raise self._exception
            end = _head_end(buffer, start)
            if end or len(buffer) > _READ_LIMIT:
                break
            if self._eof:
                partial = bytes(buffer)
                buffer.clear()
                raise asyncio.IncompleteReadError(partial, None)
            start = max(0, len(buffer) - 2)
            await self._wait_for_data("read_head")
        if not end or end > _READ_LIMIT:
            if buffer.find(b"\n", 0, _READ_LIMIT) < 0:
                raise _BadRequest(414, "request line too long")
            raise _BadRequest(431, "request header fields too large")
        head = bytes(buffer[:end])
        del buffer[:end]
        self._maybe_resume_transport()
        return head


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """``(method, target, version, headers)`` of a request head."""
    request_line, *lines = head.decode("latin-1").split("\n")
    parts = request_line.split()
    if len(parts) != 3:
        raise _BadRequest(400, "malformed request line")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        name = name.strip()
        if name:
            headers[name.lower()] = value.strip()
    method, target, version = parts
    return method, target, version, headers


def _encode(payload: dict) -> bytes:
    """A payload's response body (a result-tier entry's, as encoded)."""
    if isinstance(payload, EncodedPayload):
        return payload.body
    return json.dumps(payload).encode("utf-8")


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
        loop = asyncio.get_running_loop()

        def connection() -> asyncio.StreamReaderProtocol:
            return asyncio.StreamReaderProtocol(_RequestReader(loop),
                                                self._handle, loop=loop)

        self._server = await loop.create_server(connection, self._host,
                                                self._port)
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
    async def _handle(self, reader: _RequestReader,
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
                                        _encode({"error": str(bad)}),
                                        keep_alive=False)
                    break
                if request is None:
                    break
                method, target, version, headers, body = request

                obs.count("serve.requests")
                status, data = await self._answer(loop, method, target, body)

                default = "keep-alive" if version == "HTTP/1.1" else "close"
                keep = headers.get("connection", default).lower() != "close"
                await self._respond(writer, status, data, keep_alive=keep)
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
            reader.close_deadlines()
            del self._connections[handler]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_request(reader: _RequestReader):
        """``(method, target, version, headers, body)``, or ``None`` at EOF.

        ``None`` too when no byte of a request arrives within
        :data:`IDLE_TIMEOUT_S`.  Malformed input raises :class:`_BadRequest`
        with the status to answer: 400 for a bad request line or
        ``Content-Length``, 408 for a request still incomplete
        :data:`REQUEST_TIMEOUT_S` after its first byte, 413 for an
        oversized body, 414/431 for a request line or head longer than
        the stream reader's limit.
        """
        reader.start_request()
        try:
            head = await reader.read_head()
            method, target, version, headers = _parse_head(head)
            length = _content_length(headers)
            body = await reader.readexactly(length) if length else b""
        except _Expired as expired:
            if expired.idle:
                return None
            raise _BadRequest(408, "request not received in time")
        finally:
            reader.end_request()
        return method, target, version, headers, body

    async def _answer(self, loop: asyncio.AbstractEventLoop, method: str,
                      target: str, body: bytes) -> tuple[int, bytes]:
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
                  body: bytes) -> tuple[int, bytes]:
        """Router dispatch, shielded against handler bugs, to the status
        and response body (a result-tier entry's bytes as they were put)."""
        try:
            with obs.span("serve.request"):
                status, payload = self.router.dispatch(method, target, body)
                return status, _encode(payload)
        except ScanRequired:
            raise
        except Exception as exc:  # a handler bug must not kill the connection
            obs.count("serve.errors")
            return 500, _encode({"error": f"internal error: {exc}"})

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       data: bytes, *, keep_alive: bool) -> None:
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
