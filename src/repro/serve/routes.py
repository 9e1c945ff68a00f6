"""URL routing: HTTP targets in, ``(status, JSON payload)`` out.

The router is transport-agnostic — it never touches sockets, so the same
dispatch drives the asyncio server, the in-process test harness and the
benchmark's raw-socket clients.  Errors map onto conventional statuses:
malformed request parameters → 400, unknown path/kind/table → 404, wrong
method → 405; every error body is ``{"error": <message>}``.
"""

from __future__ import annotations

import functools
import json
from typing import Any, NamedTuple, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.serve.service import (QueryService, QuerySpec, query_fragment,
                                 report_fragment)

__all__ = ["Router", "RouteError"]

#: GET targets whose parse one router keeps (least recently used first
#: out); a target's ``#`` fragment is not part of its key.
MAX_PARSED = 1024


class RouteError(Exception):
    """A request the router refuses, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Parsed(NamedTuple):
    """A GET target, parsed: the endpoint and what it is called with."""

    #: ``"health"``, ``"kinds"``, ``"stats"``, ``"query"`` or ``"report"``.
    route: str
    #: The :class:`QuerySpec` of a query, ``(table, device, min_apps)``
    #: of a report, ``None`` otherwise.
    args: Any
    #: The result-tier key of a query or report answer, else ``None``.
    fragment: Optional[str]


class Router:
    """Maps ``(method, target)`` onto :class:`QueryService` calls.

    A GET target is parsed once: :meth:`scan_free` and :meth:`dispatch`
    share a bounded memo of parsed targets, keyed by the target without
    its ``#`` fragment.
    """

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self._parse_get = functools.lru_cache(maxsize=MAX_PARSED)(_parse_get)

    def dispatch(self, method: str, target: str,
                 body: Optional[bytes] = None) -> tuple[int, dict]:
        """Handle one request; never raises — errors become JSON bodies."""
        try:
            return 200, self._route(method, target, body or b"")
        except RouteError as exc:
            return exc.status, {"error": str(exc)}
        except (ValueError, KeyError) as exc:
            # Engine-level rejections: unknown columns/kinds/tables, bad
            # predicate grammar.  KeyError reprs its argument; unwrap it.
            message = exc.args[0] if exc.args else str(exc)
            status = 404 if "unknown report table" in str(message) else 400
            return status, {"error": str(message)}

    def scan_free(self, method: str, target: str,
                  body: Optional[bytes] = None) -> bool:
        """Whether ``dispatch`` can answer the request without a scan.

        True for ``GET /v1/health`` and ``/v1/kinds``, and for a
        ``/v1/query`` or ``/v1/report/<table>`` request whose answer the
        result tier holds at the served generation.  A check only: no
        cache hit or miss is counted, and a request the router would
        reject is not scan-free (its error comes from :meth:`dispatch`).
        """
        try:
            if method == "GET":
                route, _, fragment = self._parse(target)
                if fragment is None:
                    return route in ("health", "kinds")
                return self.service.holds(fragment)
            path, params = _split(target)
            if path == "/v1/query":
                return self.service.holds(query_fragment(
                    _query_spec(method, path, params, body or b"")))
        except Exception:  # ``dispatch`` answers whatever went wrong
            pass
        return False

    def _parse(self, target: str) -> _Parsed:
        """The memoised parse of a GET target."""
        return self._parse_get(target.partition("#")[0])

    def _route(self, method: str, target: str, body: bytes) -> dict:
        if method == "GET":
            route, args, _ = self._parse(target)
        else:
            route, args = _parse_other(method, target, body)
        if route == "query":
            return self.service.query(args)
        if route == "report":
            table, device, min_apps = args
            return self.service.report(table, device=device, min_apps=min_apps)
        return getattr(self.service, route)()


def _split(target: str) -> tuple[str, list[tuple[str, str]]]:
    url = urlsplit(target)
    return (url.path.rstrip("/") or "/",
            parse_qsl(url.query, keep_blank_values=False))


def _parse_get(target: str) -> _Parsed:
    """Parse a GET target; raises what :meth:`Router.dispatch` answers."""
    path, params = _split(target)
    if path in ("/v1/health", "/v1/kinds", "/v1/stats"):
        return _Parsed(path[len("/v1/"):], None, None)
    if path == "/v1/query":
        spec = _query_spec("GET", path, params, b"")
        return _Parsed("query", spec, query_fragment(spec))
    if path.startswith("/v1/report/"):
        args = _report_args(path, params)
        return _Parsed("report", args, report_fragment(*args))
    raise RouteError(404, f"no route for {path}")


def _parse_other(method: str, target: str, body: bytes) -> tuple[str, Any]:
    """``(route, args)`` of a request that is not a GET."""
    path, params = _split(target)
    if path == "/v1/query":
        return "query", _query_spec(method, path, params, body)
    if path in ("/v1/health", "/v1/kinds", "/v1/stats") \
            or path.startswith("/v1/report/"):
        raise RouteError(405, f"{method} not allowed here (use GET)")
    raise RouteError(404, f"no route for {path}")


def _query_spec(method: str, path: str, params: list[tuple[str, str]],
                body: bytes) -> QuerySpec:
    if method == "GET":
        return QuerySpec.from_params(params)
    if method == "POST":
        try:
            decoded = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RouteError(400, f"invalid JSON body: {exc}")
        return QuerySpec.from_json(decoded)
    raise RouteError(405, f"{method} not allowed on {path}")


def _report_args(path: str, params: list[tuple[str, str]]
                 ) -> tuple[str, Optional[str], int]:
    """``(table, device, min_apps)`` of a report request."""
    device: Optional[str] = None
    min_apps = 0
    for key, value in params:
        if key == "device":
            device = value
        elif key == "min_apps":
            min_apps = int(value)
        else:
            raise RouteError(400, f"unknown report parameter {key!r}")
    return path[len("/v1/report/"):], device, min_apps
