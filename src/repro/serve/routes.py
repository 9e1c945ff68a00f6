"""URL routing: HTTP targets in, ``(status, JSON payload)`` out.

The router is transport-agnostic — it never touches sockets, so the same
dispatch drives the asyncio server, the in-process test harness and the
benchmark's raw-socket clients.  Errors map onto conventional statuses:
malformed request parameters → 400, unknown path/kind/table → 404, wrong
method → 405; every error body is ``{"error": <message>}``.
"""

from __future__ import annotations

import json
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from repro.serve.service import QueryService, QuerySpec

__all__ = ["Router", "RouteError"]


class RouteError(Exception):
    """A request the router refuses, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Router:
    """Maps ``(method, target)`` onto :class:`QueryService` calls."""

    def __init__(self, service: QueryService) -> None:
        self.service = service

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
        path, params = self._split(target)
        try:
            if path in ("/v1/health", "/v1/kinds"):
                return method == "GET"
            if path == "/v1/query":
                return self.service.holds_query(
                    self._query_spec(method, path, params, body or b""))
            if path.startswith("/v1/report/") and method == "GET":
                table, device, min_apps = self._report_args(path, params)
                return self.service.holds_report(table, device=device,
                                                 min_apps=min_apps)
        except Exception:  # ``dispatch`` answers whatever went wrong
            pass
        return False

    @staticmethod
    def _split(target: str) -> tuple[str, list[tuple[str, str]]]:
        url = urlsplit(target)
        return (url.path.rstrip("/") or "/",
                parse_qsl(url.query, keep_blank_values=False))

    def _route(self, method: str, target: str, body: bytes) -> dict:
        path, params = self._split(target)
        if path == "/v1/health":
            self._require(method, "GET")
            return self.service.health()
        if path == "/v1/kinds":
            self._require(method, "GET")
            return self.service.kinds()
        if path == "/v1/stats":
            self._require(method, "GET")
            return self.service.stats()
        if path == "/v1/query":
            return self.service.query(
                self._query_spec(method, path, params, body))
        if path.startswith("/v1/report/"):
            self._require(method, "GET")
            table, device, min_apps = self._report_args(path, params)
            return self.service.report(table, device=device, min_apps=min_apps)
        raise RouteError(404, f"no route for {path}")

    @staticmethod
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

    @staticmethod
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

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise RouteError(405, f"{method} not allowed here (use {expected})")
