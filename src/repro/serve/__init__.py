"""repro.serve — async query/report service over a live results store.

The store's manifest commit protocol already gives every reader a
consistent committed prefix; this package turns that into an online
service: a stdlib-asyncio HTTP server whose every request is evaluated
against one generation-pinned :class:`~repro.store.store.StoreSnapshot`
while a campaign keeps appending to the same directory.  Endpoints:

``GET /v1/health``
    Liveness + the served generation.
``GET /v1/kinds``
    Row kinds and committed row counts.
``GET|POST /v1/query``
    The store query engine over HTTP (``where`` / ``group_by`` / ``agg`` /
    ``limit``, same grammar as ``repro store query``).
``GET /v1/report/<table>``
    The report tables of ``repro store report --json`` — bit-identical to
    the offline output at the same generation.
``GET /v1/stats``
    ``repro store info --json`` plus cache/refresh counters.

Layers: :class:`~repro.serve.app.ServeApp` (HTTP front end) →
:class:`~repro.serve.routes.Router` → :class:`~repro.serve.service.
QueryService` → :class:`~repro.serve.snapshot.SnapshotManager` (pinned
generation) with a result :class:`~repro.serve.cache.ServeCache` over the
store's column views, kept
fresh by a :class:`~repro.serve.worker.RefreshWorker`.  ``repro serve``
is the CLI entry point; see the README's "Serving the store" section.
"""

from repro.serve.app import ServeApp, ServerThread
from repro.serve.cache import ServeCache
from repro.serve.routes import RouteError, Router
from repro.serve.service import (REPORT_TABLES, QueryService, QuerySpec,
                                 report_payload)
from repro.serve.snapshot import SnapshotManager
from repro.serve.worker import RefreshWorker

__all__ = [
    "ServeApp",
    "ServerThread",
    "ServeCache",
    "Router",
    "RouteError",
    "QueryService",
    "QuerySpec",
    "REPORT_TABLES",
    "report_payload",
    "SnapshotManager",
    "RefreshWorker",
]
