"""Transport-agnostic request handling for the graph query service.

:class:`QueryService` owns the connection pool and turns ``(method,
path, body)`` triples into ``(status, content type, body)`` responses —
the HTTP server in :mod:`repro.service.http` is a thin adapter over
:meth:`QueryService.handle`, and tests drive the service in-process
without sockets.

Every request is measured: a ``repro_service_requests_total`` counter
per route/status, a ``repro_service_request_seconds`` latency histogram
per route (p50/p95/p99 via the registry's reservoir), pool gauges, and
— when the database's tracer is enabled — a ``service.request`` span
wrapping the dispatch so per-request traces nest the engine's own
spans.
"""

from __future__ import annotations

import logging
from time import monotonic, perf_counter
from typing import Any, Dict, Optional, Tuple

from repro.engine.database import Database
from repro.engine.statement import FrontHalf
from repro.errors import ReproError
from repro.service.pool import ConnectionPool
from repro.service.protocol import (
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_PROMETHEUS,
    ProtocolError,
    QueryRequest,
    dry_run_response,
    encode,
    error_payload,
    parse_json,
    query_response,
    status_for,
)

__all__ = ["QueryService", "Response"]

_LOGGER = logging.getLogger("repro.service")

#: ``handle()``'s return shape: (HTTP status, content type, body bytes).
Response = Tuple[int, str, bytes]


class QueryService:
    """The service core: routes requests over a pooled database catalog.

    Endpoints:

    * ``POST /query`` — execute one SQL/PGQ statement with optional
      ``params`` and per-request governance (``timeout_ms``,
      ``max_output_rows``, ``max_intermediate``); ``dry_run: true``
      analyzes and compiles without executing, answering with the
      inferred result schema, typed parameter signature and the
      structured analysis diagnostics.
    * ``POST /ddl`` — apply ``CREATE PROPERTY GRAPH`` DDL and/or create
      a base table, then hand the pool off to the new snapshot.
    * ``GET /healthz`` — liveness plus catalog/pool state.
    * ``GET /metrics`` — the metrics registry in Prometheus text format.
    """

    def __init__(
        self,
        database: Database,
        *,
        engine: str = "planned",
        pool_size: int = 8,
        default_timeout_ms: Optional[float] = None,
        acquire_timeout_s: float = 5.0,
        max_repetitions: Optional[int] = None,
        **engine_options: Any,
    ):
        self.database = database
        self.pool = ConnectionPool(
            database,
            engine=engine,
            size=pool_size,
            acquire_timeout_s=acquire_timeout_s,
            max_repetitions=max_repetitions,
            **engine_options,
        )
        self._default_timeout_ms = default_timeout_ms
        self._metrics = database.metrics
        self._started = monotonic()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def handle(self, method: str, path: str, body: Optional[bytes] = b"") -> Response:
        """Serve one request; never raises — errors become responses.
        ``body=None``: the transport could not delimit one — a 400."""
        start = perf_counter()
        path = path.split("?", 1)[0]
        route = path if path in ("/query", "/ddl", "/healthz", "/metrics") else "unknown"
        tracer = self.database.tracer
        span = (
            tracer.span("service.request", route=route, method=method)
            if tracer.enabled
            else None
        )
        try:
            if span is not None:
                with span:
                    status, content_type, payload = self._dispatch(method, path, body)
                    span.tag(status=status)
            else:
                status, content_type, payload = self._dispatch(method, path, body)
        except ReproError as error:
            status = status_for(error)
            content_type, payload = CONTENT_TYPE_JSON, encode(error_payload(error))
        except Exception as error:  # service boundary: always answer
            _LOGGER.exception("unhandled error serving %s %s", method, path)
            status = 500
            content_type = CONTENT_TYPE_JSON
            payload = encode(
                {"error": {"type": type(error).__name__, "message": str(error)}}
            )
        self._observe(route, status, perf_counter() - start)
        return status, content_type, payload

    def _dispatch(self, method: str, path: str, body: Optional[bytes]) -> Response:
        if body is None:
            raise ProtocolError("malformed Content-Length header")
        if path == "/query":
            self._require(method, "POST", path)
            return self._handle_query(body)
        if path == "/ddl":
            self._require(method, "POST", path)
            return self._handle_ddl(body)
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, CONTENT_TYPE_JSON, encode(self.health())
        if path == "/metrics":
            self._require(method, "GET", path)
            return 200, CONTENT_TYPE_PROMETHEUS, self.metrics_text().encode("utf-8")
        raise ProtocolError(f"no such endpoint: {path}", status=404)

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ProtocolError(
                f"{path} takes {expected}, not {method}", status=405
            )

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _handle_query(self, body: bytes) -> Response:
        request = QueryRequest.from_payload(parse_json(body))
        start = perf_counter()
        with self.pool.acquire() as connection:
            # The connection's own parse decides — a repeated query text is
            # a store hit — so no comment or whitespace hides a DDL.
            front = connection.pipeline(request.statement)
            if not isinstance(front, FrontHalf):
                raise ProtocolError(
                    "DDL goes through POST /ddl (pooled connections stay "
                    "pinned to their snapshot)"
                )
            if request.dry_run:
                return self._dry_run(connection, front, start)
            result = connection.execute(
                request.statement,
                request.params,
                budget=request.budget(default_timeout_ms=self._default_timeout_ms),
            )
            # Materialize inside the lease: a streamed result still
            # pending when the connection is recycled is closed.
            payload = query_response(
                columns=list(result.columns),
                rows=result.rows,
                elapsed_ms=(perf_counter() - start) * 1000.0,
                engine=connection.engine_name,
                snapshot=connection.snapshot.fingerprint,
                streamed=result.streamed,
            )
        return 200, CONTENT_TYPE_JSON, encode(payload)

    @staticmethod
    def _dry_run(connection, front: FrontHalf, start: float) -> Response:
        """``dry_run: true`` — analyze and compile, never execute.

        The response carries the analyzer's inferred result schema and
        typed parameter signature, the structured analysis diagnostics
        (semantic + dataflow), and the ``statically_empty`` verdict.
        Analysis *errors* surface as 400s like any bad statement, so a
        dry run is a cheap validity probe before committing a budgeted
        execution.  Only the statement's front half is built: the
        backend is never asked to prepare anything, so a dry run leaves
        nothing behind on the pooled connection.
        """
        payload = dry_run_response(
            schema=list(front.result_schema),
            diagnostics=[diagnostic.to_payload() for diagnostic in front.diagnostics],
            parameters=dict(front.parameter_types),
            statically_empty=front.statically_empty,
            elapsed_ms=(perf_counter() - start) * 1000.0,
            engine=connection.engine_name,
            snapshot=connection.snapshot.fingerprint,
        )
        return 200, CONTENT_TYPE_JSON, encode(payload)

    def _handle_ddl(self, body: bytes) -> Response:
        payload = parse_json(body)
        unknown = sorted(set(payload) - {"statement", "table"})
        if unknown:
            raise ProtocolError(f"unknown ddl field(s): {', '.join(unknown)}")
        statement = payload.get("statement")
        table = payload.get("table")
        if statement is None and table is None:
            raise ProtocolError("ddl request needs 'statement' and/or 'table'")
        applied: Dict[str, Any] = {}
        if table is not None:
            applied["table"] = self._create_table(table)
        if statement is not None:
            if not isinstance(statement, str) or not statement.strip():
                raise ProtocolError("'statement' must be a non-empty string")
            applied["graph"] = self.database.execute(statement).name
        handoff = self.pool.refresh()
        stats = self.pool.stats()
        applied.update(
            {
                "version": stats["version"],
                "snapshot": stats["snapshot"],
                "handoff": handoff,
            }
        )
        return 200, CONTENT_TYPE_JSON, encode(applied)

    def _create_table(self, spec: Any) -> str:
        if not isinstance(spec, dict):
            raise ProtocolError("'table' must be an object")
        unknown = sorted(set(spec) - {"name", "columns", "rows"})
        if unknown:
            raise ProtocolError(f"unknown table field(s): {', '.join(unknown)}")
        name = spec.get("name")
        columns = spec.get("columns")
        rows = spec.get("rows", [])
        if not isinstance(name, str) or not name:
            raise ProtocolError("'table.name' must be a non-empty string")
        if not isinstance(columns, list) or not all(
            isinstance(column, str) for column in columns
        ):
            raise ProtocolError("'table.columns' must be a list of strings")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) for row in rows
        ):
            raise ProtocolError("'table.rows' must be a list of lists")
        self.database.create_table(name, columns, [tuple(row) for row in rows])
        return name

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body."""
        stats = self.pool.stats()
        return {
            "status": "ok",
            "uptime_s": round(monotonic() - self._started, 3),
            "engine": self.pool.engine,
            "version": stats["version"],
            "snapshot": stats["snapshot"],
            "graphs": sorted(self.pool.snapshot.catalog.names()),
            "pool": stats,
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition)."""
        self.database.export_metrics()  # sync cache-level gauges
        stats = self.pool.stats()
        self._metrics.set_gauges(
            {
                "repro_service_pool_available": stats["available"],
                "repro_service_pool_in_flight": stats["in_flight"],
                "repro_service_pool_retired_open": stats["retired_open"],
                "repro_service_pool_handoffs": stats["handoffs"],
            }
        )
        return self._metrics.to_prometheus()

    # ------------------------------------------------------------------ #
    # Measurement / lifecycle
    # ------------------------------------------------------------------ #
    def _observe(self, route: str, status: int, elapsed_s: float) -> None:
        self._metrics.counter(
            "repro_service_requests_total",
            "Requests served, by route and HTTP status.",
            route=route,
            status=str(status),
        ).inc()
        self._metrics.histogram(
            "repro_service_request_seconds",
            "End-to-end request latency per route.",
            route=route,
        ).observe(elapsed_s)

    def close(self) -> None:
        """Release the pool (the database stays with its owner)."""
        self.pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
