"""Wire protocol of the query service: JSON shapes + error→HTTP mapping.

The service speaks plain HTTP/JSON.  This module is transport-free: it
validates request payloads into typed objects, renders response bodies,
and maps the repro exception hierarchy onto HTTP status codes.  The
mapping is the service's governance contract (ISSUE 9 / ROADMAP item 1):

=============================  ======  ========================================
exception                      status  meaning on the wire
=============================  ======  ========================================
``QueryTimeoutError``          408     per-request ``timeout_ms`` deadline hit
``AdmissionTimeoutError``      429     ``max_concurrent_queries`` semaphore or
                                       connection pool stayed full
``ResourceExhaustedError``     413     ``max_output_rows``/``max_intermediate``
``QueryCancelledError``        499     cancelled via token (nginx convention)
``ParseError`` / ``QueryError``
/ ``SchemaError`` ...          400     the statement itself is at fault
``ConnectionClosedError``      503     catalog/pool shut down under the request
``EngineError`` (other)        500     backend failure
=============================  ======  ========================================

Governance errors additionally carry the partial-progress dict
(checkpoints fired, intermediate tuples counted, elapsed seconds) in the
JSON body, so a caller that got a 408 can see how far its query ran.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    AdmissionTimeoutError,
    ConnectionClosedError,
    EngineError,
    GovernanceError,
    GraphError,
    ParseError,
    PatternError,
    QueryCancelledError,
    QueryError,
    QueryTimeoutError,
    ReproError,
    ResourceExhaustedError,
    SchemaError,
    ViewError,
)
from repro.governance import QueryBudget

__all__ = [
    "CONTENT_TYPE_JSON",
    "CONTENT_TYPE_PROMETHEUS",
    "ProtocolError",
    "QueryRequest",
    "dry_run_response",
    "encode",
    "error_payload",
    "parse_json",
    "query_response",
    "status_for",
]

CONTENT_TYPE_JSON = "application/json; charset=utf-8"
CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class ProtocolError(ReproError):
    """A request the service cannot interpret (malformed JSON, wrong
    field types, unknown endpoint, wrong method).  Carries the HTTP
    status the transport should answer with."""

    def __init__(self, message: str, *, status: int = 400):
        super().__init__(message)
        self.status = status


#: Most-specific-first mapping from exception class to HTTP status.  The
#: first ``isinstance`` hit wins, so subclasses must precede their bases
#: (``QueryTimeoutError`` before ``GovernanceError`` before
#: ``EngineError``).
_STATUS_BY_ERROR: Tuple[Tuple[type, int], ...] = (
    (QueryTimeoutError, 408),
    (AdmissionTimeoutError, 429),
    (QueryCancelledError, 499),
    (ResourceExhaustedError, 413),
    (GovernanceError, 500),
    (ConnectionClosedError, 503),
    (ParseError, 400),
    (QueryError, 400),
    (SchemaError, 400),
    (GraphError, 400),
    (ViewError, 400),
    (PatternError, 400),
    (EngineError, 500),
    (ReproError, 500),
)


def status_for(error: BaseException) -> int:
    """The HTTP status code for ``error`` per the governance contract."""
    if isinstance(error, ProtocolError):
        return error.status
    for kind, status in _STATUS_BY_ERROR:
        if isinstance(error, kind):
            return status
    return 500


def error_payload(error: BaseException) -> Dict[str, Any]:
    """The JSON body describing ``error``.

    Always ``{"error": {"type", "message"}}``; governance errors add
    their ``progress`` counters, cancellations and closed handles add
    the ``reason`` recorded at the stop site.
    """
    detail: Dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, GovernanceError):
        detail["progress"] = dict(error.progress)
    reason = getattr(error, "reason", None)
    if reason is not None:
        detail["reason"] = reason
    return {"error": detail}


def encode(payload: Dict[str, Any]) -> bytes:
    """Serialize a response body (non-JSON values fall back to ``str``)."""
    return json.dumps(payload, default=str, separators=(",", ":")).encode("utf-8")


def parse_json(body: bytes) -> Dict[str, Any]:
    """Decode a request body into a JSON object, or raise 400."""
    if not body:
        raise ProtocolError("request body is empty; expected a JSON object")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"request body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _optional_number(payload: Dict[str, Any], field: str) -> Optional[float]:
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{field!r} must be a number, got {type(value).__name__}")
    if value < 0:
        raise ProtocolError(f"{field!r} must be non-negative, got {value!r}")
    return float(value)


def _optional_count(payload: Dict[str, Any], field: str) -> Optional[int]:
    value = _optional_number(payload, field)
    return None if value is None else int(value)


@dataclass(frozen=True)
class QueryRequest:
    """A validated ``POST /query`` body.

    ``statement`` is the SQL/PGQ text; ``params`` binds its ``:name``
    slots; ``timeout_ms`` / ``max_output_rows`` / ``max_intermediate``
    overlay the service's default :class:`QueryBudget` per request.
    """

    statement: str
    params: Optional[Dict[str, Any]]
    timeout_ms: Optional[float]
    max_output_rows: Optional[int]
    max_intermediate: Optional[int]
    dry_run: bool = False

    _KNOWN_FIELDS = frozenset(
        {
            "statement",
            "params",
            "timeout_ms",
            "max_output_rows",
            "max_intermediate",
            "dry_run",
        }
    )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "QueryRequest":
        unknown = sorted(set(payload) - cls._KNOWN_FIELDS)
        if unknown:
            raise ProtocolError(f"unknown query field(s): {', '.join(unknown)}")
        statement = payload.get("statement")
        if not isinstance(statement, str) or not statement.strip():
            raise ProtocolError("'statement' must be a non-empty string")
        params = payload.get("params")
        if params is not None and not isinstance(params, dict):
            raise ProtocolError(
                f"'params' must be an object of named bindings, got "
                f"{type(params).__name__}"
            )
        dry_run = payload.get("dry_run", False)
        if not isinstance(dry_run, bool):
            raise ProtocolError(
                f"'dry_run' must be a boolean, got {type(dry_run).__name__}"
            )
        return cls(
            statement=statement,
            params=dict(params) if params else None,
            timeout_ms=_optional_number(payload, "timeout_ms"),
            max_output_rows=_optional_count(payload, "max_output_rows"),
            max_intermediate=_optional_count(payload, "max_intermediate"),
            dry_run=dry_run,
        )

    def budget(self, *, default_timeout_ms: Optional[float] = None) -> Optional[QueryBudget]:
        """The per-request governance budget (None when ungoverned).

        The request's ``timeout_ms`` wins over the service default; the
        database's own ``default_budget`` still overlays underneath when
        the connection executes.
        """
        timeout_ms = self.timeout_ms if self.timeout_ms is not None else default_timeout_ms
        if (
            timeout_ms is None
            and self.max_output_rows is None
            and self.max_intermediate is None
        ):
            return None
        return QueryBudget(
            timeout_s=None if timeout_ms is None else timeout_ms / 1000.0,
            max_output_rows=self.max_output_rows,
            max_intermediate=self.max_intermediate,
        )


def dry_run_response(
    *,
    schema: List[Tuple[str, str]],
    diagnostics: List[Dict[str, Any]],
    parameters: Dict[str, str],
    statically_empty: bool,
    elapsed_ms: float,
    engine: str,
    snapshot: str,
) -> Dict[str, Any]:
    """The ``POST /query`` 200 body for ``dry_run: true``.

    No rows: the statement is analyzed and compiled but never executed.
    ``schema`` is the analyzer's inferred ``[column, type]`` result
    signature, ``diagnostics`` the structured analysis findings
    (:meth:`~repro.analysis.diagnostics.Diagnostic.to_payload` dicts),
    ``parameters`` the inferred ``:name -> type`` bindings signature, and
    ``statically_empty`` the dataflow verdict — ``true`` means executing
    the statement would short-circuit without touching the engine.
    """
    return {
        "dry_run": True,
        "schema": [list(entry) for entry in schema],
        "diagnostics": diagnostics,
        "parameters": parameters,
        "statically_empty": statically_empty,
        "elapsed_ms": round(elapsed_ms, 3),
        "engine": engine,
        "snapshot": snapshot,
    }


def query_response(
    *,
    columns: List[str],
    rows: Sequence[Sequence[Any]],
    elapsed_ms: float,
    engine: str,
    snapshot: str,
    streamed: bool,
) -> Dict[str, Any]:
    """The ``POST /query`` 200 body.  ``rows`` goes in as it is — a
    result's tuple of row tuples encodes to the same JSON arrays a list
    of lists does, so nothing is copied to serialize it."""
    return {
        "columns": columns,
        "rows": rows,
        "row_count": len(rows),
        "elapsed_ms": round(elapsed_ms, 3),
        "engine": engine,
        "snapshot": snapshot,
        "streamed": streamed,
    }
