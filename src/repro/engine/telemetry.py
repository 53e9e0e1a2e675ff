"""Per-query bookkeeping a connection reports into: metrics, the
slow-query log and the EXPLAIN ANALYZE tree.

Owns the names and shapes of what one completed (or aborted) execution
leaves behind — the ``repro_*`` counters, histograms and gauges folded
into the owning database's registry, the ``slow_query`` record, and the
:class:`~repro.observability.analyze.OperatorStats` tree assembled from
recorded spans.  Every function takes the connection it reports for and
keeps no state of its own (the plan-counter baseline and the held
instruments live on the connection, next to the engine they measure).
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import (
    GovernanceError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.observability.analyze import ExecutionProfiler, OperatorStats

if TYPE_CHECKING:  # pragma: no cover - type hints only (import cycle guard)
    from repro.engine.connection import Connection
    from repro.engine.result import QueryResult
    from repro.observability.tracing import Tracer

#: Slow-query records always go here too, independent of tracer sinks.
_SLOW_QUERY_LOGGER = logging.getLogger("repro.slow_query")

#: ``PlanCounters`` attributes mirrored into registry counters, with
#: their metric names.
_COUNTER_METRICS = (
    ("rows_produced", "repro_rows_produced_total"),
    ("join_probes", "repro_join_probes_total"),
    ("fixpoint_rounds", "repro_fixpoint_rounds_total"),
)

#: Governance error classes and their metric label.
_ABORT_KINDS = (
    (QueryTimeoutError, "timeout"),
    (QueryCancelledError, "cancelled"),
    (ResourceExhaustedError, "resource_exhausted"),
)


def snippet(text: str, limit: int = 120) -> str:
    """One-line, length-bounded rendering of a statement for span tags."""
    flattened = " ".join(text.split())
    return flattened if len(flattened) <= limit else flattened[: limit - 3] + "..."


def _instrument(connection: "Connection", kind: str, name: str, help_text: str = "") -> Any:
    """The ``kind`` ("counter" / "gauge" / "histogram") instrument ``name``
    labelled with the connection's engine.  Resolved through the registry
    (a label sort under its lock) on first use, then held by the
    connection until its engine changes; instruments still appear in the
    registry only once a query used them."""
    held = connection._instruments
    instrument = held.get(name)
    if instrument is None:
        make = getattr(connection._owner._metrics, kind)
        instrument = held[name] = make(name, help_text, engine=connection._engine_name)
    return instrument


def record_query_metrics(
    connection: "Connection", elapsed_s: float, result: "QueryResult"
) -> None:
    """Fold one completed query into the owning database's registry."""
    if getattr(connection._owner, "_metrics", None) is None:
        return
    _instrument(
        connection, "counter", "repro_queries_total", "Completed GRAPH_TABLE queries"
    ).inc()
    _instrument(
        connection, "histogram", "repro_query_seconds", "Per-query wall-clock latency"
    ).observe(elapsed_s)
    if result.streamed:
        _instrument(
            connection,
            "counter",
            "repro_streamed_results_total",
            "Results served through the streaming projection path",
        ).inc()
    counters = getattr(connection._engine, "plan_counters", None)
    if counters is not None:
        baseline = connection._plan_counter_baseline
        current: Dict[str, float] = {}
        for attribute, metric in _COUNTER_METRICS:
            value = getattr(counters, attribute, 0)
            current[attribute] = value
            delta = value - baseline.get(attribute, 0)
            if delta > 0:
                _instrument(connection, "counter", metric).inc(delta)
        connection._plan_counter_baseline = current
    plan_cache = getattr(connection._engine, "plan_cache", None)
    if plan_cache is not None:
        info = plan_cache.info()
        for key in ("hits", "misses", "prepared_hits", "prepared_misses", "size"):
            _instrument(connection, "gauge", f"repro_plan_cache_{key}").set(info.get(key, 0))


def record_governance_abort(connection: "Connection", error: GovernanceError) -> None:
    """Tally one governance-aborted execution into the registry."""
    registry = getattr(connection._owner, "_metrics", None)
    if registry is None:
        return
    kind = "fault"
    for cls, label in _ABORT_KINDS:
        if isinstance(error, cls):
            kind = label
            break
    registry.counter(
        "repro_query_aborts_total",
        "Queries aborted by governance (deadline, cancel, budget, fault)",
        engine=connection._engine_name,
        kind=kind,
    ).inc()


def record_decode(
    connection: "Connection", tracer: "Tracer", text: str, rows: int, decode_s: float
) -> None:
    """Report a streamed result's decode phase once its source settles.

    ``repro_query_seconds`` covers the eager phase only (the plan runs at
    ``execute()``); what the cursor then spent inside the row source —
    clocked per batch — lands here: one ``repro_result_decode_seconds``
    observation, the rows it decoded, and a ``decode`` record on the
    run's tracer.
    """
    if getattr(connection._owner, "_metrics", None) is not None:
        _instrument(
            connection,
            "histogram",
            "repro_result_decode_seconds",
            "Time streamed results spent decoding rows, after execute() returned",
        ).observe(decode_s)
        _instrument(
            connection, "counter", "repro_result_rows_total", "Rows decoded by streamed results"
        ).inc(rows)
    if tracer.enabled:
        # Out of band: the root query span closed when execute() returned.
        tracer.emit(
            {
                "name": "decode",
                "duration_s": decode_s,
                "tags": {"rows": rows, "statement": snippet(text)},
            }
        )


def check_slow_query(
    connection: "Connection", text: str, merged, elapsed_s: float, root, tracer: "Tracer",
    *, decode_s: Optional[float] = None,
) -> None:
    """Emit a slow-query record when the database threshold is hit.

    The record carries the statement text, the bindings *shape*
    (parameter names, never values), the snapshot fingerprint and —
    when the run was traced — the per-stage breakdown of the root
    span.  It goes to the run's tracer sinks and always to the
    ``repro.slow_query`` logger.  Called when ``execute()`` returns and,
    with ``decode_s``, again when a streamed result settles: that call
    reports a query only its decode time carried over the threshold.
    """
    threshold = getattr(connection._owner, "slow_query_seconds", None)
    total_s = elapsed_s + (decode_s or 0.0)
    if threshold is None or total_s < threshold:
        return
    if decode_s is not None and elapsed_s >= threshold:
        return  # already reported when execute() returned
    engine = connection._engine_name
    record: Dict[str, Any] = {
        "kind": "slow_query",
        "engine": engine,
        "duration_s": total_s,
        "threshold_s": threshold,
        "statement": snippet(text, limit=400),
        "bindings": sorted(merged),
        "snapshot": connection.snapshot.fingerprint[:12],
    }
    if root is not None:
        record["stages"] = [
            {"name": child.name, "duration_s": child.duration_s}
            for child in root.children
        ]
    if decode_s is not None:
        record["decode_s"] = decode_s
    tracer.emit(record)
    registry = getattr(connection._owner, "_metrics", None)
    if registry is not None:
        registry.counter(
            "repro_slow_queries_total",
            "Queries at or over the slow-query threshold",
            engine=engine,
        ).inc()
    _SLOW_QUERY_LOGGER.warning(
        "slow query (%.4fs >= %.4fs) on %s: %s",
        total_s,
        threshold,
        engine,
        record["statement"],
    )


def _stats_from_span(record: Dict[str, Any]) -> OperatorStats:
    """One emitted span record (and its children) as operator stats."""
    tags = record.get("tags", {})
    label = str(record.get("name", "span")).capitalize()
    detail = [
        f"{key}={tags[key]}"
        for key in ("engine", "streamed", "sql", "sources")
        if key in tags
    ]
    if detail:
        label += " [" + ", ".join(detail) + "]"
    stats = OperatorStats(
        label=label,
        wall_s=float(record.get("duration_s", 0.0)),
        calls=1,
        rows_out=tags.get("rows"),
    )
    stats.children = [_stats_from_span(child) for child in record.get("children", ())]
    return stats


def build_analyze_tree(
    engine_name: str,
    records: List[Dict[str, Any]],
    profiler: ExecutionProfiler,
    total_s: float,
    row_count: int,
    decode_s: float,
) -> OperatorStats:
    """Assemble the operator profile from the recorded spans and the
    executor's per-node figures."""
    root = OperatorStats(
        label=f"Query [engine={engine_name}]",
        wall_s=total_s,
        calls=1,
        rows_out=row_count,
    )
    plan_trees = profiler.plan_trees()
    for record in records:
        name = record.get("name")
        if name == "query":
            for child in record.get("children", ()):
                stats = _stats_from_span(child)
                if child.get("name") == "execute" and plan_trees:
                    stats.children.extend(plan_trees)
                    plan_trees = []
                root.children.append(stats)
        elif name not in ("decode", "slow_query", None):
            # Stages that ran outside the root query span (the cold front
            # half and the engine prepare happen before the statement
            # executes).
            root.children.append(_stats_from_span(record))
    if plan_trees:  # no execute span surfaced (defensive)
        root.children.extend(plan_trees)
    root.children.append(
        OperatorStats(label="Decode", wall_s=decode_s, calls=1, rows_out=row_count)
    )
    return root
