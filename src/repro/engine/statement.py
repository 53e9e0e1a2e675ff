"""One statement's two halves: ``FrontHalf`` and ``PreparedStatement``.

Owns what a statement *is* once its text has been read: the
engine-independent :class:`FrontHalf` record every entry point consumes
(built in exactly one place, :meth:`Connection.front_half
<repro.engine.connection.Connection.front_half>`), and the
:class:`PreparedStatement` that pairs one record with a backend's
compiled form and runs it — binding, governance, admission, the
statically-empty short-circuit and the streaming hand-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.engine import telemetry
from repro.engine.explain import Explain
from repro.engine.result import (
    QueryResult,
    governed_batches,
    ordered_result,
    streamed_result,
)
from repro.errors import GovernanceError
from repro.governance import (
    CancellationToken,
    QueryBudget,
    activate_governor,
    make_governor,
)
from repro.observability.tracing import (
    Tracer,
    activate,
    active_tracer,
    deactivate,
    trace_span,
)
from repro.parameters import Bindings, merge_bindings, require_bindings
from repro.pgq.queries import Query
from repro.planner.logical import LogicalPlan
from repro.relational.relation import Relation
from repro.sqlpgq.ast import GraphTableQuery

if TYPE_CHECKING:  # pragma: no cover - type hints only (import cycle guard)
    from repro.engine.connection import Connection


@dataclass(frozen=True)
class FrontHalf:
    """The engine-independent half of one GRAPH_TABLE statement.

    Everything known about a statement before a backend sees it: the
    parsed AST, the formal PGQ query it compiles to, the direct logical
    lowering of its MATCH pattern, and the analysis verdicts (semantic
    findings merged with the stats-free dataflow warnings).  Immutable;
    ``generation`` is the connection generation it was built against —
    a record whose generation is behind the connection's is stale.
    """

    text: str
    statement: GraphTableQuery
    query: Query
    logical: LogicalPlan
    #: Semantic diagnostics merged with the dataflow warnings (A008+).
    diagnostics: Tuple[Diagnostic, ...]
    #: Inferred ``(column, type)`` result schema; empty with ``analyze=False``.
    result_schema: Tuple[Tuple[str, str], ...]
    #: Inferred ``name -> "number" | "string" | "any"``; empty with
    #: ``analyze=False``.
    parameter_types: Mapping[str, str]
    #: The dataflow pass proved the statement can yield no rows.
    statically_empty: bool
    generation: int


class PreparedStatement:
    """A GRAPH_TABLE statement compiled for a connection's backend.

    Construction (via :meth:`Connection.prepare`) takes the statement's
    :class:`FrontHalf` and compiles its query — through the backend's
    ``prepare`` — exactly once; :meth:`execute` then only binds the
    statement's ``:name`` parameter slots and runs the compiled form.
    The statement transparently re-prepares itself when the connection's
    snapshot or backend changes (``use_engine``, DDL), so a held handle
    never goes stale.
    """

    def __init__(self, session: "Connection", front: FrontHalf):
        self._session = session
        self.text = front.text
        self._compiled = None
        #: Parameter slot names the statement expects, sorted.
        self.parameter_names: Tuple[str, ...] = ()
        #: Completed ``execute`` calls on this statement.
        self.executions = 0
        self._adopt(front)
        self._ensure_compiled()

    def _adopt(self, front: FrontHalf) -> None:
        self._front = front
        #: Inferred parameter types (``name -> "number" | "string" | "any"``)
        #: from the semantic analyzer; empty with ``analyze=False``.
        self.parameter_types: Dict[str, str] = dict(front.parameter_types)
        #: The dataflow pass proved the statement can yield no rows;
        #: consumed by ``_run_governed`` to answer without invoking the
        #: physical executor (any backend).
        self.statically_empty = front.statically_empty
        #: Diagnostics from the prepare-time analysis (semantic findings
        #: merged with the dataflow warnings), for result surfaces.
        self.analysis_diagnostics = front.diagnostics
        #: Inferred ``(column, type)`` result schema from the semantic
        #: analyzer; empty with ``analyze=False``.
        self.result_schema = front.result_schema

    @property
    def statement(self) -> GraphTableQuery:
        """The parsed statement AST."""
        return self._front.statement

    def _ensure_compiled(self) -> None:
        session = self._session
        stale = self._front.generation != session._generation
        if self._compiled is not None and not stale:
            return
        # Release the stale compiled form before replacing it: a DDL
        # generation bump keeps the engine (and e.g. its SQLite
        # connection) alive, so orphaned prepared temp tables would
        # otherwise accumulate across recompiles.
        self.close()
        if stale:
            self._adopt(session.front_half(self.text))
        with trace_span("prepare", engine=session._engine_name):
            self._compiled = session._get_engine().prepare(self._front.query)
        self.parameter_names = tuple(self._compiled.parameter_names)
        # The typed signature rides on the compiled form too, so engine-level
        # callers holding only the CompiledQuery see it.
        self._compiled.parameter_types = dict(self.parameter_types)

    def execute(
        self,
        params: Optional[Bindings] = None,
        /,
        *,
        timeout: Optional[float] = None,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
        **named,
    ) -> QueryResult:
        """Execute with bindings from ``params`` and/or keywords.

        Keyword bindings win on conflict; a missing slot raises
        :class:`~repro.errors.BindingError` naming it.  The mapping
        argument is positional-only, so a slot literally named ``params``
        still binds by keyword.  Returns a lazy :class:`QueryResult`;
        on engines with a streaming surface (the planner) the result is a
        server-side cursor — the plan executes here (errors surface now)
        but projection rows decode incrementally as they are consumed.

        ``timeout``, ``budget`` and ``token`` govern this execution:
        ``timeout`` is shorthand for ``QueryBudget(timeout_s=...)``, a
        ``budget`` overlays the database's ``default_budget`` field-wise,
        and a :class:`CancellationToken` lets another thread cancel the
        run cooperatively.  These keyword names are reserved — a binding
        slot literally named one of them binds via the mapping argument.
        """
        session = self._session
        session._check_open()
        merged = merge_bindings(params, named)
        # The database default budget overlaid with the per-call budget
        # and the ``timeout=`` shorthand (most specific wins field-wise).
        effective = getattr(session._owner, "default_budget", None)
        if budget is not None:
            effective = budget if effective is None else effective.merged(budget)
        if timeout is not None:
            override = QueryBudget(timeout_s=timeout)
            effective = override if effective is None else effective.merged(override)
        governor = make_governor(effective, token)
        # Tracing is decided once per execution, here at statement setup:
        # an ambient tracer (EXPLAIN ANALYZE, an activate() scope) wins,
        # else the connection's tracer applies.  When both are disabled
        # the run takes the plain path below — the only residue of the
        # instrumentation is this check and the wall-clock pair the
        # metrics and the slow-query log need anyway.
        tracer = active_tracer()
        if not tracer.enabled:
            tracer = session._tracer
        if tracer.enabled:
            return self._execute_traced(session, merged, tracer, governor)
        start = perf_counter()
        result = self._run(session, merged, governor)
        self._finish(session, merged, result, perf_counter() - start, None, tracer)
        return result

    def _execute_traced(
        self, session: "Connection", merged, tracer: Tracer, governor
    ) -> QueryResult:
        """The instrumented execution path: a ``query`` root span wraps
        the run, and stage spans (compile, plan, execute, ...) nest under
        it from the instrumented layers below."""
        token = None
        if active_tracer() is not tracer:
            token = activate(tracer)
        try:
            with tracer.span(
                "query",
                engine=session._engine_name,
                statement=telemetry.snippet(self.text),
                params=sorted(merged),
            ) as root:
                result = self._run(session, merged, governor)
            self._finish(session, merged, result, root.duration_s, root, tracer)
            return result
        finally:
            if token is not None:
                deactivate(token)

    def _run(self, session: "Connection", merged, governor=None) -> QueryResult:
        admission = getattr(session._owner, "_admission", None)
        if admission is None:
            return self._run_governed(session, merged, governor)
        # The admission slot covers the eager execution phase only; a
        # streamed result's lazy decode happens after release, so a slow
        # consumer cannot starve the database of execution slots.
        with admission.slot():
            return self._run_governed(session, merged, governor)

    def _run_governed(self, session: "Connection", merged, governor) -> QueryResult:
        result: Optional[QueryResult] = None
        # The engine-invoking section runs under the connection lock:
        # engine evaluation state (in-flight bindings, per-evaluation
        # memos) is per-engine, so concurrent executions on ONE
        # connection must serialize — parallelism comes from one
        # connection per thread, all sharing the snapshot cache.  The
        # streaming path does every stateful step eagerly inside the
        # lock; only the stateless projection decode escapes it (the
        # batch wrapper holds the governor, so decode checkpoints keep
        # working after the context variable resets here).
        try:
            with session._lock, activate_governor(governor):
                self._ensure_compiled()
                statement = self._front.statement
                if self.statically_empty:
                    # The dataflow pass proved zero rows at compile time:
                    # answer directly, never touching the engine.  Binding
                    # checks still apply — a missing parameter is a caller
                    # bug regardless of the proof.
                    require_bindings(self.parameter_names, merged)
                    with trace_span("execute") as span:
                        span.tag(rows=0, statically_empty=True)
                        if governor is not None:
                            governor.count_output(0)
                        result = ordered_result(
                            statement, Relation(len(statement.columns), ())
                        )
                        if governor is not None:
                            result._cancel_token = governor.token
                        return result
                stream = getattr(self._compiled, "execute_stream", None)
                with trace_span("execute") as span:
                    if stream is not None:
                        streamed = stream(merged)
                        if streamed is not None:
                            arity, batches, ordered = streamed
                            span.tag(streamed=True)
                            if governor is not None:
                                # An abort while the rows decode happens
                                # after this window: counted where it raises.
                                batches = governed_batches(
                                    governor,
                                    batches,
                                    partial(telemetry.record_governance_abort, session),
                                )
                            result = streamed_result(statement, arity, batches, ordered)
                            session._live_streams.track(result)
                    if result is None:
                        relation = self._compiled.execute(merged)
                        span.tag(rows=len(relation))
                        if governor is not None:
                            governor.count_output(len(relation))
                        result = ordered_result(statement, relation)
        except GovernanceError as error:
            telemetry.record_governance_abort(session, error)
            raise
        if governor is not None:
            result._cancel_token = governor.token
        return result

    def _finish(
        self, session: "Connection", merged, result: QueryResult, elapsed_s: float, root, tracer
    ) -> None:
        """Post-execution bookkeeping shared by both paths: prepared
        accounting, per-query metrics, and the slow-query check.
        ``elapsed_s`` is the eager phase; a streamed result reports its
        decode phase when its source settles."""
        reused = self.executions > 0
        self.executions += 1
        session._note_prepared_execution(reused=reused)
        telemetry.record_query_metrics(session, elapsed_s, result)
        slow_check = (session, self.text, merged, elapsed_s, root, tracer)
        telemetry.check_slow_query(*slow_check)
        if result.streamed:

            def settled(rows: int, decode_s: float) -> None:
                telemetry.record_decode(session, tracer, self.text, rows, decode_s)
                telemetry.check_slow_query(*slow_check, decode_s=decode_s)

            result._on_settled = settled

    def explain(self) -> Explain:
        """The statement's optimized plan plus per-statement reuse counts."""
        explain = self._session.explain(self.text)
        explain.prepared["statement_executions"] = self.executions
        return explain

    def close(self) -> None:
        """Release backend resources held by the compiled form (e.g. the
        SQLite statement's persisted temp tables)."""
        if self._compiled is not None:
            close = getattr(self._compiled, "close", None)
            if close is not None:
                close()
            self._compiled = None
