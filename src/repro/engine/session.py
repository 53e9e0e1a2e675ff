"""Statement execution over snapshots: ``Connection`` and the session shim.

A :class:`Connection` is a lightweight, thread-safe statement-execution
handle bound to one immutable :class:`~repro.engine.database.Snapshot` of
a :class:`~repro.engine.database.Database` catalog.  The typical flow:

>>> from repro.engine.database import Database
>>> db = Database()
>>> db.create_table("Account", ["iban"], rows)
>>> db.create_table("Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], rows)
>>> db.execute("CREATE PROPERTY GRAPH Transfers ( ... )")
>>> with db.connect(engine="planned") as conn:
...     conn.execute("SELECT * FROM GRAPH_TABLE ( Transfers MATCH ... COLUMNS (...) )")

Statement execution is **two-phase**: :meth:`Connection.prepare` parses
and compiles a statement once into a :class:`PreparedStatement`, whose
``execute(**params)`` binds the statement's ``:name`` parameter slots per
call — the plan is compiled once and shared across bindings.
:meth:`Connection.execute` is sugar over an internal prepared-statement
LRU keyed on the statement text.

All snapshot-scoped derived state — materialized view graphs, compact
encodings, relational CSE results, compiled plans — lives in the
database's shared :class:`~repro.engine.database.SnapshotCache`, so N
connections over one snapshot pay each cold materialization once (see
``Explain.shared``).  Planned-engine results additionally **stream**:
projection rows are yielded incrementally from the executor, and
iteration over a :class:`QueryResult` starts before the full row set
materializes (deterministic ordering is applied lazily by the ``fetch*``
/ whole-result accessors).

:class:`PGQSession` remains as a **deprecated single-connection shim**
over an implicit private ``Database``: ``register_table`` / ``drop_graph``
advance the implicit catalog and move the shim to the new head snapshot,
which is exactly the pre-snapshot behavior.  New code should hold a
``Database`` and ``connect()``.
"""

from __future__ import annotations

import logging
import threading
import warnings
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.semantic import (
    QueryAnalysis,
    analyze_query,
    strict_analysis_enabled,
)
from repro.errors import (
    ConnectionClosedError,
    EngineError,
    GovernanceError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.engine.registry import Engine, check_engine_options, create_engine
from repro.governance import (
    CancellationToken,
    QueryBudget,
    activate_governor,
    make_governor,
)
from repro.observability.analyze import (
    ExecutionProfiler,
    OperatorStats,
    activate_profiler,
    deactivate_profiler,
)
from repro.observability.tracing import (
    NULL_TRACER,
    RingBufferSink,
    Tracer,
    activate,
    active_tracer,
    deactivate,
    trace_span,
)
from repro.parameters import Bindings, merge_bindings, require_bindings
from repro.pgq.queries import Query
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sqlpgq.ast import CreatePropertyGraph, GraphTableQuery
from repro.sqlpgq.catalog import GraphCatalog, GraphDefinition
from repro.sqlpgq.compiler import compile_query, compile_to_plan
from repro.sqlpgq.parser import parse_statement

if TYPE_CHECKING:  # pragma: no cover - type hints only (import cycle guard)
    from repro.engine.database import Database as CatalogDatabase, Snapshot

#: Sentinel distinguishing "argument not passed" from an explicit None.
_UNSET: object = object()

#: Slow-query records always go here too, independent of tracer sinks.
_SLOW_QUERY_LOGGER = logging.getLogger("repro.slow_query")


def _snippet(text: str, limit: int = 120) -> str:
    """One-line, length-bounded rendering of a statement for span tags."""
    flattened = " ".join(text.split())
    return flattened if len(flattened) <= limit else flattened[: limit - 3] + "..."


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


def _traced_decode(tracer: Tracer, rows: Iterator[Tuple], statement_text: str):
    """Wrap a streaming projection so the lazy per-row decode is timed.

    Each ``next()`` is measured on the monotonic clock; when the stream
    drains, one ``decode`` record with the accumulated decode time and
    row count is emitted to the tracer's sinks (the root query span has
    already closed by the time a streamed result decodes, so the decode
    stage reports out-of-band).
    """
    count = 0
    spent = 0.0
    iterator = iter(rows)
    try:
        while True:
            mark = perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                spent += perf_counter() - mark
                tracer.emit(
                    {
                        "name": "decode",
                        "duration_s": spent,
                        "tags": {
                            "rows": count,
                            "statement": _snippet(statement_text),
                            "per_row": True,
                        },
                    }
                )
                return
            spent += perf_counter() - mark
            count += 1
            yield row
    finally:
        # Propagate close() through the wrapper so abandoning a streamed
        # result releases the underlying cursor (not just this generator).
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


def _governed_rows(governor, rows: Iterator[Tuple]) -> Iterator[Tuple]:
    """Meter a streamed projection against the execution's governor.

    Counts each decoded row against ``max_output_rows`` and polls the
    governor every 64 rows — which covers backends whose streams carry no
    in-engine checkpoints (the SQLite cursor stream) and lets a
    cross-thread :meth:`QueryResult.cancel` land between rows even there.
    """
    produced = 0
    try:
        for row in rows:
            produced += 1
            governor.count_output(1)
            if not produced & 63:
                governor.checkpoint("stream.decode")
            yield row
    finally:
        # Propagate close() through the wrapper so abandoning a streamed
        # result releases the underlying cursor (not just this generator).
        close = getattr(rows, "close", None)
        if close is not None:
            close()


class QueryResult:
    """Result of executing a statement: column names plus rows.

    Results are **cursor-backed** and may be **streamed**: the row source
    can be a lazy iterator, and for the planned engine it is a true
    server-side cursor — rows arrive incrementally from the executor's
    projection before the full result materializes (``streamed`` records
    that provenance).  Two access styles coexist:

    * *cursor semantics* — :meth:`fetchone` / :meth:`fetchmany` /
      :meth:`fetchall` consume rows forward in the result's deterministic
      order, each row delivered once (requesting ordered rows
      materializes lazily: the sort runs on first ordered access);
    * *whole-result semantics* — ``rows``, ``len()``, :meth:`to_list`,
      :meth:`to_set`, :meth:`to_dicts` and ``repr`` view the complete
      result (materializing whatever has not yet been pulled) without
      advancing the cursor.

    Plain iteration is the streaming surface: it yields buffered rows in
    *arrival* order, pulling from the source on demand, so consumers can
    start processing before the engine finishes projecting.  Iteration
    is repeatable (rows are buffered); once an ordered accessor has
    materialized the result, iteration follows the deterministic order.
    """

    #: Rows shown by ``__repr__`` before truncating with a ``(+N more
    #: rows)`` footer.
    _REPR_LIMIT = 20

    def __init__(
        self,
        columns: Sequence[str],
        rows: Union[Iterable[Tuple], Iterator[Tuple]],
        *,
        order_key: Optional[Callable[[Tuple], Any]] = None,
        streamed: bool = False,
    ):
        self.columns = tuple(columns)
        #: True when rows arrive incrementally from the engine's streaming
        #: projection (server-side cursor provenance).
        self.streamed = streamed
        #: Sort key applied lazily by the ordered accessors (``None`` =
        #: the source order is already the result order).
        self._order_key = order_key
        if isinstance(rows, (tuple, list)):
            self._fetched: List[Tuple] = list(rows)
            self._source: Optional[Iterator[Tuple]] = None
        else:
            self._fetched = []
            self._source = iter(rows)
        #: Forward position of the fetchone/fetchmany cursor (an index
        #: into the deterministic row order).
        self._cursor = 0
        #: Cached full-row tuple in deterministic order, built once on
        #: first ordered access.
        self._rows_cache: Optional[Tuple[Tuple, ...]] = None
        #: Cancellation token of the producing execution, set by the
        #: session when the run was governed (None otherwise); lets
        #: :meth:`cancel` interrupt in-engine loops from another thread.
        self._cancel_token: Optional[CancellationToken] = None
        #: Set by :meth:`cancel` / :meth:`close`: pulling more rows from
        #: a pending source raises instead of decoding further.
        self._cancel_reason: Optional[str] = None
        self._close_reason: Optional[str] = None

    # -- cooperative cancellation / lifecycle ---------------------------- #
    def cancel(self, reason: str = "cancelled by consumer") -> bool:
        """Cooperatively cancel the producing query (thread-safe).

        Cancels the execution's :class:`CancellationToken` when the run
        was governed — interrupting engine loops still decoding on
        another thread at their next checkpoint — and marks any pending
        row source so further pulls on *this* result raise
        :class:`~repro.errors.QueryCancelledError`.  Returns True when
        there was anything left to cancel; rows already buffered stay
        readable.
        """
        cancelled = False
        token = self._cancel_token
        if token is not None:
            cancelled = token.cancel(reason)
        if self._source is not None and self._cancel_reason is None:
            self._cancel_reason = reason
            cancelled = True
        return cancelled

    def close(self, *, reason: str = "result closed") -> None:
        """Release the pending row source (idempotent).

        A closed result keeps already-buffered rows out of reach too:
        any access that would need the source raises
        :class:`~repro.errors.ConnectionClosedError` carrying ``reason``.
        Closing a fully materialized result is a no-op.
        """
        if self._source is not None and self._close_reason is None:
            self._close_reason = reason
            close = getattr(self._source, "close", None)
            if close is not None:
                close()  # run the generator's finally blocks now

    def _check_abandoned(self) -> None:
        if self._close_reason is not None:
            raise ConnectionClosedError("result is closed", reason=self._close_reason)
        if self._cancel_reason is not None:
            raise QueryCancelledError(
                f"result cancelled: {self._cancel_reason}", reason=self._cancel_reason
            )

    # -- materialization ------------------------------------------------- #
    def _pull(self) -> bool:
        """Buffer one more row from the source; False when exhausted."""
        if self._source is None:
            return False
        self._check_abandoned()
        try:
            self._fetched.append(next(self._source))
            return True
        except StopIteration:
            self._source = None
            return False

    def _materialize(self) -> List[Tuple]:
        if self._source is not None:
            self._check_abandoned()
            self._fetched.extend(self._source)
            self._source = None
        return self._fetched

    @property
    def rows(self) -> Tuple[Tuple, ...]:
        """Every row of the result in deterministic order (materializes;
        cursor position kept).

        The tuple is built (and, for streamed results, sorted) once and
        cached, so repeated access keeps the stored-attribute cost profile
        of the pre-cursor representation.
        """
        if self._rows_cache is None:
            rows = self._materialize()
            if self._order_key is not None:
                rows = sorted(rows, key=self._order_key)
            self._rows_cache = tuple(rows)
        return self._rows_cache

    # -- cursor API ------------------------------------------------------ #
    def fetchone(self) -> Optional[Tuple]:
        """Next unconsumed row, or None at the end of the result."""
        batch = self.fetchmany(1)
        return batch[0] if batch else None

    def fetchmany(self, size: int = 1) -> List[Tuple]:
        """Up to ``size`` unconsumed rows (an empty list when exhausted)."""
        if self._order_key is not None:
            ordered = self.rows
            batch = list(ordered[self._cursor : self._cursor + size])
        else:
            while len(self._fetched) - self._cursor < size and self._pull():
                pass
            batch = self._fetched[self._cursor : self._cursor + size]
        self._cursor += len(batch)
        return batch

    def fetchall(self) -> List[Tuple]:
        """All remaining unconsumed rows."""
        if self._order_key is not None:
            ordered = self.rows
            batch = list(ordered[self._cursor :])
            self._cursor = len(ordered)
            return batch
        self._materialize()
        batch = self._fetched[self._cursor :]
        self._cursor = len(self._fetched)
        return batch

    # -- whole-result API ------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._materialize())

    def __iter__(self) -> Iterator[Tuple]:
        cached = self._rows_cache
        if cached is not None:
            # Already materialized in deterministic order; iterate that.
            return iter(cached)
        return self._iter_arrival()

    def _iter_arrival(self) -> Iterator[Tuple]:
        index = 0
        while True:
            if index < len(self._fetched):
                yield self._fetched[index]
                index += 1
            elif not self._pull():
                return

    def to_set(self):
        return set(self.rows)

    def to_list(self) -> List[Tuple]:
        """Rows as a plain list, in the result's deterministic order."""
        return list(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as ``{column: value}`` dictionaries, in result order."""
        columns = self.columns
        return [dict(zip(columns, row)) for row in self.rows]

    def equals_unordered(self, other: Union["QueryResult", Iterable[Tuple]]) -> bool:
        """Multiset row equality, ignoring order (cross-engine checks).

        Accepts another :class:`QueryResult` or any iterable of row tuples;
        column names are not compared (backends may fall back to positional
        names).
        """
        other_rows = other.rows if isinstance(other, QueryResult) else tuple(other)
        return Counter(self.rows) == Counter(tuple(row) for row in other_rows)

    # Value semantics on (columns, rows), as the pre-cursor frozen
    # dataclass had — comparing or hashing materializes the rows.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.columns, self.rows))

    def __repr__(self) -> str:
        rows = self.rows
        header = [str(column) for column in self.columns]
        body = [[repr(value) for value in row] for row in rows[: self._REPR_LIMIT]]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(cell.ljust(width) for cell, width in zip(header, widths)),
            "-+-".join("-" * width for width in widths),
        ]
        lines += [
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in body
        ]
        if len(rows) > self._REPR_LIMIT:
            lines.append(f"... (+{len(rows) - self._REPR_LIMIT} more rows)")
        lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
        return "\n".join(lines)


@dataclass
class Explain:
    """Structured EXPLAIN output: plan tree plus execution provenance.

    ``plan`` is the optimized logical plan rendering; ``counters`` the
    engine's execution counters (compact encode time — tallied on the
    engine that built each shared matcher cold, so warm sibling
    connections may report zeros here);
    ``cache`` the plan cache statistics including the
    ``prepared_hits``/``prepared_misses`` breakdown, a ``provenance``
    marker (``"shared"`` for snapshot-scoped caches, ``"private"`` for
    engine-owned ones) and ``session_*`` counters that accumulate across
    ``use_engine`` backend swaps instead of silently resetting with the
    engine (measured from the connection's attach-time baseline, so on a
    *shared* cache they cover the cache activity this connection
    observed — concurrent sibling connections' hits included);
    ``prepared`` the connection's prepared-statement accounting.
    ``snapshot`` is the content fingerprint of the snapshot the
    connection reads, ``shared`` the snapshot cache's build/hit figures
    (cold view materializations, shared hits, compact encodings), and
    ``streamed`` how many results this connection served through the
    streaming projection path.  ``str(explain)`` renders the classic text
    form, and substring membership tests work directly on the object.
    """

    plan: str
    counters: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    prepared: Dict[str, int] = field(default_factory=dict)
    snapshot: str = ""
    shared: Dict[str, int] = field(default_factory=dict)
    streamed: int = 0
    #: Per-operator execution profile (wall time, rows, memo hits), set
    #: by :meth:`Connection.explain_analyze` and rendered as an indented
    #: tree by ``str(explain)``.
    analyze: Optional[OperatorStats] = None
    #: Semantic-analyzer notes for the statement — today the inferred
    #: ``:name`` parameter types — rendered as an ``-- analyzer:`` line.
    #: Empty when the statement declares no parameters or the connection
    #: was opened with ``analyze=False``.
    diagnostics: Tuple[str, ...] = ()
    #: Structured analysis diagnostics (code, severity, position): the
    #: semantic analyzer's findings merged with the plan-level dataflow
    #: warnings (A008+).  A statement that *prepares* can still carry
    #: warning-severity entries here.
    analysis: Tuple[Diagnostic, ...] = ()
    #: Inferred result schema: ``(column name, type)`` per output column,
    #: from the analyzer's type lattice plus ``node id`` / ``edge id``
    #: for identifier outputs.  Empty with ``analyze=False``.
    schema: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        text = self.plan
        if self.counters:
            text += (
                "\n-- engine counters: "
                f"compact_encode_s={self.counters.get('compact_encode_s', 0.0):.6f}"
            )
        if self.cache:
            text += (
                f"\n-- plan cache: hits={self.cache.get('hits', 0)} "
                f"misses={self.cache.get('misses', 0)} "
                f"prepared_hits={self.cache.get('prepared_hits', 0)} "
                f"size={self.cache.get('size', 0)} "
                f"provenance={self.cache.get('provenance', 'private')}"
            )
        if self.prepared:
            text += (
                f"\n-- prepared statements: statements={self.prepared.get('statements', 0)} "
                f"executions={self.prepared.get('executions', 0)} "
                f"binding_reuse={self.prepared.get('binding_reuse', 0)}"
            )
        if self.snapshot or self.shared or self.streamed:
            shared_hits = sum(
                count for key, count in self.shared.items() if key.endswith("_shared_hits")
            )
            text += (
                f"\n-- snapshot: {self.snapshot[:12] if self.snapshot else '-'} "
                f"shared_hits={shared_hits} "
                f"views_built={self.shared.get('views_built', 0)} "
                f"streamed={self.streamed}"
            )
        if self.schema:
            text += "\n-- schema: " + ", ".join(
                f"{name} {kind}" for name, kind in self.schema
            )
        if self.diagnostics:
            text += "\n-- analyzer: " + "; ".join(self.diagnostics)
        for diagnostic in self.analysis:
            text += "\n-- " + diagnostic.render()
        if self.analyze is not None:
            text += "\n-- EXPLAIN ANALYZE\n" + self.analyze.render()
        return text

    def __contains__(self, item: str) -> bool:
        return item in str(self)


class PreparedStatement:
    """A parsed, compiled GRAPH_TABLE statement bound to a connection.

    Construction (via :meth:`Connection.prepare`) parses the SQL text and
    compiles it — through the backend's ``prepare`` — exactly once;
    :meth:`execute` then only binds the statement's ``:name`` parameter
    slots and runs the compiled form.  The statement transparently
    re-prepares itself when the connection's snapshot or backend changes
    (``register_table`` on the session shim, ``use_engine``, DDL), so a
    held handle never goes stale.
    """

    def __init__(self, session: "Connection", text: str, statement: GraphTableQuery):
        self._session = session
        self.text = text
        self._statement = statement
        self._compiled = None
        self._generation = -1
        #: Parameter slot names the statement expects, sorted.
        self.parameter_names: Tuple[str, ...] = ()
        #: Inferred parameter types (``name -> "number" | "string" | "any"``)
        #: from the semantic analyzer; empty with ``analyze=False``.
        self.parameter_types: Dict[str, str] = {}
        #: The dataflow pass proved the statement can yield no rows; set
        #: at compile time and consumed by ``_run_governed`` to answer
        #: without invoking the physical executor (any backend).
        self.statically_empty = False
        #: Diagnostics from the prepare-time analysis (semantic findings
        #: merged with the dataflow warnings), for result surfaces.
        self.analysis_diagnostics: Tuple[Diagnostic, ...] = ()
        #: Inferred ``(column, type)`` result schema from the semantic
        #: analyzer; empty with ``analyze=False``.
        self.result_schema: Tuple[Tuple[str, str], ...] = ()
        #: Completed ``execute`` calls on this statement.
        self.executions = 0
        self._ensure_compiled()

    @property
    def statement(self) -> GraphTableQuery:
        """The parsed statement AST."""
        return self._statement

    def _ensure_compiled(self) -> None:
        session = self._session
        if self._compiled is not None and self._generation == session._generation:
            return
        # Release the stale compiled form before replacing it: a DDL
        # generation bump keeps the engine (and e.g. its SQLite
        # connection) alive, so orphaned prepared temp tables would
        # otherwise accumulate across recompiles.
        self.close()
        session._check_graph_valid(self._statement.graph_name)
        with trace_span("analyze", engine=session._engine_name):
            analysis = session._analyze_statement(self._statement, self.text)
        query = compile_query(self._statement, session.catalog)
        # The plan-level abstract interpretation runs stats-free here (the
        # session layer is backend-agnostic): range contradictions and
        # structural emptiness are provable without graph data, and the
        # verdict short-circuits execution on every backend.
        with trace_span("dataflow", engine=session._engine_name):
            flow = session._dataflow_query(query, self.text)
        self.statically_empty = flow.statically_empty
        if analysis is not None:
            merged = analysis.merged(flow.diagnostics)
            self.analysis_diagnostics = merged.diagnostics
            self.result_schema = analysis.result_schema
            merged.raise_if_failed(strict=session._strict_analysis)
        else:
            self.analysis_diagnostics = flow.diagnostics
            self.result_schema = ()
        with trace_span("prepare", engine=session._engine_name):
            self._compiled = session._get_engine().prepare(query)
        self._generation = session._generation
        self.parameter_names = tuple(self._compiled.parameter_names)
        self.parameter_types = (
            dict(analysis.parameter_types) if analysis is not None else {}
        )
        # The typed signature rides on the compiled form too, so engine-level
        # callers holding only the CompiledQuery see it.
        self._compiled.parameter_types = dict(self.parameter_types)

    def execute(
        self,
        params: Optional[Bindings] = None,
        /,
        *,
        timeout: Optional[float] = None,
        budget: Optional["QueryBudget"] = None,
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
        governor = make_governor(session._effective_budget(timeout, budget), token)
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
        self._finish(session, merged, result, perf_counter() - start, root=None)
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
                statement=_snippet(self.text),
                params=sorted(merged),
            ) as root:
                result = self._run(session, merged, governor)
            self._finish(session, merged, result, root.duration_s, root=root)
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
        # lock; only the stateless projection decode escapes it (stream
        # generators capture the governor eagerly, so decode checkpoints
        # keep working after the context variable resets here).
        try:
            with session._lock, activate_governor(governor):
                self._ensure_compiled()
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
                        result = session._result_for(
                            self._statement,
                            Relation(len(self._statement.columns), ()),
                        )
                        if governor is not None:
                            result._cancel_token = governor.token
                        return result
                stream = getattr(self._compiled, "execute_stream", None)
                with trace_span("execute") as span:
                    if stream is not None:
                        streamed = stream(merged)
                        if streamed is not None:
                            arity, rows = streamed
                            span.tag(streamed=True)
                            if governor is not None:
                                rows = _governed_rows(governor, rows)
                            tracer = active_tracer()
                            if tracer.enabled:
                                rows = _traced_decode(tracer, rows, self.text)
                            result = session._stream_result_for(
                                self._statement, arity, rows
                            )
                    if result is None:
                        relation = self._compiled.execute(merged)
                        span.tag(rows=len(relation))
                        if governor is not None:
                            governor.count_output(len(relation))
                        result = session._result_for(self._statement, relation)
        except GovernanceError as error:
            session._record_governance_abort(error)
            raise
        if governor is not None:
            result._cancel_token = governor.token
        return result

    def _finish(
        self,
        session: "Connection",
        merged,
        result: QueryResult,
        elapsed_s: float,
        *,
        root,
    ) -> None:
        """Post-execution bookkeeping shared by both paths: prepared
        accounting, per-query metrics, and the slow-query check."""
        reused = self.executions > 0
        self.executions += 1
        session._note_prepared_execution(reused=reused)
        session._record_query_metrics(elapsed_s, result)
        session._check_slow_query(self.text, merged, elapsed_s, root)

    def explain(self) -> Explain:
        """The statement's optimized plan plus per-statement reuse counts."""
        explain = self._session._explain_statement(self._statement)
        explain.prepared = dict(explain.prepared)
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
            self._generation = -1


class Connection:
    """A statement-execution handle over one immutable database snapshot.

    Connections are intentionally lightweight: the heavyweight state —
    materialized views, compact encodings, relational CSE results and
    compiled plans — lives in the owning database's shared
    :class:`~repro.engine.database.SnapshotCache`, keyed on the
    snapshot's content fingerprint and the engine kind.  A connection
    holds only its engine instance, a prepared-statement LRU and
    accounting counters, and is safe to share across threads: statement
    compilation and execution serialize on the connection lock (engine
    evaluation state is per-engine), so for parallelism open one
    connection per thread — they share every cold materialization
    through the snapshot cache, which is where the repeated work lives.

    The snapshot is **pinned**: DDL or data changes on the live database
    after ``connect()`` are invisible here (MVCC) — except DDL issued
    *through this connection's own* ``execute``, which advances the
    connection to the new head version (the single-session behavior the
    :class:`PGQSession` shim preserves).
    """

    #: Prepared statements kept by the ``execute(text, params)`` sugar,
    #: keyed on the exact statement text.
    _STATEMENT_CACHE_SIZE = 128

    #: Cap on the distinct-text hash set behind the ``statements``
    #: explain figure (8 bytes a hash; the cap bounds a pathological
    #: all-distinct-text connection at a few hundred KiB).
    _SUGAR_TEXTS_SEEN_MAX = 65536

    def __init__(
        self,
        database: "CatalogDatabase",
        snapshot: Optional["Snapshot"],
        *,
        engine: str = "naive",
        max_repetitions: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        analyze: bool = True,
        strict_analysis: Optional[bool] = None,
        **engine_options,
    ) -> None:
        """``engine_options`` are forwarded to the backend factory verbatim
        (e.g. ``plan_cache=`` for the planned engine); an option the
        backend does not accept raises :class:`~repro.errors.EngineError`
        here, naming the ones it does.
        ``snapshot=None`` pins lazily to the database's head on first use.
        ``tracer`` overrides the owning database's query-lifecycle tracer
        for this connection only.  ``analyze=False`` skips the semantic
        analyzer (statements go straight from parse to compile, restoring
        the pre-analyzer error behavior).  ``strict_analysis`` promotes
        analyzer *warnings* (the A008+ dataflow codes) to
        :class:`~repro.errors.PGQAnalysisError` at prepare time; ``None``
        defers to the ``REPRO_STRICT_ANALYSIS`` environment variable.
        """
        # Fail fast on unknown backend names and unknown options.
        check_engine_options(engine, engine_options)
        self._owner = database
        self._snapshot_obj = snapshot
        self._engine_options = dict(engine_options)
        self._engine_name = engine
        self._max_repetitions = max_repetitions
        self._analyze = analyze
        self._strict_analysis = strict_analysis_enabled(strict_analysis)
        self._engine: Optional[Engine] = None
        #: The query-lifecycle tracer checked at statement setup; the
        #: database default is the disabled NULL_TRACER singleton.
        self._tracer: Tracer = (
            tracer
            if tracer is not None
            else getattr(database, "_tracer", None) or NULL_TRACER
        )
        #: Engine plan-counter values at the last metrics flush, so each
        #: query records only its own delta into the registry.
        self._plan_counter_baseline: Dict[str, float] = {}
        #: The snapshot fingerprint this connection keeps live in the
        #: shared cache (snapshot-level GC: entries of fingerprints with
        #: no live retaining connection are dropped).
        self._retained_fingerprint: Optional[str] = None
        if snapshot is not None:
            self._retain_snapshot(snapshot)
        #: Bumped whenever prepared statements must recompile: snapshot
        #: moves, engine changes (``_invalidate_engine``) and DDL.
        self._generation = 0
        self._lock = threading.RLock()
        #: Text-keyed LRU behind ``execute(text, params)``.
        self._statements: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self._statement_hits = 0
        self._statement_misses = 0
        #: Hashes of distinct statement texts the sugar path has prepared
        #: — an evicted-and-reloaded text re-counts as a cache miss but
        #: not as a new statement.  Bounded: past the cap, new texts are
        #: tallied in ``_sugar_texts_overflow`` instead.
        self._sugar_texts_seen: set = set()
        self._sugar_texts_overflow = 0
        #: Prepared-statement accounting surfaced by ``explain()``.
        self._prepared_statements = 0
        #: Successful analyses keyed ``(text, generation)``: the catalog
        #: is snapshot-pinned, so re-preparing the same text within one
        #: generation can skip the analyzer walk entirely (string hashes
        #: are cached, so a hit is one dict lookup).
        self._analysis_memo: "OrderedDict[Tuple[str, int], QueryAnalysis]" = OrderedDict()
        #: Dataflow verdicts keyed the same way: ``PlanDataflow`` is a
        #: frozen value object, so one abstract interpretation per
        #: ``(text, generation)`` serves every re-prepare of that text.
        self._dataflow_memo: "OrderedDict[Tuple[str, int], Any]" = OrderedDict()
        self._prepared_executions = 0
        self._prepared_reuse = 0
        #: Explicit ``prepare()`` handles, closed with the connection so
        #: their backend resources (SQLite temp tables) never outlive it.
        self._prepared_registry: "weakref.WeakSet" = weakref.WeakSet()
        #: Plan-cache counters folded in from engines retired by
        #: ``use_engine``/snapshot moves — the ``session_*`` explain
        #: figures stay cumulative instead of resetting with the engine.
        self._retired_cache: Dict[str, int] = {}
        #: The current engine's plan-cache counter baseline (shared caches
        #: carry other connections' history; deltas start here).
        self._cache_baseline: Dict[str, float] = {}
        #: Results served through the streaming projection path.
        self._streamed_results = 0
        #: Weak refs to live streamed results backed by engine state (e.g.
        #: an open SQLite cursor); drained before the engine is closed or
        #: replaced so results stay readable after ``close()``.  A plain
        #: list of refs, not a WeakSet: hashing a QueryResult would
        #: materialize it, defeating the stream.
        self._live_streams: List["weakref.ref"] = []
        #: Closed-handle state: statement execution on a closed
        #: connection raises ConnectionClosedError carrying the reason
        #: (the PGQSession shim instead reopens, the historical behavior).
        self._closed = False
        self._close_reason: Optional[str] = None

    #: The session shim reopens a closed handle on use (the historical
    #: lazy-rebuild behavior); plain connections are strict.
    _REOPEN_ON_USE = False

    def _check_open(self) -> None:
        if not self._closed:
            return
        if self._REOPEN_ON_USE:
            with self._lock:
                self._closed = False
                self._close_reason = None
            return
        raise ConnectionClosedError(
            "connection is closed", reason=self._close_reason or "closed"
        )

    # ------------------------------------------------------------------ #
    # Snapshot and catalog surface
    # ------------------------------------------------------------------ #
    @property
    def snapshot(self) -> "Snapshot":
        """The immutable snapshot this connection reads."""
        if self._snapshot_obj is None:
            self._snapshot_obj = self._owner.snapshot()
        return self._snapshot_obj

    @property
    def database(self) -> Database:
        """The snapshot's relational database instance."""
        return self.snapshot.database

    @property
    def schema(self) -> Schema:
        return self.snapshot.schema

    @property
    def catalog(self) -> GraphCatalog:
        return self.snapshot.catalog

    def _check_graph_valid(self, name: str) -> None:
        self.snapshot.check_graph_valid(name)

    def _analyze_statement(
        self, statement: GraphTableQuery, text: Optional[str] = None
    ) -> Optional[QueryAnalysis]:
        """Run the semantic analyzer over a parsed statement.

        Returns the analysis (diagnostics empty, parameter types
        inferred), or ``None`` when the connection was opened with
        ``analyze=False``.  A statement that does not resolve against the
        snapshot's catalog raises :class:`~repro.errors.AnalysisError`
        carrying *every* diagnostic found, not just the first.  With
        ``text`` supplied, successful analyses are memoized per
        generation (the catalog is immutable within one).
        """
        if not self._analyze:
            return None
        key = None if text is None else (text, self._generation)
        if key is not None:
            cached = self._analysis_memo.get(key)
            if cached is not None:
                self._analysis_memo.move_to_end(key)
                return cached
        analysis = analyze_query(statement, self.catalog, self.database)
        analysis.raise_if_failed()
        if key is not None:
            self._analysis_memo[key] = analysis
            while len(self._analysis_memo) > 128:
                self._analysis_memo.popitem(last=False)
        return analysis

    def _dataflow_query(self, query: Query, text: Optional[str] = None):
        """Plan-level abstract interpretation of a compiled query.

        Runs the stats-free dataflow pass over the direct lowering of the
        MATCH pattern: one small plan build plus one walk, no relation
        evaluated.  (The planned engine additionally runs the stats-backed
        ``prune_unsatisfiable`` rewrite inside its optimizer.)  Verdicts
        memoize per ``(text, generation)`` like the analyzer's — the pass
        depends only on the statement and the snapshot-pinned schema, so
        a re-prepare of the same text costs one dict hit.
        """
        key = None if text is None else (text, self._generation)
        if key is not None:
            cached = self._dataflow_memo.get(key)
            if cached is not None:
                self._dataflow_memo.move_to_end(key)
                return cached
        from repro.analysis.dataflow import analyze_plan
        from repro.planner.logical import build_logical_plan

        plan = build_logical_plan(query.output.pattern)
        flow = analyze_plan(plan)
        if key is not None:
            self._dataflow_memo[key] = flow
            while len(self._dataflow_memo) > 128:
                self._dataflow_memo.popitem(last=False)
        return flow

    def _retain_snapshot(self, snapshot: "Snapshot") -> None:
        """Register this connection as a live user of the snapshot's
        shared-cache entries (see :meth:`SnapshotCache.retain`)."""
        fingerprint = snapshot.data_fingerprint
        if fingerprint != self._retained_fingerprint:
            snapshot.cache.retain(fingerprint, self)
            self._retained_fingerprint = fingerprint

    def graph_names(self) -> Tuple[str, ...]:
        """All registered graphs, including ones a schema change broke
        (those raise when referenced; see ``drop_graph``)."""
        return self.snapshot.graph_names()

    def graph_definition(self, name: str) -> GraphDefinition:
        """Look up a compiled property-graph view definition."""
        return self.snapshot.graph_definition(name)

    def _advance_snapshot(self, *, reset_engine: bool) -> None:
        """Move this connection to the database's head version.

        ``reset_engine=False`` is the graph-DDL-only path: when the
        relational data is unchanged the engine (and e.g. its loaded
        SQLite database) survives and only prepared statements recompile.
        That is verified, not assumed — another writer may have replaced
        a table on the live database since this connection pinned its
        snapshot, in which case the engine is reset anyway so it can
        never serve rows from superseded data.
        """
        with self._lock:
            previous = self._snapshot_obj
            self._snapshot_obj = None
            if not reset_engine and self._engine is not None:
                if previous is None or self.snapshot.database is not previous.database:
                    reset_engine = True
            if reset_engine:
                self._invalidate_engine()
            else:
                self._generation += 1

    # ------------------------------------------------------------------ #
    # Engine selection
    # ------------------------------------------------------------------ #
    @property
    def engine_name(self) -> str:
        """Name of the execution backend this connection dispatches to."""
        return self._engine_name

    @property
    def max_repetitions(self) -> Optional[int]:
        """Repetition-depth bound threaded through to the backend."""
        return self._max_repetitions

    def use_engine(
        self, name: str, *, max_repetitions: Union[Optional[int], object] = _UNSET
    ) -> None:
        """Switch the connection to another registered backend.

        ``max_repetitions`` is kept as-is unless explicitly passed
        (including an explicit ``None`` to lift a bound).  Prepared
        statements survive the switch: they recompile against the new
        backend on their next execution.  Plan-cache counters of the
        retired engine fold into the cumulative ``session_*`` explain
        figures instead of silently resetting.
        """
        check_engine_options(name, self._engine_options)
        self._engine_name = name
        if max_repetitions is not _UNSET:
            self._max_repetitions = max_repetitions  # type: ignore[assignment]
        self._invalidate_engine()

    def _engine_kind(self) -> Tuple:
        """Shared-cache discriminator: backend name plus every option that
        shapes matcher semantics or performance."""
        return (
            self._engine_name,
            self._max_repetitions,
            tuple(sorted(self._engine_options.items(), key=lambda item: item[0])),
        )

    def _drain_live_streams(self, *, discard: bool = False) -> None:
        """Materialize streamed results that still read live engine state.

        Streamed results are valid after ``close()`` (the historical
        contract, and what the cross-engine tests rely on), but a SQLite
        stream reads from an open cursor on the backend connection; pull
        the remaining rows into the result buffer before that connection
        (or a temp table it reads) goes away.

        With ``discard=True`` (the ``close(drain=False)`` path used by
        connection pools recycling a handle) pending results are closed
        instead: the live cursor is released immediately and subsequent
        fetches raise :class:`~repro.errors.ConnectionClosedError`.
        """
        with self._lock:
            streams, self._live_streams = self._live_streams, []
        reason = self._close_reason or "connection closed"
        for ref in streams:
            result = ref()
            if result is None:
                continue
            if discard:
                result.close(reason=reason)
                continue
            try:
                result._materialize()
            except (ConnectionClosedError, GovernanceError):
                pass  # the consumer abandoned the result; nothing to keep

    def _invalidate_engine(self) -> None:
        with self._lock:
            self._drain_live_streams()
            self._generation += 1
            engine = self._engine
            if engine is not None:
                self._retire_cache_counters(engine)
                engine.close()
                self._engine = None
                self._plan_counter_baseline = {}

    def _retire_cache_counters(self, engine: Engine) -> None:
        """Fold the retiring engine's plan-cache activity (measured from
        this connection's baseline) into the cumulative counters."""
        plan_cache = getattr(engine, "plan_cache", None)
        if plan_cache is None:
            self._cache_baseline = {}
            return
        info = plan_cache.info()
        baseline = self._cache_baseline
        for key in ("hits", "misses", "prepared_hits", "prepared_misses"):
            live = int(info.get(key, 0)) - int(baseline.get(key, 0))
            if live > 0:
                self._retired_cache[key] = self._retired_cache.get(key, 0) + live
        self._cache_baseline = {}

    def _get_engine(self) -> Engine:
        """The backend bound to this connection's snapshot, built lazily.

        Engines exposing the optional ``use_snapshot_cache`` hook are
        attached to the snapshot's shared cache scope, so their views,
        encodings and plans are shared with every sibling connection of
        the same snapshot and engine kind.
        """
        engine = self._engine
        if engine is not None:
            return engine
        with self._lock:
            if self._engine is None:
                snapshot = self.snapshot
                self._retain_snapshot(snapshot)
                engine = create_engine(
                    self._engine_name,
                    snapshot.database,
                    max_repetitions=self._max_repetitions,
                    **self._engine_options,
                )
                adopt = getattr(engine, "use_snapshot_cache", None)
                if adopt is not None:
                    kind = self._engine_kind()
                    try:
                        hash(kind)
                    except TypeError:
                        pass  # unhashable options: keep private caches
                    else:
                        adopt(snapshot.scope_for(kind))
                plan_cache = getattr(engine, "plan_cache", None)
                self._cache_baseline = (
                    dict(plan_cache.info()) if plan_cache is not None else {}
                )
                self._engine = engine
            return self._engine

    # ------------------------------------------------------------------ #
    # Statement execution
    # ------------------------------------------------------------------ #
    def prepare(self, statement_text: str) -> PreparedStatement:
        """Parse and compile one GRAPH_TABLE statement for repeated,
        parameterized execution.

        Literal positions may hold ``:name`` parameter slots (e.g. ``WHERE
        t.amount > :minimum``); each :meth:`PreparedStatement.execute`
        supplies their values.  The plan is compiled once and shared by
        every binding — see the ``prepared_hits`` plan-cache statistic.
        """
        self._check_open()
        statement = parse_statement(statement_text)
        if not isinstance(statement, GraphTableQuery):
            raise EngineError(
                "prepare() expects a SELECT ... FROM GRAPH_TABLE(...) statement; "
                "DDL runs through execute()"
            )
        with self._lock:
            # Compilation drives the engine's preparation state machine
            # (e.g. the SQLite temp-table sink), which must not interleave
            # with another thread's compile or execute on this connection.
            prepared = PreparedStatement(self, statement_text, statement)
            self._prepared_statements += 1
            self._prepared_registry.add(prepared)
        return prepared

    def execute(
        self,
        statement_text: str,
        params: Optional[Bindings] = None,
        *,
        timeout: Optional[float] = None,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Parse and execute one SQL/PGQ statement (DDL or query).

        Queries run through an internal prepared-statement LRU keyed on
        the statement text: repeated text skips parsing and planning, and
        ``params`` binds any ``:name`` slots the statement declares.
        DDL (CREATE PROPERTY GRAPH) registers on the owning database —
        producing a new version — and moves this connection to it; other
        connections keep their snapshot.

        ``timeout`` (seconds, shorthand for a deadline-only budget),
        ``budget`` (a :class:`~repro.governance.QueryBudget` overlaying
        the database's ``default_budget`` field-wise) and ``token`` (a
        :class:`~repro.governance.CancellationToken` another thread may
        cancel) govern the execution cooperatively; governance errors are
        :class:`~repro.errors.GovernanceError` subclasses carrying
        partial-progress counters.  DDL ignores governance arguments.
        """
        self._check_open()
        with self._lock:
            cached = self._statements.get(statement_text)
            if cached is not None:
                self._statements.move_to_end(statement_text)
                self._statement_hits += 1
        if cached is not None:
            return cached.execute(params, timeout=timeout, budget=budget, token=token)
        statement = parse_statement(statement_text)
        if isinstance(statement, CreatePropertyGraph):
            if params:
                raise EngineError("DDL statements take no parameters")
            definition = self._owner.register_graph(statement)
            # Re-creating a graph can change what prepared statements
            # compiled against; the advance bumps the generation so they
            # recompile lazily (the engine survives: data is unchanged).
            self._advance_snapshot(reset_engine=False)
            return QueryResult(("graph",), ((definition.name,),))
        if isinstance(statement, GraphTableQuery):
            evicted = None
            with self._lock:
                # Re-check under the lock: a concurrent miss on the same
                # text may have compiled it first — reuse that statement
                # instead of displacing (and leaking) it.
                winner = self._statements.get(statement_text)
                if winner is not None:
                    self._statements.move_to_end(statement_text)
                    self._statement_hits += 1
                else:
                    winner = PreparedStatement(self, statement_text, statement)
                    self._statement_misses += 1
                    text_key = hash(statement_text)
                    if text_key not in self._sugar_texts_seen:
                        if len(self._sugar_texts_seen) < self._SUGAR_TEXTS_SEEN_MAX:
                            self._sugar_texts_seen.add(text_key)
                        else:
                            self._sugar_texts_overflow += 1
                    self._statements[statement_text] = winner
                    if len(self._statements) > self._STATEMENT_CACHE_SIZE:
                        _text, evicted = self._statements.popitem(last=False)
                if evicted is not None:
                    # Statement-LRU eviction releases the evicted compiled
                    # form's backend resources (persisted SQLite
                    # statements, temp tables) instead of leaking them
                    # until close().  Closed under the lock: a concurrent
                    # execute of the same handle would otherwise lose its
                    # compiled form mid-flight (it self-heals between
                    # executions via _ensure_compiled, not during one).
                    evicted.close()
            return winner.execute(params, timeout=timeout, budget=budget, token=token)
        raise EngineError(f"unsupported statement {statement!r}")

    def _effective_budget(
        self, timeout: Optional[float], budget: Optional[QueryBudget]
    ) -> Optional[QueryBudget]:
        """The database default budget overlaid with the per-call budget
        and the ``timeout=`` shorthand (most specific wins field-wise)."""
        effective = getattr(self._owner, "default_budget", None)
        if budget is not None:
            effective = budget if effective is None else effective.merged(budget)
        if timeout is not None:
            override = QueryBudget(timeout_s=timeout)
            effective = override if effective is None else effective.merged(override)
        return effective

    def _result_columns(self, statement: GraphTableQuery, arity: int) -> Tuple[str, ...]:
        columns = tuple(column.name for column in statement.columns)
        if arity != len(columns):
            # n-ary identifiers flatten into several columns; fall back to
            # positional names in that case.
            columns = tuple(f"col{i + 1}" for i in range(arity))
        return columns

    def _result_for(self, statement: GraphTableQuery, relation: Relation) -> QueryResult:
        """Wrap a result relation as a lazily ordered :class:`QueryResult`."""
        columns = self._result_columns(statement, relation.arity)
        rows = relation.rows

        def ordered() -> Iterator[Tuple]:
            # Deterministic order, computed when rows are first consumed.
            yield from sorted(rows, key=repr)

        return QueryResult(columns, ordered())

    def _stream_result_for(
        self, statement: GraphTableQuery, arity: int, rows: Iterator[Tuple]
    ) -> QueryResult:
        """Wrap a streaming projection as a server-side-cursor result.

        Iteration yields rows as the executor decodes them; the ordered
        accessors (``fetch*``, ``rows``) materialize and sort lazily, so
        the deterministic order of the materializing path is preserved
        whenever it is asked for.
        """
        columns = self._result_columns(statement, arity)
        result = QueryResult(columns, rows, order_key=repr, streamed=True)
        with self._lock:
            self._streamed_results += 1
            self._live_streams.append(weakref.ref(result))
            if len(self._live_streams) > 64:  # prune collected results
                self._live_streams = [
                    ref for ref in self._live_streams if ref() is not None
                ]
        return result

    def _note_prepared_execution(self, *, reused: bool) -> None:
        with self._lock:
            self._prepared_executions += 1
            if reused:
                self._prepared_reuse += 1

    # ------------------------------------------------------------------ #
    # Observability: tracing, metrics, slow queries, EXPLAIN ANALYZE
    # ------------------------------------------------------------------ #
    @property
    def tracer(self) -> Tracer:
        """The query-lifecycle tracer consulted at statement setup."""
        return self._tracer

    def use_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to this connection (``NULL_TRACER`` disables)."""
        self._tracer = tracer

    #: ``PlanCounters`` attributes mirrored into registry counters, with
    #: their metric names.
    _COUNTER_METRICS = (
        ("rows_produced", "repro_rows_produced_total"),
        ("join_probes", "repro_join_probes_total"),
        ("fixpoint_rounds", "repro_fixpoint_rounds_total"),
    )

    def _record_query_metrics(self, elapsed_s: float, result: QueryResult) -> None:
        """Fold one completed query into the owning database's registry."""
        registry = getattr(self._owner, "_metrics", None)
        if registry is None:
            return
        engine = self._engine_name
        registry.counter(
            "repro_queries_total", "Completed GRAPH_TABLE queries", engine=engine
        ).inc()
        registry.histogram(
            "repro_query_seconds", "Per-query wall-clock latency", engine=engine
        ).observe(elapsed_s)
        if result.streamed:
            registry.counter(
                "repro_streamed_results_total",
                "Results served through the streaming projection path",
                engine=engine,
            ).inc()
        counters = getattr(self._engine, "plan_counters", None)
        if counters is not None:
            baseline = self._plan_counter_baseline
            current: Dict[str, float] = {}
            for attribute, metric in self._COUNTER_METRICS:
                value = getattr(counters, attribute, 0)
                current[attribute] = value
                delta = value - baseline.get(attribute, 0)
                if delta > 0:
                    registry.counter(metric, engine=engine).inc(delta)
            self._plan_counter_baseline = current
        plan_cache = getattr(self._engine, "plan_cache", None)
        if plan_cache is not None:
            info = plan_cache.info()
            for key in ("hits", "misses", "prepared_hits", "prepared_misses", "size"):
                registry.gauge(f"repro_plan_cache_{key}", engine=engine).set(
                    info.get(key, 0)
                )

    #: Governance error classes and their metric label.
    _ABORT_KINDS = (
        (QueryTimeoutError, "timeout"),
        (QueryCancelledError, "cancelled"),
        (ResourceExhaustedError, "resource_exhausted"),
    )

    def _record_governance_abort(self, error: GovernanceError) -> None:
        """Tally one governance-aborted execution into the registry."""
        registry = getattr(self._owner, "_metrics", None)
        if registry is None:
            return
        kind = "fault"
        for cls, label in self._ABORT_KINDS:
            if isinstance(error, cls):
                kind = label
                break
        registry.counter(
            "repro_query_aborts_total",
            "Queries aborted by governance (deadline, cancel, budget, fault)",
            engine=self._engine_name,
            kind=kind,
        ).inc()

    def _check_slow_query(
        self, text: str, merged, elapsed_s: float, root
    ) -> None:
        """Emit a slow-query record when the database threshold is hit.

        The record carries the statement text, the bindings *shape*
        (parameter names, never values), the snapshot fingerprint and —
        when the run was traced — the per-stage breakdown of the root
        span.  It goes to the run's tracer sinks (falling back to the
        database tracer) and always to the ``repro.slow_query`` logger.
        """
        threshold = getattr(self._owner, "slow_query_seconds", None)
        if threshold is None or elapsed_s < threshold:
            return
        record: Dict[str, Any] = {
            "kind": "slow_query",
            "engine": self._engine_name,
            "duration_s": elapsed_s,
            "threshold_s": threshold,
            "statement": _snippet(text, limit=400),
            "bindings": sorted(merged),
            "snapshot": self.snapshot.fingerprint[:12],
        }
        if root is not None:
            record["stages"] = [
                {"name": child.name, "duration_s": child.duration_s}
                for child in root.children
            ]
        emitter = self._tracer
        tracer = active_tracer()
        if tracer.enabled:
            emitter = tracer
        emitter.emit(record)
        registry = getattr(self._owner, "_metrics", None)
        if registry is not None:
            registry.counter(
                "repro_slow_queries_total",
                "Queries at or over the slow-query threshold",
                engine=self._engine_name,
            ).inc()
        _SLOW_QUERY_LOGGER.warning(
            "slow query (%.4fs >= %.4fs) on %s: %s",
            elapsed_s,
            threshold,
            self._engine_name,
            record["statement"],
        )

    def explain_analyze(
        self, statement_text: str, params: Optional[Bindings] = None
    ) -> Explain:
        """Execute the statement once and return its :class:`Explain`
        with a per-operator execution profile in ``analyze``.

        The statement runs for real (through the same prepared-statement
        LRU as :meth:`execute`) under a private recording tracer and an
        :class:`~repro.observability.ExecutionProfiler`, independent of
        whether the connection's own tracer is enabled.  The resulting
        tree always carries the lifecycle stages (parse/compile when they
        ran, execute, decode) with wall times and row counts; on the
        planned engine the execute stage additionally expands into the
        physical plan's per-node profile — rows produced, inclusive wall
        time and memo hits for every scan, join, filter and fixpoint.
        """
        self._check_open()
        statement = parse_statement(statement_text)
        if not isinstance(statement, GraphTableQuery):
            raise EngineError(
                "explain_analyze() expects a SELECT ... FROM GRAPH_TABLE(...) statement"
            )
        ring = RingBufferSink(capacity=16)
        recorder = Tracer(sinks=(ring,))
        profiler = ExecutionProfiler()
        tracer_token = activate(recorder)
        profiler_token = activate_profiler(profiler)
        start = perf_counter()
        try:
            result = self.execute(statement_text, params)
            decode_start = perf_counter()
            rows = result.rows  # drain the stream inside the profile window
            decode_s = perf_counter() - decode_start
        finally:
            total_s = perf_counter() - start
            deactivate_profiler(profiler_token)
            deactivate(tracer_token)
        explain = self._explain_statement(statement)
        explain.analyze = self._build_analyze_tree(
            ring.records(), profiler, total_s, len(rows), decode_s
        )
        return explain

    def _build_analyze_tree(
        self,
        records: List[Dict[str, Any]],
        profiler: ExecutionProfiler,
        total_s: float,
        row_count: int,
        decode_s: float,
    ) -> OperatorStats:
        """Assemble the operator profile from the recorded spans and the
        executor's per-node figures."""
        root = OperatorStats(
            label=f"Query [engine={self._engine_name}]",
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
                # Stages that ran outside the root query span (cold parse
                # and compile happen before the statement executes).
                root.children.append(_stats_from_span(record))
        if plan_trees:  # no execute span surfaced (defensive)
            root.children.extend(plan_trees)
        root.children.append(
            OperatorStats(
                label="Decode", wall_s=decode_s, calls=1, rows_out=row_count
            )
        )
        return root

    def compile(self, statement_text: str) -> Query:
        """Parse and compile a GRAPH_TABLE query without executing it."""
        statement = parse_statement(statement_text)
        if not isinstance(statement, GraphTableQuery):
            raise EngineError("compile() expects a SELECT ... FROM GRAPH_TABLE(...) statement")
        self._check_graph_valid(statement.graph_name)
        self._analyze_statement(statement)
        return compile_query(statement, self.catalog)

    def explain(self, statement_text: str) -> Explain:
        """The optimized logical plan a GRAPH_TABLE query lowers to.

        Returns a structured :class:`Explain`: the plan rendering plus —
        for planner-backed engines — the engine's execution counters,
        plan-cache statistics with shared-vs-private provenance and
        cumulative ``session_*`` counters, the prepared-statement
        accounting, and the snapshot provenance (fingerprint, shared
        materialization stats, streamed-result count).
        """
        statement = parse_statement(statement_text)
        if not isinstance(statement, GraphTableQuery):
            raise EngineError("explain() expects a SELECT ... FROM GRAPH_TABLE(...) statement")
        return self._explain_statement(statement)

    def _explain_statement(self, statement: GraphTableQuery) -> Explain:
        self._check_graph_valid(statement.graph_name)
        analysis = self._analyze_statement(statement)
        notes: Tuple[str, ...] = ()
        if analysis is not None and analysis.parameter_types:
            notes = tuple(
                f"parameter :{name} inferred {kind}"
                for name, kind in sorted(analysis.parameter_types.items())
            )
        compiled = compile_to_plan(statement, self.catalog)
        from repro.analysis.dataflow import analyze_plan

        flow = analyze_plan(compiled.logical)
        analysis_diags: Tuple[Diagnostic, ...] = flow.diagnostics
        schema: Tuple[Tuple[str, str], ...] = ()
        if analysis is not None:
            analysis_diags = analysis.merged(flow.diagnostics).diagnostics
            schema = analysis.result_schema
        plan_text = compiled.describe()
        counters: Dict[str, float] = {}
        cache: Dict[str, float] = {}
        engine = self._engine
        engine_counters = getattr(engine, "plan_counters", None)
        if engine_counters is not None:
            counters = {"compact_encode_s": engine_counters.compact_encode_s}
        plan_cache = getattr(engine, "plan_cache", None) if engine is not None else None
        if plan_cache is not None:
            cache = dict(plan_cache.info())
            cache["provenance"] = (
                "shared" if getattr(plan_cache, "shared", False) else "private"
            )
        if cache or self._retired_cache:
            baseline = self._cache_baseline
            for key in ("hits", "misses", "prepared_hits", "prepared_misses"):
                live = int(cache.get(key, 0)) - int(baseline.get(key, 0))
                cache["session_" + key] = self._retired_cache.get(key, 0) + max(live, 0)
        prepared = {
            "statements": self._prepared_statements
            + len(self._sugar_texts_seen)
            + self._sugar_texts_overflow,
            "executions": self._prepared_executions,
            "binding_reuse": self._prepared_reuse,
        }
        snapshot = self.snapshot
        return Explain(
            plan_text,
            counters,
            cache,
            prepared,
            snapshot=snapshot.fingerprint,
            shared=snapshot.cache.stats(),
            streamed=self._streamed_results,
            diagnostics=notes,
            analysis=analysis_diags,
            schema=schema,
        )

    def evaluate(self, query: Query, bindings: Optional[Bindings] = None) -> Relation:
        """Evaluate a programmatic PGQ query on the connection's backend."""
        self._check_open()
        with self._lock:  # engine evaluation state is per-engine; serialize
            return self._get_engine().evaluate(query, bindings=bindings)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, *, reason: str = "connection closed", drain: bool = True) -> None:
        """Release the backend and every prepared statement.

        Closes the statement LRU, explicitly prepared handles (dropping
        their persisted SQLite temp tables) and the engine (closing the
        SQLite backend connection).  Idempotent; further statement
        execution raises :class:`~repro.errors.ConnectionClosedError`
        carrying ``reason`` (the deprecated :class:`PGQSession` shim
        instead reopens lazily, the historical session behavior).

        Streamed results still pending are drained first by default, so
        rows already produced stay readable.  ``drain=False`` — the
        connection-pool recycling path — closes pending results instead:
        their live cursors are released immediately and any subsequent
        fetch raises :class:`~repro.errors.ConnectionClosedError` carrying
        ``reason``, rather than silently keeping a SQLite cursor (and its
        temp tables) alive under a retired connection.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._close_reason = reason
            self._drain_live_streams(discard=not drain)
            statements = list(self._statements.values())
            self._statements.clear()
            registry = list(self._prepared_registry)
            for prepared in statements:
                prepared.close()
            for prepared in registry:
                prepared.close()
            self._invalidate_engine()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PGQSession(Connection):
    """Deprecated single-connection shim over an implicit Database.

    The historical in-memory session API: one object that owns its data,
    graph DDL and execution backend.  It is now a :class:`Connection`
    over a private :class:`~repro.engine.database.Database` — mutators
    (``register_table``, ``drop_graph``) write to the implicit catalog
    and move the shim to the new head snapshot, so behavior matches the
    pre-snapshot sessions exactly.  New code should create a ``Database``
    and call ``db.connect(engine=...)``; this shim emits a
    :class:`DeprecationWarning` at construction and will eventually be
    removed.
    """

    #: Historical behavior: a closed session that is used again lazily
    #: rebuilds its engine instead of raising ConnectionClosedError.
    _REOPEN_ON_USE = True

    def __init__(
        self,
        *,
        engine: str = "naive",
        max_repetitions: Optional[int] = None,
        **engine_options,
    ) -> None:
        warnings.warn(
            "PGQSession is deprecated; create a repro.engine.database.Database "
            "and use db.connect(engine=...) instead (PGQSession remains a "
            "single-connection shim over an implicit Database)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.engine.database import Database as CatalogDatabase

        database = CatalogDatabase()
        super().__init__(
            database,
            None,
            engine=engine,
            max_repetitions=max_repetitions,
            **engine_options,
        )
        database._track_connection(self)

    # ------------------------------------------------------------------ #
    # Data registration (the mutable shim surface)
    # ------------------------------------------------------------------ #
    def register_table(self, name: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
        """Register (or replace) a base table with named columns."""
        self._owner.create_table(name, columns, rows)
        self._advance_snapshot(reset_engine=True)

    def register_database(self, database: Database, columns: Dict[str, Sequence[str]]) -> None:
        """Register every relation of an existing database with column names."""
        for name in database:
            if name not in columns:
                raise EngineError(f"no column names supplied for relation {name!r}")
            self.register_table(name, columns[name], database.relation(name).rows)

    def drop_graph(self, name: str) -> None:
        """Forget a registered property-graph definition.

        Dropping succeeds for broken graphs too (ones a later
        ``register_table`` stopped compiling) — that is the documented way
        to clear their error.  The engine is released so cached view
        materializations for the dropped graph do not outlive it; dropping
        an unknown name is a no-op and keeps warm caches intact.
        """
        if self._owner.drop_graph(name):
            self._advance_snapshot(reset_engine=True)

    def __enter__(self) -> "PGQSession":
        return self
