"""Statement execution over snapshots: the ``Connection``.

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

This module owns the **statement pipeline** and the **statement store**.
Every entry point — ``prepare``, ``execute``, ``compile``, ``explain``,
``explain_analyze``, ``PreparedStatement.explain`` and the service's
``dry_run`` — obtains a statement through :meth:`Connection.front_half`,
which runs parse -> statement-kind check -> graph validity -> analyze ->
compile -> logical plan -> dataflow exactly once per text and returns one
immutable :class:`~repro.engine.statement.FrontHalf` record.  Records are
kept in one text-keyed LRU per connection; an entry additionally owns the
:class:`~repro.engine.statement.PreparedStatement` that
``execute(text)`` compiled for it, so a repeated text skips parsing,
analysis *and* planning.

Statement execution is **two-phase**: :meth:`Connection.prepare` compiles
a statement once into a ``PreparedStatement``, whose ``execute(**params)``
binds the statement's ``:name`` parameter slots per call — the plan is
compiled once and shared across bindings.  Planned-engine results
**stream**: projection rows are yielded incrementally from the executor,
and iteration over a :class:`~repro.engine.result.QueryResult` starts
before the full row set materializes.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from repro.analysis.dataflow import analyze_plan
from repro.analysis.diagnostics import Diagnostic, strict_analysis_enabled
from repro.analysis.semantic import analyze_query
from repro.engine import telemetry
from repro.engine.explain import Explain, gather_explain
from repro.engine.registry import Engine, check_engine_options, create_engine
from repro.engine.result import LiveStreams, QueryResult
from repro.engine.statement import FrontHalf, PreparedStatement
from repro.errors import ConnectionClosedError, EngineError
from repro.governance import CancellationToken, QueryBudget
from repro.observability.analyze import (
    ExecutionProfiler,
    activate_profiler,
    deactivate_profiler,
)
from repro.observability.tracing import (
    NULL_TRACER,
    RingBufferSink,
    Tracer,
    activate,
    deactivate,
    trace_span,
)
from repro.parameters import Bindings
from repro.pgq.queries import Query
from repro.planner.logical import build_logical_plan
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sqlpgq.ast import CreatePropertyGraph, GraphTableQuery
from repro.sqlpgq.catalog import GraphCatalog, GraphDefinition
from repro.sqlpgq.compiler import compile_query
from repro.sqlpgq.parser import parse_statement

if TYPE_CHECKING:  # pragma: no cover - type hints only (import cycle guard)
    from repro.engine.database import Database as CatalogDatabase, Snapshot

#: Sentinel distinguishing "argument not passed" from an explicit None.
_UNSET: object = object()


class _StoreEntry:
    """One statement-store slot: the text's front half and, once
    ``execute(text)`` has run, the prepared statement the store owns."""

    __slots__ = ("front", "prepared")

    def __init__(self, front: FrontHalf):
        self.front = front
        self.prepared: Optional[PreparedStatement] = None


class Connection:
    """A statement-execution handle over one immutable database snapshot.

    Connections are intentionally lightweight: the heavyweight state —
    materialized views, compact encodings, relational CSE results and
    compiled plans — lives in the owning database's shared
    :class:`~repro.engine.database.SnapshotCache`, keyed on the
    snapshot's content fingerprint and the engine kind.  A connection
    holds only its engine instance, the statement store and accounting
    counters, and is safe to share across threads: engine compilation
    and execution serialize on the connection lock (engine evaluation
    state is per-engine), so for parallelism open one connection per
    thread — they share every cold materialization through the snapshot
    cache, which is where the repeated work lives.

    The snapshot is **pinned**: DDL or data changes on the live database
    after ``connect()`` are invisible here (MVCC) — except DDL issued
    *through this connection's own* ``execute``, which advances the
    connection to the new head version.
    """

    #: Cap of the text-keyed statement store (front-half records plus the
    #: prepared statements ``execute(text, params)`` compiled for them).
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
        :class:`~repro.errors.PGQAnalysisError` in the front half;
        ``None`` defers to the ``REPRO_STRICT_ANALYSIS`` environment
        variable.
        """
        # Fail fast on unknown backend names and unknown options.
        check_engine_options(engine, engine_options)
        self._owner = database
        #: The snapshot read and, while open, pinned (``_retain_snapshot``).
        self._snapshot_obj: Optional["Snapshot"] = None
        self._engine_options = dict(engine_options)
        self._engine_name = engine
        #: Per-query metric instruments of this engine, by metric name
        #: (filled by ``telemetry`` on first use).
        self._instruments: Dict[str, Any] = {}
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
        #: Bumped whenever statements must be rebuilt: snapshot moves
        #: (DDL) and engine changes (``_invalidate_engine``).  Front-half
        #: records carry the generation they were built against.
        self._generation = 0
        self._lock = threading.RLock()
        #: The statement store: one text-keyed LRU of front-half records,
        #: each entry also owning the prepared statement ``execute(text)``
        #: compiled for it.  One cap, one eviction site (``_remember``).
        self._statements: "OrderedDict[str, _StoreEntry]" = OrderedDict()
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
        #: Streamed results backed by engine state; settled before the
        #: engine is closed or replaced so they stay readable after it.
        self._live_streams = LiveStreams()
        #: Closed-handle state: statement use on a closed connection
        #: raises ConnectionClosedError carrying the reason.
        self._closed = False
        self._close_reason: Optional[str] = None
        if snapshot is not None:
            self._retain_snapshot(snapshot)

    def _check_open(self) -> None:
        if self._closed:
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
            self._check_open()
            self._retain_snapshot(self._owner.snapshot())
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

    def _retain_snapshot(self, snapshot: "Snapshot") -> None:
        """Read ``snapshot`` from now on, moving this connection's
        :meth:`SnapshotCache.pin` to its data fingerprint — new before
        old, so a move over unchanged data drops nothing.  Held from
        here until :meth:`close`: what an open connection reads stays."""
        with self._lock:
            previous, self._snapshot_obj = self._snapshot_obj, snapshot
            snapshot.cache.pin(snapshot.data_fingerprint)
            if previous is not None:
                previous.cache.unpin(previous.data_fingerprint)

    def graph_names(self) -> Tuple[str, ...]:
        """All registered graphs, including ones a schema change broke
        (those raise when referenced; see ``Database.drop_graph``)."""
        return self.snapshot.graph_names()

    def graph_definition(self, name: str) -> GraphDefinition:
        """Look up a compiled property-graph view definition."""
        return self.snapshot.graph_definition(name)

    def _advance_snapshot(self) -> None:
        """Move this connection to the database's head version.

        Called after graph DDL issued through this connection: when the
        relational data is unchanged the engine (and e.g. its loaded
        SQLite database) survives and only statements are rebuilt.  That
        is verified, not assumed — another writer may have replaced a
        table on the live database since this connection pinned its
        snapshot, in which case the engine is reset so it can never
        serve rows from superseded data.
        """
        with self._lock:
            previous = self._snapshot_obj
            self._retain_snapshot(self._owner.snapshot())
            if self._engine is not None and (
                previous is None or self.snapshot.database is not previous.database
            ):
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
        self._instruments = {}
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

    def _invalidate_engine(self) -> None:
        with self._lock:
            self._live_streams.settle()
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
    # The statement pipeline and its store
    # ------------------------------------------------------------------ #
    def pipeline(self, statement_text: str) -> Union[FrontHalf, CreatePropertyGraph]:
        """The front half of ``statement_text``, from the store or built
        now; DDL text comes back as its parsed AST, uncached (only
        :meth:`execute` accepts that — see :meth:`front_half`).

        The one place a connection parses, analyzes and lowers a
        statement: parse -> graph validity -> semantic analysis ->
        compile to PGQ -> logical plan -> stats-free dataflow, each stage
        once, with the ``analyze`` / ``dataflow`` spans and the
        strict-analysis promotion attached here.  A statement that does
        not resolve against the snapshot's catalog raises
        :class:`~repro.errors.AnalysisError` carrying *every* diagnostic
        found, not just the first.
        """
        self._check_open()
        with self._lock:
            generation = self._generation
            entry = self._statements.get(statement_text)
            if entry is not None:
                self._statements.move_to_end(statement_text)
                if entry.front.generation == generation:
                    return entry.front
        statement = parse_statement(statement_text)
        if not isinstance(statement, GraphTableQuery):
            return statement
        snapshot = self.snapshot
        snapshot.check_graph_valid(statement.graph_name)
        catalog = snapshot.catalog
        analysis = None
        with trace_span("analyze", engine=self._engine_name):
            if self._analyze:
                analysis = analyze_query(statement, catalog, property_types=snapshot)
                analysis.raise_if_failed()
        query = compile_query(statement, catalog)
        # The plan-level abstract interpretation runs stats-free here (the
        # front half is backend-agnostic): range contradictions and
        # structural emptiness are provable without graph data, and the
        # verdict short-circuits execution on every backend.  (The planned
        # engine additionally runs the stats-backed ``prune_unsatisfiable``
        # rewrite inside its optimizer.)
        with trace_span("dataflow", engine=self._engine_name):
            logical = build_logical_plan(query.output.pattern)
            flow = analyze_plan(logical)
        diagnostics: Tuple[Diagnostic, ...] = flow.diagnostics
        schema: Tuple[Tuple[str, str], ...] = ()
        parameter_types: Dict[str, str] = {}
        if analysis is not None:
            merged = analysis.merged(flow.diagnostics)
            merged.raise_if_failed(strict=self._strict_analysis)
            diagnostics = merged.diagnostics
            schema = analysis.result_schema
            parameter_types = dict(analysis.parameter_types)
        front = FrontHalf(
            text=statement_text,
            statement=statement,
            query=query,
            logical=logical,
            diagnostics=diagnostics,
            result_schema=schema,
            parameter_types=parameter_types,
            statically_empty=flow.statically_empty,
            generation=generation,
        )
        return self._remember(front).front

    def _remember(self, front: FrontHalf) -> _StoreEntry:
        """Store ``front`` under its text and return the entry.

        A stale record (and only a stale one) is replaced in place, so
        the entry's store-owned prepared statement survives a DDL and
        recompiles lazily.  A new entry past the cap evicts the least
        recently used one, releasing its prepared statement's backend
        resources (persisted SQLite statements, temp tables) instead of
        leaking them until ``close()`` — under the lock: a concurrent
        execute of that handle would otherwise lose its compiled form
        mid-flight (it self-heals between executions, not during one).
        """
        with self._lock:
            entry = self._statements.get(front.text)
            if entry is None:
                entry = self._statements[front.text] = _StoreEntry(front)
                if len(self._statements) > self._STATEMENT_CACHE_SIZE:
                    _text, evicted = self._statements.popitem(last=False)
                    if evicted.prepared is not None:
                        evicted.prepared.close()
            elif entry.front.generation != self._generation:
                entry.front = front
            return entry

    def front_half(self, statement_text: str) -> FrontHalf:
        """Analyze and lower one GRAPH_TABLE statement without touching
        the backend: AST, PGQ query, logical plan, diagnostics, inferred
        result schema and parameter types, ``statically_empty`` verdict.

        Repeated text is a store hit that parses and analyzes nothing.
        """
        front = self.pipeline(statement_text)
        if not isinstance(front, FrontHalf):
            raise EngineError(
                "only execute() accepts DDL; prepare(), compile(), explain() and "
                "explain_analyze() expect a SELECT ... FROM GRAPH_TABLE(...) statement"
            )
        return front

    def _owned_statement(self, front: FrontHalf) -> PreparedStatement:
        """The store-owned prepared statement behind ``execute(text)``,
        compiled on the text's first execution."""
        with self._lock:
            # Compilation touches connection-affine engine state (e.g. the
            # SQLite backend's shared view tables), which must not interleave
            # with another thread's compile or execute on this connection;
            # holding the lock also lets a concurrent miss on the same
            # text reuse the winner instead of displacing (and leaking) it.
            entry = self._remember(front)
            if entry.prepared is not None:
                self._statement_hits += 1
                return entry.prepared
            entry.prepared = PreparedStatement(self, front)
            self._statement_misses += 1
            text_key = hash(front.text)
            if text_key not in self._sugar_texts_seen:
                if len(self._sugar_texts_seen) < self._SUGAR_TEXTS_SEEN_MAX:
                    self._sugar_texts_seen.add(text_key)
                else:
                    self._sugar_texts_overflow += 1
            return entry.prepared

    # ------------------------------------------------------------------ #
    # Statement execution
    # ------------------------------------------------------------------ #
    def prepare(self, statement_text: str) -> PreparedStatement:
        """Compile one GRAPH_TABLE statement for repeated, parameterized
        execution.

        Literal positions may hold ``:name`` parameter slots (e.g. ``WHERE
        t.amount > :minimum``); each :meth:`PreparedStatement.execute`
        supplies their values.  The plan is compiled once and shared by
        every binding — see the ``prepared_hits`` plan-cache statistic.
        """
        front = self.front_half(statement_text)
        with self._lock:  # engine compilation serializes (see _owned_statement)
            prepared = PreparedStatement(self, front)
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
        """Execute one SQL/PGQ statement (DDL or query).

        Queries run through the statement store keyed on the statement
        text: repeated text skips parsing, analysis and planning, and
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
        record = self.pipeline(statement_text)
        if isinstance(record, CreatePropertyGraph):
            if params:
                raise EngineError("DDL statements take no parameters")
            definition = self._owner.register_graph(record)
            # Re-creating a graph can change what statements compiled
            # against; the advance bumps the generation so they rebuild
            # lazily (the engine survives: data is unchanged).
            self._advance_snapshot()
            return QueryResult(("graph",), ((definition.name,),))
        return self._owned_statement(record).execute(
            params, timeout=timeout, budget=budget, token=token
        )

    def _note_prepared_execution(self, *, reused: bool) -> None:
        with self._lock:
            self._prepared_executions += 1
            if reused:
                self._prepared_reuse += 1

    def compile(self, statement_text: str) -> Query:
        """Compile a GRAPH_TABLE query to its formal PGQ query without
        executing it."""
        return self.front_half(statement_text).query

    def evaluate(self, query: Query, bindings: Optional[Bindings] = None) -> Relation:
        """Evaluate a programmatic PGQ query on the connection's backend."""
        self._check_open()
        with self._lock:  # engine evaluation state is per-engine; serialize
            return self._get_engine().evaluate(query, bindings=bindings)

    # ------------------------------------------------------------------ #
    # Observability: tracing, EXPLAIN, EXPLAIN ANALYZE
    # ------------------------------------------------------------------ #
    @property
    def tracer(self) -> Tracer:
        """The query-lifecycle tracer consulted at statement setup."""
        return self._tracer

    def use_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to this connection (``NULL_TRACER`` disables)."""
        self._tracer = tracer

    def explain(self, statement_text: str) -> Explain:
        """The optimized logical plan a GRAPH_TABLE query lowers to.

        Returns a structured :class:`Explain`: the plan rendering plus —
        for planner-backed engines — the engine's execution counters,
        plan-cache statistics with shared-vs-private provenance and
        cumulative ``session_*`` counters, the prepared-statement
        accounting, and the snapshot provenance (fingerprint, shared
        materialization stats, streamed-result count).
        """
        return gather_explain(self, self.front_half(statement_text))

    def explain_analyze(
        self, statement_text: str, params: Optional[Bindings] = None
    ) -> Explain:
        """Execute the statement once and return its :class:`Explain`
        with a per-operator execution profile in ``analyze``.

        The statement runs for real (through the same statement store as
        :meth:`execute`) under a private recording tracer and an
        :class:`~repro.observability.ExecutionProfiler`, independent of
        whether the connection's own tracer is enabled.  The resulting
        tree always carries the lifecycle stages (parse/compile when they
        ran, execute, decode) with wall times and row counts; on the
        planned engine the execute stage additionally expands into the
        physical plan's per-node profile — rows produced, inclusive wall
        time and memo hits for every scan, join, filter and fixpoint.
        """
        ring = RingBufferSink(capacity=16)
        profiler = ExecutionProfiler()
        tracer_token = activate(Tracer(sinks=(ring,)))
        profiler_token = activate_profiler(profiler)
        start = perf_counter()
        try:
            # Inside the window, so a cold front half shows up as stages.
            front = self.front_half(statement_text)
            result = self._owned_statement(front).execute(params)
            decode_start = perf_counter()
            rows = result.rows  # drain the stream inside the profile window
            decode_s = perf_counter() - decode_start
        finally:
            total_s = perf_counter() - start
            deactivate_profiler(profiler_token)
            deactivate(tracer_token)
        explain = gather_explain(self, front)
        explain.analyze = telemetry.build_analyze_tree(
            self._engine_name, ring.records(), profiler, total_s, len(rows), decode_s
        )
        return explain

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, *, reason: str = "connection closed", drain: bool = True) -> None:
        """Release the backend and every prepared statement.

        Closes the statement store, explicitly prepared handles (dropping
        their persisted SQLite temp tables) and the engine (closing the
        SQLite backend connection).  Idempotent; further statement use
        raises :class:`~repro.errors.ConnectionClosedError` carrying
        ``reason``.

        Streamed results still pending are drained first by default, so
        rows already produced stay readable.  ``drain=False`` — the
        connection-pool recycling path — closes pending results instead:
        their undecoded rows are dropped and any subsequent fetch raises
        :class:`~repro.errors.ConnectionClosedError` carrying ``reason``,
        rather than decoding rows nobody will read.  No result holds a
        SQLite cursor: every statement is fetched inside its execution.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._close_reason = reason
            self._live_streams.settle(close_reason=None if drain else reason)
            owned = [
                entry.prepared
                for entry in self._statements.values()
                if entry.prepared is not None
            ]
            self._statements.clear()
            for prepared in [*owned, *self._prepared_registry]:
                prepared.close()
            self._invalidate_engine()
            if self._snapshot_obj is not None:
                self._snapshot_obj.cache.unpin(self._snapshot_obj.data_fingerprint)

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
