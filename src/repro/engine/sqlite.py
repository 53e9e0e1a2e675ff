"""SQLite-backed execution engine.

SQL/PGQ is designed to run *inside* a relational engine; this module shows
the paper's formal fragments executing on a real one.  A
:class:`SQLiteEngine` loads a :class:`~repro.relational.database.Database`
into an in-memory SQLite database and evaluates PGQ queries by compiling
them to SQL:

* the relational operators map to ``SELECT`` / ``UNION`` / ``EXCEPT`` /
  cross joins;
* pattern matching over a graph view maps to joins over the six view
  relations, with unbounded repetition compiled to a ``WITH RECURSIVE``
  common table expression — the same mechanism (linear recursion) the paper
  cites as SQL's NL-complete core.

The SQL compilation supports unary identifiers (the read-only/read-write
fragments and the SQL/PGQ core, cf. Section 7 item (3)); queries that build
views with n-ary identifiers fall back to the in-memory evaluator so that
every query still executes.  Results are always identical to the formal
evaluator, which the test-suite and the E11 benchmark check.
"""

from __future__ import annotations

import itertools
import re
import sqlite3
import time
import weakref
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.observability.tracing import trace_span

from repro.errors import BindingError, EngineError, GovernanceError, QueryCancelledError
from repro.governance import active_fault_plan, current_governor
from repro.parameters import Bindings, Parameter, check_bindings, merge_bindings
from repro.patterns.ast import (
    Concatenation,
    Disjunction,
    EdgePattern,
    Filter,
    NodePattern,
    OutputPattern,
    Pattern,
    PropertyRef,
    Repetition,
    iter_subpatterns,
)
from repro.patterns.conditions import (
    AndCondition,
    HasLabel,
    NotCondition,
    OrCondition,
    PatternCondition,
    PropertyCompare,
    PropertyComparesProperty,
    PropertyEquals,
)
from repro.pgq.evaluator import CompiledQuery, PGQEvaluator
from repro.pgq.queries import (
    ActiveDomainQuery,
    BaseRelation,
    Constant,
    ConstantRelation,
    Difference,
    EmptyRelation,
    GraphPattern,
    Product,
    Project,
    Query,
    Select,
    Union,
    iter_queries,
    query_parameters,
    resolve_bindings,
)
from repro.pgq.views import infer_identifier_arity
from repro.relational.conditions import (
    And as RAAnd,
    ColumnCompare,
    ColumnCompareConstant,
    ColumnEquals,
    ColumnEqualsConstant,
    Condition,
    Not as RANot,
    Or as RAOr,
    TrueCondition,
)
from repro.relational.database import Database
from repro.relational.relation import Relation


class SQLiteEngine:
    """Evaluates PGQ queries on SQLite, falling back to the formal evaluator.

    Registered in :mod:`repro.engine.registry` under the name ``sqlite``;
    with ``max_repetitions`` set, every query runs on the formal evaluator
    so the depth-overrun :class:`~repro.errors.PatternError` matches the
    other engines exactly.
    """

    name = "sqlite"

    def __init__(self, database: Database, *, max_repetitions: Optional[int] = None):
        self.database = database
        self.max_repetitions = max_repetitions
        self._connection: Optional[sqlite3.Connection] = None
        self._temp_counter = itertools.count()
        #: Temp tables created while compiling the current query; dropped
        #: by :meth:`evaluate` after the result is fetched so repeated
        #: queries in a long-lived session do not accumulate tables
        #: (``compile_to_sql`` callers keep them — the returned SQL
        #: references them; prepared statements keep theirs for their
        #: whole lifetime).
        self._temp_tables_in_flight: List[str] = []
        #: Literal sink of the in-flight compilation.  The default inlines
        #: SQL literals; a prepared compilation swaps in a
        #: :class:`_ParamSink` that turns :class:`Parameter` slots into
        #: native ``?`` placeholders and records their names in order.
        self._params: "_LiteralSink" = _LITERALS
        #: Collected ``(table, sql, slot names)`` steps of a prepared
        #: compilation whose pair tables depend on parameters and must be
        #: re-materialized per execution; ``None`` outside prepared
        #: compilations (a parameterized pair body is then unsupported).
        self._deferred_pairs: Optional[List[Tuple[str, str, Tuple[str, ...]]]] = None
        #: Engine-owned view temp tables shared by *prepared* statements,
        #: keyed like the evaluator's view cache on (sources, max_arity):
        #: the database is immutable for the engine's lifetime, so every
        #: prepared statement over the same graph view reuses one set of
        #: materialized tables instead of duplicating them per statement.
        #: Each entry carries a WeakSet of the compiled statements using
        #: it; superseded entries (e.g. graph redefinitions) are dropped
        #: once no live statement references them.  Cleared (with the
        #: connection) by :meth:`close`.
        self._shared_view_tables: "OrderedDict[Tuple, Tuple[List[str], weakref.WeakSet]]" = (
            OrderedDict()
        )
        #: The compiled statement currently being prepared, so shared view
        #: tables can track their users for safe eviction.
        self._preparing_statement: Optional["_SQLiteCompiledQuery"] = None
        #: Snapshot-cache scope attached by connections (see
        #: :meth:`use_snapshot_cache`); ``None`` = private evaluation.
        self._snapshot_scope = None
        #: Weak refs to live :class:`_CursorStream` results; detached
        #: (their remaining rows buffered) before the connection closes.
        self._open_streams: List["weakref.ref"] = []

    def use_snapshot_cache(self, scope) -> None:
        """Attach a snapshot-cache scope for cross-connection sharing.

        The SQLite backend's own state (the loaded ``:memory:`` database,
        temp tables) is connection-affine and stays private, but the
        *relational* work around it is shared: view-source relations are
        read through the scope's cross-engine CSE entries, and the
        oracle-fallback evaluator (n-ary identifier views, depth-bounded
        repetition) shares materialized graph views under a
        ``sqlite-fallback`` engine kind.
        """
        self._snapshot_scope = scope

    def _fallback_evaluator(self, *, max_repetitions: Optional[int] = None) -> PGQEvaluator:
        """A formal evaluator for queries the SQL path cannot serve,
        snapshot-cache-attached when the engine is."""
        evaluator = PGQEvaluator(self.database, max_repetitions=max_repetitions)
        scope = self._snapshot_scope
        if scope is not None:
            evaluator.use_snapshot_cache(
                scope.with_kind(("sqlite-fallback", max_repetitions))
            )
        return evaluator

    def _source_relation(self, source: Query) -> Relation:
        """Evaluate one view-source subquery, shared through the snapshot
        cache when possible (every backend computes identical relations
        for a concrete relational subquery)."""
        scope = self._snapshot_scope
        if scope is not None:
            entry = scope.relation(
                source, lambda: PGQEvaluator(self.database).evaluate(source)
            )
            if entry is not None:
                return entry[0]
        return PGQEvaluator(self.database).evaluate(source)

    #: Soft cap on cached shared view-table sets; entries beyond it are
    #: evicted oldest-first, but only once unreferenced (correctness wins
    #: over the cap when many definitions are live at once).
    _SHARED_VIEW_TABLES_MAX = 8

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    @property
    def connection(self) -> sqlite3.Connection:
        """The backing connection, created and loaded on first SQL use.

        Bounded sessions (``max_repetitions`` set) always delegate to the
        formal evaluator, so they never pay for loading the database.
        """
        if self._connection is None:
            connection = sqlite3.connect(":memory:")
            # Wait up to 5s for a competing writer before surfacing
            # "database is locked"; the transient-retry policy in
            # :meth:`_execute_with_retry` absorbs what the busy handler
            # does not.  WAL journaling — the usual companion setting —
            # does not apply to ``:memory:`` databases (no file to
            # journal); a future file-backed mode should enable
            # ``PRAGMA journal_mode=WAL`` alongside this timeout.
            connection.execute("PRAGMA busy_timeout = 5000")
            self._connection = connection
            self._load(self.database)
        return self._connection

    def _load(self, database: Database) -> None:
        cursor = self._connection.cursor()
        for name in database:
            relation = database.relation(name)
            columns = ", ".join(f"c{i}" for i in range(1, relation.arity + 1))
            cursor.execute(f'CREATE TABLE "{name}" ({columns})')
            placeholders = ", ".join("?" for _ in range(relation.arity))
            cursor.executemany(
                f'INSERT INTO "{name}" VALUES ({placeholders})',
                [tuple(row) for row in relation.rows],
            )
        # Active domain as a real table: the union of all columns of all relations.
        cursor.execute("CREATE TABLE __adom (c1)")
        values = {value for value in database.active_domain()}
        cursor.executemany("INSERT INTO __adom VALUES (?)", [(v,) for v in values])
        self._connection.commit()

    def close(self) -> None:
        # Streams still reading the connection buffer their remaining
        # rows first, so their results stay readable after the close.
        self._detach_open_streams()
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        # Temp tables died with the connection; prepared statements that
        # survive a close recompile (and re-share) on the next execution.
        self._shared_view_tables.clear()

    def __enter__(self) -> "SQLiteEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def evaluate(self, query: Query, bindings: Optional[Bindings] = None) -> Relation:
        """Evaluate a PGQ query, preferring the SQL path when it applies.

        ``bindings`` are substituted eagerly (one-shot evaluation gains
        nothing from deferred binding; :meth:`prepare` is the path that
        keeps ``?`` placeholders native).  A configured ``max_repetitions``
        bound is enforced by the formal evaluator (the SQL recursive CTE
        cannot raise on depth overrun), so queries that contain a
        repetition operator take the fallback path — keeping the error
        behavior identical across engines while repetition-free queries
        stay on SQL.
        """
        query = resolve_bindings(query, bindings)
        if self.max_repetitions is not None and _contains_repetition(query):
            return self._fallback_evaluator(
                max_repetitions=self.max_repetitions
            ).evaluate(query)
        self._temp_tables_in_flight = []
        try:
            try:
                sql, arity = self._compile(query)
            except _SQLUnsupported:
                return self._fallback_evaluator().evaluate(query)
            # Iterate the cursor rather than fetchall(): rows decode one at
            # a time into the relation (the temp tables must outlive the
            # iteration, hence the consumption inside this try block).
            with trace_span("sqlite.execute", sql=_sql_snippet(sql)), self._governed_execution():
                relation = _relation_from_rows(
                    self._execute_with_retry(self.connection, sql), arity
                )
        finally:
            self._drop_in_flight_temp_tables()
        return relation

    def stream(
        self, query: Query, bindings: Optional[Bindings] = None
    ) -> Optional[Tuple[int, Iterator[List[Tuple]], bool]]:
        """One-shot streaming evaluation: ``(arity, batches, ordered)`` or
        None; SQLite promises no row order, so ``ordered`` is False.

        The SQL compiles and the statement starts executing here (compile
        errors and missing bindings surface at call time), but rows are
        fetched from the SQLite cursor a batch at a time as the iterator
        is consumed; in-flight temp tables are dropped when the iterator is
        exhausted or closed.  Returns ``None`` — the caller then takes the
        materializing :meth:`evaluate` path — for queries the SQL
        translation cannot serve, for depth-bounded sessions whose queries
        contain repetition (the formal evaluator enforces the bound), and
        for zero-arity results (the ``{()}`` vs ``{}`` distinction is not
        a row stream).
        """
        query = resolve_bindings(query, bindings)
        if self.max_repetitions is not None and _contains_repetition(query):
            return None
        self._temp_tables_in_flight = []
        try:
            sql, arity = self._compile(query)
        except _SQLUnsupported:
            self._drop_in_flight_temp_tables()
            return None
        except BaseException:
            self._drop_in_flight_temp_tables()
            raise
        if arity == 0:
            self._drop_in_flight_temp_tables()
            return None
        tables, self._temp_tables_in_flight = self._temp_tables_in_flight, []
        try:
            with trace_span("sqlite.execute", sql=_sql_snippet(sql)), self._governed_execution():
                cursor = self._execute_with_retry(self.connection, sql)
        except BaseException:
            self._drop_tables(tables)
            raise
        return arity, self._stream_cursor(cursor, tables), False

    def _stream_cursor(
        self, cursor: sqlite3.Cursor, tables: List[str]
    ) -> "_CursorStream":
        """A distinct-row stream over ``cursor``, registered with the
        engine so :meth:`close` can detach (buffer) it first."""
        stream = _CursorStream(self, cursor, tables)
        self._open_streams.append(weakref.ref(stream))
        if len(self._open_streams) > 64:  # prune collected streams
            self._open_streams = [
                ref for ref in self._open_streams if ref() is not None
            ]
        return stream

    def _detach_open_streams(self) -> None:
        """Buffer every live stream's remaining rows (connection closing)."""
        streams, self._open_streams = self._open_streams, []
        for ref in streams:
            stream = ref()
            if stream is not None:
                stream.detach()

    def prepare(self, query: Query) -> CompiledQuery:
        """Compile once to SQL with native ``?`` parameters, execute many.

        The six view relations are materialized (and indexed) into temp
        tables that persist for the prepared statement's lifetime; each
        parameter slot becomes a SQLite ``?`` placeholder bound per
        execution.  Pair tables of repetition bodies whose conditions
        carry parameters are re-materialized per execution (their contents
        depend on the binding); everything else is compiled exactly once.
        Queries the SQL path cannot serve (n-ary identifier views, a
        ``max_repetitions`` bound with repetition, parameterized view
        sources) fall back to a per-execution eager-binding compiled
        query, matching :meth:`evaluate` semantics.
        """
        if self.max_repetitions is not None and _contains_repetition(query):
            return CompiledQuery(self, query)
        try:
            return _SQLiteCompiledQuery(self, query)
        except (_SQLUnsupported, BindingError):
            return CompiledQuery(self, query)

    def _drop_in_flight_temp_tables(self) -> None:
        tables, self._temp_tables_in_flight = self._temp_tables_in_flight, []
        self._drop_tables(tables)

    def _drop_tables(self, tables: Sequence[str]) -> None:
        if not tables or self._connection is None:
            return
        cursor = self._connection.cursor()
        for table in tables:
            try:
                cursor.execute(f"DROP TABLE IF EXISTS {table}")
            except sqlite3.OperationalError:
                # A streaming cursor is still reading the table; leave it
                # behind — temp tables die with the connection anyway.
                pass
        self._connection.commit()

    #: SQLite virtual-machine instructions between progress-handler polls
    #: while a governed statement runs — low enough that a 50ms deadline
    #: is observed within a few milliseconds on the transfer workloads,
    #: high enough that the handler is invisible on ungoverned-scale work.
    _PROGRESS_INTERVAL = 1000

    #: Retry policy for transient ``database is locked`` errors (another
    #: handle held the write lock longer than the busy handler waited):
    #: exponential backoff starting at 5ms, then give up with the error.
    _TRANSIENT_RETRIES = 3
    _TRANSIENT_BACKOFF_S = 0.005

    @contextmanager
    def _governed_execution(self):
        """Cooperative governance for one SQL execution window.

        When a governor is active, its checkpoint becomes the
        connection's progress handler (site ``"sqlite.progress"``, polled
        every ``_PROGRESS_INTERVAL`` VM instructions) and
        ``connection.interrupt`` is registered on the cancellation token,
        so deadlines, budgets, injected faults and cross-thread cancels
        all stop the statement mid-flight.  SQLite surfaces either stop
        as ``OperationalError: interrupted``, which this context maps
        back to the governance error that tripped.  Ungoverned
        executions install nothing — the disabled path stays free.
        """
        governor = current_governor()
        if governor is None:
            yield
            return
        connection = self.connection
        tripped: List[GovernanceError] = []

        def _poll() -> int:
            try:
                governor.checkpoint("sqlite.progress")
            except GovernanceError as error:
                tripped.append(error)
                return 1  # abort -> OperationalError("interrupted")
            return 0

        token = governor.token
        connection.set_progress_handler(_poll, self._PROGRESS_INTERVAL)
        token.add_callback(connection.interrupt)
        try:
            yield
        except sqlite3.OperationalError as error:
            if tripped:
                raise tripped[0] from error
            if "interrupt" in str(error):
                # interrupt() landed between two progress polls (a
                # cross-thread cancel racing the handler).
                reason = token.reason or "cancelled"
                raise QueryCancelledError(
                    f"query cancelled during SQLite execution: {reason}",
                    reason=reason,
                    progress=governor.progress(),
                ) from error
            raise
        finally:
            token.remove_callback(connection.interrupt)
            connection.set_progress_handler(None, 0)

    def _execute_with_retry(self, connection: sqlite3.Connection, sql: str, arguments: Tuple = ()):
        """Run one statement, absorbing transient ``database is locked``.

        ``:memory:`` databases rarely lock in practice, but the fault
        plan injects lock errors (``REPRO_FAULTS="transient=N"``) to
        prove the retry path, and a future file-backed mode inherits a
        working policy.  Non-transient OperationalErrors — including the
        ``interrupted`` raised by governance — propagate immediately.
        """
        delay = self._TRANSIENT_BACKOFF_S
        attempts = 0
        while True:
            faults = active_fault_plan()
            try:
                if faults is not None and faults.take_transient():
                    raise sqlite3.OperationalError("database is locked (injected)")
                return connection.execute(sql, arguments)
            except sqlite3.OperationalError as error:
                if "locked" not in str(error):
                    raise
                if attempts >= self._TRANSIENT_RETRIES:
                    raise EngineError(
                        f"transient SQLite error persisted after "
                        f"{attempts} retries: {error}"
                    ) from error
                attempts += 1
                time.sleep(delay)
                delay *= 2

    def evaluate_sql(self, sql: str) -> List[Tuple]:
        """Run a raw SQL statement against the engine (for tests/examples)."""
        return [tuple(row) for row in self.connection.execute(sql).fetchall()]

    def compile_to_sql(self, query: Query) -> str:
        """Return the SQL text a query compiles to (raises when unsupported)."""
        sql, _arity = self._compile(query)
        return sql

    # ------------------------------------------------------------------ #
    # Relational operators
    # ------------------------------------------------------------------ #
    def _compile(self, query: Query) -> Tuple[str, int]:
        if isinstance(query, BaseRelation):
            relation = self.database.relation(query.name)
            columns = ", ".join(f"c{i}" for i in range(1, relation.arity + 1))
            return f'SELECT {columns} FROM "{query.name}"', relation.arity
        if isinstance(query, Constant):
            return f"SELECT {self._params.emit(query.value)} AS c1", 1
        if isinstance(query, ConstantRelation):
            if not query.rows:
                raise _SQLUnsupported("empty constant relation")
            selects = [
                "SELECT " + ", ".join(
                    f"{_sql_literal(value)} AS c{i + 1}" for i, value in enumerate(row)
                )
                for row in query.rows
            ]
            return " UNION ".join(selects), query.arity
        if isinstance(query, ActiveDomainQuery):
            return "SELECT c1 FROM __adom", 1
        if isinstance(query, EmptyRelation):
            columns = ", ".join(f"NULL AS c{i + 1}" for i in range(query.arity))
            return f"SELECT {columns} WHERE 1 = 0", query.arity
        if isinstance(query, Project):
            inner, _arity = self._compile(query.operand)
            columns = ", ".join(
                f"sub.c{position} AS c{index + 1}" for index, position in enumerate(query.positions)
            )
            return f"SELECT {columns} FROM ({inner}) AS sub", len(query.positions)
        if isinstance(query, Select):
            inner, arity = self._compile(query.operand)
            predicate = _compile_ra_condition(query.condition, "sub", self._params.emit)
            columns = ", ".join(f"sub.c{i}" for i in range(1, arity + 1))
            return f"SELECT {columns} FROM ({inner}) AS sub WHERE {predicate}", arity
        if isinstance(query, Product):
            left_sql, left_arity = self._compile(query.left)
            right_sql, right_arity = self._compile(query.right)
            left_cols = ", ".join(f"l.c{i} AS c{i}" for i in range(1, left_arity + 1))
            right_cols = ", ".join(
                f"r.c{i} AS c{left_arity + i}" for i in range(1, right_arity + 1)
            )
            separator = ", " if left_cols and right_cols else ""
            return (
                f"SELECT {left_cols}{separator}{right_cols} FROM ({left_sql}) AS l, ({right_sql}) AS r",
                left_arity + right_arity,
            )
        if isinstance(query, Union):
            left_sql, left_arity = self._compile(query.left)
            right_sql, right_arity = self._compile(query.right)
            if left_arity != right_arity:
                raise EngineError("union of incompatible arities")
            return f"SELECT * FROM ({left_sql}) UNION SELECT * FROM ({right_sql})", left_arity
        if isinstance(query, Difference):
            left_sql, left_arity = self._compile(query.left)
            right_sql, _right = self._compile(query.right)
            return f"SELECT * FROM ({left_sql}) EXCEPT SELECT * FROM ({right_sql})", left_arity
        if isinstance(query, GraphPattern):
            return self._compile_graph_pattern(query)
        raise _SQLUnsupported(f"query node {type(query).__name__}")

    # ------------------------------------------------------------------ #
    # Pattern matching
    # ------------------------------------------------------------------ #
    #: Index columns per view-table position (nodes, .., properties): the
    #: pattern SQL joins sources/targets on the edge column and probes
    #: labels/properties by (element, key), so those lookups must not scan.
    _VIEW_INDEX_COLUMNS = ("c1", None, "c1", "c1", "c1, c2", "c1, c2")

    def _compile_graph_pattern(self, query: GraphPattern) -> Tuple[str, int]:
        names = self._materialize_view_tables(query)
        view = _ViewTables(*names)
        compiler = _PatternSQL(
            view, materialize=self._materialize_pair_table, params=self._params
        )
        sql = compiler.compile_output(query.output)
        arity = len(query.output.items)
        return sql, arity

    def _materialize_view_tables(self, query: GraphPattern) -> List[str]:
        """Materialize the six view relations as temporary tables.

        Keeps the pattern SQL readable and lets the recursive CTE reference
        them.  During a *prepared* compilation the tables are shared
        engine-wide per ``(sources, max_arity)`` — the database is
        immutable for the engine's lifetime, so many prepared statements
        over one graph view hold one set of tables, not one per statement.
        One-shot evaluations keep private tables (they are dropped right
        after the query).
        """
        preparing = self._deferred_pairs is not None
        cache_key: Optional[Tuple] = None
        if preparing:
            cache_key = (query.sources, query.max_arity)
            try:
                hash(cache_key)
            except TypeError:
                cache_key = None
            else:
                shared = self._shared_view_tables.get(cache_key)
                if shared is not None:
                    names, users = shared
                    self._shared_view_tables.move_to_end(cache_key)
                    if self._preparing_statement is not None:
                        users.add(self._preparing_statement)
                    return names
        view_relations = tuple(self._source_relation(source) for source in query.sources)
        identifier_arity = infer_identifier_arity(view_relations)
        if identifier_arity != 1:
            raise _SQLUnsupported("the SQL backend compiles unary-identifier views only")
        names: List[str] = []
        cursor = self.connection.cursor()
        # Register every table in-flight *before* creating it so a
        # mid-loop failure (e.g. an unbindable cell value) still gets its
        # partial tables dropped by the caller's cleanup; on success the
        # shared-cache path below adopts them out of the in-flight list.
        in_flight_start = len(self._temp_tables_in_flight)
        for index, relation in enumerate(view_relations):
            table = f"__view{next(self._temp_counter)}_{index}"
            names.append(table)
            self._temp_tables_in_flight.append(table)
            columns = ", ".join(f"c{i}" for i in range(1, max(relation.arity, 1) + 1))
            cursor.execute(f"DROP TABLE IF EXISTS {table}")
            cursor.execute(f"CREATE TEMP TABLE {table} ({columns})")
            if relation.arity:
                placeholders = ", ".join("?" for _ in range(relation.arity))
                cursor.executemany(
                    f"INSERT INTO {table} VALUES ({placeholders})",
                    [tuple(row) for row in relation.rows],
                )
            index_columns = self._VIEW_INDEX_COLUMNS[index]
            if index_columns is not None and relation.arity:
                cursor.execute(f"CREATE INDEX idx_{table} ON {table}({index_columns})")
        self.connection.commit()
        if cache_key is not None:
            # Engine-owned from here on: statements must not drop them.
            del self._temp_tables_in_flight[in_flight_start:]
            users: "weakref.WeakSet" = weakref.WeakSet()
            if self._preparing_statement is not None:
                users.add(self._preparing_statement)
            self._shared_view_tables[cache_key] = (names, users)
            self._evict_unreferenced_view_tables()
        return names

    def _evict_unreferenced_view_tables(self) -> None:
        """Drop cached view-table sets past the cap, oldest first, but
        only those no live prepared statement still compiles against
        (superseded graph definitions, typically)."""
        if len(self._shared_view_tables) <= self._SHARED_VIEW_TABLES_MAX:
            return
        for key in list(self._shared_view_tables):
            if len(self._shared_view_tables) <= self._SHARED_VIEW_TABLES_MAX:
                break
            names, users = self._shared_view_tables[key]
            if not users:
                del self._shared_view_tables[key]
                self._drop_tables(names)

    def _materialize_pair_table(self, pair_sql: str, slots: Tuple[str, ...] = ()) -> str:
        """Materialize a repetition body's (src, tgt) relation, indexed.

        The recursive CTE previously re-evaluated the body subquery (label
        and property EXISTS probes included) on every extension step; as a
        temp table the per-step conditions run exactly once, and the
        ``src``/``tgt`` indexes turn each closure step into index lookups
        instead of scans — this is what removed the super-linear blowup on
        the transfer workloads.

        ``slots`` names the parameter placeholders inside ``pair_sql`` (in
        ``?`` order).  A parameterized pair table's contents depend on the
        execution's bindings, so during a prepared compilation it is only
        *recorded* here (``_deferred_pairs``) and materialized per
        execution by :class:`_SQLiteCompiledQuery`.
        """
        table = f"__pairs{next(self._temp_counter)}"
        self._temp_tables_in_flight.append(table)
        # A pair table must also be deferred when its body *references* an
        # already-deferred table (nested repetition with a parameterized
        # inner body): that inner table does not exist until execution, so
        # materializing the outer one now would fail.  Match whole
        # identifiers — a plain substring test would alias __pairs1 onto
        # __pairs12 and needlessly defer parameter-free tables.
        references_deferred = self._deferred_pairs is not None and any(
            re.search(rf"\b{re.escape(deferred_table)}\b", pair_sql)
            for deferred_table, _sql, _slots in self._deferred_pairs
        )
        if slots or references_deferred:
            if self._deferred_pairs is None:
                raise _SQLUnsupported("parameterized repetition body outside prepare()")
            self._deferred_pairs.append((table, pair_sql, tuple(slots)))
            return table
        cursor = self.connection.cursor()
        cursor.execute(f"DROP TABLE IF EXISTS {table}")
        cursor.execute(f"CREATE TEMP TABLE {table} AS {pair_sql}")
        cursor.execute(f"CREATE INDEX idx_{table}_src ON {table}(src)")
        cursor.execute(f"CREATE INDEX idx_{table}_tgt ON {table}(tgt)")
        self.connection.commit()
        return table


def _contains_repetition(query: Query) -> bool:
    """True when any pattern in the query has a repetition operator."""
    for node in iter_queries(query):
        if isinstance(node, GraphPattern):
            for sub in iter_subpatterns(node.output.pattern):
                if isinstance(sub, Repetition):
                    return True
    return False


def make_sqlite_engine(
    database: Database,
    *,
    max_repetitions: Optional[int] = None,
    verify_plans: Optional[bool] = None,
):
    # ``verify_plans`` is a database-level setting every backend is handed;
    # this one compiles no logical plans to verify.
    return SQLiteEngine(database, max_repetitions=max_repetitions)


class _SQLUnsupported(Exception):
    """Internal: the query cannot be compiled to SQL; fall back to Python."""


def _sql_literal(value) -> str:
    if isinstance(value, Parameter):
        raise _SQLUnsupported(f"parameter slot {value!r} outside a prepared compilation")
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


class _LiteralSink:
    """Default literal sink: inline every constant as a SQL literal."""

    def emit(self, value) -> str:
        return _sql_literal(value)

    def push(self) -> None:
        """Open a nested slot scope (repetition bodies); no-op here."""

    def pop(self) -> Tuple[str, ...]:
        return ()


class _ParamSink(_LiteralSink):
    """Prepared-compilation sink: parameters become ``?`` placeholders.

    Slot names are recorded in emission order, which — because every
    compilation rule interpolates sub-SQL in the order it compiles it —
    is also textual ``?`` order.  ``push``/``pop`` bracket repetition
    bodies so a materialized pair table's slots are split off the
    enclosing statement's list (the body text is replaced by a table
    name, taking its placeholders with it).
    """

    def __init__(self) -> None:
        self._stack: List[List[str]] = [[]]

    def emit(self, value) -> str:
        if isinstance(value, Parameter):
            self._stack[-1].append(value.name)
            return "?"
        return _sql_literal(value)

    def push(self) -> None:
        self._stack.append([])

    def pop(self) -> Tuple[str, ...]:
        return tuple(self._stack.pop())

    @property
    def slots(self) -> Tuple[str, ...]:
        """Slot names of the outermost (main statement) scope, in order."""
        return tuple(self._stack[0])


#: Shared default sink (stateless).
_LITERALS = _LiteralSink()


class _CursorStream:
    """Iterator of distinct-row batches over a SQLite cursor, detachable by
    the engine.

    SQL row sets are bags while the engines' relations are sets, so a
    seen-set keeps the yielded rows distinct (matching
    :meth:`SQLiteEngine.evaluate`'s semantics exactly).  The engine holds
    a weak ref to every live stream: :meth:`SQLiteEngine.close` calls
    :meth:`detach` first, buffering the remaining rows so a streamed
    :class:`~repro.engine.result.QueryResult` stays readable after the
    backend connection (or an engine swap) takes the cursor away.  Temp
    tables owned by the stream (one-shot evaluation) are dropped when the
    cursor is exhausted, detached or abandoned.
    """

    def __init__(self, engine: "SQLiteEngine", cursor: sqlite3.Cursor, tables: List[str]):
        self._engine = engine
        self._cursor: Optional[sqlite3.Cursor] = cursor
        self._tables = tables
        self._seen: set = set()
        self._buffer: "deque[List[Tuple]]" = deque()
        self._done = False

    def __iter__(self) -> "_CursorStream":
        return self

    def __next__(self) -> List[Tuple]:
        while True:
            if self._buffer:
                return self._buffer.popleft()
            if self._done:
                raise StopIteration
            self._fetch_batch()

    def _fetch_batch(self) -> None:
        chunk = self._cursor.fetchmany(256)
        if not chunk:
            self._finish()
            return
        fresh = [row for row in dict.fromkeys(map(tuple, chunk)) if row not in self._seen]
        self._seen.update(fresh)
        if fresh:
            self._buffer.append(fresh)

    def _finish(self) -> None:
        self._done = True
        self._release()

    def _release(self) -> None:
        """Idempotent cursor/temp-table teardown, shared by exhaustion,
        :meth:`detach` and garbage collection — safe to call twice and
        after the backing connection is gone."""
        cursor, self._cursor = self._cursor, None
        if cursor is not None:
            try:
                cursor.close()
            except sqlite3.Error:  # pragma: no cover - connection already gone
                pass
        tables, self._tables = self._tables, []
        self._engine._drop_tables(tables)

    def detach(self) -> None:
        """Buffer every remaining row and release the cursor."""
        while not self._done:
            self._fetch_batch()

    def close(self) -> None:
        """Release the cursor *without* buffering the remaining rows.

        The discard path of ``Connection.close(drain=False)``: the pooled
        connection is being recycled, nobody will read the rest of this
        stream, so drop the buffer and free the cursor/temp tables now
        instead of paying to materialize rows that go straight to GC.
        """
        if not self._done:
            self._done = True
            self._buffer.clear()
            self._release()

    def __del__(self):  # pragma: no cover - GC timing dependent
        if not self._done:
            self._done = True
            try:
                self._release()
            except sqlite3.Error:
                pass  # interpreter shutdown: the connection is already gone


def _sql_snippet(sql: str, limit: int = 120) -> str:
    """Whitespace-flattened SQL prefix for span tags."""
    flattened = " ".join(sql.split())
    return flattened if len(flattened) <= limit else flattened[: limit - 3] + "..."


def _relation_from_rows(rows, arity: int) -> Relation:
    # Materialize first: ``rows`` may be a sqlite3.Cursor, whose truth
    # value would not reflect emptiness in the arity-0 branch.
    rows = [tuple(row) for row in rows]
    if arity > 0:
        return Relation(arity, rows)
    return Relation(0, [()] if rows else [])


class _SQLiteCompiledQuery:
    """A prepared statement on the SQLite backend.

    Holds the compiled SQL text (with native ``?`` placeholders), the
    persisted view temp tables, and the deferred parameter-dependent pair
    tables; ``execute(bindings)`` binds slot values positionally and runs
    the statement on the engine's connection.  If the engine's connection
    was closed (and thus the temp tables dropped) since preparation, the
    statement transparently recompiles against the fresh connection.
    """

    def __init__(self, engine: "SQLiteEngine", query: Query):
        self.engine = engine
        self.query = query
        self.parameter_names = tuple(sorted(query_parameters(query)))
        #: Inferred slot types, filled in by the connection at prepare time.
        self.parameter_types: Dict[str, str] = {}
        self.executions = 0
        self._compile()

    def _compile(self) -> None:
        engine = self.engine
        self._connection = engine.connection  # load the database first
        sink = _ParamSink()
        saved = (
            engine._params,
            engine._temp_tables_in_flight,
            engine._deferred_pairs,
            engine._preparing_statement,
        )
        engine._params, engine._temp_tables_in_flight, engine._deferred_pairs = sink, [], []
        engine._preparing_statement = self
        try:
            self._sql, self._arity = engine._compile(self.query)
            self._tables = list(engine._temp_tables_in_flight)
            self._deferred = list(engine._deferred_pairs)
            self._main_slots = sink.slots
        except BaseException:
            engine._drop_tables(engine._temp_tables_in_flight)
            raise
        finally:
            (
                engine._params,
                engine._temp_tables_in_flight,
                engine._deferred_pairs,
                engine._preparing_statement,
            ) = saved

    def execute(self, bindings: Optional[Bindings] = None, /, **named) -> Relation:
        """Execute with ``bindings`` (mapping and/or keywords, keywords
        win; the mapping argument is positional-only so a slot named
        ``bindings`` still binds by keyword)."""
        merged = merge_bindings(bindings, named)
        check_bindings(self.parameter_names, merged)
        if self.engine._connection is not self._connection:
            # The connection (and with it every temp table) went away since
            # preparation — e.g. engine.close(); recompile transparently.
            self._compile()
        engine = self.engine
        with engine._governed_execution():
            cursor = self._connection.cursor()
            for table, sql, slots in self._deferred:
                cursor.execute(f"DROP TABLE IF EXISTS {table}")
                cursor.execute(
                    f"CREATE TEMP TABLE {table} AS {sql}",
                    tuple(merged[name] for name in slots),
                )
                cursor.execute(f"CREATE INDEX idx_{table}_src ON {table}(src)")
                cursor.execute(f"CREATE INDEX idx_{table}_tgt ON {table}(tgt)")
            if self._deferred:
                self._connection.commit()
            arguments = tuple(merged[name] for name in self._main_slots)
            with trace_span("sqlite.execute", sql=_sql_snippet(self._sql), prepared=True):
                relation = _relation_from_rows(
                    engine._execute_with_retry(self._connection, self._sql, arguments),
                    self._arity,
                )
        self.executions += 1
        return relation

    def execute_stream(
        self, bindings: Optional[Bindings] = None, /, **named
    ) -> Optional[Tuple[int, Iterator[List[Tuple]], bool]]:
        """Execute and stream the result rows off the SQLite cursor.

        Mirrors the engine-level :meth:`SQLiteEngine.stream` contract:
        ``(arity, distinct-row batches, False)``, with binding errors
        raised here and rows fetched incrementally.  Returns ``None`` — the
        caller falls back to :meth:`execute` — for zero-arity results and
        for statements with parameter-dependent pair tables (those are
        re-materialized per execution, which an open streaming cursor
        from a previous execution must not observe).
        """
        if self._arity == 0 or self._deferred:
            return None
        merged = merge_bindings(bindings, named)
        check_bindings(self.parameter_names, merged)
        if self.engine._connection is not self._connection:
            self._compile()
        arguments = tuple(merged[name] for name in self._main_slots)
        with trace_span("sqlite.execute", sql=_sql_snippet(self._sql), prepared=True), \
                self.engine._governed_execution():
            cursor = self.engine._execute_with_retry(self._connection, self._sql, arguments)
        self.executions += 1
        # Statement-owned temp tables persist for the statement's
        # lifetime; the stream only owns (and closes) its cursor.
        return self._arity, self.engine._stream_cursor(cursor, []), False

    def close(self) -> None:
        """Drop the statement's persisted temp tables (deferred included —
        ``_materialize_pair_table`` records every table it allocates)."""
        if self.engine._connection is self._connection:
            self.engine._drop_tables(self._tables)


def _compile_ra_condition(condition: Condition, alias: str, emit=_sql_literal) -> str:
    if isinstance(condition, TrueCondition):
        return "1 = 1"
    if isinstance(condition, ColumnEquals):
        return f"{alias}.c{condition.left} = {alias}.c{condition.right}"
    if isinstance(condition, ColumnEqualsConstant):
        return f"{alias}.c{condition.position} = {emit(condition.constant)}"
    if isinstance(condition, ColumnCompare):
        operator = "<>" if condition.operator == "!=" else condition.operator
        return f"{alias}.c{condition.left} {operator} {alias}.c{condition.right}"
    if isinstance(condition, ColumnCompareConstant):
        operator = "<>" if condition.operator == "!=" else condition.operator
        return f"{alias}.c{condition.position} {operator} {emit(condition.constant)}"
    if isinstance(condition, RAAnd):
        return f"({_compile_ra_condition(condition.left, alias, emit)} AND {_compile_ra_condition(condition.right, alias, emit)})"
    if isinstance(condition, RAOr):
        return f"({_compile_ra_condition(condition.left, alias, emit)} OR {_compile_ra_condition(condition.right, alias, emit)})"
    if isinstance(condition, RANot):
        return f"NOT ({_compile_ra_condition(condition.operand, alias, emit)})"
    raise _SQLUnsupported(f"selection condition {type(condition).__name__}")


class _ViewTables:
    """Names of the materialized view tables R1..R6."""

    def __init__(self, nodes, edges, sources, targets, labels, properties):
        self.nodes = nodes
        self.edges = edges
        self.sources = sources
        self.targets = targets
        self.labels = labels
        self.properties = properties


class _PatternSQL:
    """Compiles unary-identifier patterns to SQL over the view tables.

    Every pattern compiles to a SELECT with columns ``src``, ``tgt`` and one
    column ``v_<name>`` per free variable.
    """

    def __init__(self, view: _ViewTables, materialize=None, params: _LiteralSink = _LITERALS):
        self.view = view
        self._alias_counter = itertools.count()
        #: Optional callback materializing a repetition body's pair
        #: relation into an indexed temp table (``(sql, slots) -> table
        #: name``); without it the pair relation is inlined as a subquery.
        self._materialize = materialize
        #: Literal sink: inlines constants, or (in prepared compilations)
        #: emits ``?`` placeholders and records slot names.
        self._params = params

    def _alias(self) -> str:
        return f"p{next(self._alias_counter)}"

    # -- pattern cases ---------------------------------------------------
    def compile(self, pattern: Pattern) -> Tuple[str, Tuple[str, ...]]:
        if isinstance(pattern, NodePattern):
            variables = (pattern.variable,) if pattern.variable else ()
            binding = f", n.c1 AS v_{pattern.variable}" if pattern.variable else ""
            sql = f"SELECT n.c1 AS src, n.c1 AS tgt{binding} FROM {self.view.nodes} AS n"
            return sql, variables
        if isinstance(pattern, EdgePattern):
            variables = (pattern.variable,) if pattern.variable else ()
            binding = f", e.c1 AS v_{pattern.variable}" if pattern.variable else ""
            src_col, tgt_col = ("s.c2", "t.c2") if pattern.forward else ("t.c2", "s.c2")
            sql = (
                f"SELECT {src_col} AS src, {tgt_col} AS tgt{binding} "
                f"FROM {self.view.edges} AS e "
                f"JOIN {self.view.sources} AS s ON s.c1 = e.c1 "
                f"JOIN {self.view.targets} AS t ON t.c1 = e.c1"
            )
            return sql, variables
        if isinstance(pattern, Concatenation):
            return self._compile_concatenation(pattern)
        if isinstance(pattern, Disjunction):
            return self._compile_disjunction(pattern)
        if isinstance(pattern, Filter):
            return self._compile_filter(pattern)
        if isinstance(pattern, Repetition):
            return self._compile_repetition(pattern)
        raise _SQLUnsupported(f"pattern node {type(pattern).__name__}")

    def _compile_concatenation(self, pattern: Concatenation) -> Tuple[str, Tuple[str, ...]]:
        left_sql, left_vars = self.compile(pattern.left)
        right_sql, right_vars = self.compile(pattern.right)
        left_alias, right_alias = self._alias(), self._alias()
        shared = [v for v in right_vars if v in left_vars]
        conditions = [f"{left_alias}.tgt = {right_alias}.src"]
        conditions += [f"{left_alias}.v_{v} = {right_alias}.v_{v}" for v in shared]
        variables = tuple(left_vars) + tuple(v for v in right_vars if v not in left_vars)
        bindings = [f"{left_alias}.v_{v} AS v_{v}" for v in left_vars]
        bindings += [f"{right_alias}.v_{v} AS v_{v}" for v in right_vars if v not in left_vars]
        select_bindings = (", " + ", ".join(bindings)) if bindings else ""
        sql = (
            f"SELECT {left_alias}.src AS src, {right_alias}.tgt AS tgt{select_bindings} "
            f"FROM ({left_sql}) AS {left_alias} JOIN ({right_sql}) AS {right_alias} "
            f"ON {' AND '.join(conditions)}"
        )
        return sql, variables

    def _compile_disjunction(self, pattern: Disjunction) -> Tuple[str, Tuple[str, ...]]:
        left_sql, left_vars = self.compile(pattern.left)
        right_sql, right_vars = self.compile(pattern.right)
        variables = tuple(sorted(set(left_vars)))
        if set(left_vars) != set(right_vars):
            raise _SQLUnsupported("disjunction branches with different variables")
        order = ["src", "tgt"] + [f"v_{v}" for v in variables]
        columns = ", ".join(order)
        sql = (
            f"SELECT {columns} FROM ({left_sql}) UNION SELECT {columns} FROM ({right_sql})"
        )
        return sql, variables

    def _compile_filter(self, pattern: Filter) -> Tuple[str, Tuple[str, ...]]:
        body_sql, variables = self.compile(pattern.body)
        alias = self._alias()
        predicate = self._compile_condition(pattern.condition, alias, variables)
        columns = ", ".join(["src", "tgt"] + [f"v_{v}" for v in variables])
        sql = f"SELECT {columns} FROM ({body_sql}) AS {alias} WHERE {predicate}"
        return sql, variables

    def _compile_repetition(self, pattern: Repetition) -> Tuple[str, Tuple[str, ...]]:
        # Slots emitted while compiling the body belong to the pair table,
        # not to the enclosing statement: the body SQL (placeholders and
        # all) is replaced below by a table reference, which the prefix and
        # CTE rules repeat freely without duplicating any `?`.
        self._params.push()
        body_sql, _variables = self.compile(pattern.body)
        # The repetition erases bindings; only (src, tgt) pairs matter.
        # Materializing them (indexed on src/tgt) evaluates the body's
        # per-step label/property conditions exactly once — the CTE then
        # walks a plain indexed edge relation instead of re-deriving the
        # conditions from the pattern on every extension.
        pair_sql = f"SELECT DISTINCT src, tgt FROM ({body_sql})"
        slots = self._params.pop()
        if self._materialize is not None:
            pair_ref = self._materialize(pair_sql, slots)
        elif slots:
            raise _SQLUnsupported(
                "a parameterized repetition body is repeated in the compiled "
                "SQL and must be materialized (engine-backed compilations only)"
            )
        else:
            pair_ref = f"({pair_sql})"
        if not pattern.is_unbounded:
            return self._bounded_repetition(pair_ref, pattern.lower, int(pattern.upper)), ()
        # psi^{lower..inf} = (exactly `lower` steps) composed with psi^*:
        # seeding the recursion with the exact-`lower` prefix keeps the
        # CTE's working set at (src, tgt) pairs closed by saturation — no
        # step counter, so a pair is derived once instead of once per
        # depth (the walk(src, tgt, steps) formulation was quadratic in
        # practice: every pair re-entered the queue at up to
        # lower + |N| depths).
        prefix = self._exact_prefix(pair_ref, pattern.lower)
        cte = (
            "WITH RECURSIVE reach(src, tgt) AS ("
            f" SELECT src, tgt FROM ({prefix})"
            f" UNION SELECT reach.src, pair.tgt"
            f" FROM reach JOIN {pair_ref} AS pair ON reach.tgt = pair.src"
            ") "
            "SELECT src AS src, tgt AS tgt FROM reach"
        )
        return cte, ()

    def _exact_prefix(self, pair_ref: str, lower: int) -> str:
        """SQL for the pairs reachable in exactly ``lower`` body steps."""
        if lower == 0:
            return f"SELECT n.c1 AS src, n.c1 AS tgt FROM {self.view.nodes} AS n"
        current = f"SELECT src, tgt FROM {pair_ref}"
        for _ in range(lower - 1):
            previous_alias, pair_alias = self._alias(), self._alias()
            current = (
                f"SELECT {previous_alias}.src AS src, {pair_alias}.tgt AS tgt "
                f"FROM ({current}) AS {previous_alias} "
                f"JOIN {pair_ref} AS {pair_alias} ON {previous_alias}.tgt = {pair_alias}.src"
            )
        return f"SELECT DISTINCT src, tgt FROM ({current})"

    def _bounded_repetition(self, pair_ref: str, lower: int, upper: int) -> str:
        selects = []
        if lower == 0:
            selects.append(f"SELECT n.c1 AS src, n.c1 AS tgt FROM {self.view.nodes} AS n")
        current = None
        for count in range(1, upper + 1):
            if current is None:
                current = f"SELECT src, tgt FROM {pair_ref}"
            else:
                previous_alias, pair_alias = self._alias(), self._alias()
                current = (
                    f"SELECT {previous_alias}.src AS src, {pair_alias}.tgt AS tgt "
                    f"FROM ({current}) AS {previous_alias} "
                    f"JOIN {pair_ref} AS {pair_alias} ON {previous_alias}.tgt = {pair_alias}.src"
                )
            if count >= max(lower, 1):
                selects.append(current)
        return " UNION ".join(f"SELECT DISTINCT src, tgt FROM ({part})" for part in selects)

    # -- conditions --------------------------------------------------------
    def _compile_condition(
        self, condition: PatternCondition, alias: str, variables: Tuple[str, ...]
    ) -> str:
        def var_column(name: str) -> str:
            if name not in variables:
                raise _SQLUnsupported(f"condition variable {name!r} is not bound")
            return f"{alias}.v_{name}"

        if isinstance(condition, HasLabel):
            return (
                f"EXISTS (SELECT 1 FROM {self.view.labels} AS lab "
                f"WHERE lab.c1 = {var_column(condition.var)} AND lab.c2 = {_sql_literal(condition.label)})"
            )
        if isinstance(condition, PropertyCompare):
            operator = "<>" if condition.operator == "!=" else condition.operator
            return (
                f"EXISTS (SELECT 1 FROM {self.view.properties} AS prop "
                f"WHERE prop.c1 = {var_column(condition.var)} AND prop.c2 = {_sql_literal(condition.key)} "
                f"AND prop.c3 {operator} {self._params.emit(condition.constant)})"
            )
        if isinstance(condition, PropertyEquals):
            return (
                f"EXISTS (SELECT 1 FROM {self.view.properties} AS p1, {self.view.properties} AS p2 "
                f"WHERE p1.c1 = {var_column(condition.left_var)} AND p1.c2 = {_sql_literal(condition.left_key)} "
                f"AND p2.c1 = {var_column(condition.right_var)} AND p2.c2 = {_sql_literal(condition.right_key)} "
                f"AND p1.c3 = p2.c3)"
            )
        if isinstance(condition, PropertyComparesProperty):
            operator = "<>" if condition.operator == "!=" else condition.operator
            return (
                f"EXISTS (SELECT 1 FROM {self.view.properties} AS p1, {self.view.properties} AS p2 "
                f"WHERE p1.c1 = {var_column(condition.left_var)} AND p1.c2 = {_sql_literal(condition.left_key)} "
                f"AND p2.c1 = {var_column(condition.right_var)} AND p2.c2 = {_sql_literal(condition.right_key)} "
                f"AND p1.c3 {operator} p2.c3)"
            )
        if isinstance(condition, AndCondition):
            left = self._compile_condition(condition.left, alias, variables)
            right = self._compile_condition(condition.right, alias, variables)
            return f"({left} AND {right})"
        if isinstance(condition, OrCondition):
            left = self._compile_condition(condition.left, alias, variables)
            right = self._compile_condition(condition.right, alias, variables)
            return f"({left} OR {right})"
        if isinstance(condition, NotCondition):
            return f"NOT ({self._compile_condition(condition.operand, alias, variables)})"
        raise _SQLUnsupported(f"pattern condition {type(condition).__name__}")

    # -- output patterns ----------------------------------------------------
    def compile_output(self, output: OutputPattern) -> str:
        output.validate()
        body_sql, variables = self.compile(output.pattern)
        alias = self._alias()
        items = []
        joins = []
        for index, item in enumerate(output.items):
            if isinstance(item, PropertyRef):
                prop_alias = f"out_prop{index}"
                joins.append(
                    f"JOIN {self.view.properties} AS {prop_alias} "
                    f"ON {prop_alias}.c1 = {alias}.v_{item.variable} "
                    f"AND {prop_alias}.c2 = {_sql_literal(item.key)}"
                )
                items.append(f"{prop_alias}.c3 AS c{index + 1}")
            else:
                items.append(f"{alias}.v_{item} AS c{index + 1}")
        select_items = ", ".join(items) if items else "1"
        join_sql = (" " + " ".join(joins)) if joins else ""
        return f"SELECT DISTINCT {select_items} FROM ({body_sql}) AS {alias}{join_sql}"
