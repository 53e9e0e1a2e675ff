"""SQLite-backed execution engine.

SQL/PGQ is designed to run *inside* a relational engine; this module shows
the paper's formal fragments executing on a real one.  A
:class:`SQLiteEngine` evaluates PGQ queries on an in-memory SQLite database
by compiling each to **one** SQL statement:

* the relational operators map to ``SELECT`` / ``UNION`` / ``EXCEPT`` /
  cross joins over base relations copied in when a statement first names
  them;
* a graph view is *constructed* once, when a pattern first matches over it
  (:meth:`SQLiteEngine._view_tables`): conditions (1)-(4) of Definition
  3.1 / 5.1 are checked by the function every engine uses — an ill-formed
  view raises the oracle's ``ViewError`` — and the view is stored
  dictionary-encoded, every ``n``-ary node / edge identifier one dense
  integer id, with a seventh table decoding ids for output;
* a pattern is planned by :func:`~repro.planner.compile_plan`, the
  optimizer (and, under ``verify_plans``, verifier) behind the planned
  engine's ``PlanCache``, and the optimized plan is lowered to joins over
  those tables (:class:`_PlanLowering`), so ``Explain`` prints the plan
  SQLite runs; a repetition's body is a ``MATERIALIZED`` common table
  expression of the statement itself (evaluated once per execution) and
  unbounded repetition closes it with ``WITH RECURSIVE`` — the same
  mechanism (linear recursion) the paper cites as SQL's NL-complete core —
  over integer pairs whatever the identifier arity, so PGQext's pair
  reachability (Theorem 5.2) runs on it too;
* parameter slots are numbered ``?N`` placeholders, one number per slot
  name, so one-shot, streamed and prepared execution share a single
  compilation mode (:class:`_SQLiteCompiledQuery`).

A malformed operator raises the oracle's own error, worded by the oracle.
Nothing is built ahead of an execution except the view tables, which the
engine owns and shares between every statement over the same graph view.
What is still answered by the formal evaluator instead, one
:class:`_SQLUnsupported` reason each: a ``max_repetitions`` bound with
repetition (a recursive CTE cannot raise on depth overrun), a
parameterized or unhashable view source (the view is built before any
binding exists), a parameter slot where SQL takes no placeholder, and node
types the compiler does not know.  Every such answer is *counted* by
reason in :attr:`SQLiteEngine.fallbacks` (shown by ``Explain`` and a
``sqlite.fallback`` span), so "sqlite agrees with the oracle" cannot
silently mean the oracle agreeing with itself.  Results are always
identical to the formal evaluator, which the test-suite and the E11
benchmark check.
"""

from __future__ import annotations

import itertools
import sqlite3
import time
import weakref
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.observability.tracing import trace_span

from repro.errors import BindingError, EngineError, GovernanceError, QueryCancelledError
from repro.governance import active_fault_plan, current_governor
from repro.parameters import Bindings, Parameter, check_bindings, merge_bindings
from repro.patterns.ast import OutputPattern, PropertyRef, Repetition, iter_subpatterns
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
from repro.pgq.evaluator import CompiledQuery, PGQEvaluator, check_selection
from repro.planner import compile_plan
from repro.planner.logical import (
    BindEndpoint,
    EdgeScan,
    EmptyPlan,
    FilterStep,
    FixpointStep,
    JoinStep,
    LogicalPlan,
    NodeScan,
    UnionStep,
)
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
    resolve_bindings,
)
from repro.pgq.views import check_view_conditions, view_identifier_arity
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


#: ``AS MATERIALIZED`` (a repetition's pair relation) needs SQLite 3.35.
_MIN_SQLITE_VERSION = (3, 35)


class SQLiteEngine:
    """Evaluates PGQ queries on SQLite; what SQL cannot serve is answered
    by the formal evaluator and counted in :attr:`fallbacks`.

    Registered in :mod:`repro.engine.registry` under the name ``sqlite``;
    with ``max_repetitions`` set, queries containing a repetition run on
    the formal evaluator (the recursive CTE cannot raise on depth overrun)
    so the :class:`~repro.errors.PatternError` matches the other engines
    exactly, while repetition-free queries stay on SQL.
    """

    name = "sqlite"

    def __init__(
        self,
        database: Database,
        *,
        max_repetitions: Optional[int] = None,
        verify_plans: Optional[bool] = None,
    ):
        self.database = database
        self.max_repetitions = max_repetitions
        #: Plan-invariant verification of every plan a pattern lowers from
        #: (``Database(verify_plans=True)`` / ``REPRO_VERIFY_PLANS=1``).
        self.verify_plans = verify_plans
        self._connection: Optional[sqlite3.Connection] = None
        #: Base relations (and ``__adom``) already copied into SQLite.
        self._loaded: Set[str] = set()
        self._view_counter = itertools.count()
        #: Why SQL could not serve a query -> evaluations the formal
        #: evaluator answered instead (see :meth:`_statement`).
        self.fallbacks: Dict[str, int] = {}
        #: The view temp tables of every graph view in use, keyed like the
        #: evaluator's view cache on (sources, max_arity): the database is
        #: immutable for the engine's lifetime, so every statement over the
        #: same graph view — prepared, streamed or one-shot — reads one set
        #: of checked, encoded tables.  Each entry carries a WeakSet of the
        #: compiled statements using it; superseded entries (e.g. graph
        #: redefinitions) are dropped once no live statement references
        #: them.  Cleared (with the connection) by :meth:`close`.
        self._shared_view_tables: "OrderedDict[Tuple, Tuple[_ViewTables, weakref.WeakSet]]" = (
            OrderedDict()
        )
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
        oracle-fallback evaluator (depth-bounded repetition, shapes
        SQL does not serve) shares materialized graph
        views under a ``sqlite-fallback`` engine kind.
        """
        self._snapshot_scope = scope

    def _fallback_evaluator(self) -> PGQEvaluator:
        """A formal evaluator for queries the SQL path cannot serve,
        snapshot-cache-attached when the engine is."""
        evaluator = PGQEvaluator(self.database, max_repetitions=self.max_repetitions)
        scope = self._snapshot_scope
        if scope is not None:
            evaluator.use_snapshot_cache(
                scope.with_kind(("sqlite-fallback", self.max_repetitions))
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
        """The backing connection, created on first SQL use.

        It starts empty: a base relation is copied in when a statement
        first names it (:meth:`_ensure_loaded`) and a graph view when a
        pattern first matches over it (:meth:`_view_tables`), so nothing is
        paid for tables no statement reads.  The SQLite feature floor is
        checked here, at start-up, rather than as a syntax error inside the
        first ``->+``.
        """
        if self._connection is None:
            if sqlite3.sqlite_version_info < _MIN_SQLITE_VERSION:
                found = ".".join(map(str, sqlite3.sqlite_version_info))
                raise EngineError(
                    "the sqlite backend needs SQLite >= 3.35 (AS MATERIALIZED "
                    f"common table expressions); found {found}"
                )
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
        return self._connection

    def _ensure_loaded(self, name: str) -> None:
        """Copy base relation ``name`` into SQLite on first reference.

        ``__adom`` names the active domain as a real table: the union of
        all columns of all relations.  View sources never come through
        here — :meth:`_source_relation` evaluates them relationally — so a
        statement that only matches patterns loads no base table at all.
        """
        if name in self._loaded:
            return
        if name == "__adom":
            arity, rows = 1, [(value,) for value in self.database.active_domain()]
        else:
            relation = self.database.relation(name)
            arity, rows = relation.arity, relation.rows
        connection = self.connection
        with connection:  # one transaction: an unbindable cell leaves no partial table
            connection.execute("BEGIN")
            connection.execute(f'CREATE TABLE "{name}" ({_columns(arity)})')
            connection.executemany(
                f'INSERT INTO "{name}" VALUES ({", ".join("?" * arity)})', rows
            )
        self._loaded.add(name)

    def close(self) -> None:
        # Streams still reading the connection buffer their remaining
        # rows first, so their results stay readable after the close.
        self._detach_open_streams()
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        # Every table died with the connection; statements that survive a
        # close recompile (re-loading and re-sharing) on the next execution.
        self._loaded.clear()
        self._shared_view_tables.clear()

    def __enter__(self) -> "SQLiteEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def _statement(self, query: Query) -> CompiledQuery:
        """The compiled form of ``query``: one SQL statement — or, here at
        the engine's only fallback site, a counted hand-off to the formal
        evaluator that names why SQL could not serve it."""
        if self.max_repetitions is not None and _contains_repetition(query):
            reason = "max_repetitions bound with repetition"
        else:
            try:
                return _SQLiteCompiledQuery(self, query)
            except _SQLUnsupported as unsupported:
                reason = str(unsupported)
            except BindingError:  # an unbound slot inside a view source
                reason = "parameterized view source"
        return _OracleQuery(self, query, reason)

    def evaluate(self, query: Query, bindings: Optional[Bindings] = None) -> Relation:
        """Evaluate a PGQ query: resolve bindings, compile, execute.

        ``bindings`` are substituted eagerly (one-shot evaluation gains
        nothing from binding late; :meth:`prepare` is the path that keeps
        slots as native placeholders).
        """
        return self._statement(resolve_bindings(query, bindings)).execute()

    def stream(
        self, query: Query, bindings: Optional[Bindings] = None
    ) -> Optional[Tuple[int, Iterator[List[Tuple]], bool]]:
        """One-shot streaming evaluation: ``(arity, batches, ordered)`` or
        None; SQLite promises no row order, so ``ordered`` is False.

        The SQL compiles and the statement starts executing here (compile
        errors and missing bindings surface at call time), but rows are
        fetched from the SQLite cursor a batch at a time as the iterator
        is consumed.  Returns ``None`` — the caller then takes the
        materializing :meth:`evaluate` path — for queries the formal
        evaluator answers and for zero-arity results (the ``{()}`` vs
        ``{}`` distinction is not a row stream).
        """
        return self._statement(resolve_bindings(query, bindings)).execute_stream()

    def prepare(self, query: Query) -> CompiledQuery:
        """Compile once to SQL with native ``?N`` parameters, execute many:
        each parameter slot becomes a numbered SQLite placeholder bound per
        execution, and nothing but the (engine-owned, shared) view tables
        outlives an execution."""
        return self._statement(query)

    def _stream_cursor(
        self, cursor: sqlite3.Cursor, statement: "_SQLiteCompiledQuery"
    ) -> "_CursorStream":
        """A row-batch stream over ``cursor``, registered with the
        engine so :meth:`close` can detach (buffer) it first."""
        stream = _CursorStream(cursor, statement)
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

    def _drop_tables(self, tables: Sequence[str]) -> None:
        if not tables or self._connection is None:
            return
        cursor = self._connection.cursor()
        for table in tables:
            try:
                cursor.execute(f"DROP TABLE IF EXISTS {table}")
            except sqlite3.OperationalError:
                # A raw cursor (``compile_to_sql`` callers) is still reading
                # the table; leave it behind — temp tables die with the
                # connection anyway.
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
        """Run a raw SQL statement against the engine (for tests/examples);
        raw text names tables nobody compiled, so every one is loaded first."""
        for name in (*self.database, "__adom"):
            self._ensure_loaded(name)
        return [tuple(row) for row in self.connection.execute(sql).fetchall()]

    def compile_to_sql(self, query: Query) -> str:
        """Return the SQL text a query compiles to (raises when unsupported).

        The text names the engine's shared view tables, which stay valid
        until the engine closes or evicts them as unreferenced."""
        return _SQLiteCompiledQuery(self, query).sql

    # ------------------------------------------------------------------ #
    # View tables
    # ------------------------------------------------------------------ #
    def _view_tables(self, query: GraphPattern, user: "_SQLiteCompiledQuery") -> "_ViewTables":
        """``pgView`` of ``query``'s six sources, as indexed temporary tables.

        This is where the engine constructs the view, once per ``(sources,
        max_arity)``: the sources are evaluated, the identifier arity ``n``
        inferred, and conditions (1)-(4) of Definition 3.1 / 5.1 checked by
        the very function the other engines use — an ill-formed view raises
        their :class:`~repro.errors.ViewError`; it is never a fallback.
        The checked view is then dictionary-encoded: every node and edge
        identifier (an ``n``-tuple, keyed by Python equality like the
        relation sets it comes from, so ``None`` is an ordinary identifier)
        gets one dense integer id, ``R1``-``R6`` are stored over those ids
        with labels and property keys as ``str`` (the graph model's
        domains), and a seventh table maps an id back to its ``n`` columns
        for bare-variable output items.  Statements therefore join integers
        whatever ``n`` is, and may rely on condition (2): every edge
        endpoint they can read is a node.

        The tables are engine-owned and shared — the database is immutable
        for the engine's lifetime, so every statement over one graph view
        reads one set; ``user`` (a one-shot evaluation is just a
        short-lived one) joins the entry's user set, which is what keeps it
        from eviction.
        """
        cache_key = (query.sources, query.max_arity)
        try:
            shared = self._shared_view_tables.get(cache_key)
        except TypeError:
            raise _SQLUnsupported("unhashable constant in a view source") from None
        if shared is not None:
            view, users = shared
            self._shared_view_tables.move_to_end(cache_key)
            users.add(user)
            return view
        relations = tuple(self._source_relation(source) for source in query.sources)
        arity = view_identifier_arity(relations, query.max_arity)
        source_of, target_of, labels, assignments = check_view_conditions(relations, arity)
        nodes, edges = relations[0].rows, relations[1].rows
        ids = {
            identifier: number
            for number, identifier in enumerate(itertools.chain(nodes, edges))
        }
        # A dict, as ``pg_view`` builds ``prop``: keys that collide once
        # they are strings keep one value, the same one.
        properties = {
            (ids[element], str(key)): value for (element, key), value in assignments.items()
        }
        view = _ViewTables(f"__view{next(self._view_counter)}", arity)
        # (columns, index columns, rows) of R1..R6 and the id table.  The
        # pattern SQL joins sources / targets on the edge column and probes
        # labels / properties by (element, key); the property index carries
        # the value too, so a lookup never touches the table.
        tables = (
            ("c1", "c1", [(number,) for number in range(len(nodes))]),
            ("c1", None, [(number,) for number in range(len(nodes), len(ids))]),
            ("c1, c2", "c1", [(ids[edge], ids[node]) for edge, node in source_of.items()]),
            ("c1, c2", "c1", [(ids[edge], ids[node]) for edge, node in target_of.items()]),
            (
                "c1, c2",
                "c1, c2",
                [(ids[element], label) for element, names in labels.items() for label in names],
            ),
            ("c1, c2, c3", "c1, c2, c3", [key + (value,) for key, value in properties.items()]),
            (
                f"id INTEGER PRIMARY KEY, {_columns(arity)}",
                None,
                [(number,) + identifier for identifier, number in ids.items()],
            ),
        )
        connection = self.connection
        with connection:  # one transaction: an unbindable cell leaves no partial view
            connection.execute("BEGIN")
            for table, (columns, index_columns, rows) in zip(view.names, tables):
                connection.execute(f"CREATE TEMP TABLE {table} ({columns})")
                placeholders = ", ".join("?" * (columns.count(",") + 1))
                connection.executemany(f"INSERT INTO {table} VALUES ({placeholders})", rows)
                if index_columns is not None:
                    connection.execute(f"CREATE INDEX idx_{table} ON {table}({index_columns})")
        self._shared_view_tables[cache_key] = (view, weakref.WeakSet((user,)))
        self._evict_unreferenced_view_tables()
        return view

    def _evict_unreferenced_view_tables(self) -> None:
        """Drop cached view-table sets past the cap, oldest first, but
        only those no live statement or stream still reads (superseded
        graph definitions, typically)."""
        if len(self._shared_view_tables) <= self._SHARED_VIEW_TABLES_MAX:
            return
        for key in list(self._shared_view_tables):
            if len(self._shared_view_tables) <= self._SHARED_VIEW_TABLES_MAX:
                break
            view, users = self._shared_view_tables[key]
            if not users:
                del self._shared_view_tables[key]
                self._drop_tables(view.names)


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
    return SQLiteEngine(database, max_repetitions=max_repetitions, verify_plans=verify_plans)


class _SQLUnsupported(Exception):
    """Internal: the query cannot be compiled to SQL.  The message is the
    reason :attr:`SQLiteEngine.fallbacks` counts the evaluation under."""


def _columns(arity: int) -> str:
    return ", ".join(f"c{i}" for i in range(1, arity + 1))


def _select_list(items: Sequence[str]) -> str:
    """A ``SELECT`` list; a 0-ary relation selects one constant instead,
    so its statement has a row exactly when the relation holds ``()``."""
    return ", ".join(items) or "1"


def _sql_operator(operator: str) -> str:
    return "<>" if operator == "!=" else operator


def _sql_literal(value) -> str:
    if isinstance(value, Parameter):
        raise _SQLUnsupported(f"parameter slot {value!r} where SQL takes no placeholder")
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


class _CursorStream:
    """Iterator of row batches over a SQLite cursor, detachable by the
    engine.

    A batch is what ``fetchmany`` returned: every statement the compiler
    emits is set-valued (see :meth:`_SQLiteCompiledQuery._relational`), so
    the rows are distinct as they arrive.  The engine holds
    a weak ref to every live stream: :meth:`SQLiteEngine.close` calls
    :meth:`detach` first, buffering the remaining rows so a streamed
    :class:`~repro.engine.result.QueryResult` stays readable after the
    backend connection (or an engine swap) takes the cursor away.  The
    stream holds its statement — and so, through the engine's user sets,
    the view tables the cursor reads — until the cursor is exhausted,
    detached or closed.
    """

    def __init__(self, cursor: sqlite3.Cursor, statement: "_SQLiteCompiledQuery"):
        self._cursor: Optional[sqlite3.Cursor] = cursor
        self._statement: Optional["_SQLiteCompiledQuery"] = statement
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
        if chunk:
            self._buffer.append(chunk)
        else:
            self._release()

    def _release(self) -> None:
        """Idempotent teardown shared by exhaustion, :meth:`detach` and
        :meth:`close` — safe after the backing connection is gone."""
        self._done = True
        cursor, self._cursor, self._statement = self._cursor, None, None
        if cursor is not None:
            try:
                cursor.close()
            except sqlite3.Error:  # pragma: no cover - connection already gone
                pass

    def detach(self) -> None:
        """Buffer every remaining row and release the cursor."""
        while not self._done:
            self._fetch_batch()

    def close(self) -> None:
        """Release the cursor *without* buffering the remaining rows.

        The discard path of ``Connection.close(drain=False)``: the pooled
        connection is being recycled, nobody will read the rest of this
        stream, so drop the buffer and free the cursor now instead of
        paying to materialize rows that go straight to GC.
        """
        if not self._done:
            self._buffer.clear()
            self._release()


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


class _OracleQuery(CompiledQuery):
    """A query SQL could not serve: the formal evaluator answers it, and
    every answer is counted under ``reason`` in the engine's ``fallbacks``."""

    def __init__(self, engine: "SQLiteEngine", query: Query, reason: str):
        super().__init__(engine, query)
        self.reason = reason

    def execute(self, bindings: Optional[Bindings] = None, /, **named) -> Relation:
        engine = self.engine
        engine.fallbacks[self.reason] = engine.fallbacks.get(self.reason, 0) + 1
        with trace_span("sqlite.fallback", reason=self.reason):
            relation = engine._fallback_evaluator().evaluate(
                self.query, bindings=merge_bindings(bindings, named)
            )
        self.executions += 1
        return relation

    def execute_stream(self, bindings: Optional[Bindings] = None, /, **named) -> None:
        return None  # the formal evaluator materializes


class _SQLiteCompiledQuery(CompiledQuery):
    """One PGQ query as one SQL statement on the engine's connection — the
    only object that turns a ``Query`` into SQL and runs it; one-shot,
    streamed and prepared evaluation differ only in who holds it for how
    long.

    ``sql`` is the complete text: repetition pair relations are common
    table expressions inside it and every parameter slot is a numbered
    ``?N`` placeholder, so an execution builds nothing beforehand and any
    number of cursors may read the same statement under different
    bindings.  The view tables it names belong to the engine.  If the
    engine's connection was closed (and thus the view tables dropped)
    since compilation, the statement transparently recompiles against the
    fresh connection.
    """

    def __init__(self, engine: "SQLiteEngine", query: Query):
        super().__init__(engine, query)
        self._compile()

    def _compile(self) -> None:
        self._connection = self.engine.connection
        #: Slot name -> placeholder number, in numbering order.
        self._slots: Dict[str, int] = {}
        #: Statement-wide name supply (subquery aliases, ``pairN``).
        self._names = itertools.count()
        self.sql, self._arity = self._relational(self.query)

    def _emit(self, value) -> str:
        """The literal sink of both compilers: constants inline, a
        :class:`Parameter` becomes ``?N`` — one number per slot *name*
        wherever it recurs, so placeholder order is nobody's invariant and
        no caller-chosen name ever reaches the SQL text."""
        if not isinstance(value, Parameter):
            return _sql_literal(value)
        return f"?{self._slots.setdefault(value.name, len(self._slots) + 1)}"

    # -- relational operators ----------------------------------------------
    def _relational(self, query: Query) -> Tuple[str, int]:
        """``(SQL, arity)`` of a query.  Every statement returned is
        set-valued — a loaded relation, ``UNION`` / ``EXCEPT``, a
        ``DISTINCT`` projection or pattern output, or a selection / product
        of such — which is the one dedup a result gets: cursors hand rows
        on as they arrive.

        A malformed operator raises what the oracle raises, worded by the
        oracle: its relation operators, applied to empty relations of the
        operand arities, check arities and positions here."""
        if isinstance(query, BaseRelation):
            arity = self.engine.database.relation(query.name).arity
            self.engine._ensure_loaded(query.name)
            return f'SELECT {_columns(arity)} FROM "{query.name}"', arity
        if isinstance(query, Constant):
            return f"SELECT {self._emit(query.value)} AS c1", 1
        if isinstance(query, ConstantRelation) and query.rows:
            selects = [
                "SELECT "
                + _select_list([f"{self._emit(value)} AS c{i}" for i, value in enumerate(row, 1)])
                for row in query.rows
            ]
            return " UNION ".join(selects), query.arity
        if isinstance(query, (ConstantRelation, EmptyRelation)):  # no rows
            columns = [f"NULL AS c{i}" for i in range(1, query.arity + 1)]
            return f"SELECT {_select_list(columns)} WHERE 1 = 0", query.arity
        if isinstance(query, ActiveDomainQuery):
            self.engine._ensure_loaded("__adom")
            return "SELECT c1 FROM __adom", 1
        if isinstance(query, Project):
            inner, arity = self._relational(query.operand)
            Relation.empty(arity).project(query.positions)
            columns = ", ".join(
                f"sub.c{position} AS c{index}" for index, position in enumerate(query.positions, 1)
            )
            return f"SELECT DISTINCT {columns} FROM ({inner}) AS sub", len(query.positions)
        if isinstance(query, Select):
            inner, arity = self._relational(query.operand)
            check_selection(query.condition, arity)
            predicate = _compile_ra_condition(query.condition, "sub", self._emit)
            columns = [f"sub.c{i}" for i in range(1, arity + 1)]
            return f"SELECT {_select_list(columns)} FROM ({inner}) AS sub WHERE {predicate}", arity
        if isinstance(query, Product):
            left_sql, left_arity = self._relational(query.left)
            right_sql, right_arity = self._relational(query.right)
            columns = [f"l.c{i} AS c{i}" for i in range(1, left_arity + 1)]
            columns += [f"r.c{i} AS c{left_arity + i}" for i in range(1, right_arity + 1)]
            return (
                f"SELECT {_select_list(columns)} FROM ({left_sql}) AS l, ({right_sql}) AS r",
                left_arity + right_arity,
            )
        if isinstance(query, (Union, Difference)):
            left_sql, arity = self._relational(query.left)
            right_sql, right_arity = self._relational(query.right)
            if isinstance(query, Union):
                operator, check = "UNION", Relation.union
            else:
                operator, check = "EXCEPT", Relation.difference
            check(Relation.empty(arity), Relation.empty(right_arity))
            return f"SELECT * FROM ({left_sql}) {operator} SELECT * FROM ({right_sql})", arity
        if isinstance(query, GraphPattern):
            view = self.engine._view_tables(query, self)
            output = query.output
            output.validate()
            needed = output.output_variables()
            plan = compile_plan(output.pattern, needed, None, self.engine.verify_plans)
            return _PlanLowering(view, self._emit, self._names).output(plan, output)
        raise _SQLUnsupported(f"query node {type(query).__name__}")

    # -- execution -----------------------------------------------------------
    def _arguments(self, bindings: Optional[Bindings], named: Bindings) -> Tuple:
        """Check the bindings (mapping and/or keywords, keywords win) and
        order them by placeholder number."""
        merged = merge_bindings(bindings, named)
        check_bindings(self.parameter_names, merged)
        if self.engine._connection is not self._connection:
            # The connection (and with it every view table) went away since
            # compilation — e.g. engine.close(); recompile transparently.
            self._compile()
        return tuple(merged[name] for name in self._slots)

    def execute(self, bindings: Optional[Bindings] = None, /, **named) -> Relation:
        """Execute and materialize; the mapping argument is positional-only
        so a slot named ``bindings`` still binds by keyword."""
        arguments = self._arguments(bindings, named)
        engine = self.engine
        # Rows decode inside the governed window: the statement does most
        # of its work while the cursor is being read.
        with trace_span("sqlite.execute", sql=_sql_snippet(self.sql)), engine._governed_execution():
            relation = _relation_from_rows(
                engine._execute_with_retry(self._connection, self.sql, arguments), self._arity
            )
        self.executions += 1
        return relation

    def execute_stream(
        self, bindings: Optional[Bindings] = None, /, **named
    ) -> Optional[Tuple[int, Iterator[List[Tuple]], bool]]:
        """Execute and stream the result rows off the SQLite cursor:
        ``(arity, row batches, False)``, with binding errors
        raised here and rows fetched incrementally.  Returns ``None`` — the
        caller falls back to :meth:`execute` — for zero-arity results.
        """
        if self._arity == 0:
            return None
        arguments = self._arguments(bindings, named)
        engine = self.engine
        with trace_span("sqlite.execute", sql=_sql_snippet(self.sql)), engine._governed_execution():
            cursor = engine._execute_with_retry(self._connection, self.sql, arguments)
        self.executions += 1
        return self._arity, engine._stream_cursor(cursor, self), False


def _compile_ra_condition(condition: Condition, alias: str, emit) -> str:
    if isinstance(condition, TrueCondition):
        return "1 = 1"
    if isinstance(condition, ColumnEquals):
        return f"{alias}.c{condition.left} = {alias}.c{condition.right}"
    if isinstance(condition, ColumnEqualsConstant):
        return f"{alias}.c{condition.position} = {emit(condition.constant)}"
    if isinstance(condition, ColumnCompare):
        operator = _sql_operator(condition.operator)
        return f"{alias}.c{condition.left} {operator} {alias}.c{condition.right}"
    if isinstance(condition, ColumnCompareConstant):
        operator = _sql_operator(condition.operator)
        return f"{alias}.c{condition.position} {operator} {emit(condition.constant)}"
    if isinstance(condition, RAAnd):
        return f"({_compile_ra_condition(condition.left, alias, emit)} AND {_compile_ra_condition(condition.right, alias, emit)})"
    if isinstance(condition, RAOr):
        return f"({_compile_ra_condition(condition.left, alias, emit)} OR {_compile_ra_condition(condition.right, alias, emit)})"
    if isinstance(condition, RANot):
        return f"NOT ({_compile_ra_condition(condition.operand, alias, emit)})"
    raise _SQLUnsupported(f"selection condition {type(condition).__name__}")


class _ViewTables:
    """One checked, encoded graph view: the names of ``R1``..``R6`` over
    dense integer element ids and of the id -> identifier-columns table,
    plus the identifier arity ``n`` a bare-variable output item decodes to."""

    def __init__(self, prefix: str, identifier_arity: int):
        self.names = [f"{prefix}_{index}" for index in range(6)] + [f"{prefix}_ids"]
        (
            self.nodes,
            self.edges,
            self.sources,
            self.targets,
            self.labels,
            self.properties,
            self.ids,
        ) = self.names
        self.identifier_arity = identifier_arity


class _PlanLowering:
    """Lowers an optimized :class:`LogicalPlan` to SQL over one view's
    encoded tables.

    Every plan node lowers to a SELECT with columns ``src``, ``tgt`` and one
    column ``v_<name>`` per variable it binds, all of them integer element
    ids (so the identifier arity matters only where :meth:`output` decodes
    a variable).  The view was checked when it was loaded, so ``src`` and
    ``tgt`` of every row are nodes — which is what lets ``BindEndpoint``
    name an endpoint instead of probing the node table.
    """

    def __init__(self, view: _ViewTables, emit, names: Iterator[int]):
        self.view = view
        #: Literal sink of the statement being compiled (constants inline,
        #: parameter slots become ``?N``) and its name supply.
        self._emit = emit
        self._names = names

    def _alias(self) -> str:
        return f"p{next(self._names)}"

    # -- plan nodes ----------------------------------------------------------
    def lower(self, plan: LogicalPlan) -> Tuple[str, Tuple[str, ...]]:
        """``(SQL, variables)``: the ``v_<name>`` columns the SELECT carries
        besides ``src`` and ``tgt`` (:func:`~repro.analysis.verifier.physical_variables`)."""
        if isinstance(plan, (NodeScan, EdgeScan)):
            return self._scan(plan)
        if isinstance(plan, JoinStep):
            left_sql, left_vars = self.lower(plan.left)
            right_sql, right_vars = self.lower(plan.right)
            left, right = self._alias(), self._alias()
            added = tuple(v for v in right_vars if v not in left_vars)
            keys = [f"{left}.tgt = {right}.src"]
            keys += [f"{left}.v_{v} = {right}.v_{v}" for v in right_vars if v in left_vars]
            columns = [f"{left}.src AS src", f"{right}.tgt AS tgt"]
            columns += [f"{left}.v_{v} AS v_{v}" for v in left_vars]
            columns += [f"{right}.v_{v} AS v_{v}" for v in added]
            sql = (
                f"SELECT {', '.join(columns)} "
                f"FROM ({left_sql}) AS {left} JOIN ({right_sql}) AS {right} "
                f"ON {' AND '.join(keys)}"
            )
            return sql, left_vars + added
        if isinstance(plan, BindEndpoint):
            sql, variables = self.lower(plan.operand)
            endpoint = "src" if plan.use_source else "tgt"
            sql = f"SELECT *, {endpoint} AS v_{plan.variable} FROM ({sql})"
            return sql, (*variables, plan.variable)
        if isinstance(plan, UnionStep):
            left_sql, left_vars = self.lower(plan.left)
            right_sql, right_vars = self.lower(plan.right)
            # An arm may bind residue its own filters needed; like the
            # planned executor's union, keep what both arms bind.
            variables = tuple(v for v in left_vars if v in right_vars)
            columns = ", ".join(["src", "tgt"] + [f"v_{v}" for v in variables])
            sql = f"SELECT {columns} FROM ({left_sql}) UNION SELECT {columns} FROM ({right_sql})"
            return sql, variables
        if isinstance(plan, FilterStep):
            sql, variables = self.lower(plan.operand)
            alias = self._alias()
            predicate = self._condition(plan.condition, lambda name: f"{alias}.v_{name}")
            return f"SELECT * FROM ({sql}) AS {alias} WHERE {predicate}", variables
        if isinstance(plan, FixpointStep):
            return self._fixpoint(plan), ()
        if isinstance(plan, EmptyPlan):
            variables = tuple(sorted(plan.schema))
            columns = ["src", "tgt"] + [f"v_{v}" for v in variables]
            return f"SELECT {', '.join(f'NULL AS {c}' for c in columns)} WHERE 1 = 0", variables
        raise _SQLUnsupported(f"plan node {type(plan).__name__}")

    def _scan(self, plan) -> Tuple[str, Tuple[str, ...]]:
        """A node or edge scan, its pushed labels and condition one
        ``WHERE`` over the scanned element."""
        if isinstance(plan, NodeScan):
            element, src, tgt = "n.c1", "n.c1", "n.c1"
            tables = f"{self.view.nodes} AS n"
        else:
            element = "e.c1"
            src, tgt = ("s.c2", "t.c2") if plan.forward else ("t.c2", "s.c2")
            tables = (
                f"{self.view.edges} AS e "
                f"JOIN {self.view.sources} AS s ON s.c1 = e.c1 "
                f"JOIN {self.view.targets} AS t ON t.c1 = e.c1"
            )
        variables = tuple(plan.variables())
        columns = [f"{src} AS src", f"{tgt} AS tgt"] + [f"{element} AS v_{v}" for v in variables]
        sql = f"SELECT {', '.join(columns)} FROM {tables}"
        conjuncts: List[PatternCondition] = [
            HasLabel(plan.variable, label) for label in sorted(plan.labels)
        ]
        if plan.condition is not None:
            conjuncts.append(plan.condition)
        if conjuncts:
            predicates = [self._condition(c, lambda _name: element) for c in conjuncts]
            sql += " WHERE " + " AND ".join(predicates)
        return sql, variables

    def _fixpoint(self, plan: FixpointStep) -> str:
        body_sql, _variables = self.lower(plan.body)
        # The repetition erases bindings; only (src, tgt) pairs matter.
        # As a MATERIALIZED common table expression the body — label and
        # property probes, placeholders and all — is evaluated exactly
        # once per execution, and the steps and closure below refer to it
        # by name as often as they like (SQLite gives the transient table
        # an automatic index on the join column), instead of re-deriving
        # the conditions on every extension.  The number is unique per
        # repetition, so nested bodies keep their own names.
        number = next(self._names)
        pair, reach = f"pair{number}", f"reach{number}"
        pair_cte = (
            f"{pair}(src, tgt) AS MATERIALIZED (SELECT DISTINCT src, tgt FROM ({body_sql}))"
        )
        if not plan.is_unbounded:
            counts = range(plan.lower, int(plan.upper) + 1)
            return f"WITH {pair_cte} " + " UNION ".join(self._steps(pair, n) for n in counts)
        # psi^{lower..inf} = (exactly `lower` steps) composed with psi^*:
        # seeding the recursion with the exact-`lower` prefix keeps the
        # CTE's working set at (src, tgt) pairs closed by saturation — no
        # step counter, so a pair is derived once instead of once per
        # depth (the walk(src, tgt, steps) formulation was quadratic in
        # practice: every pair re-entered the queue at up to
        # lower + |N| depths).
        return (
            f"WITH RECURSIVE {pair_cte}, {reach}(src, tgt) AS ("
            f" SELECT src, tgt FROM ({self._steps(pair, plan.lower)})"
            f" UNION SELECT {reach}.src, pair.tgt"
            f" FROM {reach} JOIN {pair} AS pair ON {reach}.tgt = pair.src"
            ") "
            f"SELECT src AS src, tgt AS tgt FROM {reach}"
        )

    def _steps(self, pair: str, count: int) -> str:
        """SQL for the pairs exactly ``count`` body steps apart."""
        if count == 0:
            return f"SELECT n.c1 AS src, n.c1 AS tgt FROM {self.view.nodes} AS n"
        current = f"SELECT src, tgt FROM {pair}"
        for _ in range(count - 1):
            previous_alias, pair_alias = self._alias(), self._alias()
            current = (
                f"SELECT {previous_alias}.src AS src, {pair_alias}.tgt AS tgt "
                f"FROM ({current}) AS {previous_alias} "
                f"JOIN {pair} AS {pair_alias} ON {previous_alias}.tgt = {pair_alias}.src"
            )
        return f"SELECT DISTINCT src, tgt FROM ({current})"

    # -- conditions --------------------------------------------------------
    def _condition(self, condition: PatternCondition, column: Callable[[str], str]) -> str:
        """``condition`` as a SQL predicate; ``column`` maps a variable to
        the expression holding its element id."""
        if isinstance(condition, HasLabel):
            return (
                f"EXISTS (SELECT 1 FROM {self.view.labels} AS lab "
                f"WHERE lab.c1 = {column(condition.var)} AND lab.c2 = {_sql_literal(condition.label)})"
            )
        if isinstance(condition, PropertyCompare):
            operator = _sql_operator(condition.operator)
            return (
                f"EXISTS (SELECT 1 FROM {self.view.properties} AS prop "
                f"WHERE prop.c1 = {column(condition.var)} AND prop.c2 = {_sql_literal(condition.key)} "
                f"AND prop.c3 {operator} {self._emit(condition.constant)})"
            )
        if isinstance(condition, (PropertyEquals, PropertyComparesProperty)):
            operator = _sql_operator(getattr(condition, "operator", "="))
            return (
                f"EXISTS (SELECT 1 FROM {self.view.properties} AS p1, {self.view.properties} AS p2 "
                f"WHERE p1.c1 = {column(condition.left_var)} AND p1.c2 = {_sql_literal(condition.left_key)} "
                f"AND p2.c1 = {column(condition.right_var)} AND p2.c2 = {_sql_literal(condition.right_key)} "
                f"AND p1.c3 {operator} p2.c3)"
            )
        if isinstance(condition, (AndCondition, OrCondition)):
            connective = "AND" if isinstance(condition, AndCondition) else "OR"
            left = self._condition(condition.left, column)
            right = self._condition(condition.right, column)
            return f"({left} {connective} {right})"
        if isinstance(condition, NotCondition):
            return f"NOT ({self._condition(condition.operand, column)})"
        raise _SQLUnsupported(f"pattern condition {type(condition).__name__}")

    # -- output patterns ----------------------------------------------------
    def output(self, plan: LogicalPlan, output: OutputPattern) -> Tuple[str, int]:
        """``(SQL, arity)`` of ``output`` over ``plan`` (its optimized
        pattern): a property reference is one column, a bare variable
        decodes to its ``n`` identifier columns."""
        body_sql, _variables = self.lower(plan)
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
                items.append(f"{prop_alias}.c3")
            else:
                id_alias = f"out_id{index}"
                joins.append(
                    f"JOIN {self.view.ids} AS {id_alias} ON {id_alias}.id = {alias}.v_{item}"
                )
                items += [f"{id_alias}.c{i}" for i in range(1, self.view.identifier_arity + 1)]
        select_items = [f"{item} AS c{position}" for position, item in enumerate(items, start=1)]
        join_sql = (" " + " ".join(joins)) if joins else ""
        sql = f"SELECT DISTINCT {_select_list(select_items)} FROM ({body_sql}) AS {alias}{join_sql}"
        return sql, len(items)
