"""SQLite-backed execution engine.

SQL/PGQ is designed to run *inside* a relational engine; this module shows
the paper's formal fragments executing on a real one.  A
:class:`SQLiteEngine` evaluates PGQ queries on an in-memory SQLite database
by compiling each to **one** SQL statement, which
:mod:`repro.engine.sqlite_lowering` writes as one flat ``WITH [RECURSIVE]``
list — one named entry per relational operator and plan node — and one
final ``SELECT``:

* base relations are copied in when a statement first names them;
* a graph view is *constructed* once, when a pattern first matches over it
  (:meth:`SQLiteEngine._view_tables`) by the constructor the planned
  engine uses — an ill-formed view raises the oracle's ``ViewError`` —
  and its compact encoding is stored as tables over dense integer element
  ids, every ``n``-ary node / edge identifier one id, with a seventh table
  decoding ids for the output of a nested pattern;
* a pattern is planned by :func:`~repro.planner.compile_plan`, the
  optimizer (and, under ``verify_plans``, verifier) behind the planned
  engine's ``PlanCache``, and the optimized plan is lowered to joins over
  those tables, so ``Explain`` prints the plan SQLite runs; a repetition's
  body is a ``MATERIALIZED`` entry of the list (evaluated once per
  execution) and unbounded repetition closes it with a recursive entry —
  the same mechanism (linear recursion) the paper cites as SQL's
  NL-complete core — over integer pairs whatever the identifier arity, so
  PGQext's pair reachability (Theorem 5.2) runs on it too;
* of a statement whose root is a pattern SQLite runs only the match,
  selecting distinct element ids, and the planned engine's decoder
  (:mod:`repro.planner.decode`) builds the rows — ordered, deduplicated
  and spelled as Python values, the planned engine's rows; a pattern
  nested under a relational operator is decoded in SQL, which the
  enclosing SQL reads;
* parameter slots are numbered ``?N`` placeholders, one number per slot
  name, so one-shot, streamed and prepared execution share a single
  compilation mode (:class:`_SQLiteCompiledQuery`).

The engine answers on SQL or raises — a malformed operator the oracle's
own error, a ``max_repetitions`` overrun the fixpoint kernel's
``PatternError``, and an ``EngineError`` for a node type the lowering does
not know, for a value SQLite cannot hold as itself (NaN, which it stores
as NULL, and an int outside 64 bits) and for a statement past one of
SQLite's own limits: flat as the statement is, SQLite flattens the entries
into their readers, so a fixed path of more than 21 hops exceeds its
64 tables in a join (as do other wide joins).  Nothing is built ahead of
an execution except the view tables, which the engine owns and shares
between every statement over the same graph view.  Results are identical
to the formal evaluator, which the test-suite checks.
"""

from __future__ import annotations

import sqlite3
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.observability.tracing import trace_span

from repro.engine.sqlite_lowering import ViewTables, check_storable, lower
from repro.errors import EngineError, GovernanceError, QueryCancelledError
from repro.governance import active_fault_plan, current_governor
from repro.graph.compact import MISSING, CompactGraph, bit_positions
from repro.matching.fixpoint import check_depth
from repro.parameters import Bindings, bind_value, check_bindings, merge_bindings
from repro.patterns.ast import OutputPattern
from repro.pgq.evaluator import CompiledQuery, PGQEvaluator, check_active_constant
from repro.pgq.scans import view_graph
from repro.planner.decode import project, stream_project
from repro.planner.physical import CompactTable
from repro.pgq.queries import Query, query_size, resolve_bindings, source_parameters
from repro.relational.database import Database
from repro.relational.relation import Relation


#: ``AS MATERIALIZED`` (a repetition's pair relation) needs SQLite 3.35.
_MIN_SQLITE_VERSION = (3, 35)

#: Rows per batch of a streamed statement whose root is not a pattern.
_BATCH = 256


class SQLiteEngine:
    """Evaluates PGQ queries on SQLite: every query is answered by one SQL
    statement or raises.

    Registered in :mod:`repro.engine.registry` under the name ``sqlite``;
    with ``max_repetitions`` set, a repetition that could exceed the bound
    is probed on SQL before its statement runs, and an overrun raises the
    :class:`~repro.errors.PatternError` the other engines raise, word for
    word.
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
        #: Arity of every base relation (and ``__adom``) copied into SQLite.
        self._loaded: Dict[str, int] = {}
        #: View-table sets committed so far: the number of the next one.
        self._views_built = 0
        #: ``adom(D)`` as a set, built on the first active-domain check.
        self._adom: Optional[frozenset] = None
        #: The view temp tables of every graph view in use, keyed like the
        #: evaluator's view cache on (sources, max_arity) — or, for
        #: sources that do not hash, on the evaluated relations' content
        #: digests: the database is immutable for the engine's lifetime,
        #: so every statement over the same graph view — prepared or
        #: one-shot — reads one set of checked, encoded tables.  Each
        #: entry carries a WeakSet of the statements compiled against it;
        #: superseded entries (e.g. graph redefinitions) are dropped once
        #: no live statement references them.  Cleared (with the
        #: connection) by :meth:`close`.
        self._shared_view_tables: "OrderedDict[Tuple, Tuple[ViewTables, weakref.WeakSet]]" = (
            OrderedDict()
        )
        #: Snapshot-cache scope attached by connections (see
        #: :meth:`use_snapshot_cache`); ``None`` = private evaluation.
        self._snapshot_scope = None

    def use_snapshot_cache(self, scope) -> None:
        """Attach a snapshot-cache scope for cross-connection sharing.

        The SQLite backend's own state (the loaded ``:memory:`` database,
        temp tables) is connection-affine and stays private, but the
        *relational* work around it is shared: view-source relations are
        read through the scope's cross-engine CSE entries.
        """
        self._snapshot_scope = scope

    def _source_relation(self, source: Query) -> Relation:
        """One view source's relation, evaluated by the oracle and shared
        through the snapshot cache's relational entries when attached."""
        evaluator = PGQEvaluator(self.database)
        evaluator.use_snapshot_cache(self._snapshot_scope)
        return evaluator.evaluate(source)

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

    def _ensure_loaded(self, name: str) -> int:
        """Copy base relation ``name`` into SQLite on first reference and
        return its arity.

        ``__adom`` names the active domain as a real table: the union of
        all columns of all relations.  View sources never come through
        here — :meth:`_view_tables` builds the view in Python — so a
        statement that only matches patterns loads no base table at all.
        SQLite table names ignore ASCII case, so a relation named like
        another up to case raises :class:`EngineError` before either loads.
        """
        if name in self._loaded:
            return self._loaded[name]
        if name == "__adom":
            arity, rows = 1, [(value,) for value in self.database.active_domain()]
        else:
            relation = self.database.relation(name)
            arity, rows = relation.arity, relation.rows
        folded = name.encode().lower()  # bytes.lower folds ASCII only, as SQLite does
        for twin in (*self.database, "__adom"):
            if twin != name and twin.encode().lower() == folded:
                raise EngineError(
                    f"SQLite cannot hold relations {name!r} and {twin!r} apart: "
                    "its table names ignore case"
                )
        for position in range(arity):
            where = f'column {position + 1} of table "{name}"'
            check_storable([row[position] for row in rows], where)
        connection = self.connection
        with connection:  # one transaction: an unbindable cell leaves no partial table
            connection.execute("BEGIN")
            connection.execute(f'CREATE TABLE "{name}" ({_columns(arity)})')
            _insert(connection, f'"{name}"', arity, rows)
        self._loaded[name] = arity
        return arity

    def _active_domain(self) -> frozenset:
        """``adom(D)`` as a set (the database is immutable for the engine's
        lifetime, so one build serves every execution)."""
        if self._adom is None:
            self._adom = frozenset(self.database.active_domain())
        return self._adom

    def close(self) -> None:
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
    def evaluate(self, query: Query, bindings: Optional[Bindings] = None) -> Relation:
        """Evaluate a PGQ query: resolve bindings, compile, execute.

        ``bindings`` are substituted eagerly (one-shot evaluation gains
        nothing from binding late; :meth:`prepare` is the path that keeps
        slots as native placeholders).
        """
        return _SQLiteCompiledQuery(self, resolve_bindings(query, bindings)).execute()

    def prepare(self, query: Query) -> CompiledQuery:
        """Compile once to SQL with native ``?N`` parameters, execute many:
        each parameter slot becomes a numbered SQLite placeholder bound per
        execution, and nothing but the (engine-owned, shared) view tables
        outlives an execution."""
        return _SQLiteCompiledQuery(self, query)

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
    def _governed_execution(self, query: Optional[Query]):
        """One SQL execution window of ``query``'s statement (None: raw
        SQL): the only place a ``sqlite3.Error`` of an execution is turned
        into ours.

        When a governor is active, its checkpoint becomes the
        connection's progress handler (site ``"sqlite.progress"``, polled
        every ``_PROGRESS_INTERVAL`` VM instructions) and
        ``connection.interrupt`` is registered on the cancellation token,
        so deadlines, budgets, injected faults and cross-thread cancels
        all stop the statement mid-flight.  SQLite surfaces either stop
        as ``OperationalError: interrupted``, which this context maps
        back to the governance error that tripped.  Ungoverned
        executions install nothing.  Whatever else SQLite rejects — its
        own limits, e.g. ``at most 64 tables in a join`` on a long fixed
        path — raises :class:`EngineError` naming the query's size.
        """
        governor = current_governor()
        connection = self.connection
        tripped: List[GovernanceError] = []

        def _poll() -> int:
            try:
                governor.checkpoint("sqlite.progress")
            except GovernanceError as error:
                tripped.append(error)
                return 1  # abort -> OperationalError("interrupted")
            return 0

        if governor is not None:
            connection.set_progress_handler(_poll, self._PROGRESS_INTERVAL)
            governor.token.add_callback(connection.interrupt)
        try:
            yield
        except sqlite3.Error as error:
            if tripped:
                raise tripped[0] from error
            if governor is not None and "interrupt" in str(error):
                # interrupt() landed between two progress polls (a
                # cross-thread cancel racing the handler).
                reason = governor.token.reason or "cancelled"
                raise QueryCancelledError(
                    f"query cancelled during SQLite execution: {reason}",
                    reason=reason,
                    progress=governor.progress(),
                ) from error
            size = None if query is None else query_size(query)
            what = "raw SQL" if size is None else f"the statement of a size-{size} query"
            raise EngineError(f"SQLite cannot run {what}: {error}") from error
        finally:
            if governor is not None:
                governor.token.remove_callback(connection.interrupt)
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
        with self._governed_execution(None):
            return self.connection.execute(sql).fetchall()

    def compile_to_sql(self, query: Query) -> str:
        """Return the SQL text a query compiles to, without its depth probes
        (a slot in a view source raises :class:`BindingError`: its SQL
        exists per binding).  The text names the engine's shared view
        tables, valid until the engine closes or evicts them."""
        statement = _SQLiteCompiledQuery(self, query)
        if statement.sql is None:
            statement._compile({})  # raises, naming the slot
        return statement.sql

    # ------------------------------------------------------------------ #
    # View tables
    # ------------------------------------------------------------------ #
    def _view_tables(
        self, sources: Tuple[Query, ...], max_arity: Optional[int], user
    ) -> Tuple[ViewTables, weakref.WeakSet]:
        """The view of six concrete ``sources`` as indexed temporary
        tables, with the entry's user set (which ``user`` joins).

        The engine constructs the view once per ``(sources, max_arity)``
        with the planned engine's constructor,
        :func:`~repro.pgq.scans.view_graph` — table scans and evaluated
        sources, or ``pgView`` over the six relations, which raises the
        oracle's ``ViewError``.
        ``R1``-``R6`` are written from its
        :class:`~repro.graph.compact.CompactGraph` over the element ID space
        (node ``i`` is id ``i``, edge ``e`` is id ``|N| + e``), integers
        whatever the identifier arity ``n`` is, so a root pattern's ids
        decode through the encoding itself; a seventh table maps an id to
        its ``n`` identifier columns for the SQL decode of a nested one.
        Statements may rely on condition (2): every edge endpoint is a node.

        The tables are engine-owned and shared — the database is immutable
        for the engine's lifetime, so every statement over one graph view
        reads one set; the statements compiled against it are the entry's
        user set, which keeps it from eviction.
        """
        cache_key = (sources, max_arity)
        shared = self._shared_view_tables.get(cache_key)
        if shared is not None:
            self._shared_view_tables.move_to_end(cache_key)
            shared[1].add(user)
            return shared
        with trace_span("view.materialize", sources=len(sources)) as span:
            graph, arity = view_graph(
                sources, self.database, max_arity, span, self._source_relation
            )
        encoded = graph.compact()
        count = encoded.node_count
        edges = range(count, count + encoded.edge_count)
        labels: List[Tuple] = []
        properties: List[Tuple] = []
        for kind, offset, masks, columns in (
            ("node", 0, encoded.node_labels, encoded.node_properties),
            ("edge", count, encoded.edge_labels, encoded.edge_properties),
        ):
            for key, column in columns.items():
                check_storable(column, f"{kind} property {key!r}")
            labels += [
                (offset + i, label) for label, mask in masks.items() for i in bit_positions(mask)
            ]
            properties += [
                (offset + i, key, value)
                for key, column in columns.items()
                for i, value in enumerate(column)
                if value is not MISSING
            ]
        ids = encoded.ids("element")
        check_storable((value for ident in ids for value in ident), "a node or edge identifier")
        view = ViewTables(f"__view{self._views_built}", arity, encoded)
        # (columns, index columns, rows) of R1..R6 and the id table.  The
        # pattern SQL joins sources / targets on the edge column and probes
        # labels / properties by (element, key); the property index carries
        # the value too, so a lookup never touches the table.
        tables = (
            ("c1", "c1", [(number,) for number in range(count)]),
            ("c1", None, [(number,) for number in edges]),
            ("c1, c2", "c1", list(zip(edges, encoded.edge_src))),
            ("c1, c2", "c1", list(zip(edges, encoded.edge_tgt))),
            ("c1, c2", "c1, c2", labels),
            ("c1, c2, c3", "c1, c2, c3", properties),
            (
                f"id INTEGER PRIMARY KEY, {_columns(arity)}",
                None,
                [(number,) + ident for number, ident in enumerate(ids)],
            ),
        )
        connection = self.connection
        with connection:  # one transaction: an unbindable cell leaves no partial view
            connection.execute("BEGIN")
            for table, (columns, index_columns, rows) in zip(view.names, tables):
                connection.execute(f"CREATE TEMP TABLE {table} ({columns})")
                _insert(connection, table, columns.count(",") + 1, rows)
                if index_columns is not None:
                    connection.execute(f"CREATE INDEX idx_{table} ON {table}({index_columns})")
        self._views_built += 1  # a failed build rolled back: its number is free
        entry = self._shared_view_tables[cache_key] = (view, weakref.WeakSet((user,)))
        self._evict_unreferenced_view_tables()
        return entry

    def _evict_unreferenced_view_tables(self) -> None:
        """Drop cached view-table sets past the cap, oldest first, but
        only those no live statement still reads (superseded
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


def make_sqlite_engine(
    database: Database,
    *,
    max_repetitions: Optional[int] = None,
    verify_plans: Optional[bool] = None,
):
    return SQLiteEngine(database, max_repetitions=max_repetitions, verify_plans=verify_plans)


def _columns(arity: int) -> str:
    return ", ".join(f"c{i}" for i in range(1, arity + 1))


def _insert(connection: sqlite3.Connection, table: str, width: int, rows) -> None:
    """Insert ``rows`` into ``table``, ``width`` columns each (their
    values checked by the caller, who knows what to call them)."""
    connection.executemany(f"INSERT INTO {table} VALUES ({', '.join('?' * width)})", rows)


def _sql_snippet(sql: str, limit: int = 120) -> str:
    """Whitespace-flattened SQL prefix for span tags."""
    flattened = " ".join(sql.split())
    return flattened if len(flattened) <= limit else flattened[: limit - 3] + "..."


class _SQLiteCompiledQuery(CompiledQuery):
    """One PGQ query as one SQL statement on the engine's connection — the
    only object that turns a ``Query`` into SQL and runs it; one-shot,
    streamed and prepared evaluation differ only in who holds it for how
    long.

    ``sql`` is the complete text (:func:`~repro.engine.sqlite_lowering.lower`):
    repetition pair relations are entries of its ``WITH`` list and every
    parameter slot is a numbered ``?N`` placeholder, so an execution builds
    nothing beforehand (bar the depth probes it runs first under
    ``max_repetitions``) and any number of cursors may read it under
    different bindings.  It recompiles transparently when the engine's
    connection (and so every view table) went away, and when the values
    bound to slots inside its view sources — which pick the view tables, so
    such a statement compiles at its first execution — differ from the
    last.  It is the lowering's catalog: it loads the tables the statement
    names and reads the view tables as one of their users.
    """

    def __init__(self, engine: "SQLiteEngine", query: Query):
        super().__init__(engine, query)
        #: Slots inside view sources, whose bound values pick the view.
        self._source_slots = sorted(source_parameters(query))
        self._view_users: List[weakref.WeakSet] = []  # of the tables it reads
        self.sql: Optional[str] = None
        self._connection: Optional[sqlite3.Connection] = None
        self._source_values: Optional[Tuple] = None  # not compiled yet
        if not self._source_slots:
            self._compile({})

    def _compile(self, bindings: Bindings) -> None:
        """(Re)compile with ``bindings`` substituted into the view sources."""
        for users in self._view_users:
            users.discard(self)
        self._view_users = []
        self._connection = self.engine.connection
        self._source_values = tuple(bindings.get(name) for name in self._source_slots)
        engine = self.engine
        lowered = lower(
            self.query,
            self,
            bindings,
            max_repetitions=engine.max_repetitions,
            verify_plans=engine.verify_plans,
        )
        self.sql, self._arity, self._slots, self._probes = lowered[:4]
        self._active_constants, self._root = lowered[4:]

    def table(self, name: str) -> int:
        return self.engine._ensure_loaded(name)

    def view(self, sources: Tuple[Query, ...], max_arity: Optional[int]) -> ViewTables:
        view, users = self.engine._view_tables(sources, max_arity, self)
        self._view_users.append(users)
        return view

    # -- execution -----------------------------------------------------------
    def _arguments(self, bindings: Optional[Bindings], named: Bindings) -> Tuple:
        """Check the bindings (mapping and/or keywords, keywords win),
        recompile if the connection or the view-source values changed,
        check active-domain constants, and order the bindings by
        placeholder number."""
        merged = merge_bindings(bindings, named)
        check_bindings(self.parameter_names, merged)
        if self.engine._connection is not self._connection or self._source_values != tuple(
            merged[name] for name in self._source_slots
        ):
            self._compile(merged)
        for value in self._active_constants:
            check_active_constant(bind_value(value, merged), self.engine._active_domain())
        for name in self._slots:
            check_storable((merged[name],), f"parameter :{name}")
        return tuple(merged[name] for name in self._slots)

    def _run(self, arguments: Tuple) -> sqlite3.Cursor:
        """Run the depth probes, then the statement (callers hold the
        governed window); a probe that finds a row raises the fixpoint
        kernel's own error."""
        engine = self.engine
        for sql, width, depth in self._probes:
            probe = engine._execute_with_retry(self._connection, sql, arguments[:width])
            overrun = probe.fetchone() is not None
            probe.close()
            check_depth(depth, overrun, engine.max_repetitions)
        return engine._execute_with_retry(self._connection, self.sql, arguments)

    def _decode_input(self, cursor) -> Tuple[CompactGraph, CompactTable, OutputPattern]:
        """``(encoding, table, output)``, the decoder's arguments, for a
        root pattern's distinct id rows, all fetched from ``cursor``: as
        per-source masks when the output is two node variables (the
        decoder's ordered pair path), else as they came."""
        encoded, output, layout = self._root
        table = layout._replace(rows=cursor.fetchall())
        if len(output.items) == 2 and list(layout.kinds.values()) == ["node", "node"]:
            table = table.packed(encoded.node_count)
        return encoded, table, output

    def _fetch(self, arguments: Tuple):
        """Run the statement and fetch all of it inside its governed window,
        so a deadline or cancel stops any of its work: a root pattern's
        decoder input (:meth:`_decode_input`), else the list of its rows."""
        with (
            trace_span("sqlite.execute", sql=_sql_snippet(self.sql)),
            self.engine._governed_execution(self.query),
        ):
            cursor = self._run(arguments)
            fetched = cursor.fetchall() if self._root is None else self._decode_input(cursor)
        self.executions += 1
        return fetched

    def execute(self, bindings: Optional[Bindings] = None, /, **named) -> Relation:
        """Execute and materialize; the mapping argument is positional-only
        so a slot named ``bindings`` still binds by keyword."""
        fetched = self._fetch(self._arguments(bindings, named))
        if self._root is not None:
            return Relation._trusted(self._arity, project(*fetched))
        if self._arity == 0:
            return Relation(0, [()] if fetched else [])
        return Relation(self._arity, fetched)

    def execute_stream(
        self, bindings: Optional[Bindings] = None, /, **named
    ) -> Optional[Tuple[int, Iterator[List[Tuple]], bool]]:
        """Execute and stream the result: ``(arity, row batches, ordered)``,
        with every SQL error, binding error and depth overrun raised here.
        A root pattern's rows decode as
        :func:`~repro.planner.decode.stream_project` streams them; any
        other statement's rows come unordered, :data:`_BATCH` a list.
        Returns ``None`` — the caller falls back to :meth:`execute` — for
        zero-arity results.
        """
        arguments = self._arguments(bindings, named)
        if self._arity == 0:
            return None
        fetched = self._fetch(arguments)
        if self._root is not None:
            return (self._arity, *stream_project(*fetched))
        batches = [fetched[start : start + _BATCH] for start in range(0, len(fetched), _BATCH)]
        return self._arity, iter(batches), False
