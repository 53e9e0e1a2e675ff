"""The top-level catalog API: ``Database`` -> ``Snapshot`` -> ``Connection``.

A :class:`Database` is a catalog of relational tables and property-graph
definitions with **MVCC-style versioning**: every DDL or data change
(``create_table``, ``register_graph``, ``drop_graph``) produces a new
version instead of mutating state other readers can observe.
:meth:`Database.snapshot` captures the current version as an immutable,
content-fingerprinted :class:`Snapshot`, and :meth:`Database.connect`
hands out lightweight :class:`~repro.engine.connection.Connection` objects
pinned to one snapshot:

>>> from repro.engine.database import Database
>>> db = Database()
>>> db.create_table("Account", ["iban"], [("A1",), ("A2",)])
>>> db.create_table("Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], rows)
>>> db.execute("CREATE PROPERTY GRAPH Transfers ( ... )")
>>> with db.connect(engine="planned") as conn:
...     conn.execute("SELECT * FROM GRAPH_TABLE ( Transfers MATCH ... )")

DDL on the live database never invalidates snapshots already handed out:
a connection keeps reading the version it was connected against, and a
new ``connect()`` (or ``snapshot()``) observes the new head.

**Shared materialization.**  All snapshot-scoped derived state — the
materialized ``pgView`` graphs together with their compact integer
encodings and pattern matchers, concrete relational subquery results
(cross-query CSE), and compiled-plan caches — lives in a lock-guarded
:class:`~repro.engine.snapshot_cache.SnapshotCache` keyed on ``(snapshot content fingerprint, engine
kind)`` rather than in per-engine private caches.  N connections over
one snapshot therefore pay each cold materialization exactly once; the
cache lock guarantees exactly-once builds even under concurrent
executions, which :meth:`SnapshotCache.stats` lets tests assert.
Because keys carry the *content* fingerprint, re-registering identical
data (or two databases configured with one shared cache) also reuses
warm state.

Engines opt in through the optional ``use_snapshot_cache(scope)`` hook
of the engine protocol: connections attach a :class:`SnapshotScope` —
the cache handle pre-keyed with the snapshot fingerprint and an
engine-kind discriminator — right after ``create_engine``.  Engines
without the hook (third-party backends) simply keep their private
caches.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.analysis.schema import PropertySources, analyze_ddl, sample_property_type
from repro.engine.snapshot_cache import SnapshotCache, SnapshotScope
from repro.errors import (
    AnalysisSchemaError,
    ConnectionClosedError,
    EngineError,
    ReproError,
)
from repro.governance import AdmissionController, QueryBudget
from repro.observability.metrics import MetricsRegistry, default_registry
from repro.observability.tracing import Tracer, tracer_from_env
from repro.relational.database import Database as RelationalDatabase
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema, Schema
from repro.sqlpgq.ast import CreatePropertyGraph
from repro.sqlpgq.catalog import GraphCatalog, GraphDefinition
from repro.sqlpgq.parser import parse_statement


def _table_row(table: str, row: Any) -> Tuple:
    """A ``create_table`` row that is not a plain tuple, as one — or the
    error: a ``str`` would split into characters, a ``set`` has no column
    order and a scalar is not a row at all."""
    if isinstance(row, (tuple, list)):
        return tuple(row)
    raise EngineError(
        f"table {table!r}: row {row!r} ({type(row).__name__}) is not a "
        "tuple or list of column values"
    )


class Snapshot:
    """An immutable, fingerprinted view of one :class:`Database` version.

    Holds the relational database instance, the column catalog and the
    property-graph DDL of the version it captured; the graph catalog is
    compiled lazily (statements a later schema change broke are recorded
    per snapshot, and referencing one raises the documented error while
    everything else keeps working).  ``data_fingerprint`` identifies the
    relational contents — the key shared derived state is cached under —
    and ``fingerprint`` additionally covers the graph DDL, identifying
    the snapshot itself.
    """

    def __init__(
        self,
        database: RelationalDatabase,
        columns: Mapping[str, Sequence[str]],
        graph_statements: Mapping[str, CreatePropertyGraph],
        version: int,
        cache: SnapshotCache,
    ):
        self._database = database
        self._columns = {name: tuple(cols) for name, cols in columns.items()}
        self._graph_statements = dict(graph_statements)
        self.version = version
        self._cache = cache
        self._catalog: Optional[GraphCatalog] = None
        self._invalid_graphs: Dict[str, str] = {}
        self._fingerprint: Optional[str] = None
        self._lock = threading.Lock()
        #: ``(table, column)`` pairs -> sampled property type, this version's.
        self._property_types: Dict[PropertySources, str] = {}

    # -- identity -------------------------------------------------------- #
    @property
    def database(self) -> RelationalDatabase:
        """The immutable relational database instance of this version."""
        return self._database

    @property
    def columns(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self._columns)

    @property
    def schema(self) -> Schema:
        return self._database.schema

    @property
    def data_fingerprint(self) -> str:
        """Content fingerprint of the relational data (cache keying)."""
        return self._database.content_fingerprint()

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of data *and* graph DDL (snapshot identity)."""
        if self._fingerprint is None:
            digest = hashlib.sha256(self.data_fingerprint.encode("ascii"))
            for name in sorted(self._graph_statements):
                statement = self._graph_statements[name]
                digest.update(f"{name}={statement!r};".encode("utf-8", "replace"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def cache(self) -> SnapshotCache:
        return self._cache

    def scope_for(self, kind: Tuple) -> SnapshotScope:
        """The shared-cache scope an engine of ``kind`` attaches to."""
        return SnapshotScope(self._cache, self.data_fingerprint, kind)

    def property_type(self, sources: PropertySources) -> str:
        """The type of the property whose values ``sources`` hold, sampled
        from this version's data once (the analyzer's ``property_types``)."""
        inferred = self._property_types.get(sources)
        if inferred is None:
            inferred = self._property_types[sources] = sample_property_type(self._database, sources)
        return inferred

    # -- graph catalog --------------------------------------------------- #
    @property
    def catalog(self) -> GraphCatalog:
        """The compiled graph catalog, built on first use.

        Definitions that no longer compile against this version's schema
        are recorded in the invalid set (with the reason) instead of
        failing the whole snapshot — only queries referencing them raise.
        """
        if self._catalog is None:
            with self._lock:
                if self._catalog is None:
                    catalog = GraphCatalog(self.schema)
                    invalid: Dict[str, str] = {}
                    for name, statement in self._graph_statements.items():
                        try:
                            catalog.register(statement)
                        except ReproError as error:
                            invalid[name] = str(error)
                    self._invalid_graphs = invalid
                    self._catalog = catalog
        return self._catalog

    def check_graph_valid(self, name: str) -> None:
        self.catalog  # ensure the replay ran
        if name in self._invalid_graphs:
            raise EngineError(
                f"property graph {name!r} is no longer valid after a schema "
                f"change: {self._invalid_graphs[name]} (re-create it or call "
                f"drop_graph({name!r}))"
            )

    def graph_names(self) -> Tuple[str, ...]:
        """All graphs of this version, broken definitions included."""
        names = dict.fromkeys(self.catalog.names())
        names.update(dict.fromkeys(self._invalid_graphs))
        return tuple(names)

    def graph_definition(self, name: str) -> GraphDefinition:
        self.check_graph_valid(name)
        return self.catalog.get(name)

    def __repr__(self) -> str:
        return (
            f"Snapshot(version={self.version}, tables={len(self._columns)}, "
            f"graphs={len(self._graph_statements)}, fingerprint={self.fingerprint[:12]})"
        )


class Database:
    """The top-level catalog: tables and graphs with MVCC-style versioning.

    Mutators (``create_table``, ``register_graph``, ``drop_graph``) bump
    the version under the catalog lock; :meth:`snapshot` memoizes one
    immutable :class:`Snapshot` per version, and :meth:`connect` hands
    out :class:`~repro.engine.connection.Connection` objects pinned to a
    snapshot.  Every connection of one database shares the database's
    :class:`SnapshotCache`, so repeated (and concurrent) work over the
    same snapshot materializes views, compact encodings and plans once.

    The database pins its head snapshot in that cache and every open
    connection the snapshot it reads (:meth:`SnapshotCache.pin`), so
    derived state lives exactly as long as somebody can query it.
    ``close()`` (or the context manager) closes every connection handed
    out — releasing SQLite backend connections and their cached temp
    tables — releases the head pin and clears the snapshot cache.
    """

    def __init__(
        self,
        *,
        snapshot_cache: Optional[SnapshotCache] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_query_seconds: Optional[float] = None,
        verify_plans: Optional[bool] = None,
        strict_analysis: Optional[bool] = None,
        default_budget: Optional[QueryBudget] = None,
        max_concurrent_queries: Optional[int] = None,
        max_admission_queue: Optional[int] = None,
        admission_timeout_s: float = 5.0,
    ):
        """``snapshot_cache`` lets several databases (or processes' worth
        of sessions within one interpreter) share warm state; by default
        each database owns a private cache.

        ``tracer`` is the query-lifecycle tracer connections inherit
        (default: the one implied by the ``REPRO_TRACE`` env var, which
        is the disabled :data:`~repro.observability.NULL_TRACER` when the
        variable is unset).  ``metrics`` is the registry per-query
        figures are recorded into (default: the process-shared
        :func:`~repro.observability.default_registry`).
        ``slow_query_seconds`` arms the slow-query log: completed queries
        at or over the threshold emit a record — query text, bindings
        shape, snapshot fingerprint, stage breakdown — to the tracer's
        sinks and the ``repro.slow_query`` logger.

        ``verify_plans`` turns the optimizer plan-invariant verifier of
        :mod:`repro.analysis.verifier` on (``True``) or off (``False``)
        for every connection of this database; the default ``None``
        defers to the ``REPRO_VERIFY_PLANS`` environment variable.
        ``strict_analysis`` mirrors that contract for the analyzer's
        warning-severity findings (the A008+ dataflow codes): ``True``
        promotes them to :class:`~repro.errors.PGQAnalysisError` at
        prepare time on every connection, ``None`` defers to
        ``REPRO_STRICT_ANALYSIS``.

        ``default_budget`` is a :class:`~repro.governance.QueryBudget`
        every query of every connection runs under; per-call ``budget=``
        / ``timeout=`` arguments overlay it field-wise (most specific
        wins).  ``max_concurrent_queries`` arms admission control: at
        most that many queries execute at once across all connections,
        up to ``max_admission_queue`` more wait (unbounded queue when
        ``None``) for at most ``admission_timeout_s`` seconds, and
        everything beyond is rejected with
        :class:`~repro.errors.AdmissionTimeoutError`.
        """
        self._lock = threading.RLock()
        self._relations: Dict[str, Relation] = {}
        self._columns: Dict[str, Tuple[str, ...]] = {}
        self._graph_statements: Dict[str, CreatePropertyGraph] = {}
        self._version = 0
        self._head: Optional[RelationalDatabase] = None
        self._snapshot: Optional[Snapshot] = None
        #: The head's data fingerprint, pinned until the next head or close().
        self._pinned_fingerprint: Optional[str] = None
        #: An injected cache is shared property and survives close();
        #: only a privately owned cache is cleared with the database.
        self._owns_cache = snapshot_cache is None
        self._cache = snapshot_cache if snapshot_cache is not None else SnapshotCache()
        self._connections: "weakref.WeakSet" = weakref.WeakSet()
        self._closed = False
        self._tracer = tracer if tracer is not None else tracer_from_env()
        self._metrics = metrics if metrics is not None else default_registry()
        self.slow_query_seconds = slow_query_seconds
        self._verify_plans = verify_plans
        self._strict_analysis = strict_analysis
        #: Database-wide default budget; ``Connection.execute`` overlays
        #: per-call budgets on top of it field-wise.
        self.default_budget = default_budget
        self._admission = (
            AdmissionController(
                max_concurrent_queries,
                max_queue=max_admission_queue,
                timeout_s=admission_timeout_s,
                metrics=self._metrics,
            )
            if max_concurrent_queries is not None
            else None
        )

    # -- catalog state --------------------------------------------------- #
    @property
    def version(self) -> int:
        """The current catalog version (bumped by every DDL/data change)."""
        return self._version

    @property
    def snapshot_cache(self) -> SnapshotCache:
        return self._cache

    # -- observability --------------------------------------------------- #
    @property
    def tracer(self) -> Tracer:
        """The query-lifecycle tracer connections of this database inherit."""
        return self._tracer

    def use_tracer(self, tracer: Tracer) -> None:
        """Swap the database tracer; connections pick it up per statement."""
        self._tracer = tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry per-query metrics are recorded into."""
        return self._metrics

    def set_slow_query_log(self, seconds: Optional[float]) -> None:
        """Arm (or with ``None`` disarm) the slow-query log threshold."""
        self.slow_query_seconds = seconds

    def export_metrics(self) -> Dict[str, Any]:
        """Snapshot of the registry with cache-level gauges synced in.

        Folds the :meth:`SnapshotCache.stats` figures (cold builds,
        shared hits, evictions — including ``gc_evicted``) into typed
        gauges under ``repro_snapshot_cache_*`` before collecting, so one
        call yields the complete per-process picture.  Use
        ``self.metrics.to_prometheus()`` / ``to_json()`` for the wire
        formats.
        """
        stats = self._cache.stats()
        self._metrics.set_gauges(
            {f"repro_snapshot_cache_{name}": value for name, value in stats.items()}
        )
        return self._metrics.collect()

    def table_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._columns))

    def graph_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._graph_statements)

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The admission controller, or ``None`` when unbounded."""
        return self._admission

    def admission_stats(self) -> Dict[str, int]:
        """Live admission accounting; empty when admission is unbounded."""
        return self._admission.stats() if self._admission is not None else {}

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("the database is closed", reason="database closed")

    def _bump(self) -> None:
        self._version += 1
        self._snapshot = None

    def _relational_head(self) -> RelationalDatabase:
        if self._head is None:
            schema = Schema(
                RelationSchema(name, len(cols), cols)
                for name, cols in self._columns.items()
            )
            self._head = RelationalDatabase(dict(self._relations), schema=schema)
        return self._head

    # -- DDL ------------------------------------------------------------- #
    def create_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence]
    ) -> None:
        """Create (or replace) a base table with named columns.

        Produces a new catalog version; snapshots already handed out keep
        the previous contents.
        """
        with self._lock:
            self._check_open()
            columns = tuple(columns)
            self._relations[name] = Relation(
                len(columns),
                [row if type(row) is tuple else _table_row(name, row) for row in rows],
                name=name,
            )
            self._columns[name] = columns
            self._head = None
            self._bump()

    def register_database(
        self, database: RelationalDatabase, columns: Mapping[str, Sequence[str]]
    ) -> None:
        """Register every relation of a relational database instance."""
        for name in database:
            if name not in columns:
                raise EngineError(f"no column names supplied for relation {name!r}")
            self.create_table(name, columns[name], database.relation(name).rows)

    def drop_table(self, name: str) -> bool:
        """Forget a base table; True when it existed."""
        with self._lock:
            self._check_open()
            if name not in self._relations:
                return False
            del self._relations[name]
            del self._columns[name]
            self._head = None
            self._bump()
            return True

    def register_graph(self, statement: CreatePropertyGraph) -> GraphDefinition:
        """Register a CREATE PROPERTY GRAPH statement (validated now).

        The definition must compile against the current schema — errors
        raise immediately and register nothing.  Registration bumps the
        version; existing snapshots (and the shared state cached for
        them) are untouched.
        """
        with self._lock:
            self._check_open()
            schema = self._relational_head().schema
            diagnostics = analyze_ddl(statement, schema)
            if diagnostics:
                raise AnalysisSchemaError(diagnostics)
            scratch = GraphCatalog(schema)
            definition = scratch.register(statement)
            self._graph_statements[definition.name] = statement
            self._bump()
            return definition

    def execute(self, statement_text: str) -> GraphDefinition:
        """Parse and apply one DDL statement (queries run on connections)."""
        statement = parse_statement(statement_text)
        if not isinstance(statement, CreatePropertyGraph):
            raise EngineError(
                "Database.execute() takes DDL (CREATE PROPERTY GRAPH); "
                "run queries through a connection: db.connect(...).execute(sql)"
            )
        return self.register_graph(statement)

    def drop_graph(self, name: str) -> bool:
        """Forget a graph definition; True when it was registered (broken
        definitions included — dropping is the documented way to clear
        their error)."""
        with self._lock:
            self._check_open()
            if name not in self._graph_statements:
                return False
            del self._graph_statements[name]
            self._bump()
            return True

    # -- snapshots and connections --------------------------------------- #
    def snapshot(self) -> Snapshot:
        """The immutable snapshot of the current version (memoized).

        A new head moves the database's cache pin to its data
        fingerprint, new-then-old: a superseded head's derived state goes
        once no open connection reads it, graph DDL over unchanged tables
        drops nothing, and sequential connections find the head warm.
        """
        with self._lock:
            self._check_open()
            if self._snapshot is None:
                self._snapshot = Snapshot(
                    self._relational_head(),
                    dict(self._columns),
                    dict(self._graph_statements),
                    self._version,
                    self._cache,
                )
                superseded = self._pinned_fingerprint
                self._pinned_fingerprint = self._snapshot.data_fingerprint
                self._cache.pin(self._pinned_fingerprint)
                if superseded is not None:
                    self._cache.unpin(superseded)
            return self._snapshot

    def connect(
        self,
        engine: str = "naive",
        *,
        snapshot: Optional[Snapshot] = None,
        max_repetitions: Optional[int] = None,
        **engine_options,
    ):
        """A new :class:`~repro.engine.connection.Connection`.

        The connection is pinned to ``snapshot`` (default: the current
        version) — later DDL on this database does not affect it.
        ``engine_options`` are forwarded to the backend factory verbatim;
        database-level ``verify_plans`` and ``strict_analysis`` settings
        are injected unless the caller passes their own.
        """
        from repro.engine.connection import Connection

        if self._verify_plans is not None:
            engine_options.setdefault("verify_plans", self._verify_plans)
        if self._strict_analysis is not None:
            engine_options.setdefault("strict_analysis", self._strict_analysis)
        with self._lock:
            self._check_open()
            pinned = snapshot if snapshot is not None else self.snapshot()
        connection = Connection(
            self,
            pinned,
            engine=engine,
            max_repetitions=max_repetitions,
            **engine_options,
        )
        self._connections.add(connection)
        return connection

    # -- lifecycle ------------------------------------------------------- #
    def close(self) -> None:
        """Close every connection handed out and drop cached state.

        Closing releases each connection's backend (dropping SQLite
        connections and their cached temp tables) and its pin, then the
        head pin, and clears the snapshot cache — unless the cache was
        injected via ``snapshot_cache=`` (it is then shared with other
        databases and keeps whatever one of them still pins).  The
        database object rejects further use.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections)
        for connection in connections:
            connection.close(reason="database closed")
        if self._pinned_fingerprint is not None:
            self._cache.unpin(self._pinned_fingerprint)
        if self._owns_cache:
            self._cache.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Database(version={self._version}, tables={len(self._columns)}, "
            f"graphs={len(self._graph_statements)})"
        )
