"""Evaluation of PGQ queries on relational databases (Figure 4 of the paper).

The evaluator implements the two-phase semantics shared by all fragments:
relational operators are evaluated with their standard set semantics, and a
``GraphPattern`` node first evaluates its six view subqueries, builds the
property graph with the appropriate member of the ``pgView`` family, and
then evaluates the output pattern on that graph.

An evaluator instance is bound to one immutable database, so the
materialized graph views are *query-scoped data, engine-scoped work*: the
graph built for a ``GraphPattern``'s source tuple is cached on the engine
(together with its pattern matcher) and reused by every later query on
that engine that matches against the same view.  A connection replaces
its engine — and with it this cache — whenever it moves to a snapshot
whose data changed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Protocol, Tuple

from repro.errors import ArityError, QueryError
from repro.matching.endpoint import EndpointEvaluator
from repro.observability.tracing import trace_span
from repro.parameters import Bindings, check_bindings, merge_bindings
from repro.patterns.ast import bind_output
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
    bind_query,
    bind_sources,
    output_arity,
    query_parameters,
)
from repro.graph.property_graph import PropertyGraph
from repro.pgq.views import materialize_graph
from repro.relational.database import Database
from repro.relational.relation import Relation


class PatternMatcher(Protocol):
    """The oracle interface every pattern-matching backend implements.

    A matcher is constructed per materialized graph view and must compute
    ``[[psi_Omega]]_G`` — the exact output-row set of the endpoint
    semantics.  The naive :class:`~repro.matching.endpoint.EndpointEvaluator`
    is the reference implementation; the planner's
    :class:`~repro.planner.physical.PlanExecutor` is the optimized one.
    """

    def evaluate_output(self, output) -> frozenset:  # pragma: no cover - protocol
        ...


class CompiledQuery:
    """A prepared query bound to one engine: ``execute(bindings)`` runs it.

    The default implementation re-enters the owning
    :class:`PGQEvaluator`'s evaluation with the bindings and the slot
    names found here once; what that buys depends on the engine — the
    planned engine keeps the parameterized pattern as its plan-cache key
    (one plan compilation serves every binding), the naive oracle
    substitutes the bindings eagerly, and the SQLite backend overrides
    preparation entirely with native ``?`` placeholders.
    """

    def __init__(self, engine, query: Query):
        self.engine = engine
        self.query = query
        self._parameters = query_parameters(query)
        #: Slot names the statement expects, sorted (empty = no parameters).
        self.parameter_names: Tuple[str, ...] = tuple(sorted(self._parameters))
        #: Inferred slot types (filled in by the connection's semantic
        #: analyzer at prepare time; empty for programmatic queries).
        self.parameter_types: Dict[str, str] = {}
        #: Number of completed ``execute`` calls (binding-reuse accounting).
        self.executions = 0

    def execute(self, bindings: Optional[Bindings] = None, /, **named) -> "Relation":
        """Execute with ``bindings`` (a mapping, keyword arguments, or both;
        keywords win on conflict).  Raises
        :class:`~repro.errors.BindingError` when a slot is unbound.  The
        mapping argument is positional-only so a slot literally named
        ``bindings`` still binds by keyword."""
        result = self.engine._evaluate(
            self.query, self._parameters, merge_bindings(bindings, named)
        )
        self.executions += 1
        return result

    def execute_stream(
        self, bindings: Optional[Bindings] = None, /, **named
    ) -> Optional[Tuple[int, Iterator[List[Tuple]], bool]]:
        """Execute and *stream* the result when the engine supports it.

        Returns ``(arity, batches, ordered)`` — the engine runs the plan
        eagerly (binding and depth-bound errors surface here), ``batches``
        yields the distinct output rows incrementally, a list at a time,
        and ``ordered`` says whether they arrive in result order
        (ascending ``repr(row)``) — or ``None`` when the engine or query
        shape cannot stream, in which case the caller falls back to the
        materializing :meth:`execute`.
        """
        result = self.engine._stream(
            self.query, self._parameters, merge_bindings(bindings, named)
        )
        if result is not None:
            self.executions += 1
        return result

    def close(self) -> None:
        """Release per-statement resources (none for in-memory engines)."""


class PGQEvaluator:
    """Evaluates PGQ queries against a fixed database instance.

    The relational operators and the view-building phase are shared by
    every backend; the pattern-matching phase is pluggable through the
    :meth:`_make_matcher` hook.  The default matcher is the naive
    :class:`~repro.matching.endpoint.EndpointEvaluator`, which serves as
    the semantics oracle; :class:`~repro.engine.planned.PlannedEngine`
    overrides the hook with the planner's executor.

    ``max_repetitions`` bounds how many body iterations any repetition
    operator may need; when a match would require more, the matcher raises
    :class:`~repro.errors.PatternError` (``None`` = unbounded, the paper's
    semantics — unbounded repetition still terminates by saturation).
    """

    def __init__(
        self,
        database: Database,
        *,
        max_repetitions: Optional[int] = None,
    ):
        self.database = database
        self.max_repetitions = max_repetitions
        self._memo: Optional[Dict[Query, Relation]] = None
        #: Engine-lifetime LRU cache of materialized graph views and their
        #: matchers, keyed by (source subqueries, max_arity).  Sound while
        #: the database is immutable, which is the engine's contract —
        #: sessions replace the engine on every schema change.
        #: Bounded so a long-lived engine fed many distinct ad hoc view
        #: expressions does not retain every graph (and executor memo)
        #: forever; catalog-driven sessions use a handful of entries.
        self._views: "OrderedDict[Tuple, Tuple[PropertyGraph, int, PatternMatcher]]" = (
            OrderedDict()
        )
        self._views_maxsize = 64
        #: Bindings of the in-flight evaluation ({} = fully concrete query);
        #: set by :meth:`evaluate`, read by the Select/GraphPattern cases.
        self._bindings: Bindings = {}
        #: Snapshot-cache scope (``repro.engine.database.SnapshotScope``)
        #: attached by connections: when present, materialized graph views
        #: and concrete relational subquery results are read from / written
        #: to the cross-connection snapshot cache instead of (only) the
        #: engine-private memos above.
        self._snapshot_scope = None

    def use_snapshot_cache(self, scope) -> None:
        """Attach a snapshot-cache scope for cross-connection sharing.

        The engine must be bound to an immutable database snapshot (the
        scope is keyed on the snapshot's content fingerprint); connections
        over the same snapshot then pay each view materialization, compact
        encoding and relational CSE result once, not once per engine.
        """
        self._snapshot_scope = scope

    def _make_matcher(self, graph) -> "PatternMatcher":
        """Oracle-interface hook: build the pattern matcher for one view."""
        return EndpointEvaluator(graph, max_repetitions=self.max_repetitions)

    # ------------------------------------------------------------------ #
    def prepare(self, query: Query) -> CompiledQuery:
        """Prepare ``query`` for repeated execution with varying bindings.

        The returned :class:`CompiledQuery` re-enters :meth:`evaluate` with
        the bindings of each ``execute`` call; subclasses with heavier
        preparation (native prepared statements, plan caches) override
        either this method or the binding-aware evaluation hooks.
        """
        return CompiledQuery(self, query)

    def evaluate(self, query: Query, bindings: Optional[Bindings] = None) -> Relation:
        """Evaluate ``query`` on the database and return its result relation.

        ``bindings`` supplies values for the query's parameter slots; every
        missing slot raises :class:`~repro.errors.BindingError` up front so
        an unbound parameter can never silently match nothing.
        """
        return self._evaluate(query, query_parameters(query), bindings)

    def _evaluate(self, query: Query, parameters, bindings: Optional[Bindings]) -> Relation:
        """:meth:`evaluate` with the query's slot names already known."""
        self._begin(parameters, bindings)
        # Common-subexpression memo for the duration of one evaluation:
        # structurally identical subqueries (frequent in the view encodings,
        # e.g. the same Select feeding several view subqueries) run once.
        self._memo = {}
        try:
            result = self._eval(query)
        finally:
            self._memo = None
            self._bindings = {}
        return result

    def _stream(
        self, query: Query, parameters, bindings: Optional[Bindings]
    ) -> Optional[Tuple[int, Iterator[List[Tuple]], bool]]:
        """Evaluate with a *streaming* projection, when the query allows it
        (:meth:`CompiledQuery.execute_stream`, which knows the slot names).

        Serves root-level ``GraphPattern`` queries whose matcher exposes
        ``stream_output`` (the planner's executor): the physical plan runs
        eagerly — missing bindings, invalid views and depth-bound errors
        all surface here, exactly like :meth:`evaluate` — and the returned
        ``(arity, batches, ordered)`` yields distinct output rows a batch
        at a time as the projection decodes, without materializing the
        full row set.  Returns ``None`` for query shapes or matchers that
        cannot stream (relational roots, the naive oracle); callers fall
        back to :meth:`evaluate`.  Streaming matchers build output rows
        from a fixed projection layout (``trusted_output_arity``), so the
        per-row arity scan of the materializing path is not repeated here.
        """
        if not isinstance(query, GraphPattern):
            return None
        self._begin(parameters, bindings)
        self._memo = {}
        try:
            _graph, identifier_arity, matcher = self._resolve_graph_pattern(query)
            stream_output = getattr(matcher, "stream_output", None)
            if stream_output is None:
                return None
            active = self._bindings
            if active and getattr(matcher, "supports_parameters", False):
                batches, ordered = stream_output(query.output, bindings=active)
            elif active:
                return None
            else:
                batches, ordered = stream_output(query.output)
            return output_arity(query.output, identifier_arity), batches, ordered
        finally:
            self._memo = None
            self._bindings = {}

    def _begin(self, parameters, bindings: Optional[Bindings]) -> None:
        """Check ``bindings`` against the slot names and make them the
        in-flight bindings ({} for a fully concrete query)."""
        check_bindings(parameters, bindings or {})
        self._bindings = dict(bindings) if parameters else {}  # type: ignore[arg-type]

    #: Compound relational nodes worth sharing across queries through the
    #: snapshot cache (leaves are free to re-evaluate; GraphPattern has its
    #: own shared view entry).
    _CSE_NODES = (Project, Select, Product, Union, Difference)

    def _eval(self, query: Query) -> Relation:
        memo = self._memo
        if memo is None:
            return self._eval_node(query)
        cached = memo.get(query)
        if cached is not None:
            return cached
        scope = self._snapshot_scope
        if scope is not None and not self._bindings and isinstance(query, self._CSE_NODES):
            # Cross-query relational CSE: concrete (binding-free) compound
            # subqueries evaluate once per snapshot, shared by every
            # engine over it — the snapshot is immutable, so the result
            # relation can never go stale.
            result = scope.relation(query, lambda: self._eval_node(query))[0]
        else:
            result = self._eval_node(query)
        memo[query] = result
        return result

    def _eval_node(self, query: Query) -> Relation:
        if isinstance(query, BaseRelation):
            return self.database.relation(query.name)
        if isinstance(query, (Constant, ConstantRelation)):
            # Constant leaves carry their parameter slots directly in the
            # node (not in a condition tree), so bind them here.
            if self._bindings:
                query = bind_query(query, self._bindings)
            if isinstance(query, Constant):
                return self._eval_constant(query)
            return Relation(query.arity, query.rows)
        if isinstance(query, ActiveDomainQuery):
            return self.database.adom_relation()
        if isinstance(query, EmptyRelation):
            return Relation.empty(query.arity)
        if isinstance(query, Project):
            if isinstance(query.operand, GraphPattern):
                return self._eval_graph_pattern(query.operand, query.positions)
            return self._eval(query.operand).project(query.positions)
        if isinstance(query, Select):
            return self._eval_select(query)
        if isinstance(query, Product):
            return self._eval(query.left).product(self._eval(query.right))
        if isinstance(query, Union):
            return self._eval(query.left).union(self._eval(query.right))
        if isinstance(query, Difference):
            return self._eval(query.left).difference(self._eval(query.right))
        if isinstance(query, GraphPattern):
            return self._eval_graph_pattern(query)
        raise QueryError(f"unknown query node {query!r}")

    def _eval_constant(self, query: Constant) -> Relation:
        if query.require_active:
            check_active_constant(query.value, set(self.database.active_domain()))
        return Relation(1, [(query.value,)])

    def _eval_select(self, query: Select) -> Relation:
        relation = self._eval(query.operand)
        condition = query.condition
        if self._bindings:
            condition = condition.bind(self._bindings)
        check_selection(condition, relation.arity)
        # Compile the condition once per selection: per-row evaluation is a
        # plain closure instead of a tree walk with per-row bounds checks.
        return relation.select(condition.compile(relation.arity))

    def _materialize_view(
        self, sources: Tuple, max_arity: Optional[int], span
    ) -> Tuple[PropertyGraph, int]:
        """``(graph, identifier arity)`` of one view — the formal way:
        evaluate the six source relations and hand them to ``pgView``,
        the only place a :class:`~repro.errors.ViewError` is worded.
        The planned engine overrides this with
        :func:`~repro.pgq.scans.view_graph` (table scans and evaluated
        sources, which cannot reject a view, else the same ``pgView``).  ``span`` is the open
        ``view.materialize`` span: the builder that serves the view says
        so in ``built_from``, and tags the view's ``nodes`` and ``edges``.
        """
        span.tag(built_from="relations")
        view_relations = tuple(self._eval(source) for source in sources)
        graph, identifier_arity = materialize_graph(view_relations, max_arity)
        span.tag(nodes=graph.node_count(), edges=graph.edge_count())
        return graph, identifier_arity

    def _build_view(
        self, sources: Tuple, max_arity: Optional[int]
    ) -> Tuple[PropertyGraph, int, "PatternMatcher"]:
        """Cold path: materialize the view's graph, build its pattern matcher."""
        with trace_span("view.materialize", sources=len(sources)) as span:
            graph, identifier_arity = self._materialize_view(sources, max_arity, span)
            return graph, identifier_arity, self._make_matcher(graph)

    def _resolve_graph_pattern(
        self, query: GraphPattern
    ) -> Tuple[PropertyGraph, int, "PatternMatcher"]:
        """The pattern's materialized view and matcher, cached or built.

        Resolution order: the engine-private view LRU, then the shared
        snapshot cache (when a scope is attached), then a cold build.  Bindings of the in-flight execution
        are applied to the source subqueries first, so the cache key
        always reflects the concrete data.
        """
        bindings = self._bindings
        sources = query.sources
        if bindings:
            # Bind source-subquery slots eagerly so the materialized view
            # (and its cache key) reflects the concrete data; slot-free
            # sources come back identical, so equal bindings keep hitting
            # the same cached view.
            sources = bind_sources(sources, bindings)
        key = (sources, query.max_arity)
        cached = self._views.get(key)
        if cached is not None:
            self._views.move_to_end(key)
            return cached
        scope = self._snapshot_scope
        if scope is not None:
            return scope.view(key, lambda: self._build_view(sources, query.max_arity))[0]
        built = self._build_view(sources, query.max_arity)
        self._views[key] = built
        if len(self._views) > self._views_maxsize:
            self._views.popitem(last=False)
        return built

    def _eval_graph_pattern(
        self, query: GraphPattern, positions: Optional[Tuple[int, ...]] = None
    ) -> Relation:
        """The pattern's rows, or with ``positions`` their projection (the
        relational ``Project`` the pattern is the operand of)."""
        bindings = self._bindings
        graph, identifier_arity, matcher = self._resolve_graph_pattern(query)
        arity = output_arity(query.output, identifier_arity)
        # Matchers that decode a projection in place (the planner) take
        # in-range positions; ``Relation.project`` words any other's error.
        projection = {}
        if getattr(matcher, "supports_projection", False) and positions and all(
            type(p) is int and 1 <= p <= arity for p in positions
        ):
            projection["positions"] = positions
        if bindings and getattr(matcher, "supports_parameters", False):
            # Parameter-aware matchers (the planner) keep the parameterized
            # pattern as their plan-cache key and bind per execution: one
            # plan compilation serves every binding of the statement.
            rows = matcher.evaluate_output(query.output, bindings=bindings, **projection)
        else:
            output = bind_output(query.output, bindings) if bindings else query.output
            rows = matcher.evaluate_output(output, **projection)
        if projection:
            return Relation._trusted(len(positions), rows)
        # Matchers that build every output row from a fixed projection
        # layout (the planner) declare ``trusted_output_arity`` and skip
        # the per-row length scan; the naive oracle keeps it, so arity
        # drift would still surface in the cross-engine equivalence tests.
        if not getattr(matcher, "trusted_output_arity", False):
            for row in rows:
                if len(row) != arity:
                    raise ArityError(
                        f"output row {row!r} has arity {len(row)}, expected {arity}"
                    )
        # Matcher outputs are flat tuples of atomic values with the arity
        # established above, so skip the per-row re-validation.
        relation = Relation._trusted(arity, rows)
        return relation if positions is None else relation.project(positions)


def check_selection(condition, arity: int) -> None:
    """Raise the :class:`QueryError` of a selection whose condition names a
    position past its ``arity``-ary operand — worded here, for every engine."""
    if condition.max_position() > arity:
        raise QueryError(
            f"selection condition refers to ${condition.max_position()} "
            f"but the operand has arity {arity}"
        )


def check_active_constant(value, domain) -> None:
    """Raise the :class:`QueryError` of a constant outside the active
    ``domain`` (a set) — worded here, for every engine."""
    if value not in domain:
        raise QueryError(f"constant {value!r} is not in the active domain of the database")


def evaluate(query: Query, database: Database) -> Relation:
    """Module-level convenience wrapper: evaluate a query on a database."""
    return PGQEvaluator(database).evaluate(query)


def evaluate_boolean(query: Query, database: Database) -> bool:
    """Evaluate a Boolean (0-ary or any-arity) query: non-empty result = true."""
    return bool(evaluate(query, database))
