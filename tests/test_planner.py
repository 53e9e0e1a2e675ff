"""Tests for the query planner: IR, rewrite rules, physical execution."""

import pytest

from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi
from repro.engine import NaiveEngine, PlannedEngine, SQLiteEngine
from repro import Parameter
from repro.errors import PatternError, QueryError
from repro.matching import EndpointEvaluator
from repro.matching.paths import PathEvaluator
from repro.patterns.builder import (
    back_edge,
    either,
    edge,
    label,
    node,
    output,
    plus,
    prop,
    prop_cmp,
    prop_eq,
    repeat,
    seq,
    star,
    where,
)
from repro.patterns.conditions import PropertyCompare
from repro.pgq import graph_pattern_on_relations, pg_view
from repro.pgq.queries import Constant, ConstantRelation
from repro.pgq.views import ViewRelations
from repro.relational import Relation
from repro.relational.conditions import ColumnCompareConstant, ColumnEqualsConstant
from repro.sqlpgq.ast import LiteralOperand
from repro.planner import (
    EdgeScan,
    FilterStep,
    FixpointStep,
    JoinStep,
    NodeScan,
    PlanCache,
    PlanExecutor,
    build_logical_plan,
    describe,
    optimize,
)

VIEW = GRAPH_VIEW_SCHEMA


def graph_from(database):
    return pg_view(
        ViewRelations(*(database.relation(name) for name in VIEW)).as_tuple()
    )


#: A battery of patterns exercising every operator and rewrite rule.
def pattern_battery():
    step = seq(edge(), node())
    return [
        ("single node", output(node("x"), "x")),
        ("plain edge", output(seq(node("x"), edge("t"), node("y")), "x", "t", "y")),
        ("backward edge", output(seq(node("x"), back_edge(), node("y")), "x", "y")),
        ("label filter", output(where(seq(node("x"), edge(), node("y")), label("x", "Red")), "x", "y")),
        (
            "property filter",
            output(
                seq(node("x"), where(edge("t"), prop_cmp("t", "w", ">", 40)), node("y")),
                "x", prop("t", "w"), "y",
            ),
        ),
        (
            "cross-variable filter",
            output(
                where(
                    seq(node("x"), edge(), node("y")), prop_eq("x", "c", "y", "c")
                ),
                "x", "y",
            ),
        ),
        (
            "disjunction",
            output(
                either(
                    seq(node("x"), edge(), node("y")),
                    seq(node("x"), back_edge(), node("y")),
                ),
                "x", "y",
            ),
        ),
        ("star", output(seq(node("x"), star(step), node("y")), "x", "y")),
        ("plus", output(seq(node("x"), plus(step), node("y")), "x", "y")),
        ("bounded repetition", output(seq(node("x"), repeat(step, 2, 3), node("y")), "x", "y")),
        (
            "filtered repetition",
            output(
                seq(
                    node("x"),
                    plus(seq(where(edge("t"), prop_cmp("t", "w", ">", 30)), node())),
                    node("y"),
                ),
                "x", "y",
            ),
        ),
        (
            "nested repetition",
            output(seq(node("x"), star(repeat(step, 1, 2)), node("y")), "x", "y"),
        ),
        ("boolean output", output(seq(node("x"), plus(step), node("x")))),
        (
            "shared variable join",
            output(seq(node("x"), edge(), node("y"), edge(), node("x")), "x", "y"),
        ),
    ]


# --------------------------------------------------------------------------- #
# Logical IR and rewrite rules
# --------------------------------------------------------------------------- #
class TestLogicalPlan:
    def test_lowering_shapes(self):
        pattern = seq(node("x"), plus(seq(edge("t"), node())), node("y"))
        plan = build_logical_plan(pattern)
        assert isinstance(plan, JoinStep)
        assert isinstance(plan.left, JoinStep)
        assert isinstance(plan.left.right, FixpointStep)
        assert plan.variables() == {"x", "y"}
        assert plan.left.right.variables() == frozenset()

    def test_label_pushdown_into_scan(self):
        pattern = where(seq(node("x"), edge("t"), node("y")), label("t", "Transfer"))
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        scans = _collect(plan, EdgeScan)
        assert len(scans) == 1
        assert scans[0].labels == {"Transfer"}
        assert not _collect(plan, FilterStep)

    def test_condition_pushdown_into_scan(self):
        pattern = where(seq(node("x"), edge("t"), node("y")), prop_cmp("t", "w", ">", 5))
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        (scan,) = _collect(plan, EdgeScan)
        assert scan.condition is not None
        assert not _collect(plan, FilterStep)

    def test_cross_variable_condition_stays_residual(self):
        pattern = where(seq(node("x"), edge(), node("y")), prop_eq("x", "c", "y", "c"))
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        assert _collect(plan, FilterStep)

    def test_pushdown_through_union(self):
        pattern = where(
            either(seq(node("x"), edge(), node("y")), seq(node("x"), back_edge(), node("y"))),
            label("x", "Red"),
        )
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        assert not _collect(plan, FilterStep)
        red_scans = [s for s in _collect(plan, NodeScan) if s.labels == {"Red"}]
        assert len(red_scans) == 2  # one per disjunction branch

    def test_unused_bindings_are_pruned(self):
        pattern = seq(node("x"), edge("t"), node("y"))
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        (scan,) = _collect(plan, EdgeScan)
        assert scan.variable == "t" and not scan.bound
        assert plan.variables() == {"x", "y"}

    def test_repetition_body_fully_pruned_and_identity_join_removed(self):
        pattern = seq(node("x"), plus(seq(edge("t"), node("n"))), node("y"))
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        (fix,) = _collect(plan, FixpointStep)
        # the body collapses to a single unbound edge scan
        assert isinstance(fix.body, EdgeScan)
        assert not fix.body.variables()

    def test_join_keys_keep_shared_variables_bound(self):
        pattern = seq(node("x"), edge(), node("y"), edge(), node("x"))
        plan = optimize(build_logical_plan(pattern), frozenset({"y"}))
        # "x" is a join key between the two halves: it must stay bound even
        # though the output only needs "y".
        assert "x" in plan.variables()

    def test_describe_renders_tree(self):
        pattern = seq(node("x"), plus(seq(edge(), node())), node("y"))
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        text = describe(plan)
        assert "SemiNaiveFixpoint [1..inf]" in text
        # joining the unfiltered endpoint node scans degenerates to free
        # endpoint bindings
        assert "BindEndpoint [x=src]" in text
        assert "BindEndpoint [y=tgt]" in text

    def test_endpoint_binds_replace_trivial_joins(self):
        from repro.planner import BindEndpoint, JoinStep as Join

        pattern = seq(node("x"), plus(seq(edge(), node())), node("y"))
        plan = optimize(build_logical_plan(pattern), frozenset({"x", "y"}))
        assert not _collect(plan, Join)
        binds = _collect(plan, BindEndpoint)
        assert {(b.variable, b.use_source) for b in binds} == {("x", True), ("y", False)}


def _collect(plan, kind):
    found = []
    stack = [plan]
    while stack:
        current = stack.pop()
        if isinstance(current, kind):
            found.append(current)
        stack.extend(current.children())
    return found


# --------------------------------------------------------------------------- #
# Physical execution vs the naive oracle
# --------------------------------------------------------------------------- #
class TestPlanExecutor:
    @pytest.fixture(scope="class")
    def graph(self):
        db = erdos_renyi(9, 0.2, seed=3, labels=("Red", "Blue"), property_key="w")
        return graph_from(db)

    @pytest.mark.parametrize("name,out", pattern_battery(), ids=[n for n, _ in pattern_battery()])
    def test_matches_endpoint_semantics(self, graph, name, out):
        expected = EndpointEvaluator(graph).evaluate_output(out)
        actual = PlanExecutor(graph).evaluate_output(out)
        assert actual == expected

    def test_node_condition_on_node_property(self):
        db = erdos_renyi(6, 0.4, seed=11, labels=("Red",), property_key="w")
        ranks = [(node_id, "rank", 1) for node_id in ("v0", "v1", "v2")]
        graph = graph_from(db.with_relation("P", Relation(3, [*db.relation("P").rows, *ranks])))
        out = output(where(seq(node("x"), edge(), node("y")), prop_cmp("x", "rank", "=", 1)), "x", "y")
        assert PlanExecutor(graph).evaluate_output(out) == EndpointEvaluator(graph).evaluate_output(out)

    def test_union_with_one_sided_residual_filter(self):
        # A cross-variable filter in only one disjunction branch leaves that
        # branch with residue columns after pruning; the union must project
        # to the common columns instead of rejecting the plan.
        db = erdos_renyi(6, 0.4, seed=2, property_key="w")
        graph = graph_from(db)
        branch = seq(node(), edge("x"), node(), edge("y"), node())
        pattern = either(where(branch, prop_eq("x", "w", "y", "w")), branch)
        out = output(pattern)  # Boolean output: x, y are not needed above
        assert PlanExecutor(graph).evaluate_output(out) == EndpointEvaluator(
            graph
        ).evaluate_output(out)

    def test_counters_record_fixpoint_rounds(self, graph):
        executor = PlanExecutor(graph)
        executor.evaluate_output(output(seq(node("x"), star(seq(edge(), node()))), "x"))
        assert executor.counters.fixpoint_rounds > 0


# --------------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------------- #
#: Every constructor that holds a constant: how to build one around a
#: value, and the error it raises for a value that is not atomic.
_CONSTANT_HOLDERS = {
    "PropertyCompare": (lambda value: PropertyCompare("t", "w", "=", value), PatternError),
    "ColumnEqualsConstant": (lambda value: ColumnEqualsConstant(1, value), QueryError),
    "ColumnCompareConstant": (
        lambda value: ColumnCompareConstant(1, "<", value), QueryError
    ),
    "Constant": (lambda value: Constant(value), QueryError),
    "ConstantRelation": (lambda value: ConstantRelation(((value,),), 1), QueryError),
    "LiteralOperand": (lambda value: LiteralOperand(value), QueryError),
}


class TestPlanCache:
    def test_hits_and_misses(self):
        cache = PlanCache(maxsize=4)
        out = output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y")
        needed = frozenset({"x", "y"})
        first = cache.plan_for(out.pattern, needed)
        second = cache.plan_for(out.pattern, needed)
        assert first is second
        assert cache.info() == {
            "hits": 1,
            "misses": 1,
            "prepared_hits": 0,
            "prepared_misses": 0,
            "size": 1,
        }

    def test_eviction_respects_maxsize(self):
        cache = PlanCache(maxsize=2)
        for i in range(4):
            cache.plan_for(node(f"v{i}"), frozenset({f"v{i}"}))
        assert cache.info()["size"] == 2

    @pytest.mark.parametrize(
        "value", [[1], (1,), {1}, {"a": 1}, bytearray(b"x")],
        ids=["list", "tuple", "set", "dict", "bytearray"],
    )
    @pytest.mark.parametrize("constructor", sorted(_CONSTANT_HOLDERS))
    def test_constants_are_atomic_at_construction(self, constructor, value):
        # Every pattern is a cache key because no tree can hold a constant
        # that is a container or does not hash: each constructor holding a
        # constant refuses one, and still takes an atomic value or a slot.
        build, error = _CONSTANT_HOLDERS[constructor]
        with pytest.raises(error, match="must be an atomic value"):
            build(value)
        build(1)
        build(Parameter("slot"))

    def test_cache_keys_include_stats_fingerprint(self):
        from repro.planner import collect_graph_statistics

        sparse = graph_from(erdos_renyi(6, 0.1, seed=1, labels=("Red",)))
        dense = graph_from(erdos_renyi(9, 0.6, seed=2, labels=("Red",)))
        cache = PlanCache()
        out = output(seq(node("x"), edge(), node("y"), edge(), node("z")), "x", "z")
        needed = frozenset({"x", "z"})
        cache.plan_for(out.pattern, needed, collect_graph_statistics(sparse))
        cache.plan_for(out.pattern, needed, collect_graph_statistics(dense))
        cache.plan_for(out.pattern, needed)  # rule-only entry
        assert cache.info()["misses"] == 3 and cache.info()["size"] == 3
        # Same graph shape again: a hit, not a fourth entry.
        cache.plan_for(out.pattern, needed, collect_graph_statistics(sparse))
        assert cache.info()["hits"] == 1 and cache.info()["size"] == 3

    def test_planned_engine_reuses_cached_plans(self):
        cache = PlanCache()
        db = erdos_renyi(6, 0.3, seed=5)
        query = graph_pattern_on_relations(
            output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )
        engine = PlannedEngine(db, plan_cache=cache)
        engine.evaluate(query)
        engine.evaluate(query)
        assert cache.hits >= 1

    def test_engines_default_to_private_caches(self):
        db = erdos_renyi(5, 0.3, seed=8)
        first, second = PlannedEngine(db), PlannedEngine(db)
        assert first.plan_cache is not second.plan_cache


# --------------------------------------------------------------------------- #
# Plan-cache sharing across conflicting repetition bounds (satellite)
# --------------------------------------------------------------------------- #
class TestSharedCacheAcrossBounds:
    """Repetition bounds must be bound at execution, never baked into a
    cached plan: executors (and sessions) with conflicting
    ``max_repetitions`` can share one compiled-plan cache."""

    def _long_chain_sessions(self):
        from repro.engine import Database

        rows_accounts = [(f"A{i}",) for i in range(8)]
        rows_transfers = [(f"T{i}", f"A{i}", f"A{i + 1}", i, 500) for i in range(7)]
        sessions = []
        for bound in (2, None):
            db = Database()
            db.create_table("Account", ["iban"], rows_accounts)
            db.create_table(
                "Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], rows_transfers
            )
            db.execute(
                """
                CREATE PROPERTY GRAPH Transfers (
                  NODES TABLE Account KEY (iban) LABEL Account,
                  EDGES TABLE Transfer KEY (t_id)
                    SOURCE KEY src_iban REFERENCES Account
                    TARGET KEY tgt_iban REFERENCES Account
                    LABELS Transfer PROPERTIES (ts, amount))
                """
            )
            sessions.append(db.connect(engine="planned", max_repetitions=bound))
        return sessions

    QUERY = (
        "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]->+ (y) "
        "COLUMNS (x.iban, y.iban) )"
    )

    def test_conflicting_session_bounds_never_leak_through_cached_plans(self):
        bounded, unbounded = self._long_chain_sessions()
        # Bounded session compiles (and caches) the plan first, then the
        # unbounded session reuses the pattern; the bounded one must still
        # raise afterwards — in any interleaving.
        with pytest.raises(PatternError, match="max_repetitions=2"):
            bounded.execute(self.QUERY)
        result = unbounded.execute(self.QUERY)
        assert len(result) > 0
        with pytest.raises(PatternError, match="max_repetitions=2"):
            bounded.execute(self.QUERY)
        assert unbounded.execute(self.QUERY).equals_unordered(result)

    def test_shared_plan_cache_between_conflicting_executors(self):
        from repro.datasets import chain

        cache = PlanCache()
        graph = graph_from(chain(8))
        out = output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y")
        strict = PlanExecutor(graph, max_repetitions=3, plan_cache=cache)
        free = PlanExecutor(graph, plan_cache=cache)
        with pytest.raises(PatternError, match="max_repetitions=3"):
            strict.evaluate_output(out)
        rows = free.evaluate_output(out)
        assert rows  # the shared cache served a plan without the bound
        assert cache.hits >= 1  # the second executor really hit the cache
        with pytest.raises(PatternError, match="max_repetitions=3"):
            strict.evaluate_output(out)


# --------------------------------------------------------------------------- #
# max_repetitions threading (satellite)
# --------------------------------------------------------------------------- #
class TestMaxRepetitions:
    def make_chain_query(self):
        return graph_pattern_on_relations(
            output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )

    @pytest.fixture(scope="class")
    def chain_db(self):
        from repro.datasets import chain

        return chain(8)

    @pytest.mark.parametrize("engine_cls", [NaiveEngine, PlannedEngine, SQLiteEngine])
    def test_bound_exceeded_raises(self, chain_db, engine_cls):
        engine = engine_cls(chain_db, max_repetitions=3)
        with pytest.raises(PatternError, match="max_repetitions=3"):
            engine.evaluate(self.make_chain_query())

    @pytest.mark.parametrize("engine_cls", [NaiveEngine, PlannedEngine, SQLiteEngine])
    def test_sufficient_bound_matches_unbounded(self, chain_db, engine_cls):
        query = self.make_chain_query()
        bounded = engine_cls(chain_db, max_repetitions=20).evaluate(query)
        unbounded = engine_cls(chain_db).evaluate(query)
        assert bounded.rows == unbounded.rows

    @pytest.mark.parametrize("engine_cls", [NaiveEngine, PlannedEngine, SQLiteEngine])
    def test_bounded_repetition_honours_guard(self, chain_db, engine_cls):
        query = graph_pattern_on_relations(
            output(seq(node("x"), repeat(seq(edge(), node()), 0, 6), node("y")), "x", "y"),
            VIEW,
        )
        with pytest.raises(PatternError):
            engine_cls(chain_db, max_repetitions=2).evaluate(query)

    @pytest.mark.parametrize("engine_cls", [NaiveEngine, PlannedEngine])
    def test_bounded_guard_ignores_cycle_rederivations(self, engine_cls):
        # On a 2-cycle every pair is first derivable by depth 2; composing
        # further only re-derives known pairs, so a bound of 3 must not
        # fire even though the upper bound is 5.
        from repro.datasets import cycle

        db = cycle(2)
        query = graph_pattern_on_relations(
            output(seq(node("x"), repeat(seq(edge(), node()), 0, 5), node("y")), "x", "y"),
            VIEW,
        )
        bounded = engine_cls(db, max_repetitions=3).evaluate(query)
        unbounded = engine_cls(db).evaluate(query)
        assert bounded.rows == unbounded.rows

    @pytest.mark.parametrize("engine_cls", [NaiveEngine, PlannedEngine])
    def test_guard_consistent_between_bounded_and_unbounded(self, engine_cls):
        # psi^{5..7} and psi^{5..inf} matches both need 5 body iterations
        # on a 2-cycle, so with bound 3 both forms must raise — tightening
        # an upper bound never flips the error behavior.
        from repro.datasets import cycle

        db = cycle(2)
        step = seq(edge(), node())
        for upper in (7, float("inf")):
            query = graph_pattern_on_relations(
                output(seq(node("x"), repeat(step, 5, upper), node("y")), "x", "y"), VIEW
            )
            with pytest.raises(PatternError, match="max_repetitions=3"):
                engine_cls(db, max_repetitions=3).evaluate(query)

    def test_session_threads_bound(self):
        from repro.engine import Database

        db = Database()
        db.create_table("Account", ["iban"], [(f"A{i}",) for i in range(6)])
        db.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [(f"T{i}", f"A{i}", f"A{i + 1}", i, 500) for i in range(5)],
        )
        db.execute(
            """
            CREATE PROPERTY GRAPH Transfers (
              NODES TABLE Account KEY (iban) LABEL Account,
              EDGES TABLE Transfer KEY (t_id)
                SOURCE KEY src_iban REFERENCES Account
                TARGET KEY tgt_iban REFERENCES Account
                LABELS Transfer PROPERTIES (ts, amount))
            """
        )
        session = db.connect(engine="planned", max_repetitions=2)
        with pytest.raises(PatternError, match="max_repetitions"):
            session.execute(
                "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]->+ (y) "
                "COLUMNS (x.iban, y.iban) )"
            )

    def test_path_evaluator_strict_raises(self):
        from repro.datasets import cycle

        graph = graph_from(cycle(4))
        pattern = star(seq(edge(), node()))
        # non-strict truncates silently (legacy behavior) ...
        PathEvaluator(graph, max_repetitions=2).evaluate(pattern)
        # ... strict surfaces the truncation as a PatternError.
        with pytest.raises(PatternError, match="max_repetitions=2"):
            PathEvaluator(graph, max_repetitions=2, strict=True).evaluate(pattern)

    def test_path_evaluator_strict_passes_when_saturated(self):
        from repro.datasets import chain

        graph = graph_from(chain(3))
        pattern = star(seq(edge(), node()))
        matches = PathEvaluator(graph, max_repetitions=10, strict=True).evaluate(pattern)
        assert matches

    def test_path_evaluator_strict_ignores_rederived_paths(self):
        from repro.datasets import chain

        # Mixed-length body: the 2-edge alternative re-derives at depth k
        # what the 1-edge alternative built by depth 2k, so the path set
        # saturates at the bound; strict mode must not raise.
        graph = graph_from(chain(3))
        body = either(edge(), seq(edge(), seq(node(), edge())))
        pattern = star(body)
        full = PathEvaluator(graph, max_repetitions=10).evaluate(pattern)
        strict = PathEvaluator(graph, max_repetitions=2, strict=True).evaluate(pattern)
        assert strict == full

    def test_path_evaluator_strict_ignores_zero_length_extensions(self):
        from repro.datasets import chain
        from repro.patterns.ast import NodePattern

        # A node-pattern body only matches single-vertex paths, so the
        # repetition saturates immediately: strict mode must not raise even
        # though every path is trivially "extendable" by a no-op.
        graph = graph_from(chain(3))
        strict = PathEvaluator(graph, max_repetitions=2, strict=True)
        loose = PathEvaluator(graph, max_repetitions=2)
        pattern = star(NodePattern("x"))
        assert strict.evaluate(pattern) == loose.evaluate(pattern)
