"""The plan-level abstract interpreter (repro.analysis.dataflow).

One trigger test per dataflow diagnostic code (A008..A014), the
constant/range lattice, the ``prune_unsatisfiable`` optimizer rewrite
under the plan verifier, the session-layer short-circuit on all three
backends (a statically-empty query answers without invoking the physical
executor), strict-analysis promotion, the structured Explain surfaces,
the service dry-run endpoint, and a randomized equivalence check of the
pruning planner against the naive oracle.
"""

import json
import random

import pytest

from repro.analysis.dataflow import (
    Interval,
    analyze_plan,
    condition_satisfiable,
    diameter_bound,
    plan_parameters,
    prune_unsatisfiable,
)
from repro.engine.database import Database
from repro.errors import BindingError, PGQAnalysisError
from repro.parameters import Parameter
from repro.patterns.conditions import (
    AndCondition,
    OrCondition,
    PropertyCompare,
    PropertyComparesProperty,
)
from repro.planner.logical import (
    EdgeScan,
    EmptyPlan,
    FilterStep,
    FixpointStep,
    JoinStep,
    NodeScan,
    UnionStep,
)
from repro.planner.stats import GraphStatistics

ENGINES = ["naive", "planned", "sqlite"]

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

#: Contradictory range: the dataflow pass proves zero rows statically.
EMPTY_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]-> (y)
  WHERE t.amount > 100 AND t.amount < 50
  COLUMNS (x.iban, y.iban) )"""

SATISFIABLE_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]-> (y)
  WHERE t.amount > 50
  COLUMNS (x.iban, y.iban) )"""


def make_db() -> Database:
    db = Database()
    db.create_table("Account", ["iban"], [("A0",), ("A1",), ("A2",)])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            ("T0", "A0", "A1", 1, 100),
            ("T1", "A1", "A2", 2, 250),
            ("T2", "A2", "A0", 3, 40),
        ],
    )
    db.execute(DDL)
    return db


def compare(var, key, operator, constant):
    return PropertyCompare(var, key, operator, constant)


def codes(flow):
    return [diagnostic.code for diagnostic in flow.diagnostics]


# --------------------------------------------------------------------------- #
# The constant/range lattice
# --------------------------------------------------------------------------- #
class TestInterval:
    def test_contradictory_range_is_empty(self):
        interval = Interval()
        interval.add(">", 100)
        interval.add("<", 50)
        assert interval.empty

    def test_equality_outside_range_is_empty(self):
        interval = Interval()
        interval.add("=", 7)
        interval.add(">", 10)
        assert interval.empty

    def test_equality_vs_exclusion_is_empty(self):
        interval = Interval()
        interval.add("!=", 3)
        interval.add("=", 3)
        assert interval.empty

    def test_touching_strict_bounds_are_empty(self):
        interval = Interval()
        interval.add(">=", 5)
        interval.add("<", 5)
        assert interval.empty

    def test_closed_point_is_satisfiable(self):
        interval = Interval()
        interval.add(">=", 5)
        interval.add("<=", 5)
        assert not interval.empty

    def test_cross_type_ordered_bounds_are_empty(self):
        # x > 5 AND x < 'a': ordered comparison against an incomparable
        # constant is false at runtime for every value of either type.
        interval = Interval()
        interval.add(">", 5)
        interval.add("<", "a")
        assert interval.empty


class TestConditionSatisfiability:
    def test_parameters_are_opaque(self):
        condition = AndCondition(
            compare("t", "amount", ">", Parameter("low")),
            compare("t", "amount", "<", Parameter("low")),
        )
        assert condition_satisfiable(condition)

    def test_irreflexive_self_comparison(self):
        assert not condition_satisfiable(
            PropertyComparesProperty("t", "amount", "<", "t", "amount")
        )

    def test_disjunction_needs_one_satisfiable_arm(self):
        contradiction = AndCondition(
            compare("t", "amount", ">", 10), compare("t", "amount", "<", 5)
        )
        assert not condition_satisfiable(OrCondition(contradiction, contradiction))
        assert condition_satisfiable(
            OrCondition(contradiction, compare("t", "amount", "=", 7))
        )


# --------------------------------------------------------------------------- #
# One trigger per diagnostic code
# --------------------------------------------------------------------------- #
class TestDiagnosticTriggers:
    def test_a008_statically_empty_query(self):
        plan = FilterStep(
            NodeScan("x"),
            AndCondition(compare("x", "k", ">", 2), compare("x", "k", "<", 1)),
        )
        flow = analyze_plan(plan)
        assert flow.statically_empty
        assert "A008" in codes(flow)

    def test_a008_empty_union_arm(self):
        dead = FilterStep(
            NodeScan("x"),
            AndCondition(compare("x", "k", ">", 2), compare("x", "k", "<", 1)),
        )
        flow = analyze_plan(UnionStep(dead, NodeScan("x")))
        assert not flow.statically_empty
        assert "A008" in codes(flow)
        assert isinstance(flow.plan, UnionStep)
        assert isinstance(flow.plan.left, EmptyPlan)

    def test_a009_contradictory_filter(self):
        plan = FilterStep(
            NodeScan("x"),
            AndCondition(compare("x", "k", "=", 1), compare("x", "k", "=", 2)),
        )
        flow = analyze_plan(plan)
        assert "A009" in codes(flow)
        assert isinstance(flow.plan, EmptyPlan)

    def test_a009_contradictory_scan_condition(self):
        scan = NodeScan(
            "x",
            condition=AndCondition(
                compare("x", "k", ">=", 10), compare("x", "k", "<", 10)
            ),
        )
        flow = analyze_plan(scan)
        assert "A009" in codes(flow)
        assert flow.statically_empty

    def test_a010_adjacent_unbounded_closures(self):
        closure = FixpointStep(EdgeScan(None, bound=False), 1)
        flow = analyze_plan(JoinStep(closure, closure))
        assert "A010" in codes(flow)
        assert not flow.statically_empty

    def test_a011_parameter_only_in_pruned_subplan(self):
        dead = FilterStep(
            NodeScan("x", condition=compare("x", "k", ">", Parameter("lo"))),
            AndCondition(compare("x", "k", ">", 2), compare("x", "k", "<", 1)),
        )
        flow = analyze_plan(UnionStep(dead, NodeScan("x")))
        assert "A011" in codes(flow)
        assert flow.unused_parameters == ("lo",)

    def test_a012_bound_beyond_diameter(self):
        stats = GraphStatistics(node_count=3, edge_count=3)
        plan = FixpointStep(EdgeScan(None, bound=False), 1, 9)
        flow = analyze_plan(plan, stats=stats)
        assert "A012" in codes(flow)
        assert not flow.statically_empty

    def test_a013_label_without_carriers(self):
        stats = GraphStatistics(
            node_count=3, edge_count=3, node_labels={"Account": 3}, edge_labels={}
        )
        flow = analyze_plan(NodeScan("x", labels=frozenset({"Ghost"})), stats=stats)
        assert "A013" in codes(flow)
        assert flow.statically_empty

    def test_a014_edgeless_graph(self):
        stats = GraphStatistics(node_count=3, edge_count=0)
        flow = analyze_plan(EdgeScan("t"), stats=stats)
        assert "A014" in codes(flow)
        assert flow.statically_empty

    def test_plan_parameters_walks_conditions(self):
        plan = FilterStep(
            NodeScan("x", condition=compare("x", "k", ">", Parameter("a"))),
            compare("x", "j", "<", Parameter("b")),
        )
        assert plan_parameters(plan) == frozenset({"a", "b"})

    def test_diameter_bound_sources(self):
        assert diameter_bound(None, None) is None
        assert diameter_bound(GraphStatistics(node_count=5, edge_count=4), None) == 4


# --------------------------------------------------------------------------- #
# The optimizer rewrite
# --------------------------------------------------------------------------- #
class TestPruneUnsatisfiable:
    def test_empty_propagates_through_joins(self):
        dead = NodeScan(
            "x",
            condition=AndCondition(
                compare("x", "k", ">", 2), compare("x", "k", "<", 1)
            ),
        )
        pruned = prune_unsatisfiable(JoinStep(dead, NodeScan("y")))
        assert isinstance(pruned, EmptyPlan)

    def test_fixpoint_lower_zero_keeps_identity(self):
        dead = EdgeScan(
            "t",
            condition=AndCondition(
                compare("t", "k", ">", 2), compare("t", "k", "<", 1)
            ),
        )
        kept = prune_unsatisfiable(FixpointStep(dead, 0))
        assert isinstance(kept, FixpointStep)
        assert isinstance(kept.body, EmptyPlan)
        pruned = prune_unsatisfiable(FixpointStep(dead, 1))
        assert isinstance(pruned, EmptyPlan)

    def test_satisfiable_plan_is_untouched(self):
        plan = JoinStep(
            NodeScan("x", condition=compare("x", "k", ">", 1)), NodeScan("y")
        )
        assert prune_unsatisfiable(plan) is plan

    def test_rewrite_passes_the_verifier(self):
        # End to end under Database(verify_plans=True): the rewrite's
        # EmptyPlan substitution must satisfy the plan invariants.
        with Database(verify_plans=True) as db:
            db.create_table("Account", ["iban"], [("A0",), ("A1",)])
            db.create_table(
                "Transfer",
                ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
                [("T0", "A0", "A1", 1, 100)],
            )
            db.execute(DDL)
            connection = db.connect(engine="planned")
            assert connection.execute(EMPTY_QUERY).rows == ()


# --------------------------------------------------------------------------- #
# Session-layer short-circuit
# --------------------------------------------------------------------------- #
class TestShortCircuit:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_statically_empty_skips_the_executor(self, engine):
        with make_db() as db:
            connection = db.connect(engine=engine)
            prepared = connection.prepare(EMPTY_QUERY)
            assert prepared.statically_empty

            def boom(*args, **kwargs):  # pragma: no cover - must not run
                raise AssertionError("the physical executor was invoked")

            prepared._compiled.execute = boom
            if hasattr(prepared._compiled, "execute_stream"):
                prepared._compiled.execute_stream = boom
            result = prepared.execute()
            assert result.rows == ()
            assert list(result.columns) == ["x.iban", "y.iban"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_satisfiable_queries_still_execute(self, engine):
        with make_db() as db:
            connection = db.connect(engine=engine)
            rows = sorted(connection.execute(SATISFIABLE_QUERY).rows)
            assert rows == [("A0", "A1"), ("A1", "A2")]

    def test_binding_checks_survive_the_short_circuit(self):
        query = """SELECT * FROM GRAPH_TABLE ( Transfers
          MATCH (x) -[t:Transfer]-> (y)
          WHERE t.amount > 100 AND t.amount < 50 AND t.ts > :since
          COLUMNS (x.iban) )"""
        with make_db() as db:
            prepared = db.connect(engine="planned").prepare(query)
            assert prepared.statically_empty
            with pytest.raises(BindingError):
                prepared.execute()
            assert prepared.execute(since=1).rows == ()


# --------------------------------------------------------------------------- #
# Strict analysis
# --------------------------------------------------------------------------- #
class TestStrictAnalysis:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_database_flag_promotes_warnings(self, engine):
        with Database(strict_analysis=True) as db:
            db.create_table("Account", ["iban"], [("A0",)])
            db.create_table(
                "Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], []
            )
            db.execute(DDL)
            connection = db.connect(engine=engine)
            with pytest.raises(PGQAnalysisError) as info:
                connection.execute(EMPTY_QUERY)
            raised = [diagnostic.code for diagnostic in info.value.diagnostics]
            assert "A008" in raised
            # Clean statements still run in strict mode.
            assert connection.execute(SATISFIABLE_QUERY).rows == ()

    def test_env_var_promotes_warnings(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_ANALYSIS", "1")
        with make_db() as db:
            with pytest.raises(PGQAnalysisError):
                db.connect(engine="planned").execute(EMPTY_QUERY)

    def test_default_mode_only_warns(self):
        with make_db() as db:
            connection = db.connect(engine="planned")
            result = connection.execute(EMPTY_QUERY)
            assert result.rows == ()


# --------------------------------------------------------------------------- #
# Structured Explain surfaces
# --------------------------------------------------------------------------- #
class TestExplainSurfaces:
    def test_schema_and_analysis_fields(self):
        with make_db() as db:
            explain = db.connect(engine="planned").explain(EMPTY_QUERY)
            assert explain.schema == (("x.iban", "string"), ("y.iban", "string"))
            reported = [(d.code, d.severity) for d in explain.analysis]
            assert ("A009", "warning") in reported
            assert ("A008", "warning") in reported
            text = str(explain)
            assert "-- schema: x.iban string, y.iban string" in text
            assert "warning A009" in text

    def test_prepared_statement_carries_the_verdict(self):
        with make_db() as db:
            prepared = db.connect(engine="planned").prepare(EMPTY_QUERY)
            assert prepared.result_schema == (
                ("x.iban", "string"),
                ("y.iban", "string"),
            )
            assert [d.code for d in prepared.analysis_diagnostics] == ["A009", "A008"]

    def test_clean_queries_report_no_analysis(self):
        with make_db() as db:
            explain = db.connect(engine="planned").explain(SATISFIABLE_QUERY)
            assert explain.analysis == ()
            assert explain.schema == (("x.iban", "string"), ("y.iban", "string"))


# --------------------------------------------------------------------------- #
# Service dry-run
# --------------------------------------------------------------------------- #
class TestServiceDryRun:
    def test_dry_run_reports_schema_and_verdict(self):
        from repro.service.app import QueryService

        with make_db() as db, QueryService(db) as service:
            status, _, body = service.handle(
                "POST",
                "/query",
                json.dumps({"statement": EMPTY_QUERY, "dry_run": True}).encode(),
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["dry_run"] is True
            assert payload["statically_empty"] is True
            assert payload["schema"] == [["x.iban", "string"], ["y.iban", "string"]]
            assert [d["code"] for d in payload["diagnostics"]] == ["A009", "A008"]
            assert all(d["severity"] == "warning" for d in payload["diagnostics"])

    def test_dry_run_never_executes(self):
        from repro.service.app import QueryService

        with make_db() as db, QueryService(db) as service:
            status, _, body = service.handle(
                "POST",
                "/query",
                json.dumps(
                    {"statement": SATISFIABLE_QUERY, "dry_run": True}
                ).encode(),
            )
            assert status == 200
            payload = json.loads(body)
            assert "rows" not in payload
            assert payload["parameters"] == {}

    def test_dry_run_rejects_bad_statements(self):
        from repro.service.app import QueryService

        bad = "SELECT * FROM GRAPH_TABLE ( Nope MATCH (x) COLUMNS (x.iban) )"
        with make_db() as db, QueryService(db) as service:
            status, _, body = service.handle(
                "POST",
                "/query",
                json.dumps({"statement": bad, "dry_run": True}).encode(),
            )
            assert status == 400

    def test_dry_run_field_must_be_boolean(self):
        from repro.service.app import QueryService

        with make_db() as db, QueryService(db) as service:
            status, _, _ = service.handle(
                "POST",
                "/query",
                json.dumps({"statement": EMPTY_QUERY, "dry_run": "yes"}).encode(),
            )
            assert status == 400


# --------------------------------------------------------------------------- #
# Eager compact materialization (planner-only sessions)
# --------------------------------------------------------------------------- #
class TestCompactMaterialization:
    QUERY = SATISFIABLE_QUERY

    @staticmethod
    def cached_graphs(db):
        """Materialized view graphs held by the database's snapshot cache."""
        from repro.graph.property_graph import PropertyGraph

        found = []

        def walk(value, depth=0):
            if isinstance(value, PropertyGraph):
                found.append(value)
            elif isinstance(value, tuple) and depth < 4:
                for item in value:
                    walk(item, depth + 1)

        for entry in db._cache._entries.values():
            walk(entry)
        return found

    def test_a_view_encodes_once_however_it_was_built(self):
        from repro.graph.compact import CompactGraph
        from repro.graph.property_graph import PropertyGraph
        from repro.patterns.builder import edge, node, output, plus, seq
        from repro.pgq.views import graph_to_view, materialize_graph
        from repro.planner import PlanExecutor

        with make_db() as db:
            source = self.cached_or_built_graph(db)
            graph, _arity = materialize_graph(graph_to_view(source).as_tuple())
            encoded = graph.compact()
            assert isinstance(encoded, CompactGraph)
            assert graph.compact_build_count() == 1
            assert graph.compact() is encoded  # memoized, not re-encoded
            # A graph built with ``of``, run by two executors: one encode.
            built = PropertyGraph.of(
                source.nodes, {e: (source.source(e), source.target(e)) for e in source.edges}
            )
            reach = output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y")
            answers = [PlanExecutor(built).evaluate_output(reach) for _ in range(2)]
            assert answers[0] == answers[1] and built.compact_build_count() == 1

    @staticmethod
    def cached_or_built_graph(db):
        connection = db.connect(engine="naive")
        connection.execute(TestCompactMaterialization.QUERY)
        graphs = TestCompactMaterialization.cached_graphs(db)
        assert graphs
        return graphs[0]

    def test_planned_encodes_at_view_build(self):
        with make_db() as db:
            db.connect(engine="planned").execute(self.QUERY)
            graphs = self.cached_graphs(db)
            assert graphs and all(
                graph.compact_build_count() == 1 for graph in graphs
            )

    def test_naive_never_encodes(self):
        with make_db() as db:
            db.connect(engine="naive").execute(self.QUERY)
            graphs = self.cached_graphs(db)
            assert graphs and all(
                graph.compact_build_count() == 0 for graph in graphs
            )

    def test_only_the_planned_engine_overrides_view_materialization(self):
        from repro.engine.planned import PlannedEngine
        from repro.engine.sqlite import SQLiteEngine
        from repro.pgq.evaluator import PGQEvaluator

        assert PlannedEngine._materialize_view is not PGQEvaluator._materialize_view
        assert not hasattr(SQLiteEngine, "_materialize_view")


# --------------------------------------------------------------------------- #
# Randomized equivalence: pruning planner vs the naive oracle
# --------------------------------------------------------------------------- #
class TestRandomizedEquivalence:
    def test_pruned_plans_match_the_oracle(self):
        rng = random.Random(20250808)
        for round_index in range(8):
            node_count = rng.randint(2, 6)
            accounts = [(f"A{i}",) for i in range(node_count)]
            transfers = [
                (
                    f"T{j}",
                    f"A{rng.randrange(node_count)}",
                    f"A{rng.randrange(node_count)}",
                    rng.randint(1, 5),
                    rng.randint(0, 200),
                )
                for j in range(rng.randint(0, 10))
            ]
            with Database() as db:
                db.create_table("Account", ["iban"], accounts)
                db.create_table(
                    "Transfer",
                    ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
                    transfers,
                )
                db.execute(DDL)
                naive = db.connect(engine="naive")
                planned = db.connect(engine="planned")
                for _ in range(6):
                    low = rng.randint(0, 200)
                    high = rng.randint(0, 200)  # high < low => contradiction
                    query = (
                        "SELECT * FROM GRAPH_TABLE ( Transfers "
                        "MATCH (x) -[t:Transfer]-> (y) "
                        f"WHERE t.amount > {low} AND t.amount < {high} "
                        "COLUMNS (x.iban, y.iban) )"
                    )
                    expected = sorted(naive.execute(query).rows)
                    actual = sorted(planned.execute(query).rows)
                    assert actual == expected, (round_index, low, high)

    def test_unbounded_closure_equivalence(self):
        rng = random.Random(99)
        for _ in range(4):
            node_count = rng.randint(2, 5)
            accounts = [(f"A{i}",) for i in range(node_count)]
            transfers = [
                (
                    f"T{j}",
                    f"A{rng.randrange(node_count)}",
                    f"A{rng.randrange(node_count)}",
                    j,
                    rng.randint(0, 100),
                )
                for j in range(rng.randint(0, 6))
            ]
            query = (
                "SELECT * FROM GRAPH_TABLE ( Transfers "
                "MATCH (x) -[t:Transfer]->+ (y) "
                "WHERE t.amount > 150 AND t.amount < 10 "
                "COLUMNS (x.iban, y.iban) )"
            )
            with Database() as db:
                db.create_table("Account", ["iban"], accounts)
                db.create_table(
                    "Transfer",
                    ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
                    transfers,
                )
                db.execute(DDL)
                assert db.connect(engine="naive").execute(query).rows == ()
                assert db.connect(engine="planned").execute(query).rows == ()
