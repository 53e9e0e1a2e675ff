"""Tests for the Database/Connection facade and the SQLite-backed engine."""

import re

import pytest

from repro.datasets import (
    GRAPH_VIEW_SCHEMA,
    SocialNetworkConfig,
    chain,
    erdos_renyi,
    generate_social_database,
)
from repro import Parameter
from repro.engine import Database, SQLiteEngine
from repro.errors import EngineError
from repro.patterns.builder import (
    back_edge,
    edge,
    either,
    label,
    node,
    output,
    plus,
    prop,
    prop_cmp,
    seq,
    star,
    where,
)
from repro.pgq import (
    BaseRelation,
    Difference,
    PGQEvaluator,
    Project,
    Select,
    Union,
    graph_pattern_on_relations,
)
from repro.relational import (
    And,
    ColumnCompare,
    ColumnCompareConstant,
    ColumnEquals,
    ColumnEqualsConstant,
    Not,
    Or,
    TrueCondition,
)

VIEW = GRAPH_VIEW_SCHEMA

BANK_DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

BANK_QUERY = """
SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  COLUMNS (x.iban, y.iban) )
"""


TRANSFER_COLUMNS = ["t_id", "src_iban", "tgt_iban", "ts", "amount"]


def make_bank_db(**options) -> Database:
    db = Database(**options)
    db.create_table("Account", ["iban"], [("A1",), ("A2",), ("A3",), ("A4",)])
    db.create_table(
        "Transfer",
        TRANSFER_COLUMNS,
        [
            ("T1", "A1", "A2", 1, 250),
            ("T2", "A2", "A3", 2, 500),
            ("T3", "A3", "A4", 3, 50),
            ("T4", "A4", "A1", 4, 700),
        ],
    )
    db.execute(BANK_DDL)
    return db


# --------------------------------------------------------------------------- #
# Connection
# --------------------------------------------------------------------------- #
class TestConnection:
    def test_end_to_end_bank_example(self):
        session = make_bank_db().connect()
        result = session.execute(BANK_QUERY)
        assert result.columns == ("x.iban", "y.iban")
        assert ("A1", "A3") in result.to_set()
        assert ("A3", "A4") not in result.to_set()  # amount 50 filtered out

    def test_ddl_result_and_graph_names(self):
        session = make_bank_db().connect()
        assert session.graph_names() == ("Transfers",)
        definition = session.graph_definition("Transfers")
        assert definition.identifier_arity == 1

    def test_compile_returns_pgq_query(self):
        session = make_bank_db().connect()
        query = session.compile(BANK_QUERY)
        relation = session.evaluate(query)
        assert relation.arity == 2

    def test_compile_rejects_ddl(self):
        session = make_bank_db().connect()
        with pytest.raises(EngineError):
            session.compile(BANK_DDL)

    def test_register_database_requires_columns(self):
        db = chain(2)
        with pytest.raises(EngineError):
            Database().register_database(db, {"N": ["node_id"]})

    def test_social_workload_through_connection(self):
        database = generate_social_database(SocialNetworkConfig(people=12, posts=10, seed=4))
        catalog = Database()
        catalog.register_database(
            database,
            {
                "Person": ["person_id", "name", "city"],
                "Post": ["post_id", "author_id", "length"],
                "Knows": ["knows_id", "src_id", "tgt_id", "since"],
                "Likes": ["likes_id", "person_id", "post_id"],
            },
        )
        catalog.execute(
            """
            CREATE PROPERTY GRAPH SocialGraph (
              NODES TABLE Person KEY (person_id) LABEL Person,
              EDGES TABLE Knows KEY (knows_id)
                SOURCE KEY src_id REFERENCES Person
                TARGET KEY tgt_id REFERENCES Person
                LABEL Knows )
            """
        )
        result = catalog.connect().execute(
            """
            SELECT * FROM GRAPH_TABLE ( SocialGraph
              MATCH (a) -[k:Knows]->* (b)
              COLUMNS (a.name, b.name) )
            """
        )
        assert len(result) > 0

    def test_output_column_bound_in_quantifier_rejected(self):
        from repro.errors import QueryError

        session = make_bank_db().connect()
        with pytest.raises(QueryError):
            session.execute(
                "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]->+ (y) "
                "COLUMNS (t.amount) )"
            )


# --------------------------------------------------------------------------- #
# Engine-scoped view materialization cache
# --------------------------------------------------------------------------- #
class TestViewCache:
    def make_query(self):
        return graph_pattern_on_relations(
            output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )

    def test_repeated_queries_reuse_materialized_views(self, materialized_views):
        from repro.engine import PlannedEngine

        engine = PlannedEngine(erdos_renyi(8, 0.3, seed=6))
        query = self.make_query()
        first = engine.evaluate(query)
        second = engine.evaluate(query)
        assert first.rows == second.rows
        assert len(materialized_views()) == 1

    def test_view_cache_shared_across_different_patterns_on_same_view(self, materialized_views):
        from repro.engine import PlannedEngine

        engine = PlannedEngine(erdos_renyi(8, 0.3, seed=6))
        engine.evaluate(self.make_query())
        engine.evaluate(
            graph_pattern_on_relations(
                output(seq(node("x"), edge(), node("y")), "x", "y"), VIEW
            )
        )
        assert len(materialized_views()) == 1

    def test_naive_oracle_also_reuses_views(self, materialized_views):
        from repro.engine import NaiveEngine

        engine = NaiveEngine(erdos_renyi(6, 0.3, seed=2))
        query = self.make_query()
        engine.evaluate(query)
        engine.evaluate(query)
        assert len(materialized_views()) == 1

    def test_replacing_a_table_invalidates_cached_views(self):
        # The data visible through the view changes; a connection moved to
        # the new version must not serve results computed against the
        # stale materialization.
        db = make_bank_db()
        session = db.connect(engine="planned")
        before = session.execute(BANK_QUERY)
        assert ("A3", "A1") not in before.to_set()  # A3->A4 leg is only 50
        db.create_table(
            "Transfer",
            TRANSFER_COLUMNS,
            [
                ("T1", "A1", "A2", 1, 250),
                ("T2", "A2", "A3", 2, 500),
                ("T3", "A3", "A4", 3, 950),  # now above the threshold
                ("T4", "A4", "A1", 4, 700),
            ],
        )
        assert ("A3", "A1") in db.connect(engine="planned").execute(BANK_QUERY).to_set()
        session.execute(BANK_DDL)  # this connection's own DDL moves it to the head
        assert ("A3", "A1") in session.execute(BANK_QUERY).to_set()

    def test_drop_graph_leaves_pinned_connections_untouched(self):
        db = make_bank_db()
        pinned = db.connect()
        db.drop_graph("Transfers")
        assert len(pinned.execute(BANK_QUERY)) > 0
        assert "Transfers" not in db.connect().graph_names()


# --------------------------------------------------------------------------- #
# Broken-graph DDL replay (satellite)
# --------------------------------------------------------------------------- #
class TestBrokenGraphReplay:
    def _broken_db(self) -> Database:
        db = make_bank_db()
        # Re-creating Transfer without the key columns breaks the
        # Transfers definition on catalog replay.
        db.create_table("Transfer", ["t_id"], [("T1",)])
        return db

    def test_referencing_broken_graph_raises_documented_error(self):
        session = self._broken_db().connect()
        with pytest.raises(EngineError, match="no longer valid after a schema change"):
            session.execute(BANK_QUERY)
        with pytest.raises(EngineError, match="drop_graph"):
            session.graph_definition("Transfers")

    def test_drop_graph_on_broken_graph_succeeds_end_to_end(self):
        db = self._broken_db()
        assert "Transfers" in db.connect().graph_names()
        assert db.drop_graph("Transfers")  # must not raise
        session = db.connect()
        assert "Transfers" not in session.graph_names()
        # After the drop the graph is simply unknown, not "broken".
        with pytest.raises(Exception) as excinfo:
            session.execute(BANK_QUERY)
        assert "no longer valid" not in str(excinfo.value)

    @pytest.mark.parametrize("engine_name", ["naive", "planned", "sqlite"])
    def test_drop_table_breaks_the_graph_for_new_connections_only(self, engine_name):
        db = make_bank_db()
        with db.connect(engine=engine_name) as pinned:
            assert db.drop_table("Transfer") is True
            assert db.drop_table("Transfer") is False
            assert len(pinned.execute(BANK_QUERY)) > 0  # its snapshot still has the table
            with db.connect(engine=engine_name) as session:
                with pytest.raises(EngineError, match=r"drop_graph\('Transfers'\)"):
                    session.execute(BANK_QUERY)
        assert db.drop_graph("Transfers")
        with db.connect(engine=engine_name) as session:
            assert "Transfers" not in session.graph_names()

    def test_recreating_the_graph_after_drop_works(self):
        db = self._broken_db()
        db.drop_graph("Transfers")
        db.create_table("Transfer", TRANSFER_COLUMNS, [("T1", "A1", "A2", 1, 250)])
        db.execute(BANK_DDL)
        result = db.connect().execute(BANK_QUERY)
        assert result.to_set() == {("A1", "A2")}


# --------------------------------------------------------------------------- #
# SQLite engine
# --------------------------------------------------------------------------- #
class TestSQLiteEngine:
    @pytest.fixture
    def graph_db(self):
        return erdos_renyi(7, 0.25, seed=9, labels=("Red", "Blue"), property_key="w")

    def queries(self):
        simple = seq(node("x"), edge("t"), node("y"))
        return [
            BaseRelation("S"),
            Project(BaseRelation("S"), (2,)),
            Union(Project(BaseRelation("S"), (2,)), Project(BaseRelation("T"), (2,))),
            Difference(BaseRelation("N"), Project(BaseRelation("S"), (2,))),
            Select(BaseRelation("P"), ColumnEqualsConstant(2, "w")),
            graph_pattern_on_relations(output(simple, "x", "y"), VIEW),
            graph_pattern_on_relations(
                output(where(simple, label("x", "Red")), "x", "y"), VIEW
            ),
            graph_pattern_on_relations(
                output(
                    seq(node("x"), where(edge("t"), prop_cmp("t", "w", ">", 50)), node("y")),
                    "x", prop("t", "w"), "y",
                ),
                VIEW,
            ),
            graph_pattern_on_relations(
                output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"), VIEW
            ),
            graph_pattern_on_relations(
                output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"), VIEW
            ),
        ]

    def test_sqlite_agrees_with_formal_evaluator(self, graph_db):
        with SQLiteEngine(graph_db) as engine:
            for query in self.queries():
                expected = PGQEvaluator(graph_db).evaluate(query)
                actual = engine.evaluate(query)
                assert actual.rows == expected.rows, query

    def test_recursive_cte_is_emitted_for_star(self, graph_db):
        query = graph_pattern_on_relations(
            output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )
        with SQLiteEngine(graph_db) as engine:
            assert "WITH RECURSIVE" in engine.compile_to_sql(query)

    def test_bank_example_on_sqlite(self):
        session = make_bank_db().connect()
        query = session.compile(BANK_QUERY)
        expected = session.evaluate(query)
        with SQLiteEngine(session.database) as engine:
            assert engine.evaluate(query).rows == expected.rows

    def test_explain_prints_the_plan_sqlite_runs(self):
        # One compiler: the optimized plan Explain names is the plan the
        # statement was lowered from — the pruned edge binding is no
        # column, and the pushed label probe runs inside the repetition's
        # materialized pair relation, once per execution: SQLite's plan
        # nests its index search under the pair's MATERIALIZE step.
        with make_bank_db().connect("sqlite") as connection:
            plan = connection.explain(BANK_QUERY).plan
            assert "EdgeScan [t (pruned); labels=Transfer; condition=" in plan
            engine = connection._get_engine()
            sql = engine.compile_to_sql(connection.compile(BANK_QUERY))
            assert re.search(r"\bv_t\b", sql) is None, sql
            assert sql.count("lab.c2 = 'Transfer'") == 1, sql
            rows = engine.connection.execute(f"EXPLAIN QUERY PLAN {sql}").fetchall()
            parents = {row[0]: row[1] for row in rows}
            steps = {row[0]: row[3] for row in rows}
            (node,) = [row[0] for row in rows if row[3].startswith("SEARCH lab ")]
            while node and not steps[node].startswith("MATERIALIZE pair"):
                node = parents[node]
            assert node, rows

    @pytest.mark.parametrize("verify", [True, False])
    def test_database_verify_plans_reaches_every_optimizer_pass(self, monkeypatch, verify):
        from repro.analysis import verifier

        rules = []
        original = verifier.verify_rewrite

        def counting(rule, *args, **kwargs):
            rules.append(rule)
            return original(rule, *args, **kwargs)

        monkeypatch.setattr(verifier, "verify_rewrite", counting)
        with make_bank_db(verify_plans=verify).connect("sqlite") as connection:
            assert ("A1", "A3") in connection.execute(BANK_QUERY).to_set()
        passes = ["push_down_filters", "prune_unsatisfiable", "prune_variables", "simplify"]
        assert rules == (passes if verify else [])

    def test_raw_sql_access(self, graph_db):
        with SQLiteEngine(graph_db) as engine:
            rows = engine.evaluate_sql('SELECT COUNT(*) FROM "N"')
            assert rows == [(7,)]

    def test_nary_identifiers_compile_to_sql(self):
        from repro.datasets import generate_transfer_chain
        from repro.separations import increasing_amount_pairs_query

        db = generate_transfer_chain(4, increasing=True)
        query = increasing_amount_pairs_query()
        expected = PGQEvaluator(db).evaluate(query)
        with SQLiteEngine(db) as engine:
            assert engine.evaluate(query).rows == expected.rows

    def test_pair_reachability_runs_on_sqls_own_linear_recursion(self):
        # Theorem 5.2's separating query — PGQext, 4-ary identifiers, an
        # 8-column pattern output — compiled, not handed to the oracle.
        from repro.engine.sqlite import _SQLiteCompiledQuery
        from repro.separations import pair_reachability_query, pair_reachability_reference

        query = pair_reachability_query()
        with Database() as db:
            db.create_table(
                "E4",
                ["u1", "u2", "v1", "v2"],
                [("a", "b", "b", "c"), ("b", "c", "c", "a"), ("c", "a", "a", "b"), ("a", "a", "b", "b")],
            )
            with db.connect("sqlite") as connection:
                engine = connection._get_engine()
                compiled = engine.prepare(query)
                assert type(compiled) is _SQLiteCompiledQuery
                assert "WITH RECURSIVE" in compiled.sql
                reach = engine.prepare(query.operand).execute()
                assert reach.arity == 8
                assert ("a", "b", "a", "b", "c", "a", "c", "a") in reach.rows
                rows = connection.evaluate(query).rows
                assert rows == pair_reachability_reference(connection.database)
                assert rows == db.connect("naive").evaluate(query).rows

    def test_max_arity_overrun_is_the_oracles_view_error(self):
        from repro.datasets import generate_transfer_chain
        from repro.errors import ViewError
        from repro.pgq import GraphPattern, iter_queries
        from repro.separations import increasing_amount_pairs_query

        db = generate_transfer_chain(4, increasing=True)
        pattern = next(
            q for q in iter_queries(increasing_amount_pairs_query()) if isinstance(q, GraphPattern)
        )
        bounded = GraphPattern(pattern.output, pattern.sources, max_arity=1)
        with pytest.raises(ViewError) as expected:
            PGQEvaluator(db).evaluate(bounded)
        with SQLiteEngine(db) as engine:
            with pytest.raises(ViewError) as raised:
                engine.evaluate(bounded)
            assert str(raised.value) == str(expected.value)

    def test_a_failed_load_leaves_no_partial_table(self, graph_db):
        # A cell SQLite cannot hold fails the load the same way every time,
        # naming the table and column or the property key — no half-filled
        # base or view table answers the second attempt.
        from repro.relational import Relation

        (element,) = min(graph_db.relation("N").rows)
        database = graph_db.with_relation("Big", Relation.unary([1, 2**70])).with_relation(
            "P", Relation(3, [(element, "w", 2**70)])
        )
        hop = graph_pattern_on_relations(output(seq(node("x"), edge(), node("y")), "x", "y"), VIEW)
        with SQLiteEngine(database) as engine:
            for _ in range(2):
                for query, where in (
                    (BaseRelation("Big"), 'column 1 of table "Big"'),
                    (hop, "node property 'w'"),
                ):
                    big = rf"cannot hold 1180591620717411303424 \({where}\)"
                    with pytest.raises(EngineError, match=big):
                        engine.evaluate(query)
            leftovers = engine.connection.execute(
                "SELECT name FROM sqlite_master UNION ALL SELECT name FROM sqlite_temp_master"
            ).fetchall()
            assert leftovers == []

    def test_sqlite_answers_and_streams_every_query(self, graph_db):
        with SQLiteEngine(graph_db) as engine:
            for query in self.queries():
                engine.evaluate(query)
                assert engine.prepare(query).execute_stream() is not None

    def test_view_sources_with_a_slot_answer_on_sql(self, graph_db):
        # The view tables are keyed on the view's source queries: a source
        # that holds a slot picks its view tables per binding.
        from repro.pgq.queries import GraphPattern

        sources = [BaseRelation(name) for name in "NESTLP"]
        sources[4] = Select(BaseRelation("L"), ColumnEqualsConstant(2, Parameter("colour")))
        query = GraphPattern(
            output(where(seq(node("x"), edge(), node("y")), label("x", "Red")), "x", "y"),
            tuple(sources),
        )
        bindings = {"colour": "Red"}
        expected = PGQEvaluator(graph_db).evaluate(query, bindings=bindings)
        with SQLiteEngine(graph_db) as engine:
            assert engine.prepare(query).execute(bindings).rows == expected.rows
            assert engine.evaluate(query, bindings).rows == expected.rows
            assert len(engine._shared_view_tables) == 1


# --------------------------------------------------------------------------- #
# SQLite compiler completeness: every node type compiles, or fails a test
# --------------------------------------------------------------------------- #
def _node_types(base):
    """Every subclass of ``base`` the package defines (all of it imported)."""
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found, stack = set(), [base]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro."):
                found.add(cls)
    return found


def _plan_types(plan):
    return {type(plan)}.union(*(_plan_types(child) for child in plan.children()))


class TestSQLiteCompilerCompleteness:
    @pytest.fixture
    def graph_db(self):
        return erdos_renyi(7, 0.25, seed=9, labels=("Red", "Blue"), property_key="w")

    HOP = seq(node("x"), edge("t"), node("y"))

    def relational(self):
        from repro.pgq import ActiveDomainQuery, Constant, ConstantRelation, EmptyRelation, Product

        S = BaseRelation("S")
        element = Project(S, (1,))
        return [
            S, Constant("e0", require_active=False), ConstantRelation((("a",),), 1),
            EmptyRelation(2), ActiveDomainQuery(), element, Select(S, TrueCondition()),
            Product(S, S), Union(S, S), Difference(S, S),
            graph_pattern_on_relations(output(self.HOP, "x", "y"), VIEW),
        ]

    def selection_conditions(self):
        equal = ColumnEquals(1, 2)
        return [
            equal, ColumnEqualsConstant(1, "a"), ColumnCompare(1, "<", 2),
            ColumnCompareConstant(1, "<", 3), And(equal, equal), Or(equal, equal), Not(equal),
            TrueCondition(),
        ]

    def pattern_conditions(self):
        from repro.patterns.conditions import (
            AndCondition, NotCondition, OrCondition, PropertyComparesProperty, PropertyEquals,
        )

        red = label("x", "Red")
        return [
            PropertyEquals("x", "w", "y", "w"), prop_cmp("t", "w", ">", 1),
            PropertyComparesProperty("x", "w", "<", "y", "w"), red, AndCondition(red, red),
            OrCondition(red, red), NotCondition(red),
        ]

    def patterns(self):
        step = seq(edge(), node())
        contradiction = prop_cmp("x", "w", ">", 5) & prop_cmp("x", "w", "<", 3)
        return [where(self.HOP, condition) for condition in self.pattern_conditions()] + [
            either(self.HOP, seq(node("x"), back_edge("t"), node("y"))),
            seq(node("x"), plus(step), node("y")),
            seq(where(node("x"), contradiction), edge("t"), node("y")),
        ]

    def test_every_node_type_compiles(self, graph_db):
        from repro.patterns.conditions import PatternCondition
        from repro.pgq.queries import Query
        from repro.planner import compile_plan
        from repro.planner.logical import LogicalPlan
        from repro.relational.conditions import Condition

        queries = self.relational()
        queries += [Select(BaseRelation("S"), c) for c in self.selection_conditions()]
        patterns = [graph_pattern_on_relations(output(p, "x", "y"), VIEW) for p in self.patterns()]
        plans = [compile_plan(q.output.pattern, {"x", "y"}, None) for q in patterns]
        assert {type(q) for q in queries} == _node_types(Query)
        assert {type(c) for c in self.selection_conditions()} == _node_types(Condition)
        assert {type(c) for c in self.pattern_conditions()} == _node_types(PatternCondition)
        assert set().union(*map(_plan_types, plans)) == _node_types(LogicalPlan)
        with SQLiteEngine(graph_db) as engine:
            for query in queries + patterns:
                assert engine.evaluate(query).rows == PGQEvaluator(graph_db).evaluate(query).rows

    def test_an_unknown_node_type_is_an_engine_error(self, graph_db):
        from repro.pgq.queries import Query

        class Unknown(Query):
            pass

        with SQLiteEngine(graph_db) as engine:
            with pytest.raises(EngineError, match="cannot compile query node Unknown"):
                engine.evaluate(Unknown())
