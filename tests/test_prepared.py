"""Two-phase prepare/execute lifecycle: parameters, plans, cursors.

Covers the prepared-statement API end to end: ``:name`` placeholders in
the SQL surface, one-plan-many-bindings on the planned engine (asserted
via ``PlanCache.info()``), native ``?`` binding on SQLite, the connection's
statement store behind ``execute(text, params=...)``, structured
``Explain`` output, and the cursor semantics of ``QueryResult``.
"""

import random
import re

import pytest

from repro import Parameter
from repro.engine import Connection, Database, Explain, QueryResult
from repro.errors import BindingError, EngineError
from repro.parameters import bind_value, require_bindings

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

CHAIN_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > :minimum
  COLUMNS (x.iban, y.iban) )"""

HOP_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]-> (y) WHERE t.amount > :minimum
  COLUMNS (x.iban, t.amount, y.iban) )"""


def make_database(seed: int = 3, transfers: int = 20) -> Database:
    rng = random.Random(seed)
    accounts = [f"A{i}" for i in range(8)]
    db = Database()
    db.create_table("Account", ["iban"], [(a,) for a in accounts])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(accounts), rng.choice(accounts), i, rng.randint(1, 500))
            for i in range(transfers)
        ],
    )
    db.execute(DDL)
    return db


def make_session(engine: str, seed: int = 3, transfers: int = 20) -> Connection:
    return make_database(seed, transfers).connect(engine=engine)


# --------------------------------------------------------------------------- #
# Parameter sentinel
# --------------------------------------------------------------------------- #
class TestParameter:
    def test_repr_and_equality(self):
        assert repr(Parameter("minimum")) == ":minimum"
        assert Parameter("a") == Parameter("a") and Parameter("a") != Parameter("b")
        assert hash(Parameter("a")) == hash(Parameter("a"))

    def test_ordered_comparison_against_unbound_slot_raises(self):
        with pytest.raises(BindingError, match="unbound"):
            100 < Parameter("minimum")

    def test_unbound_equality_raises_in_tree_walk_evaluation(self):
        # '='/'!=' against a Parameter are structural (never raise on
        # their own), so the tree-walk evaluation paths guard explicitly:
        # '!=' would otherwise match every row.
        from repro.relational import ColumnCompareConstant, ColumnEqualsConstant
        from repro.patterns.conditions import PropertyCompare

        with pytest.raises(BindingError, match="bound before"):
            ColumnCompareConstant(1, "!=", Parameter("m")).evaluate((100,))
        with pytest.raises(BindingError, match="bound before"):
            ColumnEqualsConstant(1, Parameter("m")).evaluate((100,))
        from repro.graph import PropertyGraph
        from repro.graph.identifiers import as_identifier

        node = as_identifier("n1")
        graph = PropertyGraph.of([node], properties={node: {"w": 5}})
        condition = PropertyCompare("t", "w", "!=", Parameter("m"))
        with pytest.raises(BindingError, match="bound before"):
            condition.satisfied(graph, {"t": node})

    def test_bind_value_and_require_bindings(self):
        assert bind_value(Parameter("m"), {"m": 7}) == 7
        assert bind_value(42, {}) == 42
        with pytest.raises(BindingError, match=":m"):
            bind_value(Parameter("m"), {})
        with pytest.raises(BindingError, match=":a.*:b"):
            require_bindings(["b", "a"], {})
        for value in ([1], (1,), {1}, {"a": 1}, bytearray(b"x")):
            with pytest.raises(BindingError, match=":m must be an atomic value"):
                bind_value(Parameter("m"), {"m": value})
            with pytest.raises(BindingError, match=":m must be an atomic value"):
                require_bindings(["m"], {"m": value})


# --------------------------------------------------------------------------- #
# prepare / execute across engines
# --------------------------------------------------------------------------- #
class TestPreparedLifecycle:
    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    def test_prepare_execute_matches_literal_substitution(self, engine):
        with make_session(engine) as session:
            statement = session.prepare(CHAIN_QUERY)
            assert statement.parameter_names == ("minimum",)
            for threshold in (50, 250, 450):
                prepared = statement.execute(minimum=threshold)
                literal = session.execute(CHAIN_QUERY.replace(":minimum", str(threshold)))
                assert prepared.equals_unordered(literal), threshold
            assert statement.executions == 3

    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    @pytest.mark.parametrize(
        "condition, literal, value",
        [
            ("t.amount > {}", "-1", -1),
            ("t.amount = {}", "-1", -1),
            ("t.amount >= {}", "1e20", 1e20),
            ("t.amount < {}", "2.5E-3", 2.5e-3),
            ("x.iban = {}", "'O''Brien'", "O'Brien"),
        ],
    )
    def test_literal_matches_the_bound_value(self, engine, condition, literal, value):
        # A negative number, an exponent and a doubled quote are literals:
        # each answers what the same value bound to a slot answers.
        db = Database()
        db.create_table("Account", ["iban"], [("A0",), ("O'Brien",), ("A2",)])
        db.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [
                ("T0", "A0", "O'Brien", 0, -3.0),
                ("T1", "O'Brien", "A2", 1, -1.0),
                ("T2", "A2", "A0", 2, 0.0),
                ("T3", "A0", "A2", 3, 2e20),
                ("T4", "A2", "O'Brien", 4, 0.002),
            ],
        )
        db.execute(DDL)
        query = """SELECT * FROM GRAPH_TABLE ( Transfers
          MATCH (x) -[t:Transfer]-> (y) WHERE {}
          COLUMNS (t.ts) )""".format(condition)
        with db.connect(engine=engine) as session:
            bound = session.execute(query.format(":v"), params={"v": value})
            written = session.execute(query.format(literal))
        assert 0 < len(bound.rows) < 5
        assert sorted(written.rows) == sorted(bound.rows)

    def test_one_plan_compilation_serves_two_bindings(self):
        # The acceptance criterion: two bindings of one prepared statement
        # compile exactly one plan — the second execution is a cache hit
        # on the parameterized shape.
        with make_session("planned") as session:
            statement = session.prepare(CHAIN_QUERY)
            statement.execute(minimum=100)
            statement.execute(minimum=400)
            info = session._get_engine().plan_cache.info()
            assert info["prepared_misses"] == 1
            assert info["prepared_hits"] == 1
            assert info["misses"] == 1 and info["hits"] == 1

    def test_distinct_literals_miss_the_cache_but_bindings_hit(self):
        # The motivating contrast: per-call literal substitution re-plans
        # on every distinct literal, the prepared form never does.
        with make_session("planned") as session:
            for threshold in (10, 20, 30):
                session.execute(CHAIN_QUERY.replace(":minimum", str(threshold)))
            literal_misses = session._get_engine().plan_cache.info()["misses"]
            assert literal_misses == 3
            statement = session.prepare(CHAIN_QUERY)
            for threshold in (10, 20, 30):
                statement.execute(minimum=threshold)
            info = session._get_engine().plan_cache.info()
            assert info["misses"] == literal_misses + 1  # one parameterized shape
            assert info["prepared_hits"] == 2

    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    def test_missing_binding_raises_binding_error(self, engine):
        with make_session(engine) as session:
            statement = session.prepare(CHAIN_QUERY)
            with pytest.raises(BindingError, match=":minimum"):
                statement.execute()

    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    @pytest.mark.parametrize("operator", [">", "="])
    def test_non_atomic_binding_raises_binding_error(self, engine, operator):
        # Bound values are domain elements, so a list is refused up front,
        # with one error on every engine that names the slot.
        query = HOP_QUERY.replace("> :minimum", f"{operator} :m")
        with make_session(engine) as session:
            with pytest.raises(BindingError, match=r":m must be an atomic value, got \[250\]"):
                session.execute(query, params={"m": [250]})

    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    def test_extra_bindings_are_rejected(self, engine):
        with make_session(engine) as session:
            statement = session.prepare(CHAIN_QUERY)
            with pytest.raises(BindingError, match=r"unknown parameters :unrelated"):
                statement.execute(minimum=100, unrelated="x")

    def test_binding_error_lists_missing_and_unknown_at_once(self):
        with make_session("planned") as session:
            statement = session.prepare(CHAIN_QUERY)
            with pytest.raises(
                BindingError,
                match=r"missing bindings for parameters :minimum; "
                r"unknown parameters :typo \(declared: :minimum\)",
            ):
                statement.execute(typo=100)

    def test_params_mapping_and_keywords_merge_with_keyword_precedence(self):
        with make_session("planned") as session:
            statement = session.prepare(CHAIN_QUERY)
            merged = statement.execute({"minimum": 500}, minimum=100)
            keyword_only = statement.execute(minimum=100)
            assert merged.equals_unordered(keyword_only)

    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    def test_slot_named_params_binds_by_keyword(self, engine):
        # The mapping argument of execute() is positional-only, so a slot
        # literally named "params" (or "bindings") is an ordinary keyword.
        query = CHAIN_QUERY.replace(":minimum", ":params")
        with make_session(engine) as session:
            statement = session.prepare(query)
            assert statement.parameter_names == ("params",)
            via_keyword = statement.execute(params=100)
            via_mapping = statement.execute({"params": 100})
            assert via_keyword.equals_unordered(via_mapping)

    def test_prepare_rejects_ddl(self):
        session = Database().connect()
        with pytest.raises(EngineError, match="prepare"):
            session.prepare(DDL)

    def test_prepared_statement_survives_data_changes(self):
        db = make_database()
        with db.connect(engine="planned") as session:
            statement = session.prepare(CHAIN_QUERY)
            before = statement.execute(minimum=100)
            db.create_table("Audit", ["entry"], [("e1",)])
            session.execute(DDL)  # moves the connection to the head: engine rebuilt
            after = statement.execute(minimum=100)
            assert before.equals_unordered(after)

    def test_prepared_statement_survives_engine_switch(self):
        with make_session("naive") as session:
            statement = session.prepare(CHAIN_QUERY)
            naive_rows = statement.execute(minimum=100)
            session.use_engine("sqlite")
            sqlite_rows = statement.execute(minimum=100)
            assert naive_rows.equals_unordered(sqlite_rows)

    def test_constant_relation_slots_are_detected_and_bound(self):
        # A Parameter inside an inline constant relation must be seen by
        # query_parameters (so executing unbound raises) and replaced by
        # bind_query — never compared structurally against data values.
        from repro.pgq.queries import ConstantRelation, bind_query, query_parameters
        from repro.relational.database import Database
        from repro.engine import NaiveEngine

        query = ConstantRelation(((Parameter("v"), "tag"),), 2)
        assert query_parameters(query) == frozenset({"v"})
        bound = bind_query(query, {"v": 7})
        assert bound.rows == ((7, "tag"),)
        engine = NaiveEngine(Database.from_dict({"R": [(1,)]}, arities={"R": 1}))
        with pytest.raises(BindingError, match=":v"):
            engine.evaluate(query)
        assert engine.evaluate(query, bindings={"v": 7}).rows == {(7, "tag")}

    def test_unbound_programmatic_evaluation_raises(self):
        from repro.patterns.builder import edge, node, output, prop_cmp, seq, where
        from repro.pgq import graph_pattern_on_relations
        from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi
        from repro.engine import NaiveEngine

        query = graph_pattern_on_relations(
            output(
                seq(node("x"), where(edge("t"), prop_cmp("t", "w", ">", Parameter("m"))), node("y")),
                "x", "y",
            ),
            GRAPH_VIEW_SCHEMA,
        )
        engine = NaiveEngine(erdos_renyi(4, 0.5, seed=1, property_key="w"))
        with pytest.raises(BindingError, match=":m"):
            engine.evaluate(query)
        bound = engine.evaluate(query, bindings={"m": 50})
        assert bound.rows == engine.prepare(query).execute(m=50).rows


# --------------------------------------------------------------------------- #
# SQLite native binding
# --------------------------------------------------------------------------- #
class TestSQLitePrepared:
    def test_top_level_parameter_compiles_to_native_placeholder(self):
        from repro.engine.sqlite import _SQLiteCompiledQuery

        with make_session("sqlite") as session:
            statement = session.prepare(HOP_QUERY)
            compiled = statement._compiled
            assert type(compiled) is _SQLiteCompiledQuery
            # One numbered placeholder (an ordered comparison's type guard
            # reads it three times, the comparison once); the slot's name
            # never reaches SQL.
            assert compiled.sql.count("?") == compiled.sql.count("?1") == 4
            assert "minimum" not in compiled.sql
            with make_session("naive") as oracle:
                expected = oracle.execute(HOP_QUERY, {"minimum": 250})
            assert statement.execute(minimum=250).equals_unordered(expected)

    def test_repetition_body_parameter_streams_off_one_statement(self):
        # The slot sits inside the repetition body.  The pair relation is
        # part of the statement text (a materialized CTE), so nothing is
        # built ahead of the execution and the result streams ...
        from repro.engine.sqlite import _SQLiteCompiledQuery

        with make_session("sqlite", transfers=40) as session, \
                make_session("naive", transfers=40) as oracle:
            statement = session.prepare(CHAIN_QUERY)
            assert type(statement._compiled) is _SQLiteCompiledQuery
            assert "AS MATERIALIZED" in statement._compiled.sql
            result = statement.execute(minimum=100)
            assert result.streamed is True
            expected = oracle.execute(CHAIN_QUERY, {"minimum": 100})
            assert len(expected) > 0
            assert result.fetchone() == expected.fetchone()
            assert result.equals_unordered(expected)
            # ... and two cursors opened under different bindings before
            # either is read do not see each other's pair relation.
            low, high = statement.execute(minimum=50), statement.execute(minimum=300)
            assert low.streamed and high.streamed
            for minimum, pending in ((300, high), (50, low)):
                expected = oracle.execute(CHAIN_QUERY, {"minimum": minimum})
                assert set(pending) == set(expected.rows), minimum
            assert len(low) > len(high) > 0

    @pytest.mark.parametrize(
        "names",
        [("m", "m", "m"), ("a", "b", "a"), ("a b", "1x;--", "a b")],
        ids=["one-slot-thrice", "two-slots", "odd-names"],
    )
    @pytest.mark.parametrize("bounds", [(1,), (2, 4), (2,)], ids=["+", "{2,4}", "{2,}"])
    def test_slots_anywhere_agree_with_the_oracle(self, names, bounds):
        # A top-level filter, a repetition body and a nested repetition,
        # each carrying a slot: placeholders are numbered per slot *name*,
        # so recurrence, nesting and hostile names need no ordering rule.
        from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi
        from repro.engine import NaiveEngine, SQLiteEngine
        from repro.engine.sqlite import _SQLiteCompiledQuery
        from repro.patterns.builder import edge, node, output, prop_cmp, repeat, seq, where
        from repro.pgq import graph_pattern_on_relations

        def hop(variable, slot):
            return where(edge(variable), prop_cmp(variable, "w", ">", Parameter(slot)))

        top, body, nested = names
        pattern = seq(
            node("x"), hop("t", top), node(),
            repeat(seq(hop("u", body), node()), *bounds),
            repeat(repeat(seq(hop("v", nested), node()), 1), 0, 2),
            node("y"),
        )
        query = graph_pattern_on_relations(output(pattern, "x", "y"), GRAPH_VIEW_SCHEMA)
        database = erdos_renyi(7, 0.45, seed=11, property_key="w")
        with SQLiteEngine(database) as engine:
            compiled = engine.prepare(query)
            assert type(compiled) is _SQLiteCompiledQuery  # not the oracle with itself
            assert "1x;--" not in compiled.sql and "a b" not in compiled.sql
            oracle = NaiveEngine(database).prepare(query)
            sizes = []
            for low, high in ((0, 0), (20, 35), (70, 10)):
                bindings = {top: low, body: high, nested: low}
                expected = oracle.execute(bindings).rows
                assert compiled.execute(bindings).rows == expected, bindings
                sizes.append(len(expected))
            assert sizes[0] > 0

    def test_reach_statement_plan_materializes_pairs_once_and_probes_by_index(self):
        # The shape of the benchmark's reach_sqlite statement: SQLite must
        # build the pair relation once per execution and walk it through
        # an index in the recursive step, never by scanning it; the view was
        # checked when it was built, so no row probes the node table.  The
        # root statement runs only the match: it selects the endpoints'
        # element ids off the closure, with no property or id join — the
        # decoder spells the values — and no DISTINCT: the closure's pairs
        # are a set already.
        with make_session("sqlite") as session:
            engine = session._get_engine()
            sql = engine.compile_to_sql(session.compile(CHAIN_QUERY))
            plan = [row[3] for row in engine.connection.execute(f"EXPLAIN QUERY PLAN {sql}", (100,))]
            materialized = [line for line in plan if line.startswith("MATERIALIZE pair")]
            assert len(materialized) == 1, plan
            step = plan[plan.index("RECURSIVE STEP"):]
            assert "SEARCH pair USING AUTOMATIC COVERING INDEX (src=?)" in step, plan
            assert not any(line.startswith("SCAN pair") for line in step), plan
            assert not any(line.startswith("SEARCH n USING") for line in plan), plan
            assert re.search(r"\) SELECT (q\d+)\.v_x, \1\.v_y FROM \1$", sql), sql
            assert "out_prop" not in sql and "out_id" not in sql, sql
            assert "USE TEMP B-TREE FOR DISTINCT" not in step and plan[-1] == "SCAN reach0", plan

    @pytest.mark.parametrize(
        "match",
        [
            "(x) -[t:Transfer]->+ (y) WHERE t.amount > :minimum COLUMNS (x.iban)",
            "(x) -[t:Transfer]-> () -[u:Transfer]-> (y) WHERE t.amount > :minimum"
            " COLUMNS (x.iban, y.iban)",
        ],
        ids=["one-end-of-a-closure", "two-hop-ends"],
    )
    def test_root_statement_deduplicates_ids_that_can_repeat(self, match):
        # Ids that bindings repeat are deduplicated in SQL, so the decoder
        # receives distinct ids only — and the same rows as the oracle.
        text = f"SELECT * FROM GRAPH_TABLE ( Transfers MATCH {match} )"
        with make_session("sqlite", transfers=60) as session, make_session(
            "naive", transfers=60
        ) as oracle:
            sql = session._get_engine().compile_to_sql(session.compile(text))
            assert re.search(r"\) SELECT DISTINCT (q\d+)\.v_x\b[^)]* FROM \1$", sql), sql
            assert "out_prop" not in sql, sql
            expected = oracle.execute(text, params={"minimum": 0})
            assert repr(session.execute(text, params={"minimum": 0}).rows) == repr(expected.rows)

    def test_bare_variables_decode_and_zero_length_paths_read_the_encoded_nodes(self):
        # COLUMNS (x, y) decodes integer element ids — through the encoding
        # at the root, through the id table when the pattern is nested under
        # a relational operator; ->* seeds its closure from the encoded node
        # table (every account reaches itself), whatever the binding filters
        # away.
        from repro.pgq import Project

        text = CHAIN_QUERY.replace("->+", "->*").replace("x.iban, y.iban", "x, y")
        with make_session("sqlite") as session, make_session("naive") as oracle:
            statement = session.prepare(text)
            engine = session._get_engine()
            nested = Project(session.compile(text), (2, 1))
            for minimum in (0, 250, 10**6):
                expected = oracle.execute(text, params={"minimum": minimum})
                result = statement.execute(minimum=minimum)
                assert result.streamed
                assert result.equals_unordered(expected), minimum
                assert {("A0", "A0"), ("A7", "A7")} <= set(expected.rows)
                swapped = {(y, x) for x, y in expected.rows}
                assert set(engine.evaluate(nested, {"minimum": minimum}).rows) == swapped
            assert engine.compile_to_sql(nested).count("_ids AS out_id") == 2
            assert "out_id" not in engine.compile_to_sql(session.compile(text))

    def test_feature_floor_is_checked_at_start_up(self, monkeypatch):
        # AS MATERIALIZED needs SQLite 3.35: an older library is refused
        # where the backing connection is created, by name, instead of
        # failing with a syntax error inside the first ->+.
        import sqlite3

        from repro.engine import SQLiteEngine

        monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 34, 1))
        with make_database() as db:
            with pytest.raises(EngineError, match=r"SQLite >= 3\.35 .*found 3\.34\.1"):
                SQLiteEngine(db.snapshot().database).connection
            with db.connect(engine="sqlite") as session:
                with pytest.raises(EngineError, match="found 3.34.1"):
                    session.execute(HOP_QUERY, {"minimum": 0})

    def test_prepared_survives_engine_close_by_recompiling(self):
        with make_session("sqlite") as session:
            statement = session.prepare(HOP_QUERY)
            before = statement.execute(minimum=250)
            session._get_engine().close()  # drops the connection + temp tables
            after = statement.execute(minimum=250)
            assert before.equals_unordered(after)

    def test_string_parameters_bind_without_quoting_issues(self):
        with make_session("sqlite") as session:
            statement = session.prepare(
                """SELECT * FROM GRAPH_TABLE ( Transfers
                  MATCH (x) -[t:Transfer]-> (y) WHERE x.iban = :source
                  COLUMNS (x.iban, y.iban) )"""
            )
            hostile = "A'; DROP TABLE Account; --"
            assert len(statement.execute(source=hostile)) == 0
            with make_session("naive") as oracle:
                expected = oracle.prepare(statement.text).execute(source="A1")
            assert statement.execute(source="A1").equals_unordered(expected)

    def test_nested_repetition_with_parameterized_inner_body(self):
        # The inner repetition's pair relation carries the slot and the
        # outer body contains it: both are CTEs of the one statement.
        from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi
        from repro.engine import NaiveEngine, SQLiteEngine
        from repro.patterns.builder import edge, node, output, prop_cmp, repeat, seq, where
        from repro.pgq import graph_pattern_on_relations

        inner = seq(where(edge("t"), prop_cmp("t", "w", ">", Parameter("m"))), node())
        pattern = seq(node("x"), repeat(repeat(inner, 1), 1, 2), node("y"))
        query = graph_pattern_on_relations(output(pattern, "x", "y"), GRAPH_VIEW_SCHEMA)
        database = erdos_renyi(6, 0.4, seed=9, property_key="w")
        sqlite_engine = SQLiteEngine(database)
        compiled = sqlite_engine.prepare(query)
        oracle = NaiveEngine(database)
        for threshold in (10, 60):
            assert (
                compiled.execute(m=threshold).rows
                == oracle.prepare(query).execute(m=threshold).rows
            ), threshold
        sqlite_engine.close()

    def test_prepared_statements_share_one_set_of_view_tables(self):
        # Many distinct prepared statements over one graph view must not
        # duplicate the seven view temp tables per statement.
        with make_session("sqlite") as session:
            first = session.prepare(HOP_QUERY)
            first.execute(minimum=100)
            connection = session._get_engine()._connection

            def view_table_count():
                return connection.execute(
                    "SELECT COUNT(*) FROM sqlite_temp_master "
                    "WHERE type = 'table' AND name LIKE '__view%'"
                ).fetchone()[0]

            baseline = view_table_count()
            for offset in range(5):
                statement = session.prepare(
                    HOP_QUERY.replace(":minimum", f":m{offset}")
                )
                statement.execute(**{f"m{offset}": 100 + offset})
            assert view_table_count() == baseline

    def test_superseded_view_tables_evicted_once_unreferenced(self):
        # Repeated graph redefinitions produce distinct view-source keys;
        # once the statements compiled against an old definition are
        # recompiled (releasing it), its shared view tables must be
        # evicted past the cap instead of living until engine close.
        with make_session("sqlite") as session:
            for i in range(12):
                session.execute(DDL.replace("LABELS Transfer", f"LABELS Transfer, L{i}"))
                session.execute(HOP_QUERY, params={"minimum": 100})
            engine = session._get_engine()
            assert len(engine._shared_view_tables) <= engine._SHARED_VIEW_TABLES_MAX
            (tables,) = engine.connection.execute(
                "SELECT COUNT(*) FROM sqlite_temp_master WHERE type = 'table'"
            ).fetchone()
            assert tables == 7 * len(engine._shared_view_tables)

    def test_recompile_after_ddl_drops_stale_temp_tables(self):
        # A DDL generation bump keeps the engine (and connection) alive;
        # each recompile must release the previous compiled form's
        # persisted temp tables instead of orphaning them.
        with make_session("sqlite") as session:
            statement = session.prepare(HOP_QUERY)
            statement.execute(minimum=100)
            connection = session._get_engine()._connection

            def temp_table_count():
                return connection.execute(
                    "SELECT COUNT(*) FROM sqlite_temp_master WHERE type = 'table'"
                ).fetchone()[0]

            baseline = temp_table_count()
            for _ in range(3):
                session.execute(DDL)  # re-create the graph: generation bump
                statement.execute(minimum=100)
            assert temp_table_count() == baseline

    def test_bounded_sessions_fall_back_with_identical_errors(self):
        from repro.errors import PatternError

        session = make_session("sqlite")
        session.use_engine("sqlite", max_repetitions=0)
        statement = session.prepare(
            """SELECT * FROM GRAPH_TABLE ( Transfers
              MATCH (x) -[t:Transfer]->{1,1} (y) COLUMNS (x.iban, y.iban) )"""
        )
        with pytest.raises(PatternError, match="max_repetitions=0"):
            statement.execute()


# --------------------------------------------------------------------------- #
# Session sugar: execute(text, params) over the statement LRU
# --------------------------------------------------------------------------- #
class TestSessionSugar:
    def test_repeated_text_hits_the_statement_cache(self):
        with make_session("planned") as session:
            first = session.execute(CHAIN_QUERY, params={"minimum": 100})
            second = session.execute(CHAIN_QUERY, params={"minimum": 400})
            assert session._statement_misses == 1
            assert session._statement_hits == 1
            assert not first.equals_unordered(second) or len(first) == len(second)
            info = session._get_engine().plan_cache.info()
            assert info["prepared_misses"] == 1 and info["prepared_hits"] == 1

    def test_ddl_with_params_is_rejected(self):
        db = Database()
        db.create_table("Account", ["iban"], [("A1",)])
        db.create_table(
            "Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], []
        )
        with pytest.raises(EngineError, match="no parameters"):
            db.connect().execute(DDL, params={"x": 1})

    def test_explain_reports_binding_reuse(self):
        with make_session("planned") as session:
            statement = session.prepare(CHAIN_QUERY)
            statement.execute(minimum=100)
            statement.execute(minimum=200)
            statement.execute(minimum=300)
            explain = session.explain(CHAIN_QUERY)
            assert isinstance(explain, Explain)
            assert explain.prepared["executions"] == 3
            assert explain.prepared["binding_reuse"] == 2
            text = str(explain)
            assert "binding_reuse=2" in text and "prepared_hits=" in text
            per_statement = statement.explain()
            assert per_statement.prepared["statement_executions"] == 3

    def test_statement_count_stable_across_lru_eviction_reload(self):
        # An evicted text that is executed again re-counts as an LRU miss
        # but must not inflate the distinct-statement figure.
        with make_session("planned") as session:
            session._STATEMENT_CACHE_SIZE = 2
            texts = [CHAIN_QUERY.replace(":minimum", str(t)) for t in (1, 2, 3)]
            for text in texts:
                session.execute(text)
            session.execute(texts[0])  # evicted by texts[2]; reloaded here
            assert session._statement_misses == 4
            assert session.explain(CHAIN_QUERY).prepared["statements"] == 3

    def test_binding_reuse_counts_per_statement_not_by_subtraction(self):
        # Two prepared statements, only one executed: reuse must reflect
        # the executed statement's repeat executions (2), not the global
        # executions-minus-statements difference (which would report 1).
        with make_session("planned") as session:
            active = session.prepare(CHAIN_QUERY)
            session.prepare(HOP_QUERY)  # prepared, never executed
            for threshold in (100, 200, 300):
                active.execute(minimum=threshold)
            prepared = session.explain(CHAIN_QUERY).prepared
            assert prepared["statements"] == 2
            assert prepared["executions"] == 3
            assert prepared["binding_reuse"] == 2

    def test_explain_is_structured_and_substring_testable(self):
        with make_session("planned") as session:
            session.execute(CHAIN_QUERY, params={"minimum": 100})
            explain = session.explain(CHAIN_QUERY)
            assert "SemiNaiveFixpoint" in explain.plan
            assert "compact_encode_s" in explain.counters
            assert "prepared_hits" in explain.cache
            assert "plan cache:" in explain  # __contains__ on the rendering


# --------------------------------------------------------------------------- #
# QueryResult cursor semantics
# --------------------------------------------------------------------------- #
class TestQueryResultCursor:
    def test_fetch_family_consumes_forward(self):
        result = QueryResult(("n",), iter([(i,) for i in range(10)]))
        assert result.fetchone() == (0,)
        assert result.fetchmany(3) == [(1,), (2,), (3,)]
        assert result.fetchall() == [(i,) for i in range(4, 10)]
        assert result.fetchone() is None
        assert result.fetchmany(5) == []

    def test_rows_materialize_without_moving_the_cursor(self):
        result = QueryResult(("n",), iter([(i,) for i in range(5)]))
        assert result.fetchmany(2) == [(0,), (1,)]
        assert result.rows == tuple((i,) for i in range(5))
        assert result.fetchall() == [(2,), (3,), (4,)]

    def test_rows_tuple_is_cached_across_accesses(self):
        result = QueryResult(("n",), iter([(i,) for i in range(5)]))
        assert result.rows is result.rows  # one materialized tuple, reused

    def test_iteration_is_lazy_and_repeatable(self):
        pulled = []

        def source():
            for i in range(4):
                pulled.append(i)
                yield (i,)

        result = QueryResult(("n",), source())
        iterator = iter(result)
        assert next(iterator) == (0,)
        assert pulled == [0]  # nothing beyond the consumed prefix
        assert list(result) == [(i,) for i in range(4)]
        assert list(result) == [(i,) for i in range(4)]  # repeatable

    def test_to_dicts_zips_columns(self):
        result = QueryResult(("a", "b"), (("x", 1), ("y", 2)))
        assert result.to_dicts() == [{"a": "x", "b": 1}, {"a": "y", "b": 2}]

    def test_session_results_are_lazily_ordered(self):
        with make_session("planned") as session:
            result = session.execute(CHAIN_QUERY, params={"minimum": 0})
            first = result.fetchone()
            assert first is not None
            assert result.rows[0] == first  # deterministic order preserved
            assert result.rows == tuple(sorted(result.rows, key=repr))
