"""The sqlite backend's lowering (``repro.engine.sqlite_lowering``).

A statement is one flat ``WITH`` list and one final ``SELECT``, so the
paper's translations — whose queries nest hundreds of operators — run on
SQL: the lowering is checked as text, with no connection, and the engine
answers as the oracle does or raises ``EngineError``.
"""

import ast
import math
import re
import sqlite3
from pathlib import Path

import pytest

import repro.engine.sqlite_lowering as lowering
from repro.datasets import GRAPH_VIEW_SCHEMA as VIEW, alternating_chain, chain, cycle
from repro.engine import Database, NaiveEngine, SQLiteEngine
from repro.errors import EngineError
from repro.observability.tracing import trace_span
from repro.parameters import Parameter
from repro.relational import Database as RelationalDatabase, Relation
from repro.patterns.builder import edge, node, output, plus, prop_cmp, seq, where
from repro.pgq import PGQEvaluator, graph_pattern_on_relations, query_size
from repro.pgq.queries import BaseRelation, ConstantRelation, Difference, Product, Project, Union
from repro.pgq.scans import view_graph
from repro.separations import alternating_path_query_ro
from repro.translations import translate_formula, translate_query


def _pattern(pattern, *variables):
    return graph_pattern_on_relations(output(pattern, *variables), VIEW)


def _path(hops: int):
    """A fixed path of ``hops`` edges from ``x``."""
    return _pattern(seq(node("x"), *[seq(edge(), node()) for _ in range(hops)]), "x")


def _nested_plus(depth: int):
    """``->+`` nested ``depth`` deep, each body a step then the next level."""
    body = seq(edge(), node())
    for _ in range(depth):
        body = plus(seq(edge(), node(), body))
    return _pattern(seq(node("x"), body, node("y")), "x", "y")


def _back_translation(query, database):
    return translate_formula(*translate_query(query, database.schema))[0]


_REACH = _pattern(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y")
_HOP = _pattern(seq(node("x"), edge(), node("y")), "x", "y")


def _corpus():
    """``(id, query, database)``: the queries SQLite's parser stack used to
    refuse as nested subqueries, and the paths past them."""
    cases = [(f"ro-{k}", alternating_path_query_ro(k), alternating_chain(k)) for k in range(1, 9)]
    cases.append(("ro-38", alternating_path_query_ro(38), alternating_chain(38)))
    for name, query in (("hop", _HOP), ("reach", _REACH)):
        cases.append((f"roundtrip-{name}", _back_translation(query, chain(3)), chain(3)))
    cases.append(("nested-plus-8", _nested_plus(8), cycle(4)))
    cases += [(f"path-{hops}", _path(hops), cycle(5)) for hops in (16, 24)]
    return cases


CORPUS = _corpus()


class _TextCatalog:
    """A :class:`~repro.engine.sqlite_lowering.Catalog` that builds views in
    Python and names tables it never creates."""

    def __init__(self, database):
        self.database = database

    def table(self, name):
        return 1 if name == "__adom" else self.database.relation(name).arity

    def view(self, sources, max_arity):
        evaluate = PGQEvaluator(self.database).evaluate
        with trace_span("view.materialize") as span:
            graph, arity = view_graph(sources, self.database, max_arity, span, evaluate)
        return lowering.ViewTables("__view0", arity, graph.compact())


class TestLoweringAsText:
    def test_the_module_imports_no_sqlite(self):
        tree = ast.parse(Path(lowering.__file__).read_text())
        imported = {
            alias.name
            for statement in ast.walk(tree)
            if isinstance(statement, (ast.Import, ast.ImportFrom))
            for alias in statement.names
        } | {
            statement.module
            for statement in ast.walk(tree)
            if isinstance(statement, ast.ImportFrom)
        }
        assert "sqlite3" not in imported

    @pytest.mark.parametrize("query, database", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
    def test_every_statement_is_one_flat_with_list(self, monkeypatch, query, database):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the lowering opened a connection")

        monkeypatch.setattr(sqlite3, "connect", refuse)
        lowered = lowering.lower(query, _TextCatalog(database), max_repetitions=2)
        statements = [lowered.sql] + [probe for probe, _width, _depth in lowered.probes]
        for sql in statements:
            assert sql.startswith("WITH ") and len(re.findall(r"\bWITH\b", sql)) == 1, sql
            assert "FROM (SELECT" not in sql, sql
            assert re.search(r"\) SELECT [^()]*(\([^()]*\)[^()]*)*$", sql), sql

    def test_the_root_and_every_entry_are_named_and_each_name_is_read_once(self):
        lowered = lowering.lower(_path(3), _TextCatalog(cycle(5)))
        names = re.findall(r"(q\d+) AS NOT MATERIALIZED \(", lowered.sql)
        assert names == [f"q{i}" for i in range(len(names))]
        for name in names:  # no subtree is shared: each entry has one reader
            assert len(re.findall(rf"\b(?:FROM|JOIN) {name}\b", lowered.sql)) == 1, name
        assert lowered.root is not None and lowered.arity == 1

    def test_a_probe_reads_the_statement_list_up_to_its_pair_and_numbers_its_slots(self):
        # Each probe is the statement's own list up to its pair relation,
        # then its walk; its argument count is the slots that prefix
        # numbered, ?1 to ?width without a gap.
        inner = plus(seq(where(edge("t"), prop_cmp("t", "w", ">", Parameter("a"))), node()))
        outer = plus(seq(where(edge("u"), prop_cmp("u", "w", ">", Parameter("b"))), node(), inner))
        lowered = lowering.lower(
            _pattern(seq(node("x"), outer, node("y")), "x", "y"),
            _TextCatalog(cycle(6)),
            max_repetitions=2,
        )
        assert len(lowered.probes) == 2 and len(lowered.slots) == 2
        for number, (probe, width, depth) in enumerate(lowered.probes):
            prefix = probe[: probe.index(f", walk{number}(")]
            pair = rf"pair{number}\(src, tgt\) AS MATERIALIZED \(SELECT DISTINCT src, tgt FROM q\d+\)$"
            assert re.search(pair, prefix), prefix
            assert lowered.sql.startswith(prefix + ", ") and depth == 3
            assert {int(n) for n in re.findall(r"\?(\d+)", prefix)} == set(range(1, width + 1))
            assert width >= 1

    def test_infinite_constants_lower_past_every_double(self):
        connection = sqlite3.connect(":memory:")
        for value, literal in ((math.inf, "9e999"), (-math.inf, "-9e999")):
            assert lowering._sql_literal(value) == literal
            assert connection.execute(f"SELECT {literal}").fetchone() == (value,)
        connection.close()


class TestSQLiteAnswersOrRaises:
    @pytest.mark.parametrize(
        "query, database",
        [c[1:] for c in CORPUS if c[0] != "path-24"],
        ids=[c[0] for c in CORPUS if c[0] != "path-24"],
    )
    def test_the_corpus_answers_as_the_oracle_does(self, query, database):
        with SQLiteEngine(database) as engine:
            assert engine.evaluate(query).rows == NaiveEngine(database).evaluate(query).rows

    def test_a_generated_query_past_size_300_answers(self):
        query = alternating_path_query_ro(38)
        assert query_size(query) >= 300
        for length, found in ((38, True), (37, False)):
            with SQLiteEngine(alternating_chain(length)) as engine:
                assert bool(engine.evaluate(query)) is found

    def test_a_statement_past_a_limit_sqlite_still_has_raises(self):
        # 24 hops flatten into more than SQLite's 64 tables in a join.
        query = _path(24)
        with SQLiteEngine(cycle(5)) as engine:
            with pytest.raises(EngineError, match=f"size-{query_size(query)} query") as caught:
                engine.evaluate(query)
        assert isinstance(caught.value.__cause__, sqlite3.Error)
        assert "64 tables" in str(caught.value)


@pytest.mark.parametrize("name", ["q0", "Q1", "Pair0", "REACH0"])
def test_a_table_named_like_an_entry_is_read_as_the_table(engine, name):
    # Each query reads the table next to a relation or a ``->+`` pattern,
    # so the table's name is also that of an entry the statement defines.
    relations = {other: cycle(3).relation(other) for other in VIEW}
    backend = engine(RelationalDatabase({**relations, name: Relation(1, [("t",), ("u",)])}))
    table, edges, reached = BaseRelation(name), BaseRelation("E"), Project(_REACH, (1,))
    nodes, ids = set(backend.evaluate(reached).rows), {("t",), ("u",)}
    edge_ids = set(relations["E"].rows)
    answers = [
        (table, ids),
        (Union(edges, table), edge_ids | ids),
        (Union(table, reached), ids | nodes),
        (Union(reached, table), nodes | ids),
        (Project(Product(reached, table), (2,)), ids),
        (Difference(table, reached), ids),
    ]
    for query, rows in answers:
        assert set(backend.evaluate(query).rows) == rows, query


def test_relations_named_alike_up_to_case_answer_or_raise(engine):
    # SQLite table names ignore ASCII case: it cannot hold E and e apart.
    database = RelationalDatabase({"E": Relation(2, [(1, 2)]), "e": Relation(2, [(3, 4)])})
    backend = engine(database)
    query = Union(BaseRelation("E"), BaseRelation("e"))
    if backend.name != "sqlite":
        assert set(backend.evaluate(query).rows) == {(1, 2), (3, 4)}
        return
    for _ in range(2):
        with pytest.raises(EngineError, match="relations 'E' and 'e'"):
            backend.evaluate(query)
    tables = "SELECT name FROM sqlite_master UNION ALL SELECT name FROM sqlite_temp_master"
    assert backend.connection.execute(tables).fetchall() == []


@pytest.mark.parametrize(
    "rows, arity, bindings, expected",
    [
        (tuple((i % 550,) for i in range(600)), 1, None, {(i,) for i in range(550)}),
        (
            ((1, "a"), (Parameter("p"), "a"), (Parameter("p"), "b")),
            2,
            {"p": 1},
            {(1, "a"), (1, "b")},
        ),
        (((), ()), 0, None, {()}),
    ],
    ids=["600-rows", "equal-bound-slots", "0-ary"],
)
def test_a_constant_relation_has_no_row_limit_and_is_a_set(
    engine, rows, arity, bindings, expected
):
    answer = engine(cycle(2)).evaluate(ConstantRelation(rows, arity), bindings)
    assert len(answer.rows) == len(expected) and set(answer.rows) == expected


_GRAPH_DDL = """
CREATE PROPERTY GRAPH G (
  NODES TABLE Account KEY (iban) LABEL Account PROPERTIES (iban, vip),
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src REFERENCES Account TARGET KEY tgt REFERENCES Account LABEL Transfer)
"""


def _values_db(vips):
    db = Database()
    db.create_table("Account", ["iban", "vip"], [(f"A{i}", v) for i, v in enumerate(vips)])
    transfers = [(f"T{i}", f"A{i}", f"A{i + 1}") for i in range(len(vips) - 1)]
    db.create_table("Transfer", ["t_id", "src", "tgt"], transfers)
    db.execute(_GRAPH_DDL)
    return db


def _match(clause: str) -> str:
    return f"SELECT * FROM GRAPH_TABLE ( G MATCH {clause} )"


class TestValuesSQLiteCannotHold:
    """NaN (SQLite stores it as NULL), ints past 64 bits, infinities and lone
    surrogates (no UTF-8 form): the sqlite engine answers as the oracle does
    or raises ``EngineError``."""

    @pytest.mark.parametrize(
        "vips, sql, params",
        [
            ((math.nan, None, 2), _match("(x) WHERE x.vip = :v COLUMNS (x.iban)"), {"v": None}),
            ((math.nan, None), _match("(x) -[e]-> (y) WHERE x.vip = y.vip COLUMNS (x.iban)"), {}),
            ((2**64, 1), _match("(x) WHERE x.vip > :v COLUMNS (x.iban)"), {"v": 0}),
            ((1, 2), _match("(x) WHERE x.vip < :v COLUMNS (x.iban)"), {"v": 2**64}),
            ((1, 2), _match("(x) WHERE x.vip < 99999999999999999999 COLUMNS (x.iban)"), {}),
            ((1, 2), _match("(x) WHERE x.vip = :v COLUMNS (x.iban)"), {"v": math.nan}),
            ((1, math.inf), _match("(x) WHERE x.vip < :v COLUMNS (x.iban)"), {"v": math.inf}),
            ((1, -math.inf), _match("(x) WHERE x.vip > :v COLUMNS (x.iban)"), {"v": -math.inf}),
            (("\ud800", "b"), _match("(x) COLUMNS (x.iban, x.vip)"), {}),
            (("a", "b"), _match("(x) WHERE x.vip = :v COLUMNS (x.iban)"), {"v": "\ud800"}),
        ],
        ids=[
            "nan-vs-none", "nan-vs-none-edge", "big-int-cell", "big-int-parameter",
            "big-int-literal", "nan-parameter", "inf", "minus-inf",
            "lone-surrogate-cell", "lone-surrogate-parameter",
        ],
    )
    def test_sqlite_answers_as_naive_or_raises(self, vips, sql, params):
        db = _values_db(vips)
        with db.connect("naive") as oracle:
            expected = oracle.execute(sql, params=params).to_set()
        with db.connect("planned") as planned:
            assert planned.execute(sql, params=params).to_set() == expected
        with db.connect("sqlite") as connection:
            for run in (
                lambda: connection.execute(sql, params=params).to_set(),
                lambda: connection.prepare(sql).execute(**params).to_set(),
            ):
                try:
                    answer = run()
                except EngineError as error:
                    assert "SQLite cannot hold" in str(error)
                    assert not any(isinstance(v, float) and math.isinf(v) for v in vips), error
                else:
                    assert answer == expected

    def test_a_lone_surrogate_constant_is_named_in_the_error(self):
        sql = _match("(x) WHERE x.vip = '\ud800' COLUMNS (x.iban)")
        with _values_db(("a", "b")).connect("sqlite") as connection:
            with pytest.raises(EngineError) as caught:
                connection.execute(sql)
        assert str(caught.value) == "SQLite cannot hold '\\ud800' (a constant of the query)"

    def test_a_one_shot_infinite_constant_lowers_to_a_literal(self):
        db = _values_db((1, 2))
        with db.connect("naive") as connection:
            query = connection.compile(_match("(x) WHERE x.vip < :v COLUMNS (x.iban)"))
        for engine in (NaiveEngine(db.snapshot().database), SQLiteEngine(db.snapshot().database)):
            assert set(engine.evaluate(query, {"v": math.inf}).rows) == {("A0",), ("A1",)}
            engine.close()

    def test_the_error_names_the_table_and_column(self):
        with SQLiteEngine(_values_db((1, math.nan)).snapshot().database) as engine:
            with pytest.raises(EngineError, match=r"nan \(column 2 of table \"Account\"\)"):
                engine.evaluate_sql("SELECT 1")

    @pytest.mark.parametrize("vip", [math.nan, 2**64], ids=["nan", "big-int"])
    def test_a_view_error_names_the_property_key(self, vip):
        db = _values_db((1, vip))
        with db.connect("sqlite") as connection:
            with pytest.raises(EngineError) as caught:
                connection.execute(_match("(x) COLUMNS (x.iban)"))
        assert str(caught.value) == f"SQLite cannot hold {vip!r} (node property 'vip')"

    def test_a_failed_view_build_takes_no_view_number(self):
        db = _values_db((1, math.nan))
        db.execute(_GRAPH_DDL.replace("G (", "H (").replace("(iban, vip)", "(iban)"))
        tables = "SELECT name FROM sqlite_temp_master WHERE type = 'table'"
        with db.connect("sqlite") as connection:
            for _ in range(2):
                with pytest.raises(EngineError, match="node property 'vip'"):
                    connection.execute(_match("(x) COLUMNS (x.iban)"))
            connection.execute("SELECT * FROM GRAPH_TABLE ( H MATCH (x) COLUMNS (x.iban) )")
            names = connection._get_engine().connection.execute(tables).fetchall()
        assert sorted(name for (name,) in names) == sorted(
            ["__view0_ids"] + [f"__view0_{number}" for number in range(6)]
        )
