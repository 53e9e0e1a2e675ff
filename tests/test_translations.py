"""Tests for the PGQ <-> FO[TC] translations (Theorems 6.1, 6.2, 6.5, 6.6).

Every equivalence check evaluates its PGQ side on each served engine (the
``engine`` fixture of ``conftest.py``).
"""

import pytest

from repro.datasets import chain, cycle, erdos_renyi, GRAPH_VIEW_SCHEMA
from repro.errors import TranslationError
from repro.logic import (
    atom,
    eq,
    exists,
    forall,
    in_fo_tc_n,
    max_tc_arity,
    pair_reachability_formula,
    reachability_formula,
    tc,
)
from repro.logic.formulas import ConstantTerm, Not
from repro.patterns.builder import (
    edge,
    either,
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
from repro.pgq import (
    BaseRelation,
    Constant,
    ConstantRelation,
    Difference,
    EmptyRelation,
    Product,
    Project,
    Select,
    Union,
    graph_pattern_on_relations,
)
from repro.relational import ColumnEquals, Database, TrueCondition
from repro.translations import (
    check_formula_translation,
    check_query_translation,
    roundtrip_formula,
    roundtrip_query,
    translate_formula,
    translate_query,
)

VIEW = GRAPH_VIEW_SCHEMA


# --------------------------------------------------------------------------- #
# PGQ -> FO[TC]  (Theorem 6.1 / Lemma 9.3)
# --------------------------------------------------------------------------- #
class TestQueryToFormula:
    @pytest.fixture
    def graph_db(self):
        return erdos_renyi(6, 0.3, seed=5, labels=("Red", "Blue"), property_key="w")

    def relational_queries(self):
        return [
            BaseRelation("S"),
            Project(BaseRelation("S"), (2,)),
            Select(Product(BaseRelation("N"), BaseRelation("N")), ColumnEquals(1, 2)),
            Union(Project(BaseRelation("S"), (2,)), Project(BaseRelation("T"), (2,))),
            Difference(BaseRelation("N"), Project(BaseRelation("S"), (2,))),
        ]

    def pattern_queries(self):
        simple = seq(node("x"), edge("t"), node("y"))
        return [
            graph_pattern_on_relations(output(simple, "x", "y"), VIEW),
            graph_pattern_on_relations(output(simple, "x", "t", "y"), VIEW),
            graph_pattern_on_relations(
                output(where(simple, label("x", "Red")), "x", "y"), VIEW
            ),
            graph_pattern_on_relations(
                output(seq(node("x"), repeat(seq(edge(), node()), 0, 2), node("y")), "x", "y"),
                VIEW,
            ),
            graph_pattern_on_relations(
                output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"), VIEW
            ),
            graph_pattern_on_relations(
                output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"), VIEW
            ),
            graph_pattern_on_relations(
                output(
                    either(
                        seq(node("x"), edge(), node("y")),
                        seq(node("x"), edge(), node(), edge(), node("y")),
                    ),
                    "x",
                    "y",
                ),
                VIEW,
            ),
        ]

    def test_relational_operators_translate(self, graph_db, engine):
        for query in self.relational_queries():
            report = check_query_translation(query, engine(graph_db))
            assert report.equivalent, report.detail

    def test_patterns_translate(self, graph_db, engine):
        for query in self.pattern_queries():
            report = check_query_translation(query, engine(graph_db))
            assert report.equivalent, report.detail

    def test_boolean_pattern_translates(self, graph_db, engine):
        query = graph_pattern_on_relations(output(seq(node(), edge(), node())), VIEW)
        report = check_query_translation(query, engine(graph_db))
        assert report.equivalent

    def test_property_output_translates(self, graph_db, engine):
        query = graph_pattern_on_relations(
            output(seq(node("x"), edge("t"), node("y")), "x", prop("t", "w")), VIEW
        )
        report = check_query_translation(query, engine(graph_db))
        assert report.equivalent, report.detail

    def test_property_equality_condition_translates(self, engine):
        db = chain(3)
        db = db.with_relation("P", db.relation("P").union(
            db.relation("P").__class__(3, [("e0", "colour", "red"), ("e2", "colour", "red")])
        ))
        pattern = where(
            seq(node("x"), edge("s"), node(), edge(), node(), edge("t"), node("y")),
            prop_eq("s", "colour", "t", "colour"),
        )
        query = graph_pattern_on_relations(output(pattern, "x", "y"), VIEW)
        report = check_query_translation(query, engine(db))
        assert report.equivalent, report.detail

    def test_star_translation_uses_tc_of_view_arity(self, graph_db):
        query = graph_pattern_on_relations(
            output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )
        formula, _variables = translate_query(query, graph_db.schema)
        assert max_tc_arity(formula) == 1
        assert in_fo_tc_n(formula, 1)

    def test_ordered_comparison_rejected_by_translation(self, graph_db):
        query = graph_pattern_on_relations(
            output(
                seq(node("x"), where(edge("t"), prop_cmp("t", "w", ">", 10)), node("y")),
                "x",
                "y",
            ),
            VIEW,
        )
        with pytest.raises(TranslationError):
            translate_query(query, graph_db.schema)

    def test_constant_query_translates(self, graph_db, engine):
        query = Product(BaseRelation("N"), Constant("v0"))
        report = check_query_translation(query, engine(graph_db))
        assert report.equivalent

    @pytest.mark.parametrize(
        "query",
        [
            EmptyRelation(0),
            ConstantRelation((), 0),
            Product(BaseRelation("E"), EmptyRelation(0)),
            EmptyRelation(2),
            ConstantRelation((), 2),
            ConstantRelation(((),), 0),
            Select(ConstantRelation(((),), 0), TrueCondition()),
        ],
        ids=[
            "empty-0", "empty-constant-0", "E-times-empty-0", "empty-2", "empty-constant-2",
            "unit", "select-unit",
        ],
    )
    def test_empty_and_zero_arity_relations_translate(self, graph_db, engine, query):
        # The formula's free variables are exactly the output variables:
        # a 0-ary query translates to a sentence.
        formula, variables = translate_query(query, graph_db.schema)
        assert formula.free_variables() == frozenset(variables)
        backend = engine(graph_db)
        report = check_query_translation(query, backend)
        assert report.equivalent, report.detail
        assert roundtrip_query(query, backend)

    def test_roundtrip_query(self, graph_db, engine):
        for query in self.relational_queries():
            assert roundtrip_query(query, engine(graph_db)), query

    def test_roundtrip_pattern_query(self, engine):
        db = chain(3)
        query = graph_pattern_on_relations(
            output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )
        assert roundtrip_query(query, engine(db))


# --------------------------------------------------------------------------- #
# FO[TC] -> PGQ  (Theorem 6.2 / Lemma 9.4)
# --------------------------------------------------------------------------- #
class TestFormulaToQuery:
    @pytest.fixture
    def edge_db(self):
        return Database.from_dict({"E": [(1, 2), (2, 3), (3, 4), (5, 1), (4, 4)]})

    def formulas(self):
        return [
            atom("E", "x", "y"),
            atom("E", "x", "x"),
            atom("E", "x", ConstantTerm(2)),
            eq("x", "y"),
            exists("y", atom("E", "x", "y")),
            Not(exists("y", atom("E", "x", "y"))),
            forall("y", Not(atom("E", "y", "x"))),
            atom("E", "x", "y") & atom("E", "y", "z"),
            atom("E", "x", "y") | atom("E", "y", "x"),
            reachability_formula(),
            tc("u", "v", atom("E", "u", "v") | atom("E", "v", "u"), ("x",), ("y",)),
            tc("u", "v", atom("E", "u", "v"), ("x",), (ConstantTerm(4),)),
        ]

    def test_formulas_translate(self, edge_db, engine):
        for formula in self.formulas():
            report = check_formula_translation(formula, engine(edge_db))
            assert report.equivalent, (formula, report.detail)

    def test_sentence_translates_to_boolean_query(self, edge_db, engine):
        sentence = exists(("x", "y"), atom("E", "x", "y"))
        report = check_formula_translation(sentence, engine(edge_db))
        assert report.equivalent

    def test_tc_with_parameters_translates(self, engine):
        database = Database.from_dict({"E": [(1, 2, "a"), (2, 3, "a"), (1, 3, "b")]})
        closure = tc("u", "v", atom("E", "u", "v", "p"), ("x",), ("y",))
        report = check_formula_translation(closure, engine(database))
        assert report.equivalent, report.detail

    def test_pair_reachability_translates(self, engine):
        database = Database.from_dict({"E": [("a", "b", "b", "c"), ("b", "c", "c", "a")]})
        formula = pair_reachability_formula("E")
        report = check_formula_translation(formula, engine(database))
        assert report.equivalent, report.detail

    def test_roundtrip_formula(self, edge_db):
        assert roundtrip_formula(reachability_formula(), edge_db)

    def test_unknown_free_variable_order_rejected(self, edge_db):
        with pytest.raises(TranslationError):
            translate_formula(atom("E", "x", "y"), ("x",))

    def test_translation_on_unsatisfiable_tc_body(self, engine):
        # The TC body is unsatisfiable: the constructed view is empty but the
        # reflexive part must survive (Lemma 9.4 degenerate case).
        database = Database.from_dict({"E": [(1, 2)], "Empty": []}, arities={"Empty": 2})
        closure = tc("u", "v", atom("Empty", "u", "v"), ("x",), ("y",))
        report = check_formula_translation(closure, engine(database))
        assert report.equivalent, report.detail


# --------------------------------------------------------------------------- #
# Arity preservation (Theorems 6.5 / 6.6)
# --------------------------------------------------------------------------- #
class TestArityPreservation:
    def test_unary_view_yields_fo_tc1(self):
        db = cycle(4)
        query = graph_pattern_on_relations(
            output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )
        formula, _vars = translate_query(query, db.schema)
        assert in_fo_tc_n(formula, 1)

    def test_binary_view_yields_fo_tc2(self, engine):
        db = Database.from_dict(
            {
                "N2": [("a", "x"), ("b", "y"), ("c", "z")],
                "E2": [("e", "1"), ("f", "2")],
                "S2": [("e", "1", "a", "x"), ("f", "2", "b", "y")],
                "T2": [("e", "1", "b", "y"), ("f", "2", "c", "z")],
                "L2": [],
                "P2": [],
            },
            arities={"L2": 3, "P2": 4},
        )
        query = graph_pattern_on_relations(
            output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"),
            ("N2", "E2", "S2", "T2", "L2", "P2"),
        )
        formula, _vars = translate_query(query, db.schema)
        assert max_tc_arity(formula) == 2
        report = check_query_translation(query, engine(db))
        assert report.equivalent, report.detail
