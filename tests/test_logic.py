"""Tests for FO[TC]: formula AST, fragments, and the bottom-up evaluator
(the oracle of the translation checks)."""

import pytest

from repro.errors import LogicError
from repro.logic import (
    AlgebraicFOTCEvaluator,
    atom,
    eq,
    evaluate_formula_algebraic,
    exists,
    forall,
    formula_size,
    in_fo_tc_n,
    is_first_order,
    max_tc_arity,
    pair_reachability_formula,
    reachability_formula,
    relations_used,
    same_generation_formula,
    tc,
    tc_arities,
    tc_operator_count,
)
from repro.logic.formulas import ConstantTerm, Not, TransitiveClosure
from repro.relational import Database


# --------------------------------------------------------------------------- #
# Formula construction
# --------------------------------------------------------------------------- #
class TestFormulas:
    def test_free_variables(self):
        formula = exists("y", atom("E", "x", "y") & eq("x", "z"))
        assert formula.free_variables() == frozenset({"x", "z"})

    def test_tc_arity_constraints(self):
        with pytest.raises(LogicError):
            tc(("u",), ("v", "w"), atom("E", "u", "v"), ("x",), ("y",))
        with pytest.raises(LogicError):
            tc("u", "u", atom("E", "u", "u"), ("x",), ("y",))

    def test_tc_free_and_parameter_variables(self):
        formula = tc("u", "v", atom("E", "u", "v", "p"), ("x",), ("y",))
        assert isinstance(formula, TransitiveClosure)
        assert formula.parameter_variables() == frozenset({"p"})
        assert formula.free_variables() == frozenset({"p", "x", "y"})
        assert formula.arity == 1

    def test_fragment_analysis(self):
        reach = reachability_formula()
        pair = pair_reachability_formula()
        assert max_tc_arity(reach) == 1 and max_tc_arity(pair) == 2
        assert tc_arities(pair) == frozenset({2})
        assert in_fo_tc_n(reach, 1) and not in_fo_tc_n(pair, 1) and in_fo_tc_n(pair, 2)
        assert is_first_order(atom("E", "x", "y"))
        assert not is_first_order(reach)
        assert tc_operator_count(same_generation_formula()) == 1
        assert relations_used(reach) == frozenset({"E"})

    def test_formula_size(self):
        assert formula_size(atom("E", "x", "y")) == 1
        assert formula_size(exists("x", atom("E", "x", "y") & eq("x", "y"))) == 4

    def test_quantifier_requires_variables(self):
        with pytest.raises(LogicError):
            exists((), atom("E", "x", "y"))


# --------------------------------------------------------------------------- #
# Evaluation
# --------------------------------------------------------------------------- #
def satisfies(database, formula, assignment=None):
    return AlgebraicFOTCEvaluator(database).satisfies(formula, assignment)


class TestEvaluation:
    def test_atom_and_equality(self, edge_relation_db):
        assert satisfies(edge_relation_db, atom("E", ConstantTerm(1), ConstantTerm(2)))
        assert not satisfies(edge_relation_db, atom("E", ConstantTerm(2), ConstantTerm(1)))
        assert satisfies(edge_relation_db, eq(ConstantTerm(3), ConstantTerm(3)))

    def test_unbound_variable_raises(self, edge_relation_db):
        with pytest.raises(LogicError):
            satisfies(edge_relation_db, atom("E", "x", "y"))

    def test_exists_and_forall(self, edge_relation_db):
        has_successor = exists("y", atom("E", "x", "y"))
        rows = evaluate_formula_algebraic(has_successor, edge_relation_db, ("x",)).rows
        assert rows == frozenset({(1,), (2,), (3,), (5,)})
        all_reflexive = forall("x", atom("E", "x", "x"))
        assert not satisfies(edge_relation_db, all_reflexive)

    def test_negation_is_relativized_to_adom(self, edge_relation_db):
        no_successor = Not(exists("y", atom("E", "x", "y")))
        rows = evaluate_formula_algebraic(no_successor, edge_relation_db, ("x",)).rows
        assert rows == frozenset({(4,)})

    def test_reachability_tc(self, edge_relation_db):
        reach = reachability_formula()
        rows = evaluate_formula_algebraic(reach, edge_relation_db, ("x", "y")).rows
        assert (5, 4) in rows          # 5 -> 1 -> 2 -> 3 -> 4
        assert (4, 1) not in rows
        assert (3, 3) in rows          # reflexive
        assert len(rows) == 15

    def test_tc_with_parameters(self):
        database = Database.from_dict({"E": [(1, 2, "a"), (2, 3, "a"), (1, 3, "b")]})
        closure = tc("u", "v", atom("E", "u", "v", "p"), ("x",), ("y",))
        rows = evaluate_formula_algebraic(closure, database, ("p", "x", "y")).rows
        assert ("a", 1, 3) in rows     # via 1 -> 2 -> 3 with parameter a
        assert ("b", 1, 3) in rows
        assert ("b", 1, 2) not in rows  # parameter b has no edge 1 -> 2

    def test_sentence_evaluation(self, edge_relation_db):
        sentence = exists(("x", "y"), atom("E", "x", "y"))
        relation = evaluate_formula_algebraic(sentence, edge_relation_db)
        assert relation.arity == 0 and bool(relation)

    def test_pair_reachability_tc2(self):
        database = Database.from_dict(
            {"E": [("a", "b", "b", "c"), ("b", "c", "c", "a")]}
        )
        formula = pair_reachability_formula("E")
        rows = evaluate_formula_algebraic(
            formula, database, ("x1", "x2", "y1", "y2")
        ).rows
        assert ("a", "b", "c", "a") in rows  # two steps through pair space

    def test_algebraic_satisfies(self, edge_relation_db):
        evaluator = AlgebraicFOTCEvaluator(edge_relation_db)
        assert evaluator.satisfies(reachability_formula(), {"x": 1, "y": 4})
        assert not evaluator.satisfies(reachability_formula(), {"x": 4, "y": 1})

    def test_missing_output_variable_raises(self, edge_relation_db):
        with pytest.raises(LogicError):
            evaluate_formula_algebraic(atom("E", "x", "y"), edge_relation_db, ("x",))
