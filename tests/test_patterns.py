"""Unit tests for the pattern language (Figure 1): AST, free variables, builder."""

import pytest

from repro.errors import PatternError
from repro.patterns import (
    INFINITY,
    Concatenation,
    EdgePattern,
    Filter,
    NodePattern,
    OutputPattern,
    PropertyRef,
    Repetition,
    iter_subpatterns,
    pattern_depth,
    pattern_size,
)
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
    prop_eq,
    reachability,
    repeat,
    seq,
    star,
    where,
)


# --------------------------------------------------------------------------- #
# Free variables (Figure 1)
# --------------------------------------------------------------------------- #
def test_node_and_edge_free_variables():
    assert NodePattern("x").free_variables() == frozenset({"x"})
    assert NodePattern(None).free_variables() == frozenset()
    assert EdgePattern("t").free_variables() == frozenset({"t"})


def test_concatenation_unions_free_variables():
    pattern = seq(node("x"), edge("t"), node("y"))
    assert pattern.free_variables() == frozenset({"x", "t", "y"})


def test_repetition_erases_free_variables():
    pattern = star(seq(node("x"), edge("t"), node("y")))
    assert pattern.free_variables() == frozenset()
    assert pattern.all_variables() == frozenset({"x", "t", "y"})


def test_filter_keeps_body_free_variables():
    pattern = where(seq(node("x"), edge("t"), node("y")), label("x", "Red"))
    assert pattern.free_variables() == frozenset({"x", "t", "y"})


def test_disjunction_free_variables_are_left_branch():
    pattern = either(seq(node("x"), edge(), node("y")), seq(node("y"), edge(), node("x")))
    assert pattern.free_variables() == frozenset({"x", "y"})


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
def test_disjunction_requires_equal_free_variables():
    bad = either(node("x"), node("y"))
    with pytest.raises(PatternError):
        bad.validate()


def test_repetition_bounds_validation():
    with pytest.raises(PatternError):
        Repetition(node("x"), -1, 2).validate()
    with pytest.raises(PatternError):
        Repetition(node("x"), 3, 2).validate()
    Repetition(node("x"), 2, INFINITY).validate()


def test_filter_condition_variables_must_be_bound():
    bad = where(node("x"), label("y", "Red"))
    with pytest.raises(PatternError):
        bad.validate()


def test_output_items_must_be_distinct_and_bound():
    pattern = seq(node("x"), edge("t"), node("y"))
    with pytest.raises(PatternError):
        output(pattern, "x", "x").validate()
    with pytest.raises(PatternError):
        output(pattern, "z").validate()
    with pytest.raises(PatternError):
        output(star(pattern), "x").validate()
    output(pattern, "x", prop("y", "name")).validate()


def test_boolean_output_pattern_has_arity_zero():
    boolean = output(node("x"))
    boolean.validate()
    assert boolean.arity == 0


# --------------------------------------------------------------------------- #
# Structure helpers
# --------------------------------------------------------------------------- #
def test_pattern_size_and_depth():
    pattern = seq(node("x"), plus(seq(edge("t"), node())), node("y"))
    assert pattern_size(pattern) > 5
    assert pattern_depth(pattern) >= 3
    assert pattern in set(iter_subpatterns(pattern))


def test_builder_convenience_shapes():
    assert isinstance(back_edge("t"), EdgePattern) and not back_edge("t").forward
    assert isinstance(repeat(node("x"), 1, 3), Repetition)
    star_pattern = star(node("x"))
    assert star_pattern.lower == 0 and star_pattern.is_unbounded
    reach = reachability("a", "b")
    reach.validate()
    assert reach.output_variables() == frozenset({"a", "b"})


def test_fluent_pattern_methods():
    pattern = node("x").then(edge("t")).then(node("y"))
    assert isinstance(pattern, Concatenation)
    filtered = pattern.where(prop_cmp("t", "amount", ">", 10))
    assert isinstance(filtered, Filter)
    repeated = pattern.star()
    assert isinstance(repeated, Repetition) and repeated.is_unbounded
    out = pattern.output("x", prop("t", "amount"))
    assert isinstance(out, OutputPattern) and out.arity == 2


def test_property_ref_str():
    assert str(PropertyRef("x", "iban")) == "x.iban"


def test_prop_eq_builder_condition_variables():
    condition = prop_eq("x", "k", "y", "k2")
    assert condition.variables() == frozenset({"x", "y"})
