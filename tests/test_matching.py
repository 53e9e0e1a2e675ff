"""Tests for pattern-matching semantics: endpoint (Fig. 2) and path (Fig. 6)."""

import pytest

from repro.graph import PropertyGraph
from repro.matching import (
    EndpointEvaluator,
    Path,
    PathEvaluator,
    compatible,
    endpoint_path_equivalent,
    evaluate_output_pattern,
    evaluate_pattern,
    freeze,
    join,
    project_endpoints,
    restrict,
    thaw,
    union,
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
    repeat,
    seq,
    star,
    where,
)


# --------------------------------------------------------------------------- #
# Mapping algebra
# --------------------------------------------------------------------------- #
def test_mapping_operations():
    left = {"x": ("a",), "y": ("b",)}
    right = {"y": ("b",), "z": ("c",)}
    assert compatible(left, right)
    assert union(left, right) == {"x": ("a",), "y": ("b",), "z": ("c",)}
    assert join(left, {"y": ("other",)}) is None
    assert restrict(left, ["x"]) == {"x": ("a",)}
    assert thaw(freeze(left)) == left


# --------------------------------------------------------------------------- #
# Endpoint semantics
# --------------------------------------------------------------------------- #
def test_node_pattern_matches_every_node(triangle_graph):
    matches = evaluate_pattern(triangle_graph, node("x"))
    assert len(matches) == 3
    assert all(source == target for (source, target, _mu) in matches)


def test_edge_pattern_forward_and_backward(triangle_graph):
    forward = evaluate_pattern(triangle_graph, edge("t"))
    backward = evaluate_pattern(triangle_graph, back_edge("t"))
    assert {(s, t) for (s, t, _m) in forward} == {
        (("a",), ("b",)), (("b",), ("c",)), (("c",), ("a",))
    }
    assert {(s, t) for (s, t, _m) in backward} == {
        (("b",), ("a",)), (("c",), ("b",)), (("a",), ("c",))
    }


def test_concatenation_joins_on_midpoint(triangle_graph):
    two_hops = seq(node("x"), edge(), node(), edge(), node("y"))
    matches = evaluate_pattern(triangle_graph, two_hops)
    assert {(s, t) for (s, t, _m) in matches} == {
        (("a",), ("c",)), (("b",), ("a",)), (("c",), ("b",))
    }


def test_concatenation_requires_compatible_mappings(triangle_graph):
    # The same variable x on both endpoints forces a length-2 cycle, which
    # the triangle does not have.
    pattern = seq(node("x"), edge(), node(), edge(), node("x"))
    assert evaluate_pattern(triangle_graph, pattern) == frozenset()


def test_filter_on_labels_and_properties(triangle_graph):
    red_nodes = where(node("x"), label("x", "Red"))
    assert len(evaluate_pattern(triangle_graph, red_nodes)) == 2
    heavy = where(edge("t"), prop_cmp("t", "amount", ">", 15))
    assert len(evaluate_pattern(triangle_graph, heavy)) == 2


def test_disjunction_union(triangle_graph):
    pattern = either(where(node("x"), label("x", "Red")), where(node("x"), label("x", "Blue")))
    assert len(evaluate_pattern(triangle_graph, pattern)) == 3


def test_bounded_repetition_counts(triangle_graph):
    hop = seq(edge(), node())
    exactly_two = repeat(hop, 2, 2)
    matches = evaluate_pattern(triangle_graph, exactly_two)
    assert {(s, t) for (s, t, _m) in matches} == {
        (("a",), ("c",)), (("b",), ("a",)), (("c",), ("b",))
    }
    zero = repeat(hop, 0, 0)
    assert {(s, t) for (s, t, _m) in evaluate_pattern(triangle_graph, zero)} == {
        (n, n) for n in triangle_graph.nodes
    }


def test_unbounded_repetition_reaches_everything_on_a_cycle(triangle_graph):
    reach = seq(node("x"), star(seq(edge(), node())), node("y"))
    matches = evaluate_pattern(triangle_graph, reach)
    assert len(matches) == 9  # every ordered pair on a 3-cycle


def test_unbounded_repetition_with_lower_bound(triangle_graph):
    at_least_three = repeat(seq(edge(), node()), 3)
    matches = {(s, t) for (s, t, _m) in evaluate_pattern(triangle_graph, at_least_three)}
    # Three or more hops on a 3-cycle still reaches every ordered pair.
    assert len(matches) == 9


def test_repetition_on_chain_respects_direction(chain_view_db):
    from repro.pgq import pg_view

    graph = pg_view(tuple(chain_view_db.relation(n) for n in ("N", "E", "S", "T", "L", "P")))
    reach = seq(node("x"), plus(seq(edge(), node())), node("y"))
    matches = {(s[0], t[0]) for (s, t, _m) in evaluate_pattern(graph, reach)}
    assert matches == {
        ("v0", "v1"), ("v0", "v2"), ("v0", "v3"),
        ("v1", "v2"), ("v1", "v3"), ("v2", "v3"),
    }


def test_output_pattern_with_properties(triangle_graph):
    pattern = seq(node("x"), edge("t"), node("y"))
    out = output(pattern, prop("x", "name"), prop("t", "amount"), prop("y", "name"))
    rows = evaluate_output_pattern(triangle_graph, out)
    assert ("a", 10, "b") in rows
    assert len(rows) == 3


def test_output_pattern_missing_property_rows_dropped(triangle_graph):
    out = output(node("x"), prop("x", "missing"))
    assert evaluate_output_pattern(triangle_graph, out) == frozenset()


def test_boolean_output_pattern(triangle_graph):
    assert evaluate_output_pattern(triangle_graph, output(edge("t"))) == frozenset({()})
    empty_graph = PropertyGraph.of([])
    assert evaluate_output_pattern(empty_graph, output(edge("t"))) == frozenset()


# --------------------------------------------------------------------------- #
# Path semantics and Proposition 9.1
# --------------------------------------------------------------------------- #
def test_path_construction_and_concat():
    path = Path(("a",) , ())
    assert path.source == "a" or path.source == ("a",)
    left = Path((("a",), ("b",)), (("e1",),))
    right = Path((("b",), ("c",)), (("e2",),))
    joined = left.concat(right)
    assert joined.length == 2
    with pytest.raises(Exception):
        right.concat(left).concat(right)


def test_path_semantics_matches_endpoints_on_simple_patterns(triangle_graph):
    for pattern in (
        node("x"),
        edge("t"),
        seq(node("x"), edge("t"), node("y")),
        where(seq(node("x"), edge("t"), node("y")), prop_cmp("t", "amount", ">", 15)),
        either(where(node("x"), label("x", "Red")), where(node("x"), label("x", "Blue"))),
        repeat(seq(edge(), node()), 0, 2),
    ):
        assert endpoint_path_equivalent(triangle_graph, pattern)


def test_path_semantics_star_projection_equals_endpoint(triangle_graph):
    pattern = seq(node("x"), star(seq(edge(), node())), node("y"))
    endpoint = EndpointEvaluator(triangle_graph).evaluate(pattern)
    paths = PathEvaluator(triangle_graph).evaluate(pattern)
    assert project_endpoints(paths) == endpoint


def test_path_evaluator_materializes_actual_paths(triangle_graph):
    pattern = seq(node("x"), edge(), node(), edge(), node("y"))
    paths = PathEvaluator(triangle_graph).evaluate(pattern)
    assert all(match[0].length == 2 for match in paths)


def test_path_output_matches_endpoint_output(triangle_graph):
    pattern = seq(node("x"), edge("t"), node("y"))
    out = output(pattern, prop("x", "name"), prop("y", "name"))
    assert PathEvaluator(triangle_graph).evaluate_output(out) == evaluate_output_pattern(
        triangle_graph, out
    )
