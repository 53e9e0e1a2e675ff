"""Unit tests for the property graph data model (Definition 2.1)."""

import pytest

from repro.errors import GraphError
from repro.graph import PropertyGraph


def build_small_graph(k: int = 1) -> PropertyGraph:
    return PropertyGraph.of(
        ["a", "b"],
        {"e": ("a", "b")},
        labels={"a": ["Red"], "b": ["Blue"], "e": ["Link"]},
        properties={"a": {"k": k}, "e": {"w": 5}},
    )


def test_nodes_and_edges_are_canonical_tuples():
    graph = build_small_graph()
    assert ("a",) in graph.nodes
    assert ("e",) in graph.edges
    assert PropertyGraph.of([("a",), ("b",)], {("e",): (("a",), ("b",))}) == PropertyGraph.of(
        "ab", {"e": ("a", "b")}
    )


def test_source_and_target():
    graph = build_small_graph()
    assert graph.source("e") == ("a",)
    assert graph.target("e") == ("b",)


def test_labels_and_properties():
    graph = build_small_graph()
    assert graph.labels("a") == frozenset({"Red"})
    assert graph.property("e", "w") == 5
    assert graph.property("e", "missing") is None
    assert graph.has_property("a", "k")
    assert not graph.has_property("b", "k")


def test_properties_dict():
    graph = build_small_graph()
    assert graph.properties("a") == {"k": 1}


def test_edge_endpoints_must_exist():
    with pytest.raises(GraphError, match="dangling target"):
        PropertyGraph.of(["a"], {"e": ("a", "missing")})
    with pytest.raises(GraphError, match="dangling source"):
        PropertyGraph.of(["a"], {"e": ("missing", "a")})


def test_node_edge_identifier_disjointness():
    with pytest.raises(GraphError, match="overlap"):
        PropertyGraph.of(["x", "y", "x2"], {"x2": ("x", "y")})
    with pytest.raises(GraphError, match="overlap"):
        PropertyGraph.of(["x", "y"], {"x": ("x", "y")})


def test_label_on_unknown_element_rejected():
    with pytest.raises(GraphError, match="label attached to unknown element"):
        PropertyGraph.of([], labels={"ghost": ["L"]})


def test_property_on_unknown_element_rejected():
    with pytest.raises(GraphError, match="property attached to unknown element"):
        PropertyGraph.of(["a"], properties={"ghost": {"k": 1}})


def test_navigation():
    graph = build_small_graph()
    assert graph.successors("a") == frozenset({("b",)})
    assert graph.predecessors("b") == frozenset({("a",)})
    assert graph.out_degree("a") == 1
    assert graph.in_degree("a") == 0
    assert graph.out_edges("a") == frozenset({("e",)})


def test_elements_with_label():
    graph = build_small_graph()
    assert graph.elements_with_label("Red") == frozenset({("a",)})
    assert graph.elements_with_label("Link") == frozenset({("e",)})
    assert graph.elements_with_label("Nope") == frozenset()


def test_node_and_edge_arity():
    assert PropertyGraph.of([]).node_arity() is None
    graph = PropertyGraph.of(
        [("b1", "x"), ("b2", "y")], {("t", "1"): (("b1", "x"), ("b2", "y"))}
    )
    assert graph.node_arity() == 2
    assert graph.edge_arity() == 2


def test_mixed_node_arity_detected():
    graph = PropertyGraph.of(["a", ("b", "c")])
    with pytest.raises(GraphError):
        graph.node_arity()


def test_equality_and_validate():
    left = build_small_graph()
    right = build_small_graph()
    assert left == right
    assert build_small_graph(k=2) != right
    left.validate()
    right.validate()
    with pytest.raises(TypeError):
        hash(left)


def test_counts(triangle_graph):
    assert triangle_graph.node_count() == 3
    assert triangle_graph.edge_count() == 3
