"""Tests for the pgView family (Definitions 3.1/3.2 and 5.1-5.3)."""

import pytest

from repro.errors import ViewError
from repro.pgq import (
    graph_to_view,
    infer_identifier_arity,
    pg_view,
    pg_view_exact,
    pg_view_ext,
    pg_view_n,
)
from repro.relational import Relation


def unary_view_relations():
    nodes = Relation.unary(["a", "b"], name="R1")
    edges = Relation.unary(["e"], name="R2")
    sources = Relation(2, [("e", "a")], name="R3")
    targets = Relation(2, [("e", "b")], name="R4")
    labels = Relation(2, [("a", "Red"), ("e", "Link")], name="R5")
    properties = Relation(3, [("e", "w", 7)], name="R6")
    return (nodes, edges, sources, targets, labels, properties)


def test_pg_view_builds_expected_graph():
    graph = pg_view(unary_view_relations())
    assert graph.node_count() == 2 and graph.edge_count() == 1
    assert graph.source("e") == ("a",)
    assert graph.labels("a") == frozenset({"Red"})
    assert graph.property("e", "w") == 7


def test_condition_1_disjointness():
    relations = list(unary_view_relations())
    relations[1] = Relation.unary(["a"])  # edge id reuses a node id
    relations[2] = Relation(2, [("a", "a")])
    relations[3] = Relation(2, [("a", "b")])
    relations[4] = Relation.empty(2)
    relations[5] = Relation.empty(3)
    with pytest.raises(ViewError, match="condition \\(1\\)"):
        pg_view(tuple(relations))


def test_condition_2_source_must_be_total_function():
    relations = list(unary_view_relations())
    relations[2] = Relation.empty(2)  # no source for edge e
    with pytest.raises(ViewError, match="condition \\(2\\)"):
        pg_view(tuple(relations))
    relations = list(unary_view_relations())
    relations[2] = Relation(2, [("e", "a"), ("e", "b")])  # two sources
    with pytest.raises(ViewError, match="condition \\(2\\)"):
        pg_view(tuple(relations))
    relations = list(unary_view_relations())
    relations[2] = Relation(2, [("e", "zzz")])  # source is not a node
    with pytest.raises(ViewError, match="condition \\(2\\)"):
        pg_view(tuple(relations))


def test_condition_3_labels_attach_to_elements_only():
    relations = list(unary_view_relations())
    relations[4] = Relation(2, [("ghost", "Red")])
    with pytest.raises(ViewError, match="condition \\(3\\)"):
        pg_view(tuple(relations))


def test_condition_4_properties_are_a_partial_function():
    relations = list(unary_view_relations())
    relations[5] = Relation(3, [("e", "w", 1), ("e", "w", 2)])
    with pytest.raises(ViewError, match="condition \\(4\\)"):
        pg_view(tuple(relations))
    relations = list(unary_view_relations())
    relations[5] = Relation(3, [("ghost", "w", 1)])
    with pytest.raises(ViewError, match="condition \\(4\\)"):
        pg_view(tuple(relations))


def test_empty_labels_and_properties_are_allowed():
    relations = list(unary_view_relations())
    relations[4] = Relation.empty(2)
    relations[5] = Relation.empty(3)
    graph = pg_view(tuple(relations))
    assert graph.labels("a") == frozenset()


def binary_view_relations():
    nodes = Relation(2, [("b1", "x"), ("b2", "y")])
    edges = Relation(2, [("t", "1")])
    sources = Relation(4, [("t", "1", "b1", "x")])
    targets = Relation(4, [("t", "1", "b2", "y")])
    labels = Relation(3, [("t", "1", "Transfer")])
    properties = Relation(4, [("t", "1", "amount", 10)])
    return (nodes, edges, sources, targets, labels, properties)


def test_binary_identifier_view():
    relations = binary_view_relations()
    assert infer_identifier_arity(relations) == 2
    graph = pg_view_ext(relations)
    assert graph.node_arity() == 2
    assert graph.source(("t", "1")) == ("b1", "x")
    assert graph.property(("t", "1"), "amount") == 10


def test_pg_view_n_bounds_the_arity():
    relations = binary_view_relations()
    with pytest.raises(ViewError):
        pg_view_n(relations, 1)
    assert pg_view_n(relations, 2).node_count() == 2
    assert pg_view_n(relations, 5).node_count() == 2


def test_pg_view_rejects_wrong_number_of_relations():
    with pytest.raises(ViewError):
        pg_view_ext(unary_view_relations()[:5])


def test_inconsistent_arities_rejected():
    relations = list(unary_view_relations())
    relations[0] = Relation(2, [("a", "x")])
    with pytest.raises(ViewError):
        infer_identifier_arity(tuple(relations))


def test_all_empty_relations_default_arity():
    relations = tuple(Relation.empty(a) for a in (1, 1, 2, 2, 2, 3))
    assert infer_identifier_arity(relations) == 1
    # Declared arities of an all-empty view determine the identifier arity
    # when they are mutually consistent (needed by the Lemma 9.4 build).
    relations = tuple(Relation.empty(a) for a in (3, 3, 6, 6, 4, 5))
    assert infer_identifier_arity(relations) == 3
    assert pg_view_ext(relations).node_count() == 0


def test_graph_to_view_roundtrip(triangle_graph):
    relations = graph_to_view(triangle_graph)
    rebuilt = pg_view(relations.as_tuple())
    assert rebuilt == triangle_graph


def test_graph_to_view_roundtrip_binary():
    graph = pg_view_ext(binary_view_relations())
    rebuilt = pg_view_ext(graph_to_view(graph).as_tuple())
    assert rebuilt == graph


def test_pg_view_exact_requires_positive_arity():
    with pytest.raises(ViewError):
        pg_view_exact(unary_view_relations(), 0)
