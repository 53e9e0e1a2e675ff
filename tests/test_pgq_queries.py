"""Tests for the PGQ query AST, evaluator (Figure 4) and fragment analysis."""

import pytest

from repro.errors import QueryError
from repro.patterns.builder import edge, node, output, plus, prop, prop_cmp, seq, star, where
from repro.pgq import (
    BaseRelation,
    Constant,
    ConstantRelation,
    Difference,
    EmptyRelation,
    Fragment,
    GraphPattern,
    PGQEvaluator,
    Product,
    Project,
    Select,
    Union,
    classify,
    classify_on_database,
    evaluate,
    evaluate_boolean,
    graph_pattern_on_relations,
    is_in_fragment,
    output_arity,
    query_size,
    required_pgq_n,
)
from repro.pgq.queries import ActiveDomainQuery, static_query_arity
from repro.relational import ColumnEquals, ColumnEqualsConstant, Database

VIEW = ("N", "E", "S", "T", "L", "P")


# --------------------------------------------------------------------------- #
# Relational layer of PGQ
# --------------------------------------------------------------------------- #
class TestRelationalLayer:
    def test_base_relation_and_projection(self, chain_view_db):
        query = Project(BaseRelation("S"), (2,))
        assert set(evaluate(query, chain_view_db).rows) == {("v0",), ("v1",), ("v2",)}

    def test_selection_product_union_difference(self, chain_view_db):
        heavy = Select(BaseRelation("P"), ColumnEqualsConstant(3, 3))
        assert len(evaluate(heavy, chain_view_db)) == 1
        pairs = Product(BaseRelation("N"), BaseRelation("N"))
        assert len(evaluate(pairs, chain_view_db)) == 16
        both = Union(BaseRelation("N"), BaseRelation("N"))
        assert len(evaluate(both, chain_view_db)) == 4
        nothing = Difference(BaseRelation("N"), BaseRelation("N"))
        assert len(evaluate(nothing, chain_view_db)) == 0

    def test_constants_must_be_in_active_domain(self, chain_view_db):
        assert evaluate(Constant("v0"), chain_view_db).rows == frozenset({("v0",)})
        with pytest.raises(QueryError):
            evaluate(Constant("unknown"), chain_view_db)
        assert evaluate(Constant("unknown", require_active=False), chain_view_db)

    def test_constant_relation_and_empty(self, chain_view_db):
        rows = evaluate(ConstantRelation((("a", 1),), 2), chain_view_db).rows
        assert rows == frozenset({("a", 1)})
        assert len(evaluate(EmptyRelation(4), chain_view_db)) == 0

    def test_active_domain_query(self, chain_view_db):
        adom = evaluate(ActiveDomainQuery(), chain_view_db)
        assert ("v0",) in adom.rows and ("Hop",) in adom.rows

    def test_selection_out_of_range(self, chain_view_db):
        query = Select(BaseRelation("N"), ColumnEquals(1, 2))
        with pytest.raises(QueryError):
            evaluate(query, chain_view_db)


# --------------------------------------------------------------------------- #
# Pattern matching layer
# --------------------------------------------------------------------------- #
class TestGraphPatternQueries:
    def test_reachability_on_chain(self, chain_view_db):
        pattern = seq(node("x"), plus(seq(edge(), node())), node("y"))
        query = graph_pattern_on_relations(output(pattern, "x", "y"), VIEW)
        rows = evaluate(query, chain_view_db).rows
        assert ("v0", "v3") in rows and ("v3", "v0") not in rows
        assert len(rows) == 6

    def test_property_filter_inside_pattern(self, chain_view_db):
        pattern = seq(node("x"), where(edge("t"), prop_cmp("t", "w", ">=", 2)), node("y"))
        query = graph_pattern_on_relations(output(pattern, "x", "y"), VIEW)
        assert set(evaluate(query, chain_view_db).rows) == {("v1", "v2"), ("v2", "v3")}

    def test_boolean_graph_pattern(self, chain_view_db):
        query = graph_pattern_on_relations(output(seq(node(), edge(), node())), VIEW)
        assert evaluate_boolean(query, chain_view_db)
        empty = Database.from_dict(
            {name: [] for name in VIEW},
            arities={"N": 1, "E": 1, "S": 2, "T": 2, "L": 2, "P": 3},
        )
        assert not evaluate_boolean(query, empty)

    def test_pattern_on_subqueries_is_read_write(self, chain_view_db):
        # Restrict the node set via a subquery: only nodes with an outgoing edge.
        nodes_with_out = Project(BaseRelation("S"), (2,))
        sources = (
            nodes_with_out,
            BaseRelation("E"),
            BaseRelation("S"),
            BaseRelation("T"),
            EmptyRelation(2),
            EmptyRelation(3),
        )
        pattern = seq(node("x"), edge(), node("y"))
        query = GraphPattern(output(pattern, "x", "y"), sources)
        # Edge e2 targets v3, which has no outgoing edge, so its target is
        # not a node of the constructed view and pgView is undefined there;
        # the remaining edges keep their endpoints.
        from repro.errors import ViewError

        with pytest.raises(ViewError):
            evaluate(query, chain_view_db)

    def test_output_property_projection(self, chain_view_db):
        pattern = seq(node("x"), edge("t"), node("y"))
        query = graph_pattern_on_relations(output(pattern, prop("t", "w"), "y"), VIEW)
        rows = evaluate(query, chain_view_db).rows
        assert (1, "v1") in rows and len(rows) == 3

    def test_graph_pattern_requires_six_sources(self):
        with pytest.raises(QueryError):
            GraphPattern(output(node("x"), "x"), (BaseRelation("N"),) * 5)

    def test_evaluator_materializes_the_view_once(self, chain_view_db, materialized_views):
        pattern = seq(node("x"), star(seq(edge(), node())), node("y"))
        query = graph_pattern_on_relations(output(pattern, "x", "y"), VIEW)
        evaluator = PGQEvaluator(chain_view_db)
        evaluator.evaluate(query)
        evaluator.evaluate(query)
        (tags,) = materialized_views()
        assert tags["nodes"] == 4 and tags["edges"] == 3


# --------------------------------------------------------------------------- #
# Fragments (Figure 3, Theorem 6.8)
# --------------------------------------------------------------------------- #
class TestFragments:
    def test_read_only_classification(self, chain_view_db):
        query = graph_pattern_on_relations(output(seq(node("x"), edge(), node("y")), "x", "y"), VIEW)
        info = classify(query, schema=chain_view_db.schema)
        assert info.fragment is Fragment.RO
        assert info.identifier_arity == 1
        assert is_in_fragment(query, Fragment.RO, schema=chain_view_db.schema)
        assert is_in_fragment(query, Fragment.EXT, schema=chain_view_db.schema)

    def test_constants_force_read_write(self, chain_view_db):
        query = Product(BaseRelation("N"), Constant("v0"))
        assert classify(query).fragment is Fragment.RW

    def test_subquery_views_force_read_write(self, chain_view_db):
        sources = (
            Union(BaseRelation("N"), BaseRelation("N")),
            BaseRelation("E"),
            BaseRelation("S"),
            BaseRelation("T"),
            EmptyRelation(2),
            EmptyRelation(3),
        )
        query = GraphPattern(output(seq(node("x"), edge(), node("y")), "x", "y"), sources)
        info = classify(query, schema=chain_view_db.schema)
        assert info.fragment is not Fragment.RO
        dynamic = classify_on_database(query, chain_view_db)
        assert dynamic.fragment is Fragment.RW
        assert dynamic.identifier_arity == 1

    def test_binary_identifiers_force_ext(self):
        db = Database.from_dict(
            {
                "N2": [("a", "x"), ("b", "y")],
                "E2": [("e", "1")],
                "S2": [("e", "1", "a", "x")],
                "T2": [("e", "1", "b", "y")],
                "L2": [],
                "P2": [],
            },
            arities={"L2": 3, "P2": 4},
        )
        query = graph_pattern_on_relations(
            output(seq(node("x"), edge(), node("y")), "x", "y"),
            ("N2", "E2", "S2", "T2", "L2", "P2"),
        )
        info = classify(query, schema=db.schema)
        assert info.fragment is Fragment.EXT
        assert required_pgq_n(query, schema=db.schema) == 2
        assert classify_on_database(query, db).identifier_arity == 2
        rows = evaluate(query, db).rows
        assert ("a", "x", "b", "y") in rows

    def test_static_arities(self, chain_view_db):
        schema = chain_view_db.schema
        assert static_query_arity(BaseRelation("S"), schema) == 2
        assert static_query_arity(Project(BaseRelation("P"), (1, 3)), schema) == 2
        assert static_query_arity(Product(BaseRelation("N"), BaseRelation("E")), schema) == 2
        query = graph_pattern_on_relations(
            output(seq(node("x"), edge("t"), node("y")), "x", prop("t", "w")), VIEW
        )
        assert static_query_arity(query, schema) == 2
        assert output_arity(query.output, 3) == 4

    def test_query_size_and_names(self, chain_view_db):
        query = graph_pattern_on_relations(output(node("x"), "x"), VIEW)
        assert query_size(query) == 7
        assert query.relation_names() == set(VIEW)
