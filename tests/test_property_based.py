"""Property-based tests (hypothesis) for core data structures and invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import NaiveEngine, create_engine
from repro.graph import PropertyGraph
from repro.matching import EndpointEvaluator, PathEvaluator, project_endpoints
from repro.logic import (
    AlgebraicFOTCEvaluator,
    ConstantTerm,
    Equals,
    Not,
    Variable,
    atom,
    exists,
    forall,
    reachability_formula,
    tc,
)
from repro.patterns.builder import edge, node, output, plus, seq, star
from repro.pgq import graph_to_view, pg_view, graph_pattern_on_relations
from repro.relational import Database, Relation
from repro.translations import (
    check_formula_translation,
    check_query_translation,
)

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
values = st.one_of(st.integers(min_value=0, max_value=6), st.sampled_from("abcdef"))


@st.composite
def small_graphs(draw):
    """Random small property graphs with unary identifiers."""
    node_count = draw(st.integers(min_value=1, max_value=6))
    nodes = [f"n{i}" for i in range(node_count)]
    edge_count = draw(st.integers(min_value=0, max_value=8))
    edges = {}
    for index in range(edge_count):
        source = draw(st.sampled_from(nodes))
        target = draw(st.sampled_from(nodes))
        edges[f"e{index}"] = (source, target)
    return PropertyGraph.of(
        nodes,
        edges,
        labels={name: ["Red" if index % 2 == 0 else "Blue"] for index, name in enumerate(nodes)},
        properties={
            **{name: {"idx": index} for index, name in enumerate(nodes)},
            **{edge: {"w": index} for index, edge in enumerate(edges)},
        },
    )


@st.composite
def edge_databases(draw):
    """Random binary edge relations over a tiny integer domain."""
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=10,
        )
    )
    return Database.from_dict({"E": pairs})


@st.composite
def relations(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(st.tuples(*([values] * arity)), min_size=0, max_size=8))
    return Relation(arity, rows)


# --------------------------------------------------------------------------- #
# Relation algebra laws
# --------------------------------------------------------------------------- #
@given(relations(), relations())
def test_union_is_commutative_when_arities_match(left, right):
    if left.arity == right.arity:
        assert left.union(right) == right.union(left)


@given(relations())
def test_difference_with_self_is_empty(relation):
    assert len(relation.difference(relation)) == 0


@given(relations())
def test_projection_identity(relation):
    positions = tuple(range(1, relation.arity + 1))
    assert relation.project(positions) == relation


@given(relations(), relations())
def test_product_cardinality(left, right):
    assert len(left.product(right)) == len(left) * len(right)


# --------------------------------------------------------------------------- #
# Graph <-> view round-trip (Definition 3.2)
# --------------------------------------------------------------------------- #
@settings(max_examples=40)
@given(small_graphs())
def test_graph_view_roundtrip(graph):
    rebuilt = pg_view(graph_to_view(graph).as_tuple())
    assert rebuilt == graph


# --------------------------------------------------------------------------- #
# Proposition 9.1: endpoint and path semantics agree
# --------------------------------------------------------------------------- #
@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_endpoint_equals_projected_path_semantics(graph):
    patterns = [
        seq(node("x"), edge("t"), node("y")),
        seq(node("x"), star(seq(edge(), node())), node("y")),
        seq(node("x"), plus(seq(edge(), node())), node("y")),
    ]
    for pattern in patterns:
        endpoint = EndpointEvaluator(graph).evaluate(pattern)
        paths = PathEvaluator(graph).evaluate(pattern)
        assert project_endpoints(paths) == endpoint


# --------------------------------------------------------------------------- #
# Translations are semantics-preserving on random instances (Thms 6.1/6.2)
# --------------------------------------------------------------------------- #
FORMULA_VARIABLES = ("x", "y", "z")

#: Variables and constants; 5 lies outside every ``edge_databases()`` domain.
terms = st.one_of(
    st.sampled_from(FORMULA_VARIABLES).map(Variable), st.integers(0, 5).map(ConstantTerm)
)


@st.composite
def fo_tc_formulas(draw, depth=3):
    """FO[TC] formulas over the binary relation ``E``: atoms and equalities
    over ``x`` / ``y`` / ``z`` and constants, the connectives, both
    quantifiers and unary TC (a body variable other than the closure's two
    is a parameter), nested at most ``depth`` deep."""
    kinds = ["atom", "eq"] + (
        ["not", "and", "or", "exists", "forall", "tc"] if depth > 1 else []
    )
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return atom("E", draw(terms), draw(terms))
    if kind == "eq":
        return Equals(draw(terms), draw(terms))
    operand = draw(fo_tc_formulas(depth - 1))
    if kind == "not":
        return Not(operand)
    if kind in ("and", "or"):
        other = draw(fo_tc_formulas(depth - 1))
        return operand & other if kind == "and" else operand | other
    if kind in ("exists", "forall"):
        quantifier = exists if kind == "exists" else forall
        return quantifier(draw(st.sampled_from(FORMULA_VARIABLES)), operand)
    source, target = draw(st.permutations(FORMULA_VARIABLES))[:2]
    return tc(source, target, operand, (draw(terms),), (draw(terms),))


@pytest.mark.parametrize("engine_name", ["naive", "planned", "sqlite"])
@settings(max_examples=100, deadline=None)
@given(edge_databases(), fo_tc_formulas())
@example(Database.from_dict({"E": [(0, 1), (1, 2), (2, 0), (3, 3)]}), reachability_formula())
@example(
    Database.from_dict({"E": [(0, 1), (1, 2), (2, 3)]}),
    tc("x", "y", atom("E", "x", "y") & Not(Equals(Variable("y"), Variable("z"))),
       ("x",), (ConstantTerm(3),)),
)
def test_formula_to_query_translation_on_random_databases(engine_name, database, formula):
    """Theorem 6.2 as the cross-check: the bottom-up evaluator and the
    translated query, run by each engine, agree on every drawn formula."""
    backend = create_engine(engine_name, database)
    try:
        report = check_formula_translation(formula, backend)
    finally:
        backend.close()
    assert report.equivalent, report.detail


@settings(max_examples=10, deadline=None)
@given(small_graphs())
def test_query_to_formula_translation_on_random_graphs(graph):
    relations = graph_to_view(graph).as_tuple()
    database = Database.from_dict(
        {name: list(rel.rows) for name, rel in zip("NESTLP", relations) if len(rel)},
        arities={name: rel.arity for name, rel in zip("NESTLP", relations)},
    )
    query = graph_pattern_on_relations(
        output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"),
        ("N", "E", "S", "T", "L", "P"),
    )
    report = check_query_translation(query, NaiveEngine(database))
    assert report.equivalent, report.detail


# --------------------------------------------------------------------------- #
# Reachability query is monotone under edge addition
# --------------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(edge_databases(), st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_reachability_is_monotone(database, extra_edge):
    formula = reachability_formula()
    before = AlgebraicFOTCEvaluator(database).result(formula, ("x", "y")).rows
    bigger = Database.from_dict(
        {"E": list(database.relation("E").rows) + [extra_edge]}
    )
    after = AlgebraicFOTCEvaluator(bigger).result(formula, ("x", "y")).rows
    # Every previously reachable pair stays reachable.
    assert all(row in after for row in before)


# --------------------------------------------------------------------------- #
# SQLite backend: parameter slots anywhere in nested / bounded repetition
# --------------------------------------------------------------------------- #
@st.composite
def parameterized_patterns(draw):
    """Patterns x -> ... -> y whose steps carry ``:slot`` filters at any
    nesting depth, with unbounded and bounded quantifiers."""
    from repro import Parameter
    from repro.patterns.builder import prop_cmp, repeat, where

    slots = st.sampled_from(["a", "b", "a b"])
    counter = iter(range(100))

    def step():
        variable = f"e{next(counter)}"
        hop = edge(variable)
        if draw(st.booleans()):
            operator = draw(st.sampled_from([">", "<=", "!="]))
            hop = where(hop, prop_cmp(variable, "w", operator, Parameter(draw(slots))))
        return seq(hop, node())

    def quantified(body):
        lower = draw(st.integers(0, 2))
        if draw(st.booleans()):
            return repeat(body, lower)
        return repeat(body, lower, lower + draw(st.integers(0, 2)))

    parts = [node("x")]
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["step", "repeat", "nested"]))
        if shape == "step":
            parts.append(step())
        elif shape == "repeat":
            parts.append(quantified(step()))
        else:
            parts.append(quantified(seq(step(), quantified(step()))))
    return output(seq(*parts, node("y")), "x", "y")


@settings(max_examples=40, deadline=None)
@given(small_graphs(), parameterized_patterns(), st.integers(0, 8), st.integers(0, 8))
def test_sqlite_binds_slots_in_nested_and_bounded_repetition(graph, pattern, first, second):
    from repro.datasets import GRAPH_VIEW_SCHEMA
    from repro.engine import SQLiteEngine
    from repro.engine.sqlite import _SQLiteCompiledQuery

    relations = graph_to_view(graph).as_tuple()
    database = Database.from_dict(
        {name: list(rel.rows) for name, rel in zip("NESTLP", relations) if len(rel)},
        arities={name: rel.arity for name, rel in zip("NESTLP", relations)},
    )
    query = graph_pattern_on_relations(pattern, GRAPH_VIEW_SCHEMA)
    with SQLiteEngine(database) as engine:
        compiled = engine.prepare(query)
        assert type(compiled) is _SQLiteCompiledQuery
        oracle = NaiveEngine(database).prepare(query)
        for low, high in ((first, second), (second, first)):
            values = {"a": low, "b": high, "a b": low}
            bindings = {name: values[name] for name in compiled.parameter_names}
            assert compiled.execute(bindings).rows == oracle.execute(bindings).rows
