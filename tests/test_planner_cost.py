"""Tests for the cost-based optimizer: statistics, estimates, ordering."""

import pytest

from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi
from repro.matching import EndpointEvaluator
from repro.patterns.builder import (
    edge,
    label,
    node,
    output,
    plus,
    prop_cmp,
    seq,
    where,
)
from repro.planner import (
    EdgeScan,
    GraphStatistics,
    JoinStep,
    NodeScan,
    PlanExecutor,
    build_logical_plan,
    collect_graph_statistics,
    condition_selectivity,
    estimate_cardinality,
    optimize,
    order_joins,
    push_down_filters,
)
from repro.planner.cost import _flatten_join_chain

from test_planner import graph_from, pattern_battery

VIEW = GRAPH_VIEW_SCHEMA


@pytest.fixture(scope="module")
def graph():
    db = erdos_renyi(10, 0.25, seed=13, labels=("Red", "Blue"), property_key="w")
    return graph_from(db)


@pytest.fixture(scope="module")
def stats(graph):
    return collect_graph_statistics(graph)


# --------------------------------------------------------------------------- #
# Statistics collection
# --------------------------------------------------------------------------- #
class TestGraphStatistics:
    def test_counts_match_graph(self, graph, stats):
        assert stats.node_count == graph.node_count()
        assert stats.edge_count == graph.edge_count()
        for lbl, count in stats.node_labels.items():
            assert count == sum(
                1 for n in graph.nodes if lbl in graph.labels(n)
            )
        assert sum(stats.edge_labels.values()) == sum(
            len(graph.labels(e)) for e in graph.edges
        )

    def test_property_key_fraction_bounds(self, stats):
        assert 0.0 < stats.property_key_fraction("w") <= 1.0
        assert stats.property_key_fraction("no_such_key") == 0.0

    def test_fingerprint_is_stable_and_discriminating(self, graph, stats):
        assert stats.fingerprint() == collect_graph_statistics(graph).fingerprint()
        hash(stats.fingerprint())  # usable as a cache-key component
        other = collect_graph_statistics(graph_from(erdos_renyi(4, 0.5, seed=2)))
        assert stats.fingerprint() != other.fingerprint()

    def test_average_out_degree(self):
        empty = GraphStatistics(node_count=0, edge_count=0)
        assert empty.average_out_degree == 0.0
        assert GraphStatistics(node_count=4, edge_count=10).average_out_degree == 2.5


# --------------------------------------------------------------------------- #
# Cardinality estimates
# --------------------------------------------------------------------------- #
class TestEstimates:
    def test_scan_estimates_respect_labels(self, stats):
        everything = estimate_cardinality(EdgeScan("t"), stats)
        red_only = estimate_cardinality(EdgeScan("t", labels=frozenset({"Red"})), stats)
        missing = estimate_cardinality(EdgeScan("t", labels=frozenset({"Gold"})), stats)
        assert missing == 0.0
        assert red_only <= everything == stats.edge_count

    def test_condition_selectivity_shrinks_estimates(self, stats):
        bare = estimate_cardinality(NodeScan("x"), stats)
        filtered = estimate_cardinality(
            NodeScan("x", condition=prop_cmp("x", "w", ">", 10)), stats
        )
        assert filtered < bare

    def test_selectivity_composes(self, stats):
        cond = prop_cmp("t", "w", ">", 10)
        single = condition_selectivity(cond, stats, on_edges=True)
        both = condition_selectivity(cond & cond, stats, on_edges=True)
        either_sel = condition_selectivity(cond | cond, stats, on_edges=True)
        negated = condition_selectivity(~cond, stats, on_edges=True)
        assert 0.0 <= both <= single <= either_sel <= 1.0
        assert negated == pytest.approx(1.0 - single)

    def test_join_estimate_divides_by_midpoint_domain(self, stats):
        scan = EdgeScan(None, bound=False)
        join = JoinStep(scan, scan)
        expected = (stats.edge_count**2) / stats.node_count
        assert estimate_cardinality(join, stats) == pytest.approx(expected)

    def test_fixpoint_estimate_saturates_at_pair_count(self, stats):
        fixpoint = build_logical_plan(plus(seq(edge(), node())))
        assert estimate_cardinality(fixpoint, stats) <= stats.node_count**2


# --------------------------------------------------------------------------- #
# Join ordering
# --------------------------------------------------------------------------- #
def _selective_chain():
    """node - (unlabeled edge) - node - (rare filtered edge) - node."""
    return seq(
        node("x"),
        edge(),
        node("y"),
        where(edge("t"), prop_cmp("t", "w", ">", 95)),
        node("z"),
    )


class TestOrderJoins:
    def test_leaf_order_is_preserved(self, stats):
        plan = push_down_filters(build_logical_plan(_selective_chain()))
        ordered = order_joins(plan, stats)
        assert _flatten_join_chain(ordered) == _flatten_join_chain(plan)

    def test_selective_join_evaluated_first(self, stats):
        plan = push_down_filters(build_logical_plan(_selective_chain()))
        ordered = order_joins(plan, stats)
        assert isinstance(ordered, JoinStep)
        assert ordered != plan  # rule order (left-deep) was rewritten

        def scan_join_depth(tree, want_condition, depth=0):
            """Depth of the innermost JoinStep containing the (un)filtered
            edge scan — greater depth = joined earlier by the executor."""
            if isinstance(tree, EdgeScan):
                return depth if (tree.condition is not None) == want_condition else None
            for child in tree.children():
                found = scan_join_depth(child, want_condition, depth + 1)
                if found is not None:
                    return found
            return None

        # Greedy association must build the selective (filtered) edge's
        # join before the unfiltered one, i.e. place it deeper in the tree.
        filtered_depth = scan_join_depth(ordered, True)
        unfiltered_depth = scan_join_depth(ordered, False)
        assert filtered_depth is not None and unfiltered_depth is not None
        assert filtered_depth > unfiltered_depth

    def test_costed_optimize_falls_back_without_stats(self):
        pattern = _selective_chain()
        needed = frozenset({"x", "z"})
        assert optimize(build_logical_plan(pattern), needed) == optimize(
            build_logical_plan(pattern), needed, stats=None
        )

    def test_costed_plans_match_endpoint_semantics(self, graph, stats):
        for name, out in pattern_battery():
            expected = EndpointEvaluator(graph).evaluate_output(out)
            actual = PlanExecutor(graph, graph_stats=stats).evaluate_output(out)
            assert actual == expected, name

    def test_costed_plans_match_on_label_skewed_graph(self):
        # Heavy label skew: the costed order differs the most from the
        # rule order here, so equivalence is the interesting property.
        db = erdos_renyi(12, 0.3, seed=31, labels=("Red",), property_key="w")
        graph = graph_from(db)
        stats = collect_graph_statistics(graph)
        out = output(
            where(
                seq(node("x"), edge(), node("y"), edge(), node("z")),
                label("y", "Red"),
            ),
            "x",
            "z",
        )
        expected = EndpointEvaluator(graph).evaluate_output(out)
        assert PlanExecutor(graph, graph_stats=stats).evaluate_output(out) == expected
