"""Tests for workload generators and complexity instrumentation."""

import pytest

from repro.complexity import (
    certificate_size_bits,
    fit_power_law,
    guess_and_check,
    measure_query_scaling,
    reachable,
    reachable_pairs,
)
from repro.complexity.scaling import ScalingPoint
from repro.datasets import (
    GRAPH_VIEW_SCHEMA,
    TransferWorkloadConfig,
    alternating_chain,
    bipartite_random,
    chain,
    composite_view_relations,
    cycle,
    disjoint_chains,
    erdos_renyi,
    generate_composite_database,
    generate_iban_database,
    generate_social_database,
    grid,
    iban_view_relations,
    layered_dag,
    pair_graph_database,
    social_view_relations,
    star_graph,
)
from repro.patterns.builder import edge, node, output, plus, seq
from repro.pgq import graph_pattern_on_relations, pg_view, pg_view_ext


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #
class TestGenerators:
    def test_chain_cycle_star_grid_shapes(self):
        assert chain(5).relation("E").rows and len(chain(5).relation("N")) == 6
        assert len(cycle(4).relation("E")) == 4
        assert len(star_graph(3).relation("E")) == 3
        assert len(grid(2, 3).relation("N")) == 6

    def test_generated_views_are_valid_property_graphs(self):
        for db in (chain(4), cycle(5), grid(2, 2), erdos_renyi(8, 0.3, seed=1),
                   layered_dag(3, 3), disjoint_chains(2, 3)):
            relations = tuple(db.relation(name) for name in GRAPH_VIEW_SCHEMA)
            graph = pg_view(relations)
            graph.validate()

    def test_erdos_renyi_labels_and_properties(self):
        db = erdos_renyi(6, 0.5, seed=2, labels=("Red", "Blue"), property_key="w")
        assert len(db.relation("L")) == 6
        assert all(row[1] == "w" for row in db.relation("P").rows)

    def test_bank_iban_workload_and_view(self):
        db = generate_iban_database(TransferWorkloadConfig(accounts=8, transfers=20, seed=2))
        relations = iban_view_relations(db)
        graph = pg_view(relations)
        assert graph.node_count() == 8 and graph.edge_count() == 20
        some_edge = next(iter(graph.edges))
        assert graph.property(some_edge, "amount") is not None
        assert "Transfer" in graph.labels(some_edge)

    def test_bank_composite_workload_and_view(self):
        db = generate_composite_database(TransferWorkloadConfig(accounts=9, transfers=15, seed=2))
        relations = composite_view_relations(db)
        graph = pg_view_ext(relations)
        assert graph.node_arity() == 3
        assert graph.edge_count() == 15

    def test_colored_generators(self):
        db = alternating_chain(4)
        assert len(db.relation("RedNodes")) == 3 and len(db.relation("BlueNodes")) == 2
        random_db = bipartite_random(5, 5, 12, seed=1)
        assert len(random_db.relation("Edges")) == 12

    def test_social_workload_view(self):
        db = generate_social_database()
        relations = social_view_relations(db)
        graph = pg_view(relations)
        graph.validate()
        assert graph.elements_with_label("Person")
        assert graph.elements_with_label("Post")

    def test_pair_graph_database_arity(self):
        db = pair_graph_database(3, seed=4, edge_probability=0.3)
        assert db.relation("E4").arity == 4

    def test_generators_are_deterministic(self):
        assert generate_iban_database(TransferWorkloadConfig(seed=5)) == generate_iban_database(
            TransferWorkloadConfig(seed=5)
        )
        assert erdos_renyi(6, 0.4, seed=3) == erdos_renyi(6, 0.4, seed=3)


# --------------------------------------------------------------------------- #
# Complexity / NL instrumentation
# --------------------------------------------------------------------------- #
class TestComplexity:
    def test_reachable_bfs(self):
        graph = pg_view(tuple(chain(4).relation(n) for n in GRAPH_VIEW_SCHEMA))
        assert reachable(graph, "v0", "v4")
        assert not reachable(graph, "v4", "v0")
        assert reachable(graph, "v2", "v2")

    def test_reachable_pairs_count_on_chain(self):
        graph = pg_view(tuple(chain(3).relation(n) for n in GRAPH_VIEW_SCHEMA))
        assert len(reachable_pairs(graph)) == 10  # 4 reflexive + 6 forward pairs

    def test_guess_and_check_agrees_with_bfs(self):
        graph = pg_view(tuple(cycle(5).relation(n) for n in GRAPH_VIEW_SCHEMA))
        result = guess_and_check(graph, "v0", "v3", attempts=64, seed=1)
        assert result.found
        assert result.workspace_bits == certificate_size_bits(graph)
        chain_graph = pg_view(tuple(chain(3).relation(n) for n in GRAPH_VIEW_SCHEMA))
        assert not guess_and_check(chain_graph, "v3", "v0", attempts=16).found

    def test_certificate_size_is_logarithmic(self):
        def bits(size):
            graph = pg_view(tuple(chain(size).relation(n) for n in GRAPH_VIEW_SCHEMA))
            return certificate_size_bits(graph)

        assert bits(200) <= 4 * bits(3)
        assert bits(512) <= 2 * bits(8) + 8

    def test_measure_query_scaling_and_power_law(self, engine):
        curve = measure_query_scaling(
            reachability_query, lambda size: engine(chain(size)), [4, 8, 16]
        )
        assert [point.result_rows for point in curve.points] == [10, 36, 136]  # n(n+1)/2

    def test_chain_reachability_scales_polynomially(self, engine):
        # Corollary 6.4: evaluation stays in NL, so polynomial data
        # complexity; the fitted exponent stays well below cubic.
        curve = measure_query_scaling(
            reachability_query, lambda size: engine(chain(size)), [8, 16, 32], repeats=3
        )
        assert curve.exponent is not None and curve.exponent < 3.5

    def test_fit_power_law_recovers_exponent(self):
        points = [ScalingPoint(n, float(n ** 2), n) for n in (10, 20, 40, 80)]
        exponent = fit_power_law(points)
        assert exponent == pytest.approx(2.0, abs=0.01)

    def test_fit_power_law_degenerate(self):
        assert fit_power_law([ScalingPoint(1, 0.0, 1)]) is None


def reachability_query():
    pattern = seq(node("x"), plus(seq(edge(), node())), node("y"))
    return graph_pattern_on_relations(output(pattern, "x", "y"), GRAPH_VIEW_SCHEMA)
