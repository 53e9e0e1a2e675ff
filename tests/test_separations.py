"""Tests for the executable separations (Theorems 4.1, 4.2, 5.2, Example 5.3).

Every claim that evaluates a PGQ query runs on each served engine (the
``engine`` fixture of ``conftest.py``).
"""

import pytest

from repro.datasets import (
    GRAPH_VIEW_SCHEMA,
    TransferWorkloadConfig,
    alternating_chain,
    bipartite_random,
    chain,
    cycle,
    disjoint_chains,
    generate_iban_database,
    generate_transfer_chain,
    non_alternating_pair,
    pair_graph_database,
)
from repro.patterns.builder import edge, node, output, repeat, seq
from repro.pgq import Fragment, classify_on_database, graph_pattern_on_relations
from repro.separations import (
    BASE_AMOUNT,
    alternating_path_query_ro,
    alternating_path_query_rw,
    approximation_gap,
    best_period,
    componentwise_approximation,
    has_alternating_path_reference,
    increasing_amount_pairs_query,
    increasing_amount_pairs_reference,
    is_eventually_periodic,
    pair_reachability_query,
    pair_reachability_reference,
    path_length_set,
    rw_detectable_length_sets,
    square_length_path_exists,
    square_lengths,
    squares_not_rw_detectable,
)


# --------------------------------------------------------------------------- #
# Theorem 4.1: PGQro vs PGQrw
# --------------------------------------------------------------------------- #
class TestAlternating:
    def test_rw_query_detects_long_alternating_paths(self, engine):
        for length in (2, 5, 10, 25):
            db = alternating_chain(length)
            assert engine(db).evaluate(alternating_path_query_rw())
            assert has_alternating_path_reference(db)

    def test_rw_query_rejects_graphs_without_two_edge_paths(self, engine):
        db = non_alternating_pair(5)
        assert not engine(db).evaluate(alternating_path_query_rw())
        assert not has_alternating_path_reference(db)

    def test_rw_query_is_classified_read_write(self):
        db = alternating_chain(4)
        info = classify_on_database(alternating_path_query_rw(), db)
        assert info.fragment is Fragment.RW
        assert info.identifier_arity == 1

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ro_queries_are_bounded_radius(self, engine, k):
        # Each fixed read-only query detects alternating paths only up to its
        # own length; on a longer chain a short query still fires, but the
        # key phenomenon is that a query of length k fails on instances whose
        # only long path is shorter than k and succeeds when it is >= k.
        query = alternating_path_query_ro(k)
        backends = [engine(alternating_chain(n)) for n in (k, k - 1)]
        assert [bool(backend.evaluate(query)) for backend in backends] == [True, False]

    def test_ro_and_rw_agree_on_random_bipartite_graphs(self, engine):
        db = bipartite_random(6, 6, 14, seed=3)
        rw = bool(engine(db).evaluate(alternating_path_query_rw()))
        assert rw == has_alternating_path_reference(db)

    def test_reference_minimum_edges_parameter(self):
        db = alternating_chain(1)
        assert has_alternating_path_reference(db, minimum_edges=1)
        assert not has_alternating_path_reference(db, minimum_edges=2)


# --------------------------------------------------------------------------- #
# Theorem 4.2: PGQrw vs NL (semilinearity of path lengths)
# --------------------------------------------------------------------------- #
class TestSemilinear:
    def test_path_length_set_on_chain(self):
        db = chain(6)
        lengths = path_length_set(db, "v0", "v6", bound=10)
        assert lengths == frozenset({6})
        assert path_length_set(db, "v0", None, bound=10) == frozenset(range(7))

    def test_path_length_set_on_cycle_is_periodic(self):
        db = cycle(3)
        lengths = path_length_set(db, "v0", "v0", bound=20)
        assert lengths == frozenset(range(0, 21, 3))
        assert is_eventually_periodic(lengths, bound=20)
        period, _threshold = best_period(lengths, bound=20)
        assert period == 3

    def test_square_lengths_are_not_eventually_periodic_on_window(self):
        squares = square_lengths(60)
        assert not is_eventually_periodic(squares, bound=60, max_period=8)

    def test_square_length_path_query(self):
        assert square_length_path_exists(chain(9), "v0", "v9", bound=20)
        assert not square_length_path_exists(chain(3), "v0", "v3", bound=20)

    def test_rw_family_is_semilinear_and_misses_squares(self):
        sets = rw_detectable_length_sets(bound=40)
        for lengths in sets.values():
            assert is_eventually_periodic(lengths, bound=40)
        assert squares_not_rw_detectable(bound=40)

    def test_graph_path_length_sets_are_eventually_periodic(self):
        instances = (
            (chain(10), "v0", None),
            (cycle(3), "v0", "v0"),
            (cycle(4), "v0", "v0"),
            (disjoint_chains(2, 6), None, None),
        )
        for database, source, target in instances:
            lengths = path_length_set(database, source, target, bound=40)
            assert is_eventually_periodic(lengths, bound=40)

    @pytest.mark.parametrize("lower, upper", [(0, 2), (1, 3), (2, 5)])
    def test_repetition_queries_detect_the_rw_length_sets(self, engine, lower, upper):
        # The lengths a real PGQrw repetition query reaches from v0 are the
        # family's sets: {l,u} gives [l, u] and {l,} gives length >= l.
        database = chain(10)
        sets = rw_detectable_length_sets(bound=10)
        backend = engine(database)
        for bounds, name in (
            ((lower, upper), f"length in [{lower},{upper}]"),
            ((lower,), f"length>={lower}"),
        ):
            pattern = seq(node("x"), repeat(seq(edge(), node()), *bounds), node("y"))
            query = graph_pattern_on_relations(output(pattern, "x", "y"), GRAPH_VIEW_SCHEMA)
            rows = backend.evaluate(query).rows
            assert {int(y[1:]) for x, y in rows if x == "v0"} == sets[name]


# --------------------------------------------------------------------------- #
# Theorem 5.2: PGQrw vs PGQext (pair reachability)
# --------------------------------------------------------------------------- #
class TestPairReachability:
    def test_query_matches_reference(self, engine):
        db = pair_graph_database(4, seed=2, edge_probability=0.2)
        rows = set(engine(db).evaluate(pair_reachability_query()).rows)
        assert rows == set(pair_reachability_reference(db))

    def test_query_is_in_pgq_ext(self):
        db = pair_graph_database(3, seed=1, edge_probability=0.3)
        info = classify_on_database(pair_reachability_query(), db)
        assert info.fragment is Fragment.EXT
        assert info.identifier_arity == 4  # pairs padded to arity 4 (Lemma 9.4 style)

    def test_componentwise_approximation_overapproximates(self):
        db = pair_graph_database(4, seed=7, edge_probability=0.15)
        truth = pair_reachability_reference(db)
        approx = componentwise_approximation(db)
        assert truth <= approx

    def test_approximation_gap_is_positive_on_some_instance(self):
        # The gap witnesses that tracking components independently (the
        # natural unary-identifier strategy) is not pair reachability.
        gaps = [
            approximation_gap(pair_graph_database(4, seed=seed, edge_probability=0.12))
            for seed in range(6)
        ]
        assert any(gap > 0 for gap in gaps)


# --------------------------------------------------------------------------- #
# Example 5.3: increasing-amount paths
# --------------------------------------------------------------------------- #
class TestIncreasingAmounts:
    def test_query_matches_reference_on_random_workload(self, engine):
        db = generate_iban_database(TransferWorkloadConfig(accounts=10, transfers=25, seed=3))
        rows = set(engine(db).evaluate(increasing_amount_pairs_query()).rows)
        assert rows == set(increasing_amount_pairs_reference(db))

    def test_increasing_chain_reaches_the_end(self, engine):
        db = generate_transfer_chain(5, increasing=True)
        rows = set(engine(db).evaluate(increasing_amount_pairs_query()).rows)
        assert ("IBAN00000", "IBAN00005") in rows

    def test_non_increasing_chain_does_not_reach_the_end(self, engine):
        db = generate_transfer_chain(6, increasing=False, seed=5)
        rows = set(engine(db).evaluate(increasing_amount_pairs_query()).rows)
        reference = increasing_amount_pairs_reference(db)
        assert rows == set(reference)
        assert ("IBAN00000", "IBAN00006") not in rows

    def test_single_transfers_always_count(self, engine):
        db = generate_transfer_chain(1, increasing=True)
        rows = set(engine(db).evaluate(increasing_amount_pairs_query()).rows)
        assert ("IBAN00000", "IBAN00001") in rows

    def test_view_uses_composite_identifiers(self):
        db = generate_transfer_chain(3, increasing=True)
        info = classify_on_database(increasing_amount_pairs_query(), db)
        assert info.fragment is Fragment.EXT
        assert info.identifier_arity == 2  # (iban, amount) copies

    def test_base_amount_is_below_generated_amounts(self):
        db = generate_iban_database(TransferWorkloadConfig(accounts=5, transfers=10))
        amounts = {row[4] for row in db.relation("Transfer").rows}
        assert all(amount > BASE_AMOUNT for amount in amounts)
