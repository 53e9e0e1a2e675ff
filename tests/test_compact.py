"""Tests for the compact-ID columnar execution core.

Three layers are covered:

* :class:`~repro.graph.compact.CompactGraph` — ID interning, CSR
  adjacency, label bitsets and property columns;
* the :class:`~repro.planner.physical.PlanExecutor` — property-based
  equivalence with the naive oracle, plus the cases the integer encoding
  is most likely to get wrong (empty graph, self-loops, a variable bound
  to a node in one branch and an edge in the other);
* the observability satellites — ``PlanCache.info`` extensions and the
  connection ``explain`` footer.
"""

from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi, pair_graph_database
from repro.engine import Database, NaiveEngine, PlannedEngine
from repro.graph import PropertyGraph, closure_masks
from repro.graph.compact import MISSING
from repro.matching import EndpointEvaluator
from repro.patterns.builder import (
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
from repro.pgq import graph_pattern_on_relations, pg_view
from repro.pgq.views import ViewRelations
from repro.planner import PlanCache, PlanCounters, PlanExecutor
from repro.separations import pair_reachability_query

VIEW = GRAPH_VIEW_SCHEMA


def _streamed_rows(graph, out):
    """Rows of the executor's streaming projection, batch after batch; a
    source that declares the result order must arrive in it."""
    batches, ordered = PlanExecutor(graph).stream_output(out)
    rows = list(chain.from_iterable(batches))
    if ordered:
        assert rows == sorted(rows, key=repr)
    return rows


def graph_from(database):
    return pg_view(ViewRelations(*(database.relation(name) for name in VIEW)).as_tuple())


# --------------------------------------------------------------------------- #
# CompactGraph structure
# --------------------------------------------------------------------------- #
class TestCompactGraph:
    def test_interning_round_trips(self, triangle_graph):
        compact = triangle_graph.compact()
        assert sorted(compact.node_ids) == sorted(triangle_graph.nodes)
        assert sorted(compact.edge_ids) == sorted(triangle_graph.edges)
        for ident, position in compact.node_index.items():
            assert compact.node_ids[position] == ident
        for ident, position in compact.edge_index.items():
            assert compact.edge_ids[position] == ident

    def test_csr_matches_graph_navigation(self, triangle_graph):
        compact = triangle_graph.compact()
        for position, ident in enumerate(compact.node_ids):
            successors = {compact.node_ids[j] for j in compact.successors(position)}
            assert successors == set(triangle_graph.successors(ident))
            predecessors = {compact.node_ids[j] for j in compact.predecessors(position)}
            assert predecessors == set(triangle_graph.predecessors(ident))
            out_edges = {compact.edge_ids[e] for e in compact.out_edges(position)}
            assert out_edges == set(triangle_graph.out_edges(ident))
            in_edges = {compact.edge_ids[e] for e in compact.in_edges(position)}
            assert in_edges == set(triangle_graph.in_edges(ident))

    def test_label_bitsets_partition_id_spaces(self, triangle_graph):
        compact = triangle_graph.compact()
        red = compact.node_label_mask("Red")
        decoded = {compact.node_ids[i] for i in range(compact.node_count) if (red >> i) & 1}
        assert decoded == {("a",), ("c",)}
        assert compact.edge_label_mask("Red") == 0
        assert compact.node_label_mask("Edge") == 0
        edge_mask = compact.edge_label_mask("Edge")
        assert edge_mask.bit_count() == 3
        assert compact.node_label_mask("NoSuchLabel") == 0

    def test_property_columns_align_with_ids(self, triangle_graph):
        compact = triangle_graph.compact()
        amounts = compact.property_column("amount", "edge")
        for position, ident in enumerate(compact.edge_ids):
            assert amounts[position] == triangle_graph.property(ident, "amount")
        names = compact.property_column("name", "node")
        for position, ident in enumerate(compact.node_ids):
            assert names[position] == triangle_graph.property(ident, "name")
        missing = compact.property_column("absent", "node")
        assert all(value is MISSING for value in missing)

    def test_rank_tables_rank_only_where_equality_and_keys_agree(self):
        def ranked(values):
            names = [f"n{position}" for position in range(len(values))]
            graph = PropertyGraph.of(
                names, properties={name: {"p": value} for name, value in zip(names, values)}
            )
            compact = graph.compact()
            table = compact.rank_table("p", "node", ")")
            if table is None:
                return None
            ranks, by_rank, prefix_free = table
            by_node = [ranks[compact.node_index[(f"n{i}",)]] for i in range(len(values))]
            return by_node, by_rank, prefix_free

        ranks, by_rank, prefix_free = ranked([2, "b", 2, 1.5])
        assert by_rank == [("b",), (1.5,), (2,)] and ranks == [2, 0, 2, 1]  # "'b')" < "1.5)"
        assert prefix_free
        # Equal values that print differently, and a value printing alike
        # but unequal to itself in another object: no rank stands for one.
        assert ranked([1, True]) is None
        assert ranked([2, 1.0, 1]) is None
        assert ranked([float("nan"), float("nan")]) is None
        nan = float("nan")
        assert ranked([nan, nan, 1])[1] == [(1,), (nan,)]

    def test_empty_graph(self):
        compact = PropertyGraph.of([]).compact()
        assert compact.node_count == 0 and compact.edge_count == 0
        assert compact.node_label_mask("x") == 0


# --------------------------------------------------------------------------- #
# Closure kernels
# --------------------------------------------------------------------------- #
class TestClosureMasks:
    def _naive_closure(self, masks):
        n = len(masks)
        out = []
        for i in range(n):
            seen = {i}
            frontier = [i]
            while frontier:
                nxt = []
                for u in frontier:
                    m = masks[u]
                    j = 0
                    while m:
                        if m & 1 and j not in seen:
                            seen.add(j)
                            nxt.append(j)
                        m >>= 1
                        j += 1
                frontier = nxt
            out.append(sum(1 << j for j in seen))
        return out

    @given(seed=st.integers(0, 1000), nodes=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, seed, nodes):
        import random

        rng = random.Random(seed)
        masks = [
            sum(1 << j for j in range(nodes) if rng.random() < 0.3) for i in range(nodes)
        ]
        result, rounds = closure_masks(masks)
        assert result == self._naive_closure(masks)
        assert rounds >= 1

    def test_chain(self):
        masks = [0b010, 0b100, 0b000]  # 0 -> 1 -> 2
        result, _rounds = closure_masks(masks)
        assert result == [0b111, 0b110, 0b100]

    def test_self_loops_converge(self):
        masks = [0b01, 0b11]  # 0 -> 0 (self loop), 1 -> {0, 1}
        result, _rounds = closure_masks(masks)
        assert result == [0b01, 0b11]

    def test_on_round_hook_fires_every_round_and_may_abort(self):
        masks = [0b010, 0b100, 0b000]
        fired = []
        _result, rounds = closure_masks(masks, on_round=lambda: fired.append(1))
        assert len(fired) == rounds

        def abort():
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            closure_masks(masks, on_round=abort)

    def test_empty(self):
        assert closure_masks([]) == ([], 1)


# --------------------------------------------------------------------------- #
# Executor vs the oracle
# --------------------------------------------------------------------------- #
def _battery():
    step = seq(edge(), node())
    return [
        output(seq(node("x"), edge("t"), node("y")), "x", "t", "y"),
        output(where(seq(node("x"), edge(), node("y")), label("x", "Red")), "x", "y"),
        output(
            seq(node("x"), where(edge("t"), prop_cmp("t", "w", ">", 40)), node("y")),
            "x", prop("t", "w"), "y",
        ),
        output(seq(node("x"), star(step), node("y")), "x", "y"),
        output(seq(node("x"), plus(step), node("y")), "x", "y"),
        output(seq(node("x"), repeat(step, 2, 4), node("y")), "x", "y"),
        output(seq(node("x"), repeat(step, 3), node("y")), "x", "y"),
    ]


class TestColumnarEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(2, 9),
        probability=st.sampled_from([0.1, 0.25, 0.4]),
        index=st.integers(0, len(_battery()) - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_executor_and_oracle_agree(self, seed, nodes, probability, index):
        graph = graph_from(
            erdos_renyi(nodes, probability, seed=seed, labels=("Red", "Blue"), property_key="w")
        )
        out = _battery()[index]
        expected = EndpointEvaluator(graph).evaluate_output(out)
        assert PlanExecutor(graph).evaluate_output(out) == expected
        assert frozenset(_streamed_rows(graph, out)) == expected

    @given(seed=st.integers(0, 10_000), values=st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_engines_agree_on_nary_identifiers(self, seed, values):
        database = pair_graph_database(values, seed=seed, edge_probability=0.2)
        query = pair_reachability_query()
        expected = NaiveEngine(database).evaluate(query)
        assert PlannedEngine(database).evaluate(query).rows == expected.rows

    def test_empty_graph(self):
        graph = PropertyGraph.of([])
        out = output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y")
        assert PlanExecutor(graph).evaluate_output(out) == frozenset()

    def test_self_loops(self):
        graph = PropertyGraph.of(
            "ab", {"e1": ("a", "a"), "e2": ("a", "b")}, properties={"e1": {"w": 5}, "e2": {"w": 9}}
        )
        for out in _battery():
            assert PlanExecutor(graph).evaluate_output(out) == EndpointEvaluator(
                graph
            ).evaluate_output(out)

    def test_max_repetitions_guard_matches_on_compact_path(self):
        from repro.errors import PatternError

        graph = graph_from(erdos_renyi(6, 0.5, seed=3))
        out = output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y")
        with pytest.raises(PatternError, match="max_repetitions=1"):
            PlanExecutor(graph, max_repetitions=1).evaluate_output(out)


# --------------------------------------------------------------------------- #
# Property projections decoded straight from the closure's bitmasks
# --------------------------------------------------------------------------- #
_CLOSURE = seq(node("x"), plus(seq(edge(), node())), node("y"))

_CLOSURE_PROJECTIONS = {
    "both-properties": (prop("x", "w"), prop("y", "w")),
    "both-properties-swapped": (prop("y", "w"), prop("x", "w")),
    "source-property": (prop("x", "w"),),
    "target-property": (prop("y", "w"),),
    "identifier-then-property": ("x", prop("y", "w")),
    "property-then-identifier": (prop("y", "w"), "x"),
}


class TestPropertyProjectionOverMasks:
    @pytest.mark.parametrize("name", sorted(_CLOSURE_PROJECTIONS))
    def test_streamed_rows_are_distinct_and_equal_the_oracle(self, name):
        # "a" and "b" share a value (the projection must deduplicate) and
        # "c" has none (rows through it are undefined and drop).
        graph = PropertyGraph.of(
            "abcd",
            {f"e{index}": tuple(pair) for index, pair in enumerate(("ab", "bc", "cd", "ca"))},
            properties={"a": {"w": 1}, "b": {"w": 1}, "c": {}, "d": {"w": 2}},
        )
        out = output(_CLOSURE, *_CLOSURE_PROJECTIONS[name])
        expected = EndpointEvaluator(graph).evaluate_output(out)
        assert expected
        streamed = _streamed_rows(graph, out)
        assert len(streamed) == len(set(streamed))
        assert frozenset(streamed) == expected
        assert PlanExecutor(graph).evaluate_output(out) == expected


# --------------------------------------------------------------------------- #
# A variable bound to a node in one place and an edge in another
# --------------------------------------------------------------------------- #
_NODE_OR_EDGE = either(node("x"), edge("x"))

_MIXED_KIND_OUTPUTS = {
    "lifted-variable": output(_NODE_OR_EDGE, "x"),
    "lifted-property": output(_NODE_OR_EDGE, prop("x", "w")),
    "lifted-inside-path": output(seq(node("s"), _NODE_OR_EDGE, node("t")), "s", "x", "t"),
    "node-joins-edge": output(seq(node("x"), edge("x"), node("y")), "x", "y"),
    "filter-over-lifted": output(where(_NODE_OR_EDGE, prop_cmp("x", "w", ">", 40)), "x"),
    "label-over-lifted": output(where(_NODE_OR_EDGE, label("x", "Red")), "x"),
    "lifted-under-plus": output(seq(node("s"), plus(_NODE_OR_EDGE), node("t")), "s", "t"),
    "lifted-joins-node": output(seq(_NODE_OR_EDGE, node("x")), "x"),
    "lifted-joins-edge": output(seq(_NODE_OR_EDGE, edge("x")), "x", prop("x", "w")),
    "edge-joins-lifted": output(seq(edge("x"), _NODE_OR_EDGE), "x"),
    "lifted-joins-lifted": output(seq(_NODE_OR_EDGE, edge("t"), _NODE_OR_EDGE), "x", "t"),
}


def _mixed_kind_graph():
    # Self-loops make "the same edge twice in a row" satisfiable, and the
    # property/label sit on nodes and edges alike so lifted lookups must
    # resolve in both halves of the element space.
    return PropertyGraph.of(
        "abc",
        {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "c"), "e4": ("a", "a")},
        labels={"a": ["Red"], "c": ["Red"], "e1": ["Red"], "e3": ["Red"]},
        properties={
            "a": {"w": 70}, "b": {"w": 10}, "e1": {"w": 55}, "e2": {"w": 5}, "e3": {"w": 90}
        },
    )


class TestMixedKindVariables:
    @pytest.mark.parametrize("name", sorted(_MIXED_KIND_OUTPUTS))
    def test_equals_oracle_materialized_and_streamed(self, name):
        graph = _mixed_kind_graph()
        out = _MIXED_KIND_OUTPUTS[name]
        expected = EndpointEvaluator(graph).evaluate_output(out)
        # Disjointness of N and E empties exactly this case; every other
        # one must be a non-vacuous comparison.
        assert bool(expected) == (name != "node-joins-edge")
        assert PlanExecutor(graph).evaluate_output(out) == expected
        assert frozenset(_streamed_rows(graph, out)) == expected

    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(1, 7),
        name=st.sampled_from(sorted(_MIXED_KIND_OUTPUTS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_oracle_on_random_graphs(self, seed, nodes, name):
        graph = graph_from(
            erdos_renyi(nodes, 0.35, seed=seed, labels=("Red", "Blue"), property_key="w")
        )
        out = _MIXED_KIND_OUTPUTS[name]
        expected = EndpointEvaluator(graph).evaluate_output(out)
        assert PlanExecutor(graph).evaluate_output(out) == expected
        assert frozenset(_streamed_rows(graph, out)) == expected

    def test_counters_show_one_execution(self):
        # Two scans of 3 nodes + 4 edges and their union: nothing ran twice.
        graph = _mixed_kind_graph()
        counters = PlanCounters()
        executor = PlanExecutor(graph, counters=counters)
        executor.evaluate_output(_MIXED_KIND_OUTPUTS["lifted-variable"])
        assert counters.rows_produced == 2 * (3 + 4)
        assert counters.join_probes == 0 and counters.fixpoint_rounds == 0


# --------------------------------------------------------------------------- #
# Observability: PlanCache.info and connection explain
# --------------------------------------------------------------------------- #
class TestCounterSurfacing:
    def test_plan_cache_info_includes_execution_counters(self):
        engine = PlannedEngine(erdos_renyi(4, 0.5, seed=1))
        info = engine.plan_cache.info()
        assert "compact_encode_s" in info

    def test_bare_plan_cache_info_keeps_legacy_shape(self):
        assert set(PlanCache().info()) == {
            "hits",
            "misses",
            "prepared_hits",
            "prepared_misses",
            "size",
        }

    def test_compact_encode_time_is_recorded(self):
        database = erdos_renyi(6, 0.4, seed=5)
        step = seq(edge(), node())
        query = graph_pattern_on_relations(
            output(seq(node("x"), star(step), node("y")), "x", "y"), VIEW
        )
        engine = PlannedEngine(database)
        engine.evaluate(query)
        assert engine.plan_cache.info()["compact_encode_s"] > 0.0

    def _session(self, **options):
        db = Database()
        db.create_table("Account", ["iban"], [("A1",), ("A2",)])
        db.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [("T1", "A1", "A2", 1, 250)],
        )
        db.execute(
            """CREATE PROPERTY GRAPH Transfers (
                 NODES TABLE Account KEY (iban) LABEL Account,
                 EDGES TABLE Transfer KEY (t_id)
                   SOURCE KEY src_iban REFERENCES Account
                   TARGET KEY tgt_iban REFERENCES Account
                   LABELS Transfer PROPERTIES (ts, amount))"""
        )
        return db.connect(engine="planned", **options)

    QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
                 MATCH (x) -[t:Transfer]->+ (y) COLUMNS (x.iban, y.iban) )"""

    def test_explain_reports_engine_counters(self):
        with self._session() as session:
            session.execute(self.QUERY)
            text = session.explain(self.QUERY)
            assert "compact_encode_s=" in text
            assert "plan cache:" in text

    def test_session_threads_engine_options(self):
        cache = PlanCache()
        with self._session(plan_cache=cache) as session:
            session.execute(self.QUERY)
            assert session._get_engine().plan_cache is cache
            assert cache.misses == 1
