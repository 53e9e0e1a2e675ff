"""The result-order contract and the batch source behind it.

Rows of a result come in ascending ``repr(row)``.  The planned engine
produces that order *structurally*: both-endpoint projections of a
closure walk heads in key order and, per head, tails in key order; every
other projection sorts one int per row, mixed radix over its items'
ranks, and decodes in that order.  Only a table whose keys are not
prefix-free where they must be is handed to the cursor unordered, and
the cursor sorts.  Either way the tuple must be the one the naive
oracle's sorted result gives:

* a hypothesis property over small random graphs whose keys and property
  values are chosen to break a key-order argument (quotes, ``", "``,
  backslashes, one value a prefix of another, mixed types, duplicates,
  missing properties, 2-ary identifiers, both column orders,
  single-column projections);
* one hand-built graph whose head keys are **not** prefix-free, where the
  structural order would be wrong and the fallback sort must be taken,
  for a closure and for a hop;
* equal values that print differently (``1``, ``1.0``, ``True``) on
  different nodes, which no rank can stand for: each row keeps its own
  node's value, on the planned and sqlite engines;
* the cursor reads an ordered source a batch at a time, and output
  budgets, cross-thread cancels and ``close(drain=False)`` land between
  batches, of a closure's and of a hop's; a cancel also lands inside the
  key build of a large join, before its first batch;
* a streamed result's decode phase reaches the latency telemetry.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database, QueryResult
from repro.errors import (
    ConnectionClosedError,
    QueryCancelledError,
    ResourceExhaustedError,
)
from repro.governance import (
    CHECK_INTERVAL,
    CancellationToken,
    QueryBudget,
    QueryGovernor,
    activate_governor,
)
from repro.graph import PropertyGraph
from repro.matching import EndpointEvaluator
from repro.observability import MetricsRegistry, RingBufferSink, Tracer
from repro.patterns.builder import edge, node, output, plus, seq
from repro.planner import PlanExecutor
from repro.planner.decode import _CHUNK

#: Strings whose reprs contain every character the key-order argument has
#: to survive — the quote styles, the ``", "`` separator, an escape, ``!``
#: and space (which sort below every other printable), a value that is a
#: prefix of another — next to ``None`` and numbers of three types.  No
#: two values are equal across types (``1 == True``): which of those a
#: set keeps is not the order's business.
ADVERSARIAL = [
    "a", "a', 'b", "a'", 'a"', "a'\"", "a, b", "a\\", "a b", "a!", "ab", " ", "", "b",
    None, 2, 10, -3, 1.5, 10.25, True, False,
]

#: Every output shape over the two endpoints: both column orders, plain
#: identifiers, properties, mixtures, and the single-column projections.
PROJECTIONS = [
    "x.p, y.p", "y.p, x.p", "x, y", "y, x", "x.p, y", "y, x.p", "x.p", "y.p", "x", "y",
]


@st.composite
def graphs(draw):
    """``(arity, nodes with p, nodes without p, edges)`` of a small graph
    whose identifiers (``arity`` columns each) and ``p`` values are drawn
    from :data:`ADVERSARIAL`, duplicates included."""
    arity = draw(st.sampled_from([1, 2]))
    component = st.sampled_from([v for v in ADVERSARIAL if v is not None])
    keys = draw(
        st.lists(st.tuples(*[component] * arity), min_size=2, max_size=7, unique=True)
    )
    bare = draw(st.integers(0, min(2, len(keys) - 1)))
    with_p = [key + (draw(st.sampled_from(ADVERSARIAL)),) for key in keys[bare:]]
    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(keys))
    edges = draw(st.lists(pairs, min_size=1, max_size=12, unique=True))
    return arity, with_p, keys[:bare], edges


def build(arity, with_p, bare, edges, **database_options) -> Database:
    key = [f"k{i}" for i in range(arity)]
    ends = [f"s{i}" for i in range(arity)] + [f"t{i}" for i in range(arity)]
    db = Database(**database_options)
    db.create_table("A", key + ["p"], with_p)
    db.create_table("B", key, bare)  # nodes on which p is undefined
    db.create_table(
        "W",
        key + ends,
        [(f"e{i}",) * arity + source + target for i, (source, target) in enumerate(edges)],
    )
    columns = ", ".join
    db.execute(
        f"""CREATE PROPERTY GRAPH G (
          NODES TABLE A KEY ({columns(key)}) PROPERTIES (p),
          NODES TABLE B KEY ({columns(key)}) PROPERTIES ({key[0]}),
          EDGES TABLE W KEY ({columns(key)})
            SOURCE KEY ({columns(ends[:arity])}) REFERENCES A
            TARGET KEY ({columns(ends[arity:])}) REFERENCES A LABELS W)"""
    )
    return db


class TestExactOrder:
    @given(graph=graphs(), projection=st.sampled_from(PROJECTIONS), closure=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_planned_rows_are_the_oracles_sorted_tuple(self, graph, projection, closure):
        hop = "->+" if closure else "->"
        sql = f"SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[t:W]{hop}(y) COLUMNS ({projection}) )"
        with build(*graph) as db:
            planned = db.connect("planned").execute(sql)
            naive = db.connect("naive").execute(sql)
            assert planned.streamed
            arrival = list(planned)
            assert planned.rows == naive.rows
            assert planned.rows == tuple(sorted(set(arrival), key=repr))
            assert len(arrival) == len(planned.rows)  # distinct as they arrive
            assert planned == naive  # QueryResult.__eq__ across engines

    @given(graph=graphs(), closure=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_projection_streams_in_result_order(self, graph, closure):
        hop = "->+" if closure else "->"
        with build(*graph) as db:
            planned, naive = db.connect("planned"), db.connect("naive")
            for projection in PROJECTIONS:
                sql = (
                    f"SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[t:W]{hop}(y) "
                    f"COLUMNS ({projection}) )"
                )
                result = planned.execute(sql)
                assert result._ordered, projection
                assert list(result) == list(naive.execute(sql).rows), projection

    def test_both_endpoints_of_a_closure_arrive_ordered(self):
        graph = (1, [("a", 1), ("b", 1), ("c", 2)], [("d",)], [(("a",), ("b",)), (("b",), ("d",))])
        with build(*graph) as db:
            connection = db.connect("planned")
            for projection in ("x.p, y", "y, x.p", "x, y"):
                result = connection.execute(
                    f"SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[t:W]->+(y) COLUMNS ({projection}) )"
                )
                assert result._ordered, projection
                assert list(result) == sorted(result, key=repr)

    def test_heads_that_are_not_prefix_free_take_the_fallback_sort(self):
        # ('a',) heads rows whose repr starts "('a', " — and so does
        # ('a', 'b'): walking heads in key order would emit ('a', 'c')
        # before ('a', 'b', 'c').
        graph = PropertyGraph.of(
            ["a", ("a", "b"), "c"], {"e1": ("a", ("a", "b")), "e2": (("a", "b"), "c")}
        )
        out = output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y")
        expected = sorted(EndpointEvaluator(graph).evaluate_output(out), key=repr)
        assert expected == [("a", "a", "b"), ("a", "b", "c"), ("a", "c")]
        batches, ordered = PlanExecutor(graph).stream_output(out)
        assert ordered is False
        result = QueryResult(("x", "y"), batches=batches, ordered=ordered)
        assert list(result.rows) == expected
        # The hop reads the same two heads: the rank kernel must refuse.
        hop = output(seq(node("x"), edge(), node("y")), "x", "y")
        expected = sorted(EndpointEvaluator(graph).evaluate_output(hop), key=repr)
        assert expected == [("a", "a", "b"), ("a", "b", "c")]
        batches, ordered = PlanExecutor(graph).stream_output(hop)
        assert ordered is False
        result = QueryResult(("x", "y"), batches=batches, ordered=ordered)
        assert list(result.rows) == expected
        # One column is the whole row, ranked by its own repr, trailing
        # comma and all: ('a', 'b') sorts before ('a',).
        for variable, rows in (("x", [("a", "b"), ("a",)]), ("y", [("a", "b"), ("c",)])):
            single = output(seq(node("x"), edge(), node("y")), variable)
            expected = sorted(EndpointEvaluator(graph).evaluate_output(single), key=repr)
            assert expected == rows
            batches, ordered = PlanExecutor(graph).stream_output(single)
            assert ordered is True
            assert [row for batch in batches for row in batch] == expected


    @pytest.mark.parametrize("hop", ["->", "->+"])
    def test_equal_values_that_print_differently_keep_their_own(self, hop):
        # 1, 1.0 and True are equal, so one rank cannot stand for all
        # three: each row must carry its own node's value, in repr order
        # next to 2.  Three-node chains, one per value, keep every row
        # distinct under == as well.
        values = [1, 1.0, True, 2]
        heads = [(f"s{i}", value) for i, value in enumerate(values)]
        middles = [(f"m{i}", f"m{i}") for i in range(len(values))]
        tails = [(f"t{i}", value) for i, value in enumerate(reversed(values))]
        edges = [((f"s{i}",), (f"m{i}",)) for i in range(len(values))]
        edges += [((f"m{i}",), (f"t{i}",)) for i in range(len(values))]
        with build(1, heads + middles + tails, [], edges) as db:
            naive = db.connect("naive")
            for engine in ("planned", "sqlite"):
                connection = db.connect(engine)
                for projection in ("x.p, y", "y, x.p", "x, y.p", "y.p, x"):
                    sql = (
                        f"SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[t:W]{hop}(y) "
                        f"COLUMNS ({projection}) )"
                    )
                    expected = naive.execute(sql).rows
                    assert set(map(repr, values)) <= {repr(v) for row in expected for v in row}
                    assert repr(connection.execute(sql).rows) == repr(expected), (engine, sql)


    @pytest.mark.parametrize("hop", ["->", "->+"])
    def test_equal_values_on_one_row_count_once(self, hop):
        # 1, 1.0 and True all point at t: the rows are one row under ==,
        # so a result holds it once (which spelling a set keeps is not
        # the order's business).
        heads = [("a", 1), ("b", 1.0), ("c", True), ("t", "t")]
        edges = [((name,), ("t",)) for name in "abc"]
        sql = f"SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[t:W]{hop}(y) COLUMNS (x.p, y) )"
        with build(1, heads, [], edges) as db:
            expected = db.connect("naive").execute(sql).rows
            assert len(expected) == 1
            for engine in ("planned", "sqlite"):
                assert db.connect(engine).execute(sql).rows == expected, engine


class TestSQLiteRowsAreThePlannedRows:
    """SQLite runs the match of a root pattern and the planned engine's
    decoder builds the rows, so they are the planned rows value for value
    — SQLite would hand ``True`` back as ``1`` — and in the same order."""

    @pytest.mark.parametrize("identifier", [1, 1.0, True, "1", None], ids=repr)
    def test_rows_equal_the_planned_engines_by_repr(self, identifier):
        names = [(identifier,)] + [(f"n{i:02d}",) for i in range(len(ADVERSARIAL) - 1)]
        with_p = [name + (value,) for name, value in zip(names, ADVERSARIAL)]
        # A chain with a cycle at its tail and a shortcut: reach sets differ.
        edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
        edges += [(names[-1], names[5]), (names[0], names[10])]
        statements = [
            f"SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[t:W]{hop}(y) COLUMNS ({projection}) )"
            for hop in ("->", "->+")
            for projection in PROJECTIONS + (["t, x.p", "y, t"] if hop == "->" else [])
        ]
        with build(1, with_p, [], edges) as db:
            planned, sqlite = db.connect("planned"), db.connect("sqlite")
            for sql in statements:
                expected = planned.execute(sql).rows
                assert len(expected) > 0
                assert repr(sqlite.execute(sql).rows) == repr(expected), sql
            prepared = sqlite.prepare(statements[-1])
            assert repr(prepared.execute().rows) == repr(planned.execute(statements[-1]).rows)


# --------------------------------------------------------------------------- #
# The cursor over a batch source
# --------------------------------------------------------------------------- #
CLOSURE_SQL = "SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[t:W]->+(y) COLUMNS (x.p, y.p) )"


def ring_database(size: int = 12, **database_options) -> Database:
    """A directed cycle: every node reaches all ``size`` nodes, so the
    closure decodes ``size`` batches of ``size`` rows."""
    names = [(f"n{i:02d}",) for i in range(size)]
    edges = [(names[i], names[(i + 1) % size]) for i in range(size)]
    with_p = [name + (f"p{i:02d}",) for i, name in enumerate(names)]
    return build(1, with_p, [], edges, **database_options)


HOP_SQL = CLOSURE_SQL.replace("->+", "->")


def complete_database(size: int = 18, **database_options) -> Database:
    """Every ordered pair of ``size`` nodes is an edge: a hop decodes
    ``size * (size - 1)`` rows, more than one batch of them."""
    names = [(f"n{i:02d}",) for i in range(size)]
    edges = [(source, target) for source in names for target in names if source != target]
    with_p = [name + (f"p{i:02d}",) for i, name in enumerate(names)]
    return build(1, with_p, [], edges, **database_options)


class TestBatchCursor:
    def test_fetchone_pulls_one_batch_of_an_ordered_source(self):
        with ring_database() as db:
            result = db.connect("planned").execute(CLOSURE_SQL)
            first = result.fetchone()
            assert result._source is not None  # not drained
            assert len(result._fetched) == 12  # one head's batch of 144 rows
            assert result.fetchmany(12)[-1] == result._fetched[12]  # ... the second
            assert len(result._fetched) == 24
            assert result.rows[0] == first and len(result.rows) == 144
            assert result.rows == tuple(sorted(result.rows, key=repr))

    def test_max_output_rows_lands_between_batches(self):
        with ring_database() as db:
            result = db.connect("planned").execute(
                CLOSURE_SQL, budget=QueryBudget(max_output_rows=30)
            )
            delivered = []
            with pytest.raises(ResourceExhaustedError) as excinfo:
                for row in result:
                    delivered.append(row)
            # Two whole batches fit the budget; the third one's count broke it.
            assert len(delivered) == 24
            assert excinfo.value.progress["output_rows"] == 36
            assert excinfo.value.progress["sites"]["stream.decode"] == 2

    def test_cross_thread_cancel_lands_between_batches(self):
        with ring_database() as db:
            result = db.connect("planned").execute(CLOSURE_SQL, token=CancellationToken())
            iterator = iter(result)
            delivered = [next(iterator)]
            canceller = threading.Thread(target=result.cancel)
            canceller.start()
            canceller.join(5.0)
            assert not canceller.is_alive()
            with pytest.raises(QueryCancelledError):
                for row in iterator:
                    delivered.append(row)
            assert len(delivered) == 12  # the batch already pulled, no more

    def test_max_output_rows_lands_between_batches_of_a_hop(self):
        with complete_database() as db:
            result = db.connect("planned").execute(
                HOP_SQL, budget=QueryBudget(max_output_rows=_CHUNK + 1)
            )
            assert result._ordered
            delivered = []
            with pytest.raises(ResourceExhaustedError) as excinfo:
                for row in result:
                    delivered.append(row)
            assert len(delivered) == _CHUNK  # the first batch, whole
            assert excinfo.value.progress["output_rows"] == 18 * 17
            assert delivered == sorted(delivered, key=repr)

    def test_cross_thread_cancel_lands_between_batches_of_a_hop(self):
        with complete_database() as db:
            result = db.connect("planned").execute(HOP_SQL, token=CancellationToken())
            iterator = iter(result)
            delivered = [next(iterator)]
            canceller = threading.Thread(target=result.cancel)
            canceller.start()
            canceller.join(5.0)
            assert not canceller.is_alive()
            with pytest.raises(QueryCancelledError):
                for row in iterator:
                    delivered.append(row)
            assert len(delivered) == _CHUNK  # the batch already pulled, no more

    def test_a_cancel_lands_inside_the_key_build_of_a_large_join(self):
        # A two-hop over a complete graph of 12 nodes joins 12 * 11 * 11
        # rows: the rank kernel keys six polling intervals of them before
        # its first batch exists.
        names = [f"n{i:02d}" for i in range(12)]
        graph = PropertyGraph.of(
            names,
            {f"{s}-{t}": (s, t) for s in names for t in names if s != t},
        )
        two_hop = output(seq(node("x"), edge(), node("m"), edge(), node("y")), "x", "m", "y")
        batches, ordered = PlanExecutor(graph).stream_output(two_hop)
        assert ordered

        class CancelledOnThirdPoll(CancellationToken):
            __slots__ = ("polls",)

            def cancelled(self) -> bool:
                self.polls = getattr(self, "polls", 0) + 1
                if self.polls == 3:
                    self.cancel("cancelled mid key build")
                return super().cancelled()

        governor = QueryGovernor(QueryBudget(), CancelledOnThirdPoll())
        with activate_governor(governor), pytest.raises(QueryCancelledError) as excinfo:
            next(batches)
        assert 12 * 11 * 11 > 5 * CHECK_INTERVAL
        assert excinfo.value.progress["sites"] == {"stream.decode": 3}

    def test_close_without_drain_lands_mid_stream(self):
        registry = MetricsRegistry()
        db = ring_database(metrics=registry)
        connection = db.connect("planned")
        result = connection.execute(CLOSURE_SQL)
        assert next(iter(result)) is not None
        connection.close(drain=False, reason="pool recycled")
        with pytest.raises(ConnectionClosedError, match="pool recycled"):
            result.rows
        # The closed source still reported what it decoded: one batch.
        metrics = registry.collect()
        assert metrics["repro_result_rows_total"]["values"][0]["value"] == 12
        assert metrics["repro_result_decode_seconds"]["values"][0]["count"] == 1


# --------------------------------------------------------------------------- #
# Streamed results are visible to latency telemetry
# --------------------------------------------------------------------------- #
class TestDecodeTelemetry:
    def test_decode_time_and_rows_are_observed_once_per_result(self):
        registry = MetricsRegistry()
        db = ring_database(metrics=registry)
        with db.connect("planned") as connection:
            for _ in range(3):
                connection.execute(CLOSURE_SQL).rows
            pending = connection.execute(CLOSURE_SQL)  # close() drains it
        assert pending._source is None
        metrics = registry.collect()
        decode = metrics["repro_result_decode_seconds"]["values"][0]
        assert decode["labels"] == {"engine": "planned"}
        assert decode["count"] == 4 and decode["sum"] > 0.0
        assert metrics["repro_result_rows_total"]["values"][0]["value"] == 4 * 144
        assert metrics["repro_query_seconds"]["values"][0]["count"] == 4

    def test_a_query_slow_only_with_its_decode_is_logged_when_it_drains(self):
        ring = RingBufferSink()
        db = ring_database(tracer=Tracer(sinks=(ring,)))
        connection = db.connect("planned")
        connection.execute(CLOSURE_SQL).rows  # warm: the eager phase is sub-ms now

        def slow_records():
            return [r for r in ring.records() if r.get("kind") == "slow_query"]

        result = connection.execute(CLOSURE_SQL)
        eager_s = [r for r in ring.records() if r.get("name") == "query"][-1]["duration_s"]
        # A threshold the eager phase alone cannot reach but eager + decode
        # must: the source below takes its time.
        db.set_slow_query_log(eager_s + 0.02)
        source, result._source = result._source, None

        def dawdling():
            threading.Event().wait(0.03)
            yield from source

        result._source = dawdling()
        assert not slow_records()
        assert len(result.rows) == 144
        (record,) = slow_records()
        assert record["decode_s"] >= 0.03
        assert record["duration_s"] == pytest.approx(eager_s + record["decode_s"])
        decode = [r for r in ring.records() if r.get("name") == "decode"][-1]
        assert decode["tags"]["rows"] == 144
        assert decode["duration_s"] == record["decode_s"]
        connection.close()
