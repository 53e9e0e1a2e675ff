"""Cross-engine equivalence: naive oracle vs planned vs SQLite.

The naive engine implements the paper's semantics directly; the planned
and SQLite backends must return *identical* row sets on every query.  The
property-based tests below draw random graphs from
:mod:`repro.datasets.random_graphs` and check the three engines agree on
queries from all three fragments (PGQro, PGQrw, PGQext).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi, pair_graph_database
from repro.engine import (
    Connection,
    Database,
    NaiveEngine,
    PlannedEngine,
    QueryResult,
    SQLiteEngine,
    available_engines,
    create_engine,
    register_engine,
    unregister_engine,
)
from repro.errors import ArityError, EngineError, PatternError, QueryError, ViewError
from repro.patterns.builder import (
    back_edge,
    either,
    edge,
    label,
    node,
    output,
    plus,
    prop,
    prop_cmp,
    prop_cmp_prop,
    prop_eq,
    repeat,
    seq,
    star,
    where,
)
from repro.pgq import (
    BaseRelation,
    Constant,
    ConstantRelation,
    Difference,
    EmptyRelation,
    Product,
    Project,
    Select,
    Union,
    graph_pattern_on_relations,
)
from repro.pgq.queries import GraphPattern
from repro.relational import (
    ColumnCompare,
    ColumnCompareConstant,
    ColumnEquals,
    ColumnEqualsConstant,
    Database as RelationalDatabase,
    Not,
    TrueCondition,
)
from repro.separations import pair_reachability_query

VIEW = GRAPH_VIEW_SCHEMA
ENGINES = (NaiveEngine, PlannedEngine, SQLiteEngine)


def _assert_engines_agree(database, query, *, max_repetitions=None):
    """All engines return one row set; returns the agreed result."""
    reference = None
    for engine_cls in ENGINES:
        engine = engine_cls(database, max_repetitions=max_repetitions)
        result = engine.evaluate(query)
        if hasattr(engine, "close"):
            engine.close()
        if reference is None:
            reference = result
        else:
            assert result.arity == reference.arity, engine_cls.__name__
            assert result.rows == reference.rows, engine_cls.__name__
    return reference


#: PGQro: pattern matching over the six base relations.
def _ro_queries():
    step = seq(edge(), node())
    return [
        graph_pattern_on_relations(output(seq(node("x"), edge("t"), node("y")), "x", "y"), VIEW),
        graph_pattern_on_relations(
            output(where(seq(node("x"), edge(), node("y")), label("x", "Red")), "x", "y"), VIEW
        ),
        graph_pattern_on_relations(
            output(
                seq(node("x"), where(edge("t"), prop_cmp("t", "w", ">", 50)), node("y")),
                "x", prop("t", "w"), "y",
            ),
            VIEW,
        ),
        graph_pattern_on_relations(
            output(
                either(seq(node("x"), edge(), node("y")), seq(node("x"), back_edge(), node("y"))),
                "x", "y",
            ),
            VIEW,
        ),
        graph_pattern_on_relations(output(seq(node("x"), star(step), node("y")), "x", "y"), VIEW),
        graph_pattern_on_relations(output(seq(node("x"), plus(step), node("y")), "x", "y"), VIEW),
        graph_pattern_on_relations(
            output(seq(node("x"), repeat(step, 2, 4), node("y")), "x", "y"), VIEW
        ),
        # lower >= 2 with an unbounded upper: regression for the SQLite
        # recursive-CTE depth cap, which must extend past |N| on cycles.
        graph_pattern_on_relations(
            output(seq(node("x"), repeat(step, 3), node("y")), "x", "y"), VIEW
        ),
        graph_pattern_on_relations(
            output(
                seq(node("x"), plus(seq(where(edge("t"), prop_cmp("t", "w", "<", 60)), node())), node("y")),
                "x", "y",
            ),
            VIEW,
        ),
        # Union arms that bind different columns once optimized: the SQL
        # union must keep their overlap.  Here one arm is proved empty
        # (Empty [schema=t]) while the other's t is pruned ...
        graph_pattern_on_relations(
            output(
                seq(
                    node("x"),
                    either(
                        where(edge("t"), prop_cmp("t", "w", ">", 50) & prop_cmp("t", "w", "<", 10)),
                        where(edge("t"), prop_cmp("t", "w", ">", 50)),
                    ),
                    node("y"),
                ),
                "x", "y",
            ),
            VIEW,
        ),
        # ... and here a residual two-variable filter keeps t and u bound
        # on one arm only.
        graph_pattern_on_relations(
            output(
                seq(
                    node("x"),
                    either(
                        where(seq(edge("t"), node(), edge("u")), prop_cmp_prop("t", "w", "<", "u", "w")),
                        seq(edge("t"), node(), edge("u")),
                    ),
                    node("y"),
                ),
                "x", "y",
            ),
            VIEW,
        ),
    ]


#: PGQrw: relational operators around and inside pattern matching.
def _rw_queries():
    reach = graph_pattern_on_relations(
        output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"), VIEW
    )
    filtered_labels = GraphPattern(
        output(where(seq(node("x"), edge(), node("y")), label("x", "Red")), "x", "y"),
        (
            BaseRelation("N"),
            BaseRelation("E"),
            BaseRelation("S"),
            BaseRelation("T"),
            Select(BaseRelation("L"), ColumnEqualsConstant(2, "Red")),
            BaseRelation("P"),
        ),
    )
    return [
        Project(reach, (2, 1)),
        Union(reach, Project(reach, (2, 1))),
        reach.difference(Project(reach, (2, 1))),
        filtered_labels,
    ]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nodes=st.integers(min_value=2, max_value=9),
    probability=st.sampled_from([0.1, 0.2, 0.35]),
    index=st.integers(min_value=0, max_value=len(_ro_queries()) - 1),
)
def test_pgqro_equivalence_on_random_graphs(seed, nodes, probability, index):
    database = erdos_renyi(nodes, probability, seed=seed, labels=("Red", "Blue"), property_key="w")
    _assert_engines_agree(database, _ro_queries()[index])


@pytest.mark.parametrize("index", range(len(_ro_queries())))
def test_pgqro_equivalence_on_a_fixed_graph(index):
    # Every shape runs at least once, whatever the random draws above pick.
    database = erdos_renyi(7, 0.35, seed=5, labels=("Red", "Blue"), property_key="w")
    _assert_engines_agree(database, _ro_queries()[index])


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nodes=st.integers(min_value=2, max_value=7),
    index=st.integers(min_value=0, max_value=len(_rw_queries()) - 1),
)
def test_pgqrw_equivalence_on_random_graphs(seed, nodes, index):
    database = erdos_renyi(nodes, 0.3, seed=seed, labels=("Red", "Blue"), property_key="w")
    _assert_engines_agree(database, _rw_queries()[index])


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    values=st.integers(min_value=2, max_value=4),
)
def test_pgqext_equivalence_on_pair_graphs(seed, values):
    # n-ary identifiers: SQLite closes the pair graph on its own linear
    # recursion (tuple identifiers are one integer id inside the statement),
    # the planner runs its fixpoint on tuple identifiers natively.
    database = pair_graph_database(values, seed=seed, edge_probability=0.2)
    _assert_engines_agree(database, pair_reachability_query())


# --------------------------------------------------------------------------- #
# View construction: every engine builds pgView through one check
# --------------------------------------------------------------------------- #
def _view_database(**replaced):
    """The well-formed view a -e-> b over base relations, with some of the
    six relations replaced (an empty list keeps the declared arity)."""
    relations = {
        "N": [("a",), ("b",)],
        "E": [("e",)],
        "S": [("e", "a")],
        "T": [("e", "b")],
        "L": [("a", "Red"), ("e", "Link")],
        "P": [("e", "w", 7)],
    }
    relations.update(replaced)
    return RelationalDatabase.from_dict(
        relations, arities={"N": 1, "E": 1, "S": 2, "T": 2, "L": 2, "P": 3}
    )


#: tests/test_views.py's violations of conditions (1)-(4), as databases.
ILL_FORMED_VIEWS = {
    "(1) node and edge share an id": dict(
        E=[("a",)], S=[("a", "a")], T=[("a", "b")], L=[], P=[]
    ),
    "(2) edge without source": dict(S=[]),
    "(2) edge with two sources": dict(S=[("e", "a"), ("e", "b")]),
    "(2) source is not a node": dict(S=[("e", "zzz")]),
    "(2) target is not a node": dict(T=[("e", "zzz")]),
    "(3) label on a non-element": dict(L=[("ghost", "Red")]),
    "(4) property with two values": dict(P=[("e", "w", 1), ("e", "w", 2)]),
    "(4) property on a non-element": dict(P=[("ghost", "w", 1)]),
}

_HOP = seq(node("x"), edge(), node("y"))
_REACH = seq(node("x"), plus(seq(edge(), node())), node("y"))


def _assert_same_view_error(database, query):
    """pgView is undefined here: every engine says so with one message."""
    messages = set()
    for engine_cls in ENGINES:
        engine = engine_cls(database)
        with pytest.raises(ViewError) as raised:
            engine.evaluate(query)
        messages.add(str(raised.value))
        if engine_cls is SQLiteEngine:
            engine.close()
    assert len(messages) == 1, messages
    assert "condition (" in messages.pop()


class TestViewConstruction:
    @pytest.mark.parametrize("pattern", [_HOP, _REACH], ids=["hop", "plus"])
    @pytest.mark.parametrize("violation", sorted(ILL_FORMED_VIEWS))
    def test_ill_formed_view_is_the_oracles_view_error(self, violation, pattern):
        database = _view_database(**ILL_FORMED_VIEWS[violation])
        query = graph_pattern_on_relations(output(pattern, "x", "y"), VIEW)
        _assert_same_view_error(database, query)

    @pytest.mark.parametrize("pattern", [_HOP, _REACH], ids=["hop", "plus"])
    def test_dangling_target_of_a_restricted_node_set(self, chain_view_db, pattern):
        # tests/test_pgq_queries.py's read-write view: nodes are restricted
        # to those with an outgoing edge, so e2's target v3 is no node.
        sources = (
            Project(BaseRelation("S"), (2,)),
            BaseRelation("E"),
            BaseRelation("S"),
            BaseRelation("T"),
            EmptyRelation(2),
            EmptyRelation(3),
        )
        _assert_same_view_error(chain_view_db, GraphPattern(output(pattern, "x", "y"), sources))

    def test_integer_labels_and_property_keys_are_the_graph_models_strings(self):
        # lab and prop range over strings: an integer in R5 / R6 is that
        # label / key, on every engine.
        database = _view_database(L=[("a", 5), ("e", 6)], P=[("e", 3, 7), ("a", 4, "v")])
        queries = [
            output(where(_HOP, label("x", "5")), "x", "y"),
            output(where(seq(node("x"), edge("t"), node("y")), label("t", "6")), "x", prop("t", "3")),
            output(where(_REACH, prop_cmp("x", "4", "=", "v")), prop("x", "4"), "y"),
        ]
        for pattern in queries:
            query = graph_pattern_on_relations(pattern, VIEW)
            assert len(NaiveEngine(database).evaluate(query)) == 1
            _assert_engines_agree(database, query)

    def test_none_is_an_ordinary_identifier(self):
        # None -> a -> b: the NULL node joins, closes and decodes like any other.
        database = _view_database(
            N=[(None,), ("a",), ("b",)],
            E=[("d",), ("e",)],
            S=[("d", None), ("e", "a")],
            T=[("d", "a"), ("e", "b")],
            L=[(None, "Red")],
        )
        for pattern in (
            output(_REACH, "x", "y"),
            output(where(_REACH, label("x", "Red")), "x", "y"),
            output(seq(node("x"), star(seq(edge(), node())), node("y")), "x", "y"),
        ):
            query = graph_pattern_on_relations(pattern, VIEW)
            rows = NaiveEngine(database).evaluate(query).rows
            assert (None, "b") in rows
            _assert_engines_agree(database, query)


#: Python-equal values (1 == 1.0 == True) are one identifier, as in the
#: relation sets the view is read from; "1" and None are others.
_IDENTIFIER_POOL = [1, 1.0, True, "1", None, "a"]


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.lists(st.sampled_from(_IDENTIFIER_POOL), min_size=1, max_size=6),
    endpoints=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8),
    spelling=st.lists(st.sampled_from([int, float, bool]), min_size=16, max_size=16),
    pattern=st.sampled_from([_HOP, _REACH, seq(node("x"), star(seq(edge(), node())), node("y"))]),
)
def test_identifier_encoding_follows_python_equality(nodes, endpoints, spelling, pattern):
    respell = iter(spelling)

    def endpoint(index):
        # An edge may spell its endpoint differently from the node table.
        value = nodes[index % len(nodes)]
        return next(respell)(value) if value == 1 else value

    edges = [(f"e{i}", endpoint(s), endpoint(t)) for i, (s, t) in enumerate(endpoints)]
    database = _view_database(
        N=[(value,) for value in nodes],
        E=[(name,) for name, _s, _t in edges],
        S=[(name, source) for name, source, _t in edges],
        T=[(name, target) for name, _s, target in edges],
        L=[(nodes[0], "Red")],
        P=[(nodes[-1], "w", 7)],
    )
    for items in (("x", "y"), ("x", prop("y", "w"))):
        _assert_engines_agree(database, graph_pattern_on_relations(output(pattern, *items), VIEW))


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nodes=st.integers(min_value=18, max_value=22),
)
def test_projected_stream_is_distinct_across_batches(seed, nodes):
    # (x, t, y) -> (x, y) is many-to-one: the statement's own DISTINCT is the
    # only dedup a streamed result gets, across several fetchmany batches.
    database = erdos_renyi(nodes, 0.3, seed=seed)
    walk = seq(node("x"), edge("t"), node(), star(seq(edge(), node())), node("y"))
    query = Project(graph_pattern_on_relations(output(walk, "x", "t", "y"), VIEW), (1, 3))
    expected = NaiveEngine(database).evaluate(query).rows
    with SQLiteEngine(database) as engine:
        arity, batches, _ordered = engine.prepare(query).execute_stream()
        batches = list(batches)
        rows = [row for batch in batches for row in batch]
    assert arity == 2
    assert len(batches) > 1 or len(expected) <= 256
    assert len(rows) == len(set(rows))
    assert set(rows) == expected


# --------------------------------------------------------------------------- #
# Session-level equivalence through the SQL/PGQ surface
# --------------------------------------------------------------------------- #
DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

QUERIES = [
    """SELECT * FROM GRAPH_TABLE ( Transfers
         MATCH (x) -[t:Transfer]-> (y) COLUMNS (x.iban, t.amount, y.iban) )""",
    """SELECT * FROM GRAPH_TABLE ( Transfers
         MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 100 COLUMNS (x.iban, y.iban) )""",
    """SELECT * FROM GRAPH_TABLE ( Transfers
         MATCH (x) -[t:Transfer]->{2,3} (y) COLUMNS (x.iban, y.iban) )""",
]


def _transfer_catalog(seed: int) -> Database:
    """A Database catalog with the randomized transfer workload loaded."""
    import random

    rng = random.Random(seed)
    accounts = [f"A{i}" for i in range(8)]
    db = Database()
    db.create_table("Account", ["iban"], [(a,) for a in accounts])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(accounts), rng.choice(accounts), i, rng.randint(1, 500))
            for i in range(20)
        ],
    )
    db.execute(DDL)
    return db


def _transfer_session(engine: str, seed: int) -> Connection:
    return _transfer_catalog(seed).connect(engine=engine)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), index=st.integers(0, len(QUERIES) - 1))
def test_session_equivalence_across_engines(seed, index):
    # All three engines connect over ONE snapshot of one Database — the
    # new Connection API — sharing the snapshot cache across engine kinds.
    results = {}
    with _transfer_catalog(seed) as db:
        for engine in ("naive", "planned", "sqlite"):
            with db.connect(engine=engine) as connection:
                results[engine] = connection.execute(QUERIES[index])
        assert results["naive"].equals_unordered(results["planned"])
        assert results["naive"].equals_unordered(results["sqlite"])


#: Parameterized statement shapes exercising every slot position the
#: surface supports: inside a repetition body, at the top level, and
#: combined (two slots, one of each).
PARAMETERIZED_QUERIES = [
    """SELECT * FROM GRAPH_TABLE ( Transfers
         MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > :minimum
         COLUMNS (x.iban, y.iban) )""",
    """SELECT * FROM GRAPH_TABLE ( Transfers
         MATCH (x) -[t:Transfer]-> (y) WHERE t.amount <= :maximum
         COLUMNS (x.iban, t.amount, y.iban) )""",
    """SELECT * FROM GRAPH_TABLE ( Transfers
         MATCH (a) -[t:Transfer]-> (b) -[u:Transfer]->+ (c)
         WHERE t.amount > :first AND u.amount > :rest
         COLUMNS (a.iban, c.iban) )""",
]

_PARAM_NAMES = [("minimum",), ("maximum",), ("first", "rest")]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    index=st.integers(0, len(PARAMETERIZED_QUERIES) - 1),
    values=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=2),
)
def test_prepared_execution_equals_literal_substitution(seed, index, values):
    """For every engine: ``prepare(q).execute(params)`` is the literal-
    substituted statement, over randomized graphs and bindings."""
    text = PARAMETERIZED_QUERIES[index]
    names = _PARAM_NAMES[index]
    bindings = dict(zip(names, values))
    literal_text = text
    for name, value in bindings.items():
        literal_text = literal_text.replace(f":{name}", str(value))
    for engine in ("naive", "planned", "sqlite"):
        with _transfer_session(engine, seed) as session:
            prepared = session.prepare(text)
            assert prepared.parameter_names == tuple(sorted(names))
            result = prepared.execute(bindings)
            literal = session.execute(literal_text)
            assert result.equals_unordered(literal), engine


# --------------------------------------------------------------------------- #
# Registry behavior
# --------------------------------------------------------------------------- #
class TestTargetedEquivalence:
    def test_sqlite_unbounded_repetition_with_high_lower_on_cycle(self):
        # A 2-cycle: (n0, n0) with lower=3 is first reachable at depth 4,
        # past the node count — the CTE depth cap must not drop it.
        from repro.datasets import cycle

        db = cycle(2)
        step = seq(edge(), node())
        query = graph_pattern_on_relations(
            output(seq(node("x"), repeat(step, 3), node("y")), "x", "y"), VIEW
        )
        _assert_engines_agree(db, query)

    def test_sqlite_bound_keeps_sql_path_for_repetition_free_queries(self):
        # A bound probes repetitions only; a plain pattern query runs as
        # its one statement.
        db = erdos_renyi(6, 0.3, seed=4)
        engine = SQLiteEngine(db, max_repetitions=5)
        query = graph_pattern_on_relations(
            output(seq(node("x"), edge(), node("y")), "x", "y"), VIEW
        )
        result = engine.evaluate(query)
        assert engine._connection is not None  # SQL path was used
        assert result.rows == NaiveEngine(db).evaluate(query).rows
        engine.close()

    def test_sqlite_bound_with_repetition_answers_on_sql(self):
        # A generous bound changes no result: past lower + |N| - 1 = 6 it
        # needs no probe, and at 4 the recursive CTE answers after a depth
        # probe finds no overrun.
        db = erdos_renyi(6, 0.3, seed=4)
        query = graph_pattern_on_relations(
            output(seq(node("x"), plus(seq(edge(), node())), node("y")), "x", "y"), VIEW
        )
        for bound, depths in ((50, []), (4, [5])):
            _assert_engines_agree(db, query, max_repetitions=bound)
            with SQLiteEngine(db, max_repetitions=bound) as engine:
                statement = engine.prepare(query)
                assert "WITH RECURSIVE" in statement.sql
                assert [depth for _sql, _width, depth in statement._probes] == depths

    @pytest.mark.parametrize(
        "query, expected",
        [
            (ConstantRelation(((),), 0), {()}),
            (ConstantRelation((), 0), set()),
            (ConstantRelation((), 2), set()),
            (EmptyRelation(0), set()),
            (Product(ConstantRelation(((),), 0), BaseRelation("S")), {("e", "a")}),
            (Product(BaseRelation("S"), EmptyRelation(0)), set()),
            (Select(ConstantRelation(((),), 0), TrueCondition()), {()}),
            (Union(EmptyRelation(0), ConstantRelation(((), ()), 0)), {()}),
        ],
        ids=[
            "unit",
            "empty-constant-0",
            "empty-constant-2",
            "empty-0",
            "unit-times-S",
            "S-times-empty-0",
            "select-unit",
            "union-0",
        ],
    )
    def test_zero_arity_and_empty_constant_relations_run_on_sql(self, query, expected):
        result = _assert_engines_agree(_view_database(), query)
        assert set(result.rows) == expected

    @pytest.mark.parametrize(
        "query",
        [
            Union(BaseRelation("S"), BaseRelation("N")),
            Difference(BaseRelation("S"), BaseRelation("N")),
            Project(BaseRelation("S"), (3,)),
            Project(BaseRelation("S"), ()),
            Select(BaseRelation("S"), ColumnEqualsConstant(5, 1)),
            Union(BaseRelation("N"), Constant("zz")),
        ],
        ids=[
            "union", "difference", "project-range", "project-empty", "select-range",
            "constant-outside-adom",
        ],
    )
    def test_malformed_operators_raise_the_oracles_error(self, query):
        raised = set()
        for engine_cls in ENGINES:
            engine = engine_cls(_view_database())
            with pytest.raises((ArityError, QueryError)) as error:
                engine.evaluate(query)
            raised.add((type(error.value), str(error.value)))
            if engine_cls is SQLiteEngine:
                engine.close()
        assert len(raised) == 1, raised

    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    def test_exact_once_quantifier_honours_bound(self, engine):
        # psi^{1..1} must keep its fixpoint (and hence the depth guard):
        # every engine raises with max_repetitions=0.
        from repro.errors import PatternError

        session = _transfer_session(engine, seed=3)
        session.use_engine(engine, max_repetitions=0)
        with pytest.raises(PatternError, match="max_repetitions=0"):
            session.execute(
                """SELECT * FROM GRAPH_TABLE ( Transfers
                     MATCH (x) -[t:Transfer]->{1,1} (y) COLUMNS (x.iban, y.iban) )"""
            )


# --------------------------------------------------------------------------- #
# SQL with the oracle's value semantics: None is a value, mixed types do
# not order, and a max_repetitions overrun raises the kernel's own text
# --------------------------------------------------------------------------- #
def _outcomes(database, query, *, max_repetitions=None, bindings=None):
    """Each engine's answer to a prepared ``query``: its rows by ``repr``
    (so ``None`` / ``'None'`` and ``1`` / ``True`` stay apart), or the
    text of the :class:`PatternError` it raised."""
    outcomes = []
    for engine_cls in ENGINES:
        engine = engine_cls(database, max_repetitions=max_repetitions)
        try:
            rows = engine.prepare(query).execute(bindings or {}).rows
            outcomes.append(sorted(map(repr, rows)))
        except PatternError as error:
            outcomes.append(str(error))
        finally:
            engine.close()
    assert outcomes[1] == outcomes[0], "planned"
    assert outcomes[2] == outcomes[0], "sqlite"
    return outcomes[0]


_VALUES = RelationalDatabase.from_dict(
    {"R": [(None, None), ("None", 1), (1, "a"), (2.5, 2.0), ("b", "b"), (b"a", b"b")]},
    arities={"R": 2},
)
_R = BaseRelation("R")
#: Nodes ``a``, ``None`` and ``'None'`` whose property ``w`` is ``None``,
#: ``3`` and ``'None'``.
_VALUE_VIEW = _view_database(
    N=[("a",), (None,), ("None",)], E=[], S=[], T=[], L=[],
    P=[("a", "w", None), (None, "w", 3), ("None", "w", "None")],
)


def _nodes_where(condition):
    return graph_pattern_on_relations(output(where(node("x"), condition), "x"), VIEW)


#: Nodes ``a``..``e`` and edges ``e1``..``e4`` with properties ``p`` and
#: ``q``: some comparable, one missing, one pair of mixed types.
_TWO_PROPERTY_RELATIONS = dict(
    N=[("a",), ("b",), ("c",), ("d",), ("e",)],
    E=[("e1",), ("e2",), ("e3",), ("e4",)],
    S=[("e1", "a"), ("e2", "b"), ("e3", "c"), ("e4", "d")],
    T=[("e1", "b"), ("e2", "c"), ("e3", "d"), ("e4", "e")],
    L=[],
    P=[
        ("a", "p", 1), ("a", "q", 2),
        ("b", "p", 3), ("b", "q", 2),
        ("c", "p", 1),  # q missing
        ("d", "p", "x"), ("d", "q", 2),  # mixed types
        ("e", "p", 2.0), ("e", "q", 2),
        ("e1", "p", 5), ("e1", "q", 5),
        ("e2", "p", 5), ("e2", "q", "5"),  # mixed types
        ("e3", "p", None), ("e3", "q", None),
        ("e4", "p", 1),  # q missing
    ],
)
_TWO_PROPERTIES = _view_database(**_TWO_PROPERTY_RELATIONS)
#: The same, with label ``Big`` on node ``a`` and on edges ``e1`` and ``e3``
#: only: a label mask that covers part of the edge space.
_BIG_EDGES = _view_database(
    **{**_TWO_PROPERTY_RELATIONS, "L": [("a", "Big"), ("e1", "Big"), ("e3", "Big")]}
)


def _edges_where(condition):
    hop = where(seq(node("x"), edge("t"), node("y")), condition)
    return graph_pattern_on_relations(output(hop, "t"), VIEW)


@pytest.mark.parametrize(
    "database, query, expected",
    [
        (_VALUES, Select(_R, ColumnEqualsConstant(1, None)), ["(None, None)"]),
        (_VALUES, Constant(None), ["(None,)"]),
        (_VALUES, Select(_R, ColumnEquals(1, 2)), ["('b', 'b')", "(None, None)"]),
        (_VALUES, Select(_R, Not(ColumnEqualsConstant(2, 1))), 5),
        (_VALUES, Select(_R, ColumnCompareConstant(1, ">", 2)), ["(2.5, 2.0)"]),
        (_VALUES, Select(_R, ColumnCompare(1, ">", 2)), ["(2.5, 2.0)"]),
        (_VALUES, Select(_R, ColumnCompare(1, "<=", 2)), ["('b', 'b')", "(b'a', b'b')"]),
        (_VALUES, Select(_R, Not(ColumnCompareConstant(1, ">", 2))), 5),
        (_VALUE_VIEW, _nodes_where(prop_cmp("x", "w", "=", None)), ["('a',)"]),
        (_VALUE_VIEW, _nodes_where(prop_cmp("x", "w", "!=", 3)), ["('None',)", "('a',)"]),
        (_VALUE_VIEW, _nodes_where(prop_cmp("x", "w", ">", 2)), ["(None,)"]),
        (_VALUE_VIEW, _nodes_where(~prop_cmp("x", "w", ">", 2)), ["('None',)", "('a',)"]),
        (_VALUE_VIEW, _nodes_where(~prop_cmp("x", "w", "=", 3)), ["('None',)", "('a',)"]),
        # One variable on both sides: a scan predicate over two columns.
        (_TWO_PROPERTIES, _nodes_where(prop_cmp_prop("x", "p", "<", "x", "q")), ["('a',)"]),
        (_TWO_PROPERTIES, _nodes_where(prop_cmp_prop("x", "p", "<=", "x", "q")),
         ["('a',)", "('e',)"]),
        (_TWO_PROPERTIES, _edges_where(prop_eq("t", "p", "t", "q")), ["('e1',)", "('e3',)"]),
        # Edge scans a whole column at a time: a missing value never
        # matches, not even '<>'; a column whose values do not all order
        # against the constant (None > 2) answers per element.
        (_TWO_PROPERTIES, _edges_where(prop_cmp("t", "q", "!=", 5)), ["('e2',)", "('e3',)"]),
        (_TWO_PROPERTIES, _edges_where(prop_cmp("t", "p", ">", 2)), ["('e1',)", "('e2',)"]),
        (_TWO_PROPERTIES, _edges_where(~prop_cmp("t", "p", ">", 2)), ["('e3',)", "('e4',)"]),
        (_TWO_PROPERTIES, _edges_where(~prop_cmp("t", "q", "=", 5)),
         ["('e2',)", "('e3',)", "('e4',)"]),
        (_TWO_PROPERTIES, _edges_where(prop_cmp("t", "p", "<", 2) | prop_cmp("t", "q", "=", "5")),
         ["('e2',)", "('e4',)"]),
        (_TWO_PROPERTIES, _edges_where(~(prop_cmp("t", "p", ">", 2) | prop_eq("t", "p", "t", "q"))),
         ["('e4',)"]),
        (_BIG_EDGES, _edges_where(label("t", "Big")), ["('e1',)", "('e3',)"]),
        (_BIG_EDGES, _edges_where(label("t", "Big") & prop_cmp("t", "p", ">", 2)), ["('e1',)"]),
        (_BIG_EDGES, _edges_where(label("t", "Big") | prop_cmp("t", "q", "!=", 5)),
         ["('e1',)", "('e2',)", "('e3',)"]),
        (_BIG_EDGES, _edges_where(~label("t", "Big") & ~prop_cmp("t", "p", "=", 1)),
         ["('e2',)"]),
    ],
    ids=[
        "eq-none", "constant-none", "column-eq", "not-eq", "gt-constant", "gt-column",
        "le-column", "not-gt", "prop-eq-none", "prop-ne", "prop-gt", "prop-not-gt", "prop-not-eq",
        "node-prop-lt-prop", "node-prop-le-prop", "edge-prop-eq-prop",
        "edge-ne-missing", "edge-gt-mixed-types", "edge-not-gt", "edge-not-eq", "edge-or",
        "edge-not-or", "edge-label-part", "edge-label-and-gt", "edge-label-or",
        "edge-not-label-and-not-eq",
    ],
)
def test_none_is_a_value_and_mixed_types_do_not_order(database, query, expected):
    rows = _outcomes(database, query)
    assert rows == expected if isinstance(expected, list) else len(rows) == expected


def _cycle_with_weights():
    from repro.datasets import cycle
    from repro.relational import Relation

    return cycle(5).with_relation("P", Relation(3, [(f"e{i}", "w", i) for i in range(5)]))


_STEP = seq(edge(), node())


def _reach(body):
    return graph_pattern_on_relations(output(seq(node("x"), body, node("y")), "x", "y"), VIEW)


def _depth_error(depth, bound):
    return (
        f"repetition requires more than max_repetitions={bound} iterations "
        f"of its body (matches exist at depth {depth})"
    )


class TestDepthBound:
    @pytest.mark.parametrize(
        "lower, upper, bound, expected",
        [
            (3, None, 1, _depth_error(3, 1)),
            (1, None, 2, _depth_error(3, 2)),
            (2, 4, 3, _depth_error(4, 3)),
            (1, 2, 2, 10),
            (0, None, 0, _depth_error(1, 0)),
        ],
        ids=["3-inf-1", "1-inf-2", "2-4-3", "1-2-2", "0-inf-0"],
    )
    def test_bound_matrix_on_a_cycle(self, lower, upper, bound, expected):
        from repro.datasets import cycle

        body = repeat(_STEP, lower) if upper is None else repeat(_STEP, lower, upper)
        outcome = _outcomes(cycle(5), _reach(body), max_repetitions=bound)
        assert outcome == expected if isinstance(expected, str) else len(outcome) == expected

    def test_nested_repetition(self):
        from repro.datasets import cycle

        nested = plus(seq(edge(), node(), repeat(_STEP, 0, 1)))
        assert _outcomes(cycle(5), _reach(nested), max_repetitions=2) == _depth_error(3, 2)
        assert len(_outcomes(cycle(5), _reach(nested), max_repetitions=5)) == 25

    @pytest.mark.parametrize(
        "minimum, expected", [(0, _depth_error(3, 2)), (3, 3)], ids=["overrun", "within"]
    )
    def test_parameterized_body(self, minimum, expected):
        from repro import Parameter

        body = plus(seq(where(edge("t"), prop_cmp("t", "w", ">=", Parameter("m"))), node()))
        outcome = _outcomes(
            _cycle_with_weights(), _reach(body), max_repetitions=2, bindings={"m": minimum}
        )
        assert outcome == expected if isinstance(expected, str) else len(outcome) == expected

    def test_sqlite_raises_before_the_first_batch_and_runs_on_sql(self):
        from repro.datasets import cycle

        query = _reach(plus(_STEP))
        with SQLiteEngine(cycle(5), max_repetitions=2) as engine:
            statement = engine.prepare(query)
            with pytest.raises(PatternError, match="depth 3"):
                statement.execute_stream()
            sql = engine.compile_to_sql(query)
            assert sql.startswith("WITH RECURSIVE")
            (probe, _width, depth), = statement._probes
            assert depth == 3
            for text in (sql, probe):
                plan = engine.connection.execute("EXPLAIN QUERY PLAN " + text).fetchall()
                assert any("RECURSIVE STEP" in row[-1] for row in plan), plan
        with SQLiteEngine(cycle(5), max_repetitions=3) as engine:
            statement = engine.prepare(_reach(repeat(_STEP, 1, 3)))
            assert statement._probes == []  # {1,3} cannot exceed 3
            assert len(statement.execute().rows) == 15

    def test_a_bound_past_every_least_depth_builds_no_probe(self):
        # Every pair's least depth >= lower is at most lower + |N| - 1, so a
        # generous bound on a large graph answers without a depth probe.
        from repro.datasets import cycle

        with SQLiteEngine(cycle(300), max_repetitions=10_000) as engine:
            statement = engine.prepare(_reach(plus(_STEP)))
            assert statement._probes == []
            assert len(statement.execute().rows) == 300 * 300
        # On cycle(300), x reaches itself first at depth 300 = lower + |N| - 1.
        with SQLiteEngine(cycle(300), max_repetitions=300) as engine:
            assert engine.prepare(_reach(plus(_STEP)))._probes == []
        with SQLiteEngine(cycle(300), max_repetitions=299) as engine:
            statement = engine.prepare(_reach(plus(_STEP)))
            (_probe, _width, depth), = statement._probes
            with pytest.raises(PatternError, match="depth 300"):
                statement.execute()


class TestCatalogReplay:
    def test_graphs_survive_later_table_registration(self):
        db = _transfer_catalog(seed=11)
        before = db.connect(engine="planned").execute(QUERIES[0])
        db.create_table("Audit", ["entry"], [("e1",)])
        session = db.connect(engine="planned")
        assert session.graph_names() == ("Transfers",)
        after = session.execute(QUERIES[0])
        assert before.equals_unordered(after)

    def test_breaking_schema_change_reports_graph_name(self):
        db = _transfer_catalog(seed=11)
        db.create_table("Transfer", ["t_id"], [("T1",)])  # drops key columns
        with pytest.raises(EngineError, match="Transfers"):
            db.connect().execute(QUERIES[0])

    def test_unrelated_statements_survive_a_broken_graph(self):
        db = _transfer_catalog(seed=11)
        db.create_table("Transfer", ["t_id"], [("T1",)])  # breaks Transfers
        session = db.connect()
        # Unrelated DDL and queries still work...
        session.execute(
            """CREATE PROPERTY GRAPH Audit (
                 NODES TABLE Account KEY (iban) LABEL Account,
                 EDGES TABLE Transfer KEY (t_id)
                   SOURCE KEY t_id REFERENCES Account
                   TARGET KEY t_id REFERENCES Account )"""
        )
        # The broken graph stays discoverable so callers can find and drop
        # it; dropping clears the error entirely.
        assert "Transfers" in session.graph_names()
        db.drop_graph("Transfers")
        assert "Transfers" not in db.connect().graph_names()


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_engines()) >= {"naive", "planned", "sqlite"}

    def test_unknown_engine_is_an_engine_error(self):
        with pytest.raises(EngineError, match="unknown engine"):
            Database().connect(engine="duckdb")

    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    def test_unknown_engine_option_fails_loudly(self, engine):
        database = erdos_renyi(3, 0.5, seed=1)
        # A removed option and a typo of a real one: both used to vanish
        # into the factories' catch-all.
        for option in ("compact", "max_repetition"):
            with pytest.raises(EngineError) as raised:
                create_engine(engine, database, **{option: 3})
            message = str(raised.value)
            assert option in message and engine in message
            assert "max_repetitions" in message and "verify_plans" in message
        with Database() as db:
            with pytest.raises(EngineError, match="compact"):
                db.connect(engine=engine, compact=False)  # at connect, not first use
        # The database-level setting is handed to every backend.
        with Database(verify_plans=True) as db:
            assert db.connect(engine=engine)._get_engine() is not None

    def test_duplicate_registration_requires_replace(self):
        with pytest.raises(EngineError, match="already registered"):
            register_engine("naive", lambda db, **_: None)

    def test_custom_engine_roundtrip(self):
        class EchoEngine(NaiveEngine):
            name = "echo"

        try:
            register_engine("echo", lambda db, **opts: EchoEngine(db))
            database = erdos_renyi(3, 0.5, seed=1)
            engine = create_engine("echo", database)
            assert engine.name == "echo"
            query = graph_pattern_on_relations(
                output(seq(node("x"), edge(), node("y")), "x", "y"), VIEW
            )
            assert engine.evaluate(query).rows == NaiveEngine(database).evaluate(query).rows
        finally:
            unregister_engine("echo")

    def test_session_engine_switch(self):
        session = _transfer_session("naive", seed=7)
        naive = session.execute(QUERIES[1])
        session.use_engine("planned")
        assert session.engine_name == "planned"
        planned = session.execute(QUERIES[1])
        assert naive.equals_unordered(planned)

    def test_engine_without_prepare_fails_loudly(self):
        # The two-phase protocol is the only one: a backend implementing
        # just the one-shot evaluate(query) is rejected when it is built,
        # naming the missing method, instead of being wrapped.
        class EvaluateOnlyEngine:
            name = "evaluate-only"

            def __init__(self, database):
                self._oracle = NaiveEngine(database)

            def evaluate(self, query):
                return self._oracle.evaluate(query)

        try:
            register_engine("evaluate-only", lambda db, **_opts: EvaluateOnlyEngine(db))
            with pytest.raises(EngineError, match=r"evaluate-only.*prepare\(query\)"):
                create_engine("evaluate-only", erdos_renyi(3, 0.5, seed=1))
            with _transfer_session("evaluate-only", seed=5) as session:
                with pytest.raises(EngineError, match="prepare"):
                    session.execute(QUERIES[0])
        finally:
            unregister_engine("evaluate-only")


# --------------------------------------------------------------------------- #
# QueryResult helpers (satellite)
# --------------------------------------------------------------------------- #
class TestQueryResult:
    def test_to_list_and_repr(self):
        result = QueryResult(("a", "b"), (("x", 1), ("y", 2)))
        assert result.to_list() == [("x", 1), ("y", 2)]
        text = repr(result)
        assert "a" in text and "(2 rows)" in text

    def test_equals_unordered(self):
        left = QueryResult(("a",), ((1,), (2,)))
        right = QueryResult(("col1",), ((2,), (1,)))
        assert left.equals_unordered(right)
        assert left.equals_unordered([(2,), (1,)])
        assert not left.equals_unordered(QueryResult(("a",), ((1,),)))

    def test_repr_truncates_long_results_with_counted_footer(self):
        result = QueryResult(("n",), tuple((i,) for i in range(50)))
        text = repr(result)
        assert "... (+30 more rows)" in text  # 50 rows, 20 shown
        # 24 lines: header, rule, 20 body rows, footer, row-count total.
        assert text.count("\n") == 23
        assert "(50 rows)" in text

    def test_repr_of_short_results_has_no_truncation_footer(self):
        result = QueryResult(("n",), tuple((i,) for i in range(20)))
        text = repr(result)
        assert "more rows" not in text
        assert "(20 rows)" in text
