"""Columnar ≡ formal: the scan builder against ``pgView`` over six relations.

The planned and sqlite engines build a view straight from the base tables
its sources scan, and from the relations of the sources that scan nothing
(:mod:`repro.pgq.scans`); the naive oracle — and the other two whenever the
scan builder declines — evaluates the six relations and calls
:func:`repro.pgq.views.materialize_graph`.  The scan builder may only ever
*accept*: whatever it accepts must be the graph the formal path builds, and
whatever is wrong with a view must be said by the formal path, in its words.
"""

from collections import namedtuple
import hashlib
from itertools import product
import os
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database as Catalog, NaiveEngine, PlannedEngine, SQLiteEngine
from repro.errors import ArityError, ReproError, ViewError
from repro.graph.compact import MISSING, CompactGraph
from repro.graph.property_graph import PropertyGraph
from repro.observability import RingBufferSink, Tracer
from repro.observability.tracing import activate, deactivate, iter_spans
from repro.patterns.ast import OutputPattern
from repro.patterns.builder import edge, node, output, prop, reachability, seq
from repro.pgq import (
    BaseRelation, Constant, EmptyRelation, GraphPattern, Product, Project, Select, Union
)
from repro.pgq.evaluator import PGQEvaluator
from repro.pgq.scans import Literal, graph_from_scans, lower_source
from repro.pgq.views import materialize_graph
from repro.planner.stats import collect_graph_statistics
from repro.relational import ColumnEqualsConstant, Database, Relation
from repro.relational.conditions import ColumnCompareConstant, Not
from repro.relational.schema import RelationSchema, Schema
from repro.datasets.random_graphs import pair_graph_database
from repro.separations import pair_reachability_query
from repro.sqlpgq.ast import CreatePropertyGraph, EdgeTableSpec, NodeTableSpec
from repro.sqlpgq.catalog import compile_graph_definition

#: Ways to be wrong (or merely unusual), each seeded into an otherwise sound
#: catalog, with what the formal path must say about it: a fragment of its
#: error, ``None`` where it accepts.  ``accepted`` is what the scan builder does.
Violation = namedtuple("Violation", "formal accepted")
VIOLATIONS = {
    "none": Violation(None, True),
    "node_edge_overlap": Violation("condition (1) violated", False),
    "edge_key_two_sources": Violation("condition (2) violated", False),
    "dangling_source": Violation("which is not a node", False),
    "dangling_target": Violation("which is not a node", False),
    "endpoints_of_a_non_edge_table": Violation("which is not an edge", False),
    "label_of_a_foreign_table": Violation("condition (3) violated", False),
    "property_of_a_foreign_table": Violation("condition (4) violated", False),
    "property_with_two_values": Violation("has two values", False),
    "benign_duplicate_rows": Violation(None, False),
    "mixed_key_arities": Violation("union requires equal arities", False),
    "max_arity_too_small": Violation("identifier arity", False),
}


# --------------------------------------------------------------------------- #
# Drawing DDL-shaped catalogs
# --------------------------------------------------------------------------- #
def constant(value):
    """A constant column whose value need not be in the active domain."""
    return Constant(value, require_active=False)


def key_columns(arity):
    return tuple(f"k{i}" for i in range(arity))


@st.composite
def catalogs(draw, violation=None):
    """``(tables, statement, sources, max_arity, violation name)``."""
    name = violation or draw(st.sampled_from(sorted(VIOLATIONS)))
    arity = draw(st.integers(1, 4))
    values = st.one_of(st.integers(0, 3), st.none(), st.sampled_from(["x", "é", 2.5]))
    tables, node_specs, edge_specs = {}, [], []
    node_keys = []

    def draw_extras(count):
        extras = tuple(f"c{i}" for i in range(draw(st.integers(0, 2))))
        rows = [tuple(draw(values) for _ in extras) for _ in range(count)]
        declared = draw(st.booleans())  # PROPERTIES (...) or the all-columns default
        properties = tuple(c for c in extras if draw(st.booleans())) if declared else ()
        labels = tuple(draw(st.lists(st.sampled_from(["A", "B", "C"]), max_size=2, unique=True)))
        return extras, rows, labels, properties

    for index in range(draw(st.integers(1, 3))):
        pool = list(product([f"n{index}a", f"n{index}b"], repeat=arity))
        keys = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
        extras, rows, labels, properties = draw_extras(len(keys))
        table = f"Node{index}"
        tables[table] = (key_columns(arity) + extras, [k + r for k, r in zip(keys, rows)])
        node_specs.append(NodeTableSpec(table, key_columns(arity), labels, properties))
        node_keys.extend(keys)

    endpoint_columns = tuple(f"s{i}" for i in range(arity)), tuple(f"t{i}" for i in range(arity))
    for index in range(draw(st.integers(1, 3))):
        pool = list(product([f"e{index}a", f"e{index}b"], repeat=arity))
        keys = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True)) if node_keys else []
        ends = [
            draw(st.sampled_from(node_keys)) + draw(st.sampled_from(node_keys)) for _ in keys
        ]
        extras, rows, labels, properties = draw_extras(len(keys))
        table = f"Edge{index}"
        columns = key_columns(arity) + endpoint_columns[0] + endpoint_columns[1] + extras
        tables[table] = (columns, [k + e + r for k, e, r in zip(keys, ends, rows)])
        edge_specs.append(
            EdgeTableSpec(
                table, key_columns(arity), endpoint_columns[0], "Node0",
                endpoint_columns[1], "Node0", labels, properties,
            )
        )

    max_arity = draw(st.sampled_from([None, arity, arity + 1]))
    seed = _SEEDERS[name]
    result = seed(draw, arity, tables, node_specs, edge_specs, node_keys)
    statement = CreatePropertyGraph("G", tuple(node_specs), tuple(edge_specs))
    database = Database(
        {t: Relation(len(cols), rows, name=t) for t, (cols, rows) in tables.items()},
        schema=Schema(RelationSchema(t, len(cols), cols) for t, (cols, _) in tables.items()),
    )
    sources = compile_graph_definition(statement, database.schema).sources
    if result is not None:
        sources, max_arity = result(sources, max_arity)
    return database, tuple(sources), max_arity, name


def _some_edge_table(draw, arity, tables, node_keys):
    """An edge table with at least one row (one is added when all are empty)."""
    assert node_keys
    table = draw(st.sampled_from(sorted(t for t in tables if t.startswith("Edge"))))
    columns, rows = tables[table]
    if not rows:
        extras = len(columns) - 3 * arity
        rows.append(("e",) * arity + node_keys[0] * 2 + (0,) * extras)
    return table, columns, rows


def _need_nodes(arity, tables, node_keys):
    if not node_keys:
        columns, rows = tables["Node0"]
        key = ("n0a",) * arity
        rows.append(key + (0,) * (len(columns) - arity))
        node_keys.append(key)


def _seed_overlap(draw, arity, tables, node_specs, edge_specs, node_keys):
    _need_nodes(arity, tables, node_keys)
    _table, columns, rows = _some_edge_table(draw, arity, tables, node_keys)
    rows.append(node_keys[0] + rows[0][arity:])


def _seed_two_sources(draw, arity, tables, node_specs, edge_specs, node_keys):
    _need_nodes(arity, tables, node_keys)
    if len(node_keys) < 2:
        columns, rows = tables["Node0"]
        key = ("fresh",) * arity
        rows.append(key + (0,) * (len(columns) - arity))
        node_keys.append(key)
    _table, columns, rows = _some_edge_table(draw, arity, tables, node_keys)
    row = rows[0]
    other = next(key for key in node_keys if key != row[arity:2 * arity])
    rows.append(row[:arity] + other + row[2 * arity:])


def _seed_dangling(offset):
    def seed(draw, arity, tables, node_specs, edge_specs, node_keys):
        _need_nodes(arity, tables, node_keys)
        _table, columns, rows = _some_edge_table(draw, arity, tables, node_keys)
        row = rows[0]
        start = arity * offset
        rows.append(("dangling",) * arity + row[arity:start] + ("nowhere",) * arity
                    + row[start + arity:])
    return seed


def _foreign_table(arity, tables):
    tables["Foreign"] = (key_columns(arity) + ("v",), [("f",) * arity + (1,)])
    return Project(BaseRelation("Foreign"), tuple(range(1, arity + 1)))


def _seed_foreign_endpoints(draw, arity, tables, node_specs, edge_specs, node_keys):
    keys = _foreign_table(arity, tables)
    doubled = Project(keys, tuple(range(1, arity + 1)) * 2)

    def rewrite(sources, max_arity):
        sources = list(sources)
        sources[2] = Union(sources[2], doubled)
        return sources, max_arity
    return rewrite


def _seed_foreign_label(draw, arity, tables, node_specs, edge_specs, node_keys):
    keys = _foreign_table(arity, tables)

    def rewrite(sources, max_arity):
        sources = list(sources)
        sources[4] = Union(sources[4], Product(keys, Constant("L", require_active=False)))
        return sources, max_arity
    return rewrite


def _seed_foreign_property(draw, arity, tables, node_specs, edge_specs, node_keys):
    _foreign_table(arity, tables)
    keyed = Product(BaseRelation("Foreign"), Constant("v", require_active=False))
    term = Project(keyed, tuple(range(1, arity + 1)) + (arity + 2, arity + 1))

    def rewrite(sources, max_arity):
        sources = list(sources)
        sources[5] = Union(sources[5], term)
        return sources, max_arity
    return rewrite


def _duplicate_key_row(exposed):
    """A second row under an existing node key that differs in one extra
    column — an exposed property (conflict) or a hidden one (benign)."""
    def seed(draw, arity, tables, node_specs, edge_specs, node_keys):
        _need_nodes(arity, tables, node_keys)
        index = next(i for i, spec in enumerate(node_specs) if tables[spec.table][1])
        spec = node_specs[index]
        columns, rows = tables[spec.table]
        columns = columns + ("extra",)
        rows[:] = [row + (0,) for row in rows]
        rows.append(rows[0][:-1] + (1,))
        tables[spec.table] = (columns, rows)
        kept = tuple(c for c in (spec.properties or columns[:-1]))
        properties = kept + ("extra",) if exposed else kept
        node_specs[index] = NodeTableSpec(spec.table, spec.key_columns, spec.labels, properties)
    return seed


def _seed_mixed_arities(draw, arity, tables, node_specs, edge_specs, node_keys):
    def rewrite(sources, max_arity):
        sources = list(sources)
        wider = Project(BaseRelation("Node0"), tuple(range(1, arity + 1)) + (1,))
        sources[0] = Union(sources[0], wider)
        return sources, max_arity
    return rewrite


def _seed_small_max_arity(draw, arity, tables, node_specs, edge_specs, node_keys):
    return lambda sources, max_arity: (sources, arity - 1)


_SEEDERS = {
    "none": lambda *args: None,
    "node_edge_overlap": _seed_overlap,
    "edge_key_two_sources": _seed_two_sources,
    "dangling_source": _seed_dangling(1),
    "dangling_target": _seed_dangling(2),
    "endpoints_of_a_non_edge_table": _seed_foreign_endpoints,
    "label_of_a_foreign_table": _seed_foreign_label,
    "property_of_a_foreign_table": _seed_foreign_property,
    "property_with_two_values": _duplicate_key_row(exposed=True),
    "benign_duplicate_rows": _duplicate_key_row(exposed=False),
    "mixed_key_arities": _seed_mixed_arities,
    "max_arity_too_small": _seed_small_max_arity,
}


# --------------------------------------------------------------------------- #
# The two builders, as outcomes
# --------------------------------------------------------------------------- #
def formal_outcome(database, sources, max_arity):
    """``(graph, arity)`` of the formal build, or ``(error type, text)``."""
    try:
        evaluator = PGQEvaluator(database)
        relations = tuple(evaluator.evaluate(source) for source in sources)
        return materialize_graph(relations, max_arity)
    except ReproError as error:
        return type(error), str(error)


def scans_outcome(database, sources, max_arity):
    """What the scan builder returns over the oracle's source relations —
    ``(graph, arity)``, or None where it declines — or ``(error type,
    text)`` when evaluating a source raised."""
    try:
        return graph_from_scans(sources, database, max_arity, PGQEvaluator(database).evaluate)
    except ReproError as error:
        return type(error), str(error)


def planned_outcome(database, sources, max_arity):
    """What the planned engine's view build returns, and who built it."""
    sink = RingBufferSink()
    token = activate(Tracer([sink]))
    try:
        graph, arity, _matcher = PlannedEngine(database)._build_view(sources, max_arity)
        outcome = graph, arity
    except ReproError as error:
        outcome = type(error), str(error)
    finally:
        deactivate(token)
    return outcome, built_from(sink)


def sqlite_outcome(database, sources, max_arity):
    """What the sqlite engine's view tables are built from — the graph
    its encoding holds — and who built it."""
    sink = RingBufferSink()
    token = activate(Tracer([sink]))
    engine = SQLiteEngine(database)
    try:
        view, _users = engine._view_tables(sources, max_arity, engine)
        outcome = PropertyGraph._from_compact(view.encoded), view.identifier_arity
    except ReproError as error:
        outcome = type(error), str(error)
    finally:
        deactivate(token)
        engine.close()
    return outcome, built_from(sink)


def built_from(sink):
    tags = [
        span["tags"].get("built_from")
        for record in sink.records()
        for span in iter_spans(record)
        if span["name"] == "view.materialize"
    ]
    assert len(tags) == 1
    return tags[0]


def same_graph(left, right):
    return (
        left.nodes == right.nodes
        and set(left.edge_tuples()) == set(right.edge_tuples())
        and {e: left.labels(e) for e in left.nodes | left.edges}
        == {e: right.labels(e) for e in right.nodes | right.edges}
        and {e: left.properties(e) for e in left.nodes | left.edges}
        == {e: right.properties(e) for e in right.nodes | right.edges}
    )


def read_encoding(encoded):
    """The graph an encoding holds, read off its columns alone: the
    identifier of each ID, labels through the masks, properties through
    the columns — element -> (labels, properties), and the edge triples."""
    assert len(set(encoded.node_ids)) == encoded.node_count  # dense: one ID per node
    assert len(set(encoded.edge_ids)) == encoded.edge_count
    spaces = ((encoded.node_ids, encoded.node_index), (encoded.edge_ids, encoded.edge_index))
    for ids, index in spaces:
        assert [index[ident] for ident in ids] == list(range(len(ids)))
    elements = {}
    for kind, ids in (("node", encoded.node_ids), ("edge", encoded.edge_ids)):
        masks = encoded.node_labels if kind == "node" else encoded.edge_labels
        columns = encoded.node_properties if kind == "node" else encoded.edge_properties
        for position, ident in enumerate(ids):
            labels = {label for label, mask in masks.items() if mask >> position & 1}
            properties = {
                key: column[position]
                for key, column in columns.items()
                if column[position] is not MISSING
            }
            elements[ident] = (labels, properties)
    edges = {
        (encoded.edge_ids[e], encoded.node_ids[s], encoded.node_ids[t])
        for e, (s, t) in enumerate(zip(encoded.edge_src, encoded.edge_tgt))
    }
    return elements, edges


def read_graph(graph):
    """:func:`read_encoding`'s shape, read through the graph's own API."""
    elements = {
        ident: (set(graph.labels(ident)), graph.properties(ident))
        for ident in graph.nodes | graph.edges
    }
    return elements, set(graph.edge_tuples())


def relation_rows(graph):
    """Rows of the six-relation encoding ``(R1 .. R6)`` of ``graph``:
    ``|N| + |E| + |src| + |tgt| + |lab| + |prop|``."""
    elements = graph.nodes | graph.edges
    return (
        len(graph.nodes)
        + 3 * len(graph.edges)
        + sum(len(graph.labels(e)) for e in elements)
        + sum(len(graph.properties(e)) for e in elements)
    )


def check_case(database, sources, max_arity, name):
    expected = VIOLATIONS[name]
    formal = formal_outcome(database, sources, max_arity)
    scanned = scans_outcome(database, sources, max_arity)
    planned, builder = planned_outcome(database, sources, max_arity)
    if expected.formal is None:
        assert not isinstance(formal[0], type), formal
    else:
        assert isinstance(formal[0], type) and expected.formal in formal[1], formal
    if scanned is not None and isinstance(scanned[0], type):
        # A source outside the scan grammar failed to evaluate: the error
        # is the formal path's, and no builder served the view.
        assert scanned == planned == formal and builder is None
        return
    assert (scanned is not None) == expected.accepted, name
    assert builder == ("scans" if scanned is not None else "relations")
    if scanned is not None:
        # Accepted: the scans' encoding decodes to the formal build's graph,
        # and both builders' encodings give one set of statistics.
        encoded = scanned[0].compact()
        assert read_encoding(encoded) == read_graph(formal[0])
        assert read_encoding(formal[0].compact()) == read_graph(formal[0])
        statistics = [collect_graph_statistics(graph) for graph in (scanned[0], formal[0])]
        assert statistics[0] == statistics[1]
        assert statistics[0].fingerprint() == statistics[1].fingerprint()
        # ... and the graph decoded from it is that graph too.
        for graph, arity in (scanned, planned):
            assert arity == formal[1]
            assert same_graph(graph, formal[0])
        # Nothing collapsed or dropped: every source row is one graph fact.
        assert relation_rows(scanned[0]) == sum(
            len(PGQEvaluator(database).evaluate(source)) for source in sources
        )
    elif isinstance(formal[0], type):
        # Not accepted: the formal path's error, byte for byte.
        assert planned == formal
    else:
        assert planned[1] == formal[1] and same_graph(planned[0], formal[0])


class TestColumnarEqualsFormal:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(catalogs())
    def test_drawn_catalogs(self, case):
        check_case(*case)

    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_violation_by_name(self, name, data):
        check_case(*data.draw(catalogs(violation=name)))

    @staticmethod
    def compiled(tables, statement):
        database = Database(
            {t: Relation(len(cols), rows, name=t) for t, (cols, rows) in tables.items()},
            schema=Schema(RelationSchema(t, len(c), c) for t, (c, _) in tables.items()),
        )
        return database, compile_graph_definition(statement, database.schema).sources

    def test_equal_but_distinct_keys(self):
        # 1 == True == 1.0: one node, whichever spelling a column uses.
        tables = {
            "N": (("k",), [(1,), (2,), (3,)]),
            "E": (("k", "s", "t"), [("e1", 1.0, 2), ("e2", True, 3.0)]),
        }
        edge_spec = EdgeTableSpec("E", ("k",), ("s",), "N", ("t",), "N", ("T",))
        statement = CreatePropertyGraph("G", (NodeTableSpec("N", ("k",), ("A",)),), (edge_spec,))
        database, sources = self.compiled(tables, statement)
        graph, arity = scans_outcome(database, sources, None)
        formal = formal_outcome(database, sources, None)
        assert arity == 1 and same_graph(graph, formal[0])
        assert graph.source(("e2",)) == (1,) and graph.target(("e2",)) == (3,)
        # Each node has one ID, spelled as the node table spells it, and an
        # endpoint decodes to that spelling whatever its edge row wrote —
        # the same on every hash seed (CI also runs this file under seed 1).
        assert sorted(map(repr, graph.compact().node_ids)) == ["(1,)", "(2,)", "(3,)"]
        assert [repr(graph.source(("e1",))), repr(graph.source(("e2",)))] == ["(1,)", "(1,)"]
        assert repr(graph.target(("e2",))) == "(3,)"
        # A second node table spelling node 1 as True exposes its property
        # "k" a second time — as an equal value: no conflict for pgView, but
        # not one row per assignment either, so the scans leave it to pgView.
        tables["M"] = (("k",), [(True,), (4,)])
        statement = CreatePropertyGraph(
            "G",
            (NodeTableSpec("N", ("k",), ("A",)), NodeTableSpec("M", ("k",), ("B",))),
            (edge_spec,),
        )
        database, sources = self.compiled(tables, statement)
        assert scans_outcome(database, sources, None) is None
        formal = formal_outcome(database, sources, None)
        planned, builder = planned_outcome(database, sources, None)
        assert builder == "relations" and same_graph(planned[0], formal[0])
        assert formal[0].labels((1,)) == {"A", "B"} and formal[0].node_count() == 4

    def test_a_source_outside_the_grammar_is_evaluated_then_interned(self):
        query = pair_reachability_query()
        pattern = query.operand
        rows = [("a", "b", "b", "c"), ("b", "c", "c", "a"), ("a", "a", "a", "a")]
        database = Database({"E4": Relation(4, rows)})
        assert lower_source(pattern.sources[1], database.schema) is None  # a Select
        scanned = scans_outcome(database, pattern.sources, pattern.max_arity)
        planned, builder = planned_outcome(database, pattern.sources, pattern.max_arity)
        formal = formal_outcome(database, pattern.sources, pattern.max_arity)
        assert builder == "evaluated"
        assert scanned[1] == planned[1] == formal[1] == 4
        assert same_graph(scanned[0], formal[0]) and same_graph(planned[0], formal[0])

    @pytest.mark.parametrize(
        "source",
        [
            Select(BaseRelation("T"), ColumnEqualsConstant(1, "a")),
            Product(BaseRelation("T"), BaseRelation("T")),
            Product(BaseRelation("T"), Constant("c")),  # must be in the active domain
            Product(Constant("c", require_active=False), BaseRelation("T")),
            Project(BaseRelation("T"), (3,)),
            Project(BaseRelation("T"), ()),
            Union(BaseRelation("T"), Project(BaseRelation("T"), (1,))),
            BaseRelation("Missing"),
        ],
    )
    def test_what_lowers_to_nothing(self, source):
        schema = Schema([RelationSchema("T", 2, ("a", "b"))])
        assert lower_source(source, schema) is None

    def test_what_lowers(self):
        schema = Schema([RelationSchema("T", 2, ("a", "b"))])
        labelled = Project(Product(BaseRelation("T"), Constant("L", require_active=False)), (2, 3))
        assert lower_source(labelled, schema) == (2, [("T", (1, Literal("L")))])
        assert lower_source(Union(EmptyRelation(2), BaseRelation("T")), schema) == (
            2, [("T", (0, 1))]
        )


class TestHandWrittenSources:
    """``PGQro`` views — six base relations — take the scan path too."""

    TABLES = {
        "N": [("v0",), ("v1",), ("v2",)],
        "E": [("e0",), ("e1",)],
        "S": [("e0", "v0"), ("e1", "v1")],
        "T": [("e0", "v1"), ("e1", "v2")],
        "L": [("v0", "Start"), ("e0", "Hop"), ("e0", 7)],
        "P": [("e0", "w", 1), ("e1", 5, 2)],
    }

    @staticmethod
    def outcomes(tables, sources=None):
        database = Database.from_dict(tables, arities={"L": 2, "P": 3})
        sources = sources or tuple(BaseRelation(name) for name in "NESTLP")
        return (
            scans_outcome(database, sources, None),
            formal_outcome(database, sources, None),
            planned_outcome(database, sources, None),
        )

    def test_sound_relations_are_accepted(self):
        scanned, formal, (planned, builder) = self.outcomes(self.TABLES)
        assert builder == "scans" and scanned[1] == formal[1] == 1
        assert same_graph(scanned[0], formal[0]) and same_graph(planned[0], formal[0])
        # Labels and property keys are strings in the graph, whatever the column holds.
        assert scanned[0].labels(("e0",)) == {"Hop", "7"}
        assert scanned[0].properties(("e1",)) == {"5": 2}

    @pytest.mark.parametrize(
        "table, rows, says",
        [
            ("S", [("e0", "v0"), ("e1", "v1"), ("e0", "v2")], "to both"),
            ("T", [("e0", "v1")], "is not total"),
            ("T", [("e0", "v1"), ("e1", "v2"), ("e2", "v2")], "which is not an edge"),
            ("S", [("e0", "v0"), ("e1", "e0")], "which is not a node"),
            ("E", [("e0",), ("e1",), ("v0",)], "condition (1) violated"),
            ("L", [("zz", "Start")], "condition (3) violated"),
            ("P", [("zz", "w", 1)], "condition (4) violated"),
            ("P", [("e0", "w", 1), ("e0", "w", 2)], "has two values"),
            ("P", [("e0", "w")], "incompatible with any identifier arity"),
        ],
    )
    def test_unsound_relations_are_left_to_pgview(self, table, rows, says):
        scanned, formal, (planned, builder) = self.outcomes({**self.TABLES, table: rows})
        assert scanned is None and builder == "relations"
        assert formal[0] is ViewError and says in formal[1]
        assert planned == formal

    def test_constant_names_that_are_not_strings(self):
        sources = (
            BaseRelation("N"), BaseRelation("E"), BaseRelation("S"), BaseRelation("T"),
            Product(BaseRelation("N"), constant(7)),
            Project(Product(Product(BaseRelation("E"), constant(5)), constant(None)), (1, 2, 3)),
        )
        scanned, formal, (planned, builder) = self.outcomes(self.TABLES, sources)
        assert builder == "scans" and same_graph(scanned[0], formal[0])
        assert scanned[0].labels(("v1",)) == {"7"}
        assert scanned[0].properties(("e1",)) == {"5": None}

    def test_all_six_empty(self):
        empty = {name: [] for name in "NESTLP"}
        database = Database.from_dict(empty, arities={"N": 2, "E": 2, "S": 4, "T": 4, "L": 3, "P": 4})
        sources = tuple(BaseRelation(name) for name in "NESTLP")
        graph, arity = scans_outcome(database, sources, None)
        assert arity == formal_outcome(database, sources, None)[1] == 2
        assert graph.node_count() == graph.edge_count() == 0


class TestBuiltFromTag:
    """The ``view.materialize`` span says which builder served the view."""

    DDL = """
    CREATE PROPERTY GRAPH G (
      NODES TABLE N KEY (k) LABEL A,
      EDGES TABLE E KEY (k) SOURCE KEY s REFERENCES N TARGET KEY t REFERENCES N LABEL T)
    """
    QUERY = "SELECT * FROM GRAPH_TABLE ( G MATCH (x)-[e:T]->(y) COLUMNS (x.k AS a, y.k AS b) )"

    @staticmethod
    def catalog(sink, edges):
        db = Catalog(tracer=Tracer([sink]))
        db.create_table("N", ["k"], [("a",), ("b",)])
        db.create_table("E", ["k", "s", "t"], edges)
        db.execute(TestBuiltFromTag.DDL)
        return db

    @staticmethod
    def view_spans(sink):
        return [
            span["tags"]
            for record in sink.records()
            for span in iter_spans(record)
            if span["name"] == "view.materialize"
        ]

    def test_planned_and_sqlite_scan_and_naive_never_does(self):
        sink = RingBufferSink()
        with self.catalog(sink, [("e", "a", "b")]) as db:
            builders = {}
            for engine in ("naive", "planned", "sqlite"):
                sink.clear()
                # sqlite builds its view when the statement compiles, which
                # the connection does before its query span opens.
                token = activate(Tracer([sink]))
                try:
                    with db.connect(engine) as connection:
                        assert list(connection.execute(self.QUERY).rows) == [("a", "b")]
                finally:
                    deactivate(token)
                builders[engine] = [tags.get("built_from") for tags in self.view_spans(sink)]
        # One view constructor for the planned and sqlite engines; the
        # naive oracle always takes the formal path.
        assert builders == {"naive": ["relations"], "planned": ["scans"], "sqlite": ["scans"]}

    def test_ddl_graph_pairs_query_and_a_duplicated_edge_key(self):
        sink = RingBufferSink()
        with self.catalog(sink, [("e", "a", "b")]) as db:
            db.connect("planned").execute(self.QUERY)
            (tags,) = self.view_spans(sink)
            assert tags["built_from"] == "scans"
            assert tags["nodes"] == 2 and tags["edges"] == 1 and "compact_encode_s" in tags
        for engine in ("planned", "sqlite"):
            sink.clear()
            with Catalog() as db:
                db.create_table("E4", ["u1", "u2", "v1", "v2"], [("a", "b", "b", "c")])
                # Connection.evaluate() opens no statement window of its own.
                token = activate(Tracer([sink]))
                try:
                    with db.connect(engine) as connection:
                        assert len(connection.evaluate(pair_reachability_query())) == 3
                finally:
                    deactivate(token)
                (tags,) = self.view_spans(sink)
                assert tags["built_from"] == "evaluated"
                assert tags["nodes"] == 2 and tags["edges"] == 1 and "compact_encode_s" in tags
        sink.clear()
        with self.catalog(sink, [("e", "a", "b"), ("e", "b", "b")]) as db:
            with pytest.raises(ViewError, match=r"condition \(2\) violated.*to both"):
                db.connect("planned").execute(self.QUERY)
            (tags,) = self.view_spans(sink)
            assert tags["built_from"] == "relations" and "nodes" not in tags


# --------------------------------------------------------------------------- #
# The two relational kernels that went set-at-a-time
# --------------------------------------------------------------------------- #
class TestRelationKernels:
    Pair = namedtuple("Pair", "left right")

    @pytest.mark.parametrize(
        "bad, message",
        [
            (("a",), "row ('a',) has arity 1, expected 2 in relation 'T'"),
            (("a", ("b",)), "relation entries must be atomic values, got ('b',)"),
            (("a", ["b"]), "relation entries must be atomic values, got ['b']"),
            (Pair("a", Pair("b", "c")),
             "relation entries must be atomic values, got Pair(left='b', right='c')"),
        ],
    )
    def test_the_same_arity_error_on_either_side_of_the_bulk_check(self, bad, message):
        good = [("x", "y"), ("z", 1)]
        for rows in ([bad], good + [bad], [bad] + good, iter(good + [bad]), good + [list(bad)]):
            with pytest.raises(ArityError) as caught:
                Relation(2, rows, name="T")
            assert str(caught.value) == message

    def test_rows_the_bulk_check_declines_still_normalize(self):
        pair = self.Pair("a", "b")
        relation = Relation(2, [("x", "y"), ["p", "q"], pair])
        assert relation.rows == {("x", "y"), ("p", "q"), ("a", "b")}
        assert Relation(1, ["a", "b"]).rows == {("a",), ("b",)}  # scalars are 1-tuples
        assert Relation(2, frozenset({("x", "y")})).rows == {("x", "y")}
        assert Relation(0, [()]).rows == {()}

    def test_content_digest_is_the_old_algorithm(self):
        rows = [
            ("é", None, 1.5, True),
            ("z\udc80", 0, float("inf"), False),
            ("a\nb", -1, 2.0, None),
            ("", 10**20, -0.0, True),
        ]
        relation = Relation(4, rows)
        digest = hashlib.sha256(b"4\n")
        for row in sorted(relation.rows, key=repr):
            digest.update(repr(row).encode("utf-8", "replace"))
            digest.update(b"\n")
        assert relation.content_digest() == digest.hexdigest()
        assert Relation.empty(3).content_digest() == hashlib.sha256(b"3\n").hexdigest()


class TestTheGraphIsDerivedOnDemand:
    """A scans-built view runs on its encoding; its ``PropertyGraph`` is
    decoded only for a consumer that reads one row at a time."""

    DDL = """
    CREATE PROPERTY GRAPH Transfers (
      NODES TABLE Account KEY (iban) LABEL Account,
      EDGES TABLE Transfer KEY (t_id)
        SOURCE KEY src_iban REFERENCES Account
        TARGET KEY tgt_iban REFERENCES Account
        LABELS Transfer PROPERTIES (ts, amount))
    """
    REACH = (
        "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]->+ (y) "
        "WHERE t.amount > 500 COLUMNS (x.iban AS src, y.iban AS dst) )"
    )
    # Two variables in one condition: no column can answer it on its own.
    CROSS = (
        "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]-> (y) "
        "WHERE x.iban < y.iban COLUMNS (x.iban AS src, t.amount AS amount, y.iban AS dst) )"
    )

    @classmethod
    def bank(cls):
        db = Catalog()
        accounts = [f"A{i}" for i in range(12)]
        db.create_table("Account", ["iban"], [(a,) for a in accounts])
        db.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [
                (f"T{i}", accounts[i % 12], accounts[(i * 5 + 3) % 12], i, 97 * i % 1000)
                for i in range(40)
            ],
        )
        db.execute(cls.DDL)
        return db

    @staticmethod
    def answers(db, engine, query):
        with db.connect(engine) as connection:
            return sorted(map(repr, connection.execute(query).rows))

    def test_reachability_never_derives_the_graph(self, monkeypatch):
        def refuse(encoded):
            raise AssertionError("a scans-built view derived its PropertyGraph")

        monkeypatch.setattr(CompactGraph, "decode", refuse)
        with self.bank() as db:
            planned = self.answers(db, "planned", self.REACH)
            assert planned and planned == self.answers(db, "naive", self.REACH)

    def test_a_cross_variable_condition_derives_it_once(self, monkeypatch):
        decoded = []
        decode = CompactGraph.decode

        def counted(encoded):
            decoded.append(encoded)
            return decode(encoded)

        monkeypatch.setattr(CompactGraph, "decode", counted)
        with self.bank() as db:
            planned = self.answers(db, "planned", self.CROSS)
            assert len(decoded) == 1
            assert planned and planned == self.answers(db, "naive", self.CROSS)
            assert self.answers(db, "planned", self.CROSS) == planned
        assert len(decoded) == 1

    def test_racing_readers_decode_once(self, monkeypatch):
        decoded = []
        decode = CompactGraph.decode

        def counted(encoded):
            decoded.append(encoded)
            return decode(encoded)

        monkeypatch.setattr(CompactGraph, "decode", counted)
        with self.bank() as db, db.connect("planned") as connection:
            database = db.snapshot().database
            sources = connection.compile(self.REACH).sources
        # More readers than cores, switching threads as often as possible.
        seen, barrier = [], threading.Barrier(min(32, (os.cpu_count() or 1) + 4))

        def read():
            barrier.wait(5.0)
            seen.append((graph.node_count(), len(graph.edges), graph.labels(("A0",))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                graph, _arity = scans_outcome(database, sources, None)
                workers = [threading.Thread(target=read) for _ in range(barrier.parties)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(10.0)
                    assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(decoded) == 20  # one decode per graph, however many readers raced
        assert set(seen) == {(12, 40, frozenset({"Account"}))}


# --------------------------------------------------------------------------- #
# Views over relational sources: evaluated once, interned like scans
# --------------------------------------------------------------------------- #
ACCOUNTS = [(f"A{i}", f"owner{i % 3}") for i in range(8)]
TRANSFERS = [(f"T{i}", f"A{i % 8}", f"A{(3 * i + 1) % 8}", 97 * i % 1000) for i in range(24)]


def bank(accounts=ACCOUNTS, transfers=TRANSFERS):
    return Database({"Account": Relation(2, accounts), "Transfer": Relation(4, transfers)})


def big_transfers():
    return Select(BaseRelation("Transfer"), ColumnCompareConstant(4, ">", 300))


def filtered_bank_view():
    """Every source through a ``Select``: nothing lowers to a scan term."""
    accounts = Select(BaseRelation("Account"), Not(ColumnEqualsConstant(1, "nobody")))
    nodes, big = Project(accounts, (1,)), big_transfers()
    edges = Project(big, (1,))
    return (
        nodes,
        edges,
        Project(big, (1, 2)),
        Project(big, (1, 3)),
        Union(Product(nodes, constant("Account")), Product(edges, constant("Transfer"))),
        Union(
            Project(Product(accounts, constant("owner")), (1, 3, 2)),
            Project(Product(big, constant("amount")), (1, 5, 4)),
        ),
    )


def mixed_bank_view():
    """Nodes, their labels and properties scan the base table; the edges
    are a ``Select``'s evaluated rows."""
    nodes, big = Project(BaseRelation("Account"), (1,)), big_transfers()
    return (
        nodes,
        Project(big, (1,)),
        Project(big, (1, 2)),
        Project(big, (1, 3)),
        Product(nodes, constant("Account")),
        Project(Product(BaseRelation("Account"), constant("owner")), (1, 3, 2)),
    )


def pairs_case():
    pattern = pair_reachability_query().operand
    rows = pair_graph_database(5, seed=7, edge_probability=0.02).relation("E4")
    database = Database({"E4": rows})
    return database, pattern.sources, pattern.max_arity


def with_labels(sources, labels):
    return sources[:4] + (labels,) + sources[5:]


#: An ill-formed relational view per condition, with the formal path's words.
ILL_FORMED = {
    "node_edge_overlap": (
        lambda: (bank(transfers=TRANSFERS + [("A1", "A0", "A2", 900)]), filtered_bank_view()),
        "condition (1) violated",
    ),
    "edge_with_two_sources": (
        lambda: (
            bank(transfers=TRANSFERS + [("T90", "A5", "A4", 900), ("T90", "A6", "A4", 900)]),
            filtered_bank_view(),
        ),
        "to both",
    ),
    "dangling_endpoint": (
        lambda: (bank(transfers=TRANSFERS + [("T99", "A0", "Nowhere", 900)]), filtered_bank_view()),
        "which is not a node",
    ),
    "duplicate_property": (
        lambda: (bank(accounts=ACCOUNTS + [("A0", "someone else")]), filtered_bank_view()),
        "has two values",
    ),
    "arity_mismatch": (
        lambda: (
            bank(),
            with_labels(
                filtered_bank_view(),
                Product(Product(BaseRelation("Account"), constant("L")), constant("x")),
            ),
        ),
        "inconsistent identifier arities",
    ),
}


class TestRelationalSources:
    """``pairs_ext``'s view and its kin: the sources that scan no table are
    evaluated once and interned, with the same whole-set tests."""

    @pytest.mark.parametrize(
        "case",
        [
            pairs_case,
            lambda: (bank(), filtered_bank_view(), None),
            lambda: (bank(), mixed_bank_view(), 1),
        ],
        ids=["pairs", "select_filtered_bank", "mixed_bank"],
    )
    def test_the_formal_graph_on_planned_and_sqlite(self, case):
        database, sources, max_arity = case()
        assert any(lower_source(source, database.schema) is None for source in sources)
        formal = formal_outcome(database, sources, max_arity)
        assert formal[0].node_count() and formal[0].edge_count()
        for outcome in (planned_outcome, sqlite_outcome):
            (graph, arity), builder = outcome(database, sources, max_arity)
            assert builder == "evaluated"
            assert arity == formal[1] and same_graph(graph, formal[0])
            assert read_encoding(graph.compact()) == read_graph(formal[0])

    def test_only_sources_outside_the_grammar_are_evaluated(self):
        evaluated = []

        def evaluate(source):
            evaluated.append(source)
            return PGQEvaluator(bank()).evaluate(source)

        sources = mixed_bank_view()
        assert graph_from_scans(sources, bank(), 1, evaluate) is not None
        assert evaluated == list(sources[1:4])

    @pytest.mark.parametrize("name", sorted(ILL_FORMED))
    def test_ill_formed_views_raise_the_formal_error_on_every_engine(self, name):
        make, words = ILL_FORMED[name]
        database, sources = make()
        formal = formal_outcome(database, sources, None)
        assert formal[0] is ViewError and words in formal[1]
        assert scans_outcome(database, sources, None) is None
        with pytest.raises(ViewError) as naive:
            NaiveEngine(database)._build_view(sources, None)
        assert str(naive.value) == formal[1]
        for outcome in (planned_outcome, sqlite_outcome):
            assert outcome(database, sources, None) == (formal, "relations")


class TestProjectDecodesInPlace:
    """A relational ``Project`` over a pattern: the planned executor decodes
    the projected rows directly, equal to ``Relation.project`` of the
    pattern's rows."""

    @pytest.mark.parametrize(
        "positions",
        [
            (1, 2, 5, 6),  # Theorem 5.2: one pair of each identifier, contiguous
            (5, 6, 1, 2),  # tail first
            (1, 2),  # collapses every target
            (3, 1),  # one identifier, reordered
            (8,),
            (1, 2, 3, 4, 5, 6, 7, 8),
            (4, 4, 6),
        ],
    )
    def test_pairs(self, positions):
        database, sources, max_arity = pairs_case()
        pattern = GraphPattern(reachability("x", "y"), sources, max_arity)
        self.check(database, pattern, positions)

    @pytest.mark.parametrize("positions", [(3, 4), (2, 3, 7), (1, 2, 7, 8), (4, 3)])
    def test_pair_edges(self, positions):
        # Edge identifiers (u1, u2, v1, v2) are not symmetric: a run that
        # starts past the first component shows.
        database, sources, max_arity = pairs_case()
        hop = output(seq(node("x"), edge("t"), node("y")), "t", "y")
        self.check(database, GraphPattern(hop, sources, max_arity), positions)

    @pytest.mark.parametrize("positions", [(2,), (3, 1), (1, 2, 3), (3, 2, 1), (1, 1)])
    def test_rows_of_a_hop_with_a_property(self, positions):
        pattern = GraphPattern(
            output(seq(node("x"), edge("t"), node("y")), "x", prop("t", "amount"), "y"),
            filtered_bank_view(),
        )
        self.check(bank(), pattern, positions)

    @pytest.mark.parametrize("positions", [(1,), (1, 1)])
    def test_one_endpoint_of_a_closure(self, positions):
        database, sources, max_arity = pairs_case()
        reach = reachability("x", "y")
        pattern = GraphPattern(OutputPattern(reach.pattern, ("y",)), sources, max_arity)
        self.check(database, pattern, positions)

    def test_sparse_reach_masks(self):
        # Disjoint hops over 120 nodes: most reach masks have under one bit
        # in 32 set, and every third node only has the property.
        hops = range(0, 120, 2)
        database = Database.from_dict(
            {
                "N": [(f"v{i}",) for i in range(120)],
                "E": [(f"e{i}",) for i in hops],
                "S": [(f"e{i}", f"v{i}") for i in hops],
                "T": [(f"e{i}", f"v{i + 1}") for i in hops],
                "L": [],
                "P": [(f"v{i}", "p", i) for i in range(0, 120, 3)],
            },
            arities={"L": 2, "P": 3},
        )
        sources = tuple(BaseRelation(name) for name in "NESTLP")
        reach = reachability("x", "y")
        for items in (("x", "y"), ("x", prop("y", "p")), (prop("y", "p"), "x")):
            pattern = GraphPattern(OutputPattern(reach.pattern, items), sources)
            expected = PGQEvaluator(database).evaluate(pattern)
            assert PlannedEngine(database).evaluate(pattern).rows == expected.rows
            self.check(database, pattern, (2, 1))

    @staticmethod
    def check(database, pattern, positions):
        expected = PGQEvaluator(database).evaluate(pattern).project(positions)
        assert len(expected)
        query = Project(pattern, positions)
        planned = PlannedEngine(database).evaluate(query)
        assert planned.arity == expected.arity and planned.rows == expected.rows
        sqlite = SQLiteEngine(database)
        try:
            rows = sqlite.evaluate(query).rows
        finally:
            sqlite.close()
        assert sorted(map(repr, rows)) == sorted(map(repr, expected.rows))

    def test_a_position_out_of_range_is_the_oracles_error(self):
        database, sources, max_arity = pairs_case()
        query = Project(GraphPattern(reachability("x", "y"), sources, max_arity), (9,))
        with pytest.raises(ArityError) as oracle:
            PGQEvaluator(database).evaluate(query)
        with pytest.raises(ArityError) as planned:
            PlannedEngine(database).evaluate(query)
        assert str(planned.value) == str(oracle.value)
