"""Graph creation in one pass: view sources as *scan terms* over base tables.

A ``CREATE PROPERTY GRAPH`` definition (and every ``PGQro`` pattern over
base relations) spells its six view sources in a small corner of the
algebra: unions of projections of a base table, optionally widened by a
constant column.  Such a source is a union of **scan terms**
``(table, picks)`` — each pick a column index of the table or a
:class:`Literal` — and the property graph of Definition 3.1 / 5.1 can be
assembled from the terms directly, one pass over each base table, without
materializing ``(R1, ..., R6)`` first.  A source outside that corner (a
``Select``, or a union of projections of one: Theorem 5.2's pair view) is
evaluated once, as a whole, and its rows enter as one term: a relation is
a set, so its keys never repeat.

What the scans assemble is the graph's compact encoding
(:class:`~repro.graph.compact.CompactGraph`), not a graph that is then
encoded.  Node and edge keys are interned once, in table-row order, into
dense IDs, so a term over the table that introduced its elements — the
labels, properties and endpoints of a catalog table — lines up with them
row for row: its IDs are a range, its label a run of bits, its property
column one slice of the table's column.  Anything else is looked up in the index
maps.  The :class:`~repro.graph.property_graph.PropertyGraph` of the view
is derived from the encoding only when a row-at-a-time consumer reads it.

This builder **only ever accepts**.  The definition's conditions (1)-(4)
are enforced through *sufficient* whole-set tests on the index maps;
tables or evaluated sources that miss any test (a duplicated key, a
dangling endpoint, a node/edge overlap, inconsistent arities) make
:func:`graph_from_scans` return ``None``, and :func:`view_graph` then
takes the formal path — the six relations and
:func:`repro.pgq.views.materialize_graph` — which accepts or raises
:class:`~repro.errors.ViewError` in its own words.  ``pgq/views.py`` stays
the single authority on what a view is.  :func:`view_graph` is how the
planned and sqlite engines build every view; the naive oracle never
comes here.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union as Either
)

from repro.graph.compact import MISSING, CompactGraph, bitmask, defined_count, split_spaces
from repro.graph.identifiers import Identifier
from repro.graph.property_graph import PropertyGraph
from repro.parameters import Parameter
from repro.pgq.queries import (
    BaseRelation,
    Constant,
    EmptyRelation,
    Product,
    Project,
    Query,
    Union,
)
from repro.pgq.views import materialize_graph
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class Literal(NamedTuple):
    """A constant pick: the same value on every row a term emits."""

    value: Any


#: One column of a term's output: a 0-based column of the table, or a constant.
Pick = Either[int, Literal]
#: A base table by name, or an evaluated view source by its number (0-5).
Table = Either[str, int]
#: ``(table, picks)``: one output row per row of the table.
ScanTerm = Tuple[Table, Tuple[Pick, ...]]


def lower_source(query: Query, schema: Schema) -> Optional[Tuple[int, List[ScanTerm]]]:
    """``(arity, scan terms)`` of one view source, or ``None`` outside the grammar.

    Grammar: ``BaseRelation``, ``EmptyRelation``, ``Union``, ``Project``
    and ``Product(q, Constant(c, require_active=False))`` with ``c`` a
    value, not a parameter slot.  Whatever the formal evaluator would
    reject (an unknown table, a projection position out of range, a union
    of unequal arities) lowers to ``None`` as well, so the formal path
    gets to say so.
    """
    if isinstance(query, BaseRelation):
        if query.name not in schema:
            return None
        arity = schema.arity(query.name)
        return arity, [(query.name, tuple(range(arity)))]
    if isinstance(query, EmptyRelation):
        return query.arity, []
    if isinstance(query, Union):
        left, right = lower_source(query.left, schema), lower_source(query.right, schema)
        if left is None or right is None or left[0] != right[0]:
            return None
        return left[0], left[1] + right[1]
    if isinstance(query, Project):
        operand = lower_source(query.operand, schema)
        positions = query.positions
        if operand is None or not positions:
            return None
        arity, terms = operand
        if not all(type(p) is int and 1 <= p <= arity for p in positions):
            return None
        return len(positions), [
            (table, tuple(picks[p - 1] for p in positions)) for table, picks in terms
        ]
    if isinstance(query, Product):
        constant = query.right
        if not isinstance(constant, Constant) or constant.require_active:
            return None
        value = constant.value
        if isinstance(value, Parameter):
            return None
        operand = lower_source(query.left, schema)
        if operand is None:
            return None
        arity, terms = operand
        return arity + 1, [(table, picks + (Literal(value),)) for table, picks in terms]
    return None


class _Tables:
    """The rows of the base tables and evaluated sources the terms read,
    each listed once (so two reads of one table line up row for row), and
    their picked columns, each transposed and zipped once."""

    def __init__(self, database: Database, evaluated: Dict[int, Relation]):
        self._database = database
        self._evaluated = evaluated
        self._rows: Dict[Table, List[Tuple]] = {}
        self._columns: Dict[Table, Tuple[Tuple, ...]] = {}
        self._picked: Dict[ScanTerm, List] = {}

    def rows(self, table: Table) -> List[Tuple]:
        """The rows of ``table``, in the one order every read sees."""
        found = self._rows.get(table)
        if found is None:
            relation = (
                self._evaluated[table] if type(table) is int else self._database.relation(table)
            )
            found = self._rows[table] = list(relation.rows)
        return found

    def count(self, table: Table) -> int:
        """Rows of ``table``."""
        return len(self.rows(table))

    def values(self, table: Table, pick: Pick) -> Sequence:
        """One picked column, a value per row of ``table``."""
        if type(pick) is Literal:
            return [pick.value] * self.count(table)
        columns = self._columns.get(table)
        if columns is None:
            columns = self._columns[table] = tuple(zip(*self.rows(table)))
        return columns[pick] if columns else ()

    def strings(self, table: Table, pick: Pick) -> Sequence[str]:
        """One picked column as label / property-key names (``str`` of each value)."""
        values = self.values(table, pick)
        if type(pick) is Literal:
            return [str(pick.value)] * len(values)
        return list(map(str, values))

    def tuples(self, table: Table, picks: Tuple[Pick, ...]) -> List[Tuple]:
        """The picked columns as one tuple per row of ``table``, in row
        order (the rows themselves when the picks are all the columns)."""
        key = (table, picks)
        found = self._picked.get(key)
        if found is None:
            rows = self.rows(table)
            if rows and picks == tuple(range(len(rows[0]))):
                found = rows
            else:
                found = list(zip(*[self.values(table, pick) for pick in picks]))
            self._picked[key] = found
        return found


#: Where each interned term's rows start in its ID space.
Spans = Dict[ScanTerm, int]


def _intern(
    tables: _Tables, terms: List[ScanTerm]
) -> Optional[Tuple[Dict[Identifier, int], Spans]]:
    """``(identifier -> dense ID, spans)`` of the keys ``terms`` emit, IDs
    in term then table-row order; ``None`` when a key repeats — the
    sufficient test for one row per element."""
    index: Dict[Identifier, int] = {}
    spans: Spans = {}
    rows = 0
    for term in terms:
        keys = tables.tuples(*term)
        spans.setdefault(term, rows)
        index.update(zip(keys, range(rows, rows + len(keys))))
        rows += len(keys)
    return (index, spans) if len(index) == rows else None


def _positions(
    tables: _Tables,
    term: ScanTerm,
    spans: Spans,
    index: Callable[[], Dict[Identifier, int]],
) -> Optional[Sequence[int]]:
    """Dense IDs of the keys ``term`` emits, row by row, in one ID space.

    A term the space was interned from (same table, same key picks) gets
    its span: row ``i`` is ID ``offset + i``.  Any other term looks its
    keys up in ``index()``; ``None`` when one is not in the space.
    """
    offset = spans.get(term)
    if offset is not None:
        return range(offset, offset + tables.count(term[0]))
    found = list(map(index().get, tables.tuples(*term)))
    return None if None in found else found


def _endpoint_column(
    tables: _Tables,
    terms: List[ScanTerm],
    arity: int,
    edge_spans: Spans,
    edge_index: Dict[Identifier, int],
    node_index: Dict[Identifier, int],
) -> Optional[array]:
    """The node ID of every edge's source (or target), by edge ID, or
    ``None`` unless ``terms`` encode a total function E -> N with one row
    per edge — condition (2)."""
    column = [-1] * len(edge_index)
    written = 0
    for table, picks in terms:
        edges = _positions(tables, (table, picks[:arity]), edge_spans, lambda: edge_index)
        nodes = list(map(node_index.get, tables.tuples(table, picks[arity:])))
        if edges is None or None in nodes:
            return None
        if type(edges) is range:
            column[edges.start : edges.stop] = nodes
        else:
            for edge, node in zip(edges, nodes):
                column[edge] = node
        written += len(nodes)
    # As many rows as edges, and none left without an image: one row each.
    if written != len(column) or -1 in column:
        return None
    return array("q", column)


def graph_from_scans(
    sources: Sequence[Query],
    database: Database,
    max_arity: Optional[int],
    evaluate: Callable[[Query], Relation],
) -> Optional[Tuple[PropertyGraph, int]]:
    """``(graph, identifier arity)`` built straight from the base tables the
    six ``sources`` scan and from the relations ``evaluate`` gives for the
    sources that lower to no scan terms, or ``None`` when this builder
    cannot vouch for the view (see the module docstring): never an error
    of its own.  The graph is built from its encoding and decodes its
    components lazily.
    """
    if len(sources) != 6:
        return None
    lowered: List[Tuple[int, List[ScanTerm]]] = []
    evaluated: Dict[int, Relation] = {}
    for number, source in enumerate(sources):
        terms = lower_source(source, database.schema)
        if terms is None:
            # A relation is a set: as one term, its keys never repeat.
            relation = evaluated[number] = evaluate(source)
            width = relation.arity
            terms = width, [(number, tuple(range(width)))] if relation else []
        lowered.append(terms)
    started = perf_counter()
    arity = lowered[0][0]
    # One identifier arity, statically: n, n, 2n, 2n, n+1, n+2.
    if arity < 1 or [a for a, _ in lowered[1:]] != [
        arity, 2 * arity, 2 * arity, arity + 1, arity + 2
    ]:
        return None
    if max_arity is not None and arity > max_arity:
        return None
    node_terms, edge_terms, source_terms, target_terms, label_terms, property_terms = (
        terms for _, terms in lowered
    )
    tables = _Tables(database, evaluated)

    nodes, edges = _intern(tables, node_terms), _intern(tables, edge_terms)
    if nodes is None or edges is None:
        return None
    (node_index, node_spans), (edge_index, edge_spans) = nodes, edges
    # Condition (1).
    if not node_index.keys().isdisjoint(edge_index):
        return None
    # Condition (2).
    endpoints = [
        _endpoint_column(tables, terms, arity, edge_spans, edge_index, node_index)
        for terms in (source_terms, target_terms)
    ]
    if None in endpoints:
        return None

    # Conditions (3) and (4) over the element space: nodes, then edges.
    node_count = len(node_index)
    size = node_count + len(edge_index)
    element_spans = {**node_spans, **{t: node_count + o for t, o in edge_spans.items()}}
    element_index: Dict[Identifier, int] = {}

    def elements() -> Dict[Identifier, int]:
        if len(element_index) != size:  # built for the first term that needs it
            element_index.update(node_index)
            element_index.update(zip(edge_index, range(node_count, size)))
        return element_index

    def grouped(table: str, picks: Tuple[Pick, ...], values: Iterable) -> Optional[Dict]:
        """``name -> (element IDs, values)`` of the rows of a label or
        property term, grouped by the name it picks after the key (one
        group for a constant), or ``None`` when a key is not an element."""
        positions = _positions(tables, (table, picks[:arity]), element_spans, elements)
        if positions is None:
            return None
        name = picks[arity]
        if type(name) is Literal:
            return {str(name.value): (positions, values)}
        groups: Dict[str, Tuple[List[int], List]] = {}
        for position, key, value in zip(positions, tables.strings(table, name), values):
            found = groups.setdefault(key, ([], []))
            found[0].append(position)
            found[1].append(value)
        return groups

    # Condition (3): labels sit on graph elements.
    masks: Dict[str, int] = {}
    for table, picks in label_terms:
        groups = grouped(table, picks, repeat(None))
        if groups is None:
            return None
        for label, (positions, _none) in groups.items():
            masks[label] = masks.get(label, 0) | bitmask(positions, size)

    # Condition (4): a partial function (element, key) -> value, one row each.
    columns: Dict[str, List[Any]] = {}
    written: Dict[str, int] = {}
    for table, picks in property_terms:
        groups = grouped(table, picks, tables.values(table, picks[arity + 1]))
        if groups is None:
            return None
        for key, (positions, values) in groups.items():
            column = columns.get(key)
            if column is None:
                column = columns[key] = [MISSING] * size
            if type(positions) is range:
                column[positions.start : positions.stop] = values
            else:
                for position, value in zip(positions, values):
                    column[position] = value
            written[key] = written.get(key, 0) + len(positions)
    # Two rows that assigned one slot leave fewer values than rows.
    if any(defined_count(column) != written[key] for key, column in columns.items()):
        return None

    encoded = CompactGraph(
        list(node_index),
        node_index,
        list(edge_index),
        edge_index,
        *endpoints,
        *split_spaces(masks, columns, node_count),
        started=started,
    )
    return PropertyGraph._from_compact(encoded), arity


def view_graph(
    sources: Sequence[Query],
    database: Database,
    max_arity: Optional[int],
    span,
    evaluate: Callable[[Query], Relation],
) -> Tuple[PropertyGraph, int]:
    """``(graph, identifier arity)`` of one view, encoded: interned from
    the scans and the evaluated sources when the whole-set tests vouch for
    it, else the formal way — ``evaluate`` gives the six source relations
    and ``pgView`` builds the graph or raises its
    :class:`~repro.errors.ViewError`.  The one view constructor of the
    planned and sqlite engines.  ``span`` is the open ``view.materialize``
    span: it says which builder served the view (``built_from``:
    ``"scans"`` when every source lowered to scan terms, ``"evaluated"``
    when some were evaluated, ``"relations"`` for ``pgView``) and, once
    the view is encoded, its sizes and the encoding's cost.
    """
    evaluated: List[Query] = []

    def evaluate_source(source: Query) -> Relation:
        evaluated.append(source)
        return evaluate(source)

    built = graph_from_scans(sources, database, max_arity, evaluate_source)
    if built is None:
        span.tag(built_from="relations")
        built = materialize_graph(tuple(map(evaluate, sources)), max_arity)
    else:
        span.tag(built_from="evaluated" if evaluated else "scans")
    encoded = built[0].compact()
    span.tag(
        nodes=encoded.node_count,
        edges=encoded.edge_count,
        compact_encode_s=round(encoded.encode_seconds, 6),
    )
    return built
