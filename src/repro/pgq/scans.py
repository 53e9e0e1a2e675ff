"""Graph creation in one pass: view sources as *scan terms* over base tables.

A ``CREATE PROPERTY GRAPH`` definition (and every ``PGQro`` pattern over
base relations) spells its six view sources in a small corner of the
algebra: unions of projections of a base table, optionally widened by a
constant column.  Such a source is a union of **scan terms**
``(table, picks)`` — each pick a column index of the table or a
:class:`Literal` — and the property graph of Definition 3.1 / 5.1 can be
assembled from the terms directly, one pass over each base table, without
materializing ``(R1, ..., R6)`` first.

This builder **only ever accepts**.  The definition's conditions (1)-(4)
are enforced through *sufficient* whole-set tests; a source outside the
grammar, or tables that miss any test (a duplicated key, a dangling
endpoint, a node/edge overlap, inconsistent arities), make
:func:`graph_from_scans` return ``None``, and the caller then takes the
formal path — the six relations and :func:`repro.pgq.views.materialize_graph`
— which accepts or raises :class:`~repro.errors.ViewError` in its own
words.  ``pgq/views.py`` stays the single authority on what a view is;
the naive and sqlite engines never come here.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union as Either

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
from repro.relational.database import Database
from repro.relational.schema import Schema


class Literal(NamedTuple):
    """A constant pick: the same value on every row a term emits."""

    value: Any


#: One column of a term's output: a 0-based column of the table, or a constant.
Pick = Either[int, Literal]
#: ``(table name, picks)``: one output row per row of the table.
ScanTerm = Tuple[str, Tuple[Pick, ...]]


def lower_source(query: Query, schema: Schema) -> Optional[Tuple[int, List[ScanTerm]]]:
    """``(arity, scan terms)`` of one view source, or ``None`` outside the grammar.

    Grammar: ``BaseRelation``, ``EmptyRelation``, ``Union``, ``Project``
    and ``Product(q, Constant(c, require_active=False))`` with ``c`` a
    plain hashable value.  Whatever the formal evaluator would reject
    (an unknown table, a projection position out of range, a union of
    unequal arities) lowers to ``None`` as well, so the formal path gets
    to say so.
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
        if isinstance(value, (Parameter, tuple, list, set, dict)):
            return None
        try:
            hash(value)
        except TypeError:
            return None
        operand = lower_source(query.left, schema)
        if operand is None:
            return None
        arity, terms = operand
        return arity + 1, [(table, picks + (Literal(value),)) for table, picks in terms]
    return None


class _Tables:
    """Picked columns of the base tables, each transposed and zipped once."""

    def __init__(self, database: Database):
        self._database = database
        self._columns: Dict[str, Tuple[int, Tuple[Tuple, ...]]] = {}
        self._picked: Dict[ScanTerm, List] = {}

    def values(self, table: str, pick: Pick) -> Sequence:
        """One picked column, a value per row of ``table``."""
        found = self._columns.get(table)
        if found is None:
            rows = self._database.relation(table).rows
            found = self._columns[table] = (len(rows), tuple(zip(*rows)))
        count, columns = found
        if type(pick) is Literal:
            return [pick.value] * count
        return columns[pick] if count else ()

    def strings(self, table: str, pick: Pick) -> Sequence[str]:
        """One picked column as label / property-key names (``str`` of each value)."""
        values = self.values(table, pick)
        if type(pick) is Literal:
            return [str(pick.value)] * len(values)
        return list(map(str, values))

    def tuples(self, table: str, picks: Tuple[Pick, ...]) -> List[Tuple]:
        """The picked columns as one tuple per row of ``table`` (row order
        is the table's, so two calls over one table line up)."""
        key = (table, picks)
        found = self._picked.get(key)
        if found is None:
            found = self._picked[key] = list(
                zip(*[self.values(table, pick) for pick in picks])
            )
        return found


def graph_from_scans(
    sources: Sequence[Query], database: Database, max_arity: Optional[int]
) -> Optional[Tuple[PropertyGraph, int]]:
    """``(graph, identifier arity)`` built straight from the base tables the
    six ``sources`` scan, or ``None`` when this builder cannot vouch for
    the view (see the module docstring): never an error of its own.
    """
    if len(sources) != 6:
        return None
    lowered = [lower_source(source, database.schema) for source in sources]
    if None in lowered:
        return None
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
    tables = _Tables(database)

    nodes: Set[Identifier] = set().union(*[tables.tuples(*term) for term in node_terms])
    edges: Set[Identifier] = set().union(*[tables.tuples(*term) for term in edge_terms])
    # Condition (1).
    if not nodes.isdisjoint(edges):
        return None

    # Condition (2): each map is a total function E -> N, one row per edge.
    endpoint_maps: List[Dict[Identifier, Identifier]] = []
    for terms in (source_terms, target_terms):
        mapping: Dict[Identifier, Identifier] = {}
        emitted = 0
        for table, picks in terms:
            keys = tables.tuples(table, picks[:arity])
            mapping.update(zip(keys, tables.tuples(table, picks[arity:])))
            emitted += len(keys)
        if (
            len(mapping) != emitted
            or mapping.keys() != edges
            or not nodes.issuperset(mapping.values())
        ):
            return None
        endpoint_maps.append(mapping)
    source_of, target_of = endpoint_maps

    # Conditions (3) and (4): labels and properties sit on graph elements.
    elements = nodes | edges
    element_keys = {(table, picks[:arity]) for table, picks in label_terms + property_terms}
    if not all(elements.issuperset(tables.tuples(*key)) for key in element_keys):
        return None

    labels: Dict[Identifier, Set[str]] = {}
    for table, picks in label_terms:
        keys = tables.tuples(table, picks[:arity])
        label = picks[arity]
        if type(label) is Literal and labels.keys().isdisjoint(keys):
            labels.update({key: {str(label.value)} for key in keys})
        else:
            for key, name in zip(keys, tables.strings(table, label)):
                labels.setdefault(key, set()).add(name)

    # Condition (4): a partial function (element, key) -> value, one row each.
    assignments: Dict[Tuple[Identifier, str], Any] = {}
    emitted = 0
    for table, picks in property_terms:
        keys = tables.tuples(table, picks[:arity])
        names = tables.strings(table, picks[arity])
        assignments.update(zip(zip(keys, names), tables.values(table, picks[arity + 1])))
        emitted += len(keys)
    if len(assignments) != emitted:
        return None

    endpoints = dict(
        zip(source_of, zip(source_of.values(), map(target_of.__getitem__, source_of)))
    )
    return PropertyGraph._from_validated(nodes, endpoints, labels, assignments), arity
