"""Property-graph catalog: from DDL to the canonical six view subqueries.

A ``CREATE PROPERTY GRAPH`` statement names relational tables and columns;
this module lowers such a definition onto the paper's formal view layer by
producing, for a given relational schema, the six subqueries
``(Q1, ..., Q6)`` whose results feed ``pgView`` / ``pgView_ext``
(Definitions 3.2 and 5.2).  The lowering is purely syntactic: node and edge
identifiers are the key-column tuples, labels become constant-labelled
projections, and every declared property column contributes
``(key, 'column', value)`` rows to the property relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryError, SchemaError
from repro.pgq.queries import (
    BaseRelation,
    Constant,
    EmptyRelation,
    Product,
    Project,
    Query,
    Union,
    ViewSources,
)
from repro.relational.schema import Schema
from repro.sqlpgq.ast import CreatePropertyGraph


def _constant(value: str) -> Query:
    return Constant(value, require_active=False)


def _union_all(queries: Sequence[Query], *, empty_arity: int) -> Query:
    if not queries:
        return EmptyRelation(empty_arity)
    result = queries[0]
    for query in queries[1:]:
        result = Union(result, query)
    return result


@dataclass(frozen=True)
class GraphSchemaSummary:
    """Labels and property keys a graph definition exposes, by element
    kind ("node" / "edge"), and the ``(table, column)`` pairs behind each
    property key, for type inference."""

    labels: Mapping[str, FrozenSet[str]]
    properties: Mapping[str, FrozenSet[str]]
    property_sources: Mapping[str, Tuple[Tuple[str, str], ...]]

    def labels_of(self, kind: Optional[str]) -> FrozenSet[str]:
        """The labels of ``kind`` elements; of every element for no kind."""
        labels = self.labels
        return labels[kind] if kind in labels else labels["node"] | labels["edge"]

    def properties_of(self, kind: Optional[str]) -> FrozenSet[str]:
        """The property keys of ``kind`` elements; of every element for no kind."""
        keys = self.properties
        return keys[kind] if kind in keys else keys["node"] | keys["edge"]


@dataclass(frozen=True)
class GraphDefinition:
    """A compiled property-graph view definition bound to a schema."""

    name: str
    statement: CreatePropertyGraph
    identifier_arity: int
    #: The six subqueries, their hash and parameter names computed here,
    #: once per definition.
    sources: ViewSources
    #: What the definition exposes, for the semantic analyzer.
    summary: GraphSchemaSummary = field(compare=False)

    def view_subqueries(self) -> Tuple[Query, Query, Query, Query, Query, Query]:
        return self.sources


class GraphCatalog:
    """Registry of property-graph view definitions over one relational schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._graphs: Dict[str, GraphDefinition] = {}

    # ------------------------------------------------------------------ #
    def register(self, statement: CreatePropertyGraph) -> GraphDefinition:
        """Compile and store a CREATE PROPERTY GRAPH statement."""
        definition = compile_graph_definition(statement, self.schema)
        self._graphs[statement.name] = definition
        return definition

    def get(self, name: str) -> GraphDefinition:
        if name not in self._graphs:
            raise QueryError(f"no property graph named {name!r} has been created")
        return self._graphs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._graphs

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._graphs))


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #
def _column_positions(schema: Schema, table: str, columns: Sequence[str]) -> Tuple[int, ...]:
    relation = schema.relation(table)
    if not relation.columns:
        raise SchemaError(
            f"table {table!r} has no declared column names; property graph DDL needs them"
        )
    return tuple(relation.column_index(column) for column in columns)


def _key_query(schema: Schema, table: str, columns: Sequence[str]) -> Query:
    return Project(BaseRelation(table), _column_positions(schema, table, columns))


def _label_queries(
    schema: Schema, table: str, key_columns: Sequence[str], labels: Sequence[str]
) -> List[Query]:
    key_positions = _column_positions(schema, table, key_columns)
    queries: List[Query] = []
    for label in labels:
        labelled = Product(BaseRelation(table), _constant(label))
        arity = schema.arity(table)
        queries.append(Project(labelled, key_positions + (arity + 1,)))
    return queries


def _property_queries(
    schema: Schema, table: str, key_columns: Sequence[str], properties: Sequence[str]
) -> List[Query]:
    key_positions = _column_positions(schema, table, key_columns)
    arity = schema.arity(table)
    queries: List[Query] = []
    for column in properties:
        value_position = schema.relation(table).column_index(column)
        keyed = Product(BaseRelation(table), _constant(column))
        queries.append(Project(keyed, key_positions + (arity + 1, value_position)))
    return queries


def compile_graph_definition(statement: CreatePropertyGraph, schema: Schema) -> GraphDefinition:
    """Lower a CREATE PROPERTY GRAPH statement to the six view subqueries."""
    key_arities = {len(spec.key_columns) for spec in statement.node_tables}
    key_arities |= {len(spec.key_columns) for spec in statement.edge_tables}
    if len(key_arities) != 1:
        raise SchemaError(
            f"property graph {statement.name!r} mixes key arities {sorted(key_arities)}; "
            "the canonical six-relation encoding requires one identifier arity "
            "(Remark 5.1 of the paper)"
        )
    arity = key_arities.pop()

    def exposed_properties(table: str, declared: Sequence[str]) -> Sequence[str]:
        # The SQL/PGQ default is "PROPERTIES ARE ALL COLUMNS": when no
        # PROPERTIES clause is given, every column of the table (including
        # the key, as in Example 1.1's x.iban) is exposed as a property.
        if declared:
            return declared
        return schema.relation(table).columns

    labels: Dict[str, set] = {"node": set(), "edge": set()}
    properties: Dict[str, set] = {"node": set(), "edge": set()}
    property_sources: Dict[str, List[Tuple[str, str]]] = {}

    def summarize(spec, kind: str) -> Sequence[str]:
        labels[kind].update(spec.labels)
        exposed = exposed_properties(spec.table, spec.properties)
        properties[kind].update(exposed)
        for column in exposed:
            property_sources.setdefault(column, []).append((spec.table, column))
        return exposed

    node_queries: List[Query] = []
    label_queries: List[Query] = []
    property_queries: List[Query] = []
    for spec in statement.node_tables:
        node_queries.append(_key_query(schema, spec.table, spec.key_columns))
        label_queries.extend(_label_queries(schema, spec.table, spec.key_columns, spec.labels))
        property_queries.extend(
            _property_queries(schema, spec.table, spec.key_columns, summarize(spec, "node"))
        )

    edge_queries: List[Query] = []
    source_queries: List[Query] = []
    target_queries: List[Query] = []
    for spec in statement.edge_tables:
        edge_queries.append(_key_query(schema, spec.table, spec.key_columns))
        key_positions = _column_positions(schema, spec.table, spec.key_columns)
        source_positions = _column_positions(schema, spec.table, spec.source_columns)
        target_positions = _column_positions(schema, spec.table, spec.target_columns)
        if len(source_positions) != arity or len(target_positions) != arity:
            raise SchemaError(
                f"edge table {spec.table!r} references endpoints with a key arity different "
                f"from the graph's identifier arity {arity}"
            )
        source_queries.append(
            Project(BaseRelation(spec.table), key_positions + source_positions)
        )
        target_queries.append(
            Project(BaseRelation(spec.table), key_positions + target_positions)
        )
        label_queries.extend(_label_queries(schema, spec.table, spec.key_columns, spec.labels))
        property_queries.extend(
            _property_queries(schema, spec.table, spec.key_columns, summarize(spec, "edge"))
        )

    sources = ViewSources((
        _union_all(node_queries, empty_arity=arity),
        _union_all(edge_queries, empty_arity=arity),
        _union_all(source_queries, empty_arity=2 * arity),
        _union_all(target_queries, empty_arity=2 * arity),
        _union_all(label_queries, empty_arity=arity + 1),
        _union_all(property_queries, empty_arity=arity + 2),
    ))
    summary = GraphSchemaSummary(
        {kind: frozenset(names) for kind, names in labels.items()},
        {kind: frozenset(keys) for kind, keys in properties.items()},
        {key: tuple(pairs) for key, pairs in property_sources.items()},
    )
    return GraphDefinition(statement.name, statement, arity, sources, summary)
