"""Data-sampled property types and graph-definition (DDL) diagnostics.

The schema half of the semantic analyzer: the flat value-type lattice,
the data-sampled type of a property, and the diagnostics of a ``CREATE
PROPERTY GRAPH`` statement against a schema.  What a compiled definition
exposes — labels and property keys by element kind, and the ``(table,
column)`` pairs behind each key — is its
:class:`~repro.sqlpgq.catalog.GraphSchemaSummary`, built once with the
definition.  The query half (:mod:`repro.analysis.semantic`) resolves
statements against both.

A property's type is a function of the data as well as the definition;
connections ask their snapshot, which samples each ``(table, column)``
set once (:meth:`repro.engine.database.Snapshot.property_type`).
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, List, Optional, Protocol, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.schema import Schema
from repro.sqlpgq.ast import CreatePropertyGraph

#: Inferred value types.  The lattice is flat: ``number`` and ``string``
#: conflict, ``any`` is compatible with both.
NUMBER = "number"
STRING = "string"
ANY = "any"

#: Rows sampled per property column when inferring types from data.
_TYPE_SAMPLE_LIMIT = 20

#: ``(table, column)`` pairs a property key's values come from.
PropertySources = Tuple[Tuple[str, str], ...]


class PropertyTypes(Protocol):
    """A per-snapshot store of sampled property types."""

    def property_type(self, sources: PropertySources) -> str: ...


# --------------------------------------------------------------------------- #
# Type inference
# --------------------------------------------------------------------------- #
def classify_value(value: object) -> str:
    if isinstance(value, bool):
        return ANY
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, str):
        return STRING
    return ANY


def sample_property_type(database: Database, sources: PropertySources) -> str:
    """Type of the property whose values ``sources`` hold in ``database``,
    sampled from the first rows of each column: the one type seen, else
    ``any``."""
    seen: set = set()
    for table, column in sources:
        try:
            relation = database.relation(table)
            index = database.schema.relation(table).column_index(column) - 1
        except (KeyError, SchemaError):
            continue
        for row in islice(relation.rows, _TYPE_SAMPLE_LIMIT):
            seen.add(classify_value(row[index]))
    seen.discard(ANY)
    if len(seen) == 1:
        return seen.pop()
    return ANY


# --------------------------------------------------------------------------- #
# Diagnostic helpers
# --------------------------------------------------------------------------- #
def known_hint(kind: str, known: FrozenSet[str], limit: int = 6) -> Optional[str]:
    if not known:
        return None
    names = sorted(known)
    shown = ", ".join(names[:limit])
    if len(names) > limit:
        shown += ", ..."
    return f"known {kind}: {shown}"


def source_position(node) -> Tuple[Optional[int], Optional[int]]:
    position = getattr(node, "position", None)
    if position is None:
        return (None, None)
    return position


# --------------------------------------------------------------------------- #
# DDL analysis
# --------------------------------------------------------------------------- #
def analyze_ddl(statement: CreatePropertyGraph, schema: Schema) -> Tuple[Diagnostic, ...]:
    """Diagnostics for a CREATE PROPERTY GRAPH statement against a schema.

    The catalog's own lowering rejects the same problems one at a time with
    :class:`SchemaError`; this pass reports all of them with positions.
    """
    diagnostics: List[Diagnostic] = []
    tables = frozenset(schema.names())

    def check_table(spec) -> bool:
        if spec.table in tables:
            return True
        line, column = source_position(spec)
        diagnostics.append(
            Diagnostic(
                "A001",
                f"schema has no table named {spec.table!r}",
                line,
                column,
                known_hint("tables", tables),
            )
        )
        return False

    def check_columns(spec, columns: Tuple[str, ...]) -> None:
        relation = schema.relation(spec.table)
        line, column_no = source_position(spec)
        for column in columns:
            if relation.columns and column not in relation.columns:
                diagnostics.append(
                    Diagnostic(
                        "A003",
                        f"table {spec.table!r} has no column {column!r}",
                        line,
                        column_no,
                        known_hint("columns", frozenset(relation.columns)),
                    )
                )

    arities: Dict[int, str] = {}
    for spec in statement.node_tables + statement.edge_tables:
        arities.setdefault(len(spec.key_columns), spec.table)
        if check_table(spec):
            check_columns(spec, spec.key_columns + spec.properties)

    if len(arities) > 1:
        line, column = source_position(statement)
        diagnostics.append(
            Diagnostic(
                "A005",
                f"property graph {statement.name!r} mixes key arities "
                f"{sorted(arities)}; one identifier arity is required",
                line,
                column,
                "give every table key the same number of columns",
            )
        )
        identifier_arity: Optional[int] = None
    else:
        identifier_arity = next(iter(arities), None)

    for spec in statement.edge_tables:
        if spec.table in tables:
            check_columns(spec, spec.source_columns + spec.target_columns)
        if identifier_arity is not None:
            for label, columns in (("source", spec.source_columns), ("target", spec.target_columns)):
                if len(columns) != identifier_arity:
                    line, column = source_position(spec)
                    diagnostics.append(
                        Diagnostic(
                            "A005",
                            f"edge table {spec.table!r} references its {label} with "
                            f"{len(columns)} column(s) but the graph's identifier "
                            f"arity is {identifier_arity}",
                            line,
                            column,
                            "endpoint references must match the node key arity",
                        )
                    )
    return tuple(diagnostics)


__all__ = [
    "ANY",
    "NUMBER",
    "STRING",
    "PropertySources",
    "PropertyTypes",
    "analyze_ddl",
    "classify_value",
    "known_hint",
    "sample_property_type",
    "source_position",
]
