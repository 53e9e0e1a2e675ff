"""Relational substrate: relations, schemas, databases and the positional
selection conditions.  The relational algebra itself is the ``PGQro`` core
of :mod:`repro.pgq.queries`, which every engine evaluates."""

from repro.relational.conditions import (
    And,
    ColumnCompare,
    ColumnCompareConstant,
    ColumnEquals,
    ColumnEqualsConstant,
    Condition,
    Not,
    Or,
    TrueCondition,
    conjoin,
)
from repro.relational.database import Database
from repro.relational.relation import Relation, Row, as_row
from repro.relational.schema import RelationSchema, Schema

__all__ = [
    "And",
    "ColumnCompare",
    "ColumnCompareConstant",
    "ColumnEquals",
    "ColumnEqualsConstant",
    "Condition",
    "Database",
    "Not",
    "Or",
    "Relation",
    "RelationSchema",
    "Row",
    "Schema",
    "TrueCondition",
    "as_row",
    "conjoin",
]
