"""Database schemas (Section 2.1).

A schema is a finite set of relation names, each with a fixed positive
arity.  Schemas are used to validate database instances and to drive the
PGQ and FO[TC] translations, both of which are parameterized by a schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.errors import SchemaError


@dataclass(frozen=True)
class RelationSchema:
    """A single relation name with its arity and optional column names.

    Column names are not part of the paper's unnamed perspective; they are
    carried only for the SQL/PGQ surface syntax (vertex/edge tables address
    columns by name) and for friendlier error messages.
    """

    name: str
    arity: int
    columns: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise SchemaError(f"relation {self.name!r} must have arity >= 1")
        if self.columns and len(self.columns) != self.arity:
            raise SchemaError(
                f"relation {self.name!r} declares {len(self.columns)} column names "
                f"but arity {self.arity}"
            )

    def column_index(self, column: str) -> int:
        """1-based position of a named column."""
        if column not in self.columns:
            raise SchemaError(f"relation {self.name!r} has no column {column!r}")
        return self.columns.index(column) + 1


class Schema:
    """A finite collection of :class:`RelationSchema` objects."""

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        self._relations: Dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    @classmethod
    def from_columns(cls, columns: Mapping[str, Iterable[str]]) -> "Schema":
        """Build a schema from a ``{name: [column, ...]}`` mapping."""
        return cls(
            RelationSchema(name, len(tuple(cols)), tuple(cols))
            for name, cols in columns.items()
        )

    def add(self, relation: RelationSchema) -> None:
        if relation.name in self._relations:
            existing = self._relations[relation.name]
            if existing != relation:
                raise SchemaError(
                    f"conflicting declarations for relation {relation.name!r}: "
                    f"{existing} vs {relation}"
                )
            return
        self._relations[relation.name] = relation

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(sorted(self._relations.values(), key=lambda r: r.name))

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:
        names = ", ".join(f"{r.name}/{r.arity}" for r in self)
        return f"Schema({names})"

    def relation(self, name: str) -> RelationSchema:
        if name not in self._relations:
            raise SchemaError(f"schema has no relation named {name!r}")
        return self._relations[name]

    def arity(self, name: str) -> int:
        return self.relation(name).arity

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._relations))
