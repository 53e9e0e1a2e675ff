"""Relations in the unnamed perspective (Section 2.1 of the paper).

A relation is a finite set of tuples over the domain ``C`` with a fixed
arity.  Following the paper we work with the *unnamed* perspective: columns
are addressed positionally (``$1 .. $k``) rather than by attribute names.
"""

from __future__ import annotations

import hashlib
import operator
from itertools import chain
from typing import Any, Callable, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.errors import ArityError, SchemaError
from repro.parameters import is_atomic

#: A database tuple: a flat tuple of atomic domain values.
Row = Tuple[Any, ...]


def as_row(values: Any) -> Row:
    """Normalize ``values`` into a flat tuple row.

    Scalars become 1-tuples.  Components that are not
    :func:`~repro.parameters.is_atomic` (containers, unhashable values) are
    rejected because domain elements are atomic.
    """
    if isinstance(values, tuple):
        row = values
    elif isinstance(values, list):
        row = tuple(values)
    else:
        row = (values,)
    for component in row:
        if not is_atomic(type(component)):
            raise ArityError(f"relation entries must be atomic values, got {component!r}")
    return row


def _all_plain(rows: list, arity: int) -> bool:
    """Set-at-a-time validation: every row is a plain tuple of ``arity``
    components and every distinct component *type* is atomic."""
    return (
        set(map(type, rows)) <= {tuple}
        and set(map(len, rows)) <= {arity}
        and all(map(is_atomic, set(map(type, chain.from_iterable(rows)))))
    )


class Relation:
    """An immutable, finite relation of fixed arity.

    ``Relation`` values are hashable and comparable by (arity, tuple set),
    which matches the set semantics of the paper's relational layer.

    Arity 0 is permitted for Boolean query results: the 0-ary relation is
    either empty (false) or the singleton containing the empty tuple (true).
    """

    __slots__ = ("_arity", "_rows", "_name", "_digest")

    def __init__(self, arity: int, rows: Iterable[Any] = (), *, name: Optional[str] = None):
        if arity < 0:
            raise ArityError(f"relation arity must be >= 0, got {arity}")
        if type(rows) is not list:
            rows = list(rows)
        if not _all_plain(rows, arity):
            # The per-row loop normalizes what can be a row and says what cannot.
            normalized = []
            for row in rows:
                row = as_row(row)
                if len(row) != arity:
                    raise ArityError(
                        f"row {row!r} has arity {len(row)}, expected {arity}"
                        + (f" in relation {name!r}" if name else "")
                    )
                normalized.append(row)
            rows = normalized
        self._arity = arity
        self._rows: FrozenSet[Row] = frozenset(rows)
        self._name = name
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, rows: Iterable[Any], *, name: Optional[str] = None) -> "Relation":
        """Build a relation inferring the arity from the first row.

        Raises :class:`SchemaError` for an empty iterable because the arity
        cannot be inferred; use the explicit constructor in that case.
        """
        materialized = [as_row(r) for r in rows]
        if not materialized:
            raise SchemaError("cannot infer arity from an empty row set")
        return cls(len(materialized[0]), materialized, name=name)

    @classmethod
    def empty(cls, arity: int, *, name: Optional[str] = None) -> "Relation":
        """The empty relation of the given arity."""
        return cls(arity, (), name=name)

    @classmethod
    def _trusted(cls, arity: int, rows: Iterable[Row], *, name: Optional[str] = None) -> "Relation":
        """Internal fast constructor for rows known to be valid.

        The relational operators below only ever recombine components of
        already-validated rows, so re-running the per-row ``as_row``
        normalization would be pure overhead on large intermediate results.
        """
        relation = cls.__new__(cls)
        relation._arity = arity
        relation._rows = frozenset(rows)
        relation._name = name
        relation._digest = None
        return relation

    def content_digest(self) -> str:
        """Stable hex digest of this relation's rows (arity included).

        Cached on the instance: relations are immutable and reused across
        database versions, so a catalog fingerprint over many versions
        rehashes only the relations that actually changed.
        """
        if self._digest is None:
            # One repr per row: the arity line, then every row's repr in
            # ascending order, each followed by a newline.
            lines = [str(self._arity), *sorted(map(repr, self._rows)), ""]
            self._digest = hashlib.sha256(
                "\n".join(lines).encode("utf-8", "replace")
            ).hexdigest()
        return self._digest

    @classmethod
    def unary(cls, values: Iterable[Any], *, name: Optional[str] = None) -> "Relation":
        """A unary relation from an iterable of scalar values."""
        return cls(1, ((v,) for v in values), name=name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def arity(self) -> int:
        return self._arity

    @property
    def name(self) -> Optional[str]:
        return self._name

    @property
    def rows(self) -> FrozenSet[Row]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(sorted(self._rows, key=repr))

    def __contains__(self, row: Any) -> bool:
        return as_row(row) in self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._arity == other._arity and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._arity, self._rows))

    def __repr__(self) -> str:
        label = f" {self._name}" if self._name else ""
        return f"Relation{label}(arity={self._arity}, rows={len(self._rows)})"

    # ------------------------------------------------------------------ #
    # Set / relational operations
    # ------------------------------------------------------------------ #
    def _require_same_arity(self, other: "Relation", operation: str) -> None:
        if self._arity != other._arity:
            raise ArityError(
                f"{operation} requires equal arities, got {self._arity} and {other._arity}"
            )

    def union(self, other: "Relation") -> "Relation":
        self._require_same_arity(other, "union")
        return Relation._trusted(self._arity, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        self._require_same_arity(other, "difference")
        return Relation._trusted(self._arity, self._rows - other._rows)

    def intersection(self, other: "Relation") -> "Relation":
        self._require_same_arity(other, "intersection")
        return Relation._trusted(self._arity, self._rows & other._rows)

    def product(self, other: "Relation") -> "Relation":
        """Cartesian product; the result arity is the sum of the arities."""
        rows = (left + right for left in self._rows for right in other._rows)
        return Relation._trusted(self._arity + other._arity, rows)

    def project(self, positions: Iterable[int]) -> "Relation":
        """Positional projection ``pi_{$i1,...,$ik}`` (1-based positions)."""
        positions = tuple(positions)
        if not positions:
            raise ArityError("projection requires at least one position")
        for position in positions:
            if not 1 <= position <= self._arity:
                raise ArityError(
                    f"projection position ${position} out of range for arity {self._arity}"
                )
        if len(positions) == 1:
            only = positions[0] - 1
            rows = ((row[only],) for row in self._rows)
        else:
            rows = map(operator.itemgetter(*(p - 1 for p in positions)), self._rows)
        return Relation._trusted(len(positions), rows)

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Selection by an arbitrary per-row predicate."""
        # ``filter`` keeps the row loop in C; only the predicate runs
        # Python per row (compiled conditions are single closures).
        return Relation._trusted(self._arity, filter(predicate, self._rows))

    def values(self) -> FrozenSet[Any]:
        """All atomic values appearing anywhere in the relation."""
        return frozenset(value for row in self._rows for value in row)
