"""Identifiers for property-graph elements.

The paper's read-only and read-write fragments use unary (single-value)
identifiers for nodes and edges, while the extended fragment ``PGQext``
(Section 5) generalizes identifiers to ``n``-ary tuples for any fixed
``n >= 1``.  Internally every identifier is represented uniformly as a
tuple, so arity-1 identifiers are 1-tuples.  The helpers in this module
normalize user-provided values into that canonical representation.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.errors import ArityError

#: Canonical identifier type: a non-empty tuple of hashable atomic values.
Identifier = Tuple[Any, ...]


def as_identifier(value: Any) -> Identifier:
    """Normalize ``value`` into a canonical identifier tuple.

    Scalars become 1-tuples; tuples and lists are converted element-wise.
    Nested tuples are rejected because identifiers are flat in the paper's
    model (components are domain elements of the relational structure).

    >>> as_identifier("a1")
    ('a1',)
    >>> as_identifier(("bank", "branch", 7))
    ('bank', 'branch', 7)
    """
    if isinstance(value, tuple):
        ident = value
    elif isinstance(value, list):
        ident = tuple(value)
    else:
        ident = (value,)
    if not ident:
        raise ArityError("identifiers must have arity >= 1, got the empty tuple")
    for component in ident:
        if isinstance(component, (tuple, list, set, dict)):
            raise ArityError(
                f"identifier components must be atomic domain values, got {component!r}"
            )
    return ident


def identifier_arity(value: Any) -> int:
    """Return the arity of ``value`` once normalized to an identifier."""
    return len(as_identifier(value))


def same_arity(identifiers: Iterable[Identifier]) -> bool:
    """Return True when all identifiers in the iterable share one arity.

    An empty iterable trivially satisfies the condition.
    """
    arities = {len(ident) for ident in identifiers}
    return len(arities) <= 1


def unwrap_if_unary(ident: Identifier) -> Any:
    """Return the single component of a unary identifier, else the tuple.

    This is the inverse of :func:`as_identifier` for presentation purposes:
    query results over unary graphs should expose plain values, matching the
    read-only/read-write fragments of the paper.
    """
    if len(ident) == 1:
        return ident[0]
    return ident

