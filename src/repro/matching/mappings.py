"""Operations on variable mappings (Section 2.3 of the paper).

A variable mapping ``mu`` assigns matched graph elements (node or edge
identifiers) to pattern variables.  The semantics composes matches with
three operations: restriction ``mu|_X``, the compatibility test
``mu1 ~ mu2`` (agreement on common variables), and the union
``mu1 |><| mu2`` of compatible mappings.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.graph.identifiers import Identifier

#: A variable mapping: variable name -> graph element identifier.
Mapping = Dict[str, Identifier]

#: The mapping with empty domain (``mu_emptyset`` in the paper).
EMPTY_MAPPING: Mapping = {}


def restrict(mapping: Mapping, variables: Iterable[str]) -> Mapping:
    """``mu |_X``: restriction of the mapping to the given variables."""
    keep = set(variables)
    return {var: value for var, value in mapping.items() if var in keep}


def compatible(left: Mapping, right: Mapping) -> bool:
    """``mu1 ~ mu2``: the mappings agree on all shared variables."""
    if len(left) > len(right):
        left, right = right, left
    return all(var not in right or right[var] == value for var, value in left.items())


def union(left: Mapping, right: Mapping) -> Mapping:
    """``mu1 |><| mu2``: union of two compatible mappings.

    The caller is responsible for checking :func:`compatible` first; on
    conflicting mappings the right-hand binding silently wins, matching the
    partial-function union only when compatibility holds.
    """
    if not left:
        return dict(right)
    if not right:
        return dict(left)
    merged = dict(left)
    merged.update(right)
    return merged


def join(left: Mapping, right: Mapping) -> Optional[Mapping]:
    """Union of the mappings when compatible, ``None`` otherwise."""
    if not compatible(left, right):
        return None
    return union(left, right)


def freeze(mapping: Mapping) -> Tuple[Tuple[str, Identifier], ...]:
    """Hashable canonical form of a mapping (sorted item tuple)."""
    return tuple(sorted(mapping.items()))


def thaw(frozen: Tuple[Tuple[str, Identifier], ...]) -> Mapping:
    """Inverse of :func:`freeze`."""
    return dict(frozen)
