"""Fragment classification of PGQ queries.

The paper distinguishes:

* ``PGQro`` — Figure 3's first block: relational algebra over base
  relations, with pattern matching applied only to tuples of base relation
  names;
* ``PGQrw`` — adds individual constants and pattern matching over arbitrary
  subqueries, with *unary* identifiers (``pgView``);
* ``PGQ_n`` — pattern matching via ``pgView_n`` (identifier arity at most
  ``n``), with ``PGQrw = PGQ_1`` (Theorem 6.8);
* ``PGQext`` — no arity bound (``pgView_ext``).

Static classification cannot always know the identifier arity used by a
``GraphPattern`` because the arity is a property of the *data* produced by
its view subqueries.  We therefore classify in two modes: a purely
syntactic mode (using the declared ``max_arity`` bounds and schema arities
where available) and a dynamic mode that evaluates the view subqueries on a
concrete database.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.pgq.queries import (
    ActiveDomainQuery,
    BaseRelation,
    Constant,
    ConstantRelation,
    GraphPattern,
    Query,
    iter_queries,
)
from repro.pgq.views import infer_identifier_arity
from repro.relational.database import Database
from repro.relational.schema import Schema


class Fragment(enum.Enum):
    """The fragments of the expressiveness chain (Theorem 6.8)."""

    RO = "PGQro"
    RW = "PGQrw"
    EXT = "PGQext"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FragmentInfo:
    """Result of classifying a query.

    ``fragment`` is the smallest fragment the query syntactically belongs
    to; ``identifier_arity`` is the largest identifier arity that can be
    established (``None`` when it cannot be bounded statically), so the
    query belongs to ``PGQ_n`` for every ``n >= identifier_arity``.
    """

    fragment: Fragment
    identifier_arity: Optional[int]
    uses_pattern_matching: bool
    uses_constants: bool


def _pattern_sources_are_base_relations(pattern: GraphPattern) -> bool:
    return all(isinstance(source, BaseRelation) for source in pattern.sources)


def _static_view_arity(pattern: GraphPattern, schema: Optional[Schema]) -> Optional[int]:
    """Best-effort static bound on the identifier arity used by a pattern."""
    if pattern.max_arity is not None:
        return pattern.max_arity
    if schema is not None and _pattern_sources_are_base_relations(pattern):
        node_source = pattern.sources[0]
        assert isinstance(node_source, BaseRelation)
        if node_source.name in schema:
            return schema.arity(node_source.name)
    return None


def classify(query: Query, *, schema: Optional[Schema] = None) -> FragmentInfo:
    """Classify a query syntactically (optionally informed by a schema)."""
    fragment = Fragment.RO
    max_identifier_arity: Optional[int] = 1
    uses_patterns = False
    uses_constants = False

    for node in iter_queries(query):
        if isinstance(node, (Constant, ConstantRelation, ActiveDomainQuery)):
            uses_constants = True
            if fragment is Fragment.RO:
                fragment = Fragment.RW
        elif isinstance(node, GraphPattern):
            uses_patterns = True
            if not _pattern_sources_are_base_relations(node) and fragment is Fragment.RO:
                fragment = Fragment.RW
            arity = _static_view_arity(node, schema)
            if arity is None:
                max_identifier_arity = None
            elif max_identifier_arity is not None:
                max_identifier_arity = max(max_identifier_arity, arity)
            if arity is None or arity > 1:
                fragment = Fragment.EXT

    return FragmentInfo(fragment, max_identifier_arity, uses_patterns, uses_constants)


def classify_on_database(query: Query, database: Database) -> FragmentInfo:
    """Classify a query using the concrete identifier arities on a database.

    The view subqueries of every ``GraphPattern`` are evaluated to determine
    the actual identifier arity used, which resolves the cases the static
    classification must leave open.
    """
    from repro.pgq.evaluator import PGQEvaluator

    evaluator = PGQEvaluator(database)
    fragment = Fragment.RO
    max_identifier_arity = 1
    uses_patterns = False
    uses_constants = False

    for node in iter_queries(query):
        if isinstance(node, (Constant, ConstantRelation, ActiveDomainQuery)):
            uses_constants = True
            if fragment is Fragment.RO:
                fragment = Fragment.RW
        elif isinstance(node, GraphPattern):
            uses_patterns = True
            if not _pattern_sources_are_base_relations(node) and fragment is Fragment.RO:
                fragment = Fragment.RW
            relations = tuple(evaluator.evaluate(source) for source in node.sources)
            arity = infer_identifier_arity(relations)
            max_identifier_arity = max(max_identifier_arity, arity)
            if arity > 1:
                fragment = Fragment.EXT

    return FragmentInfo(fragment, max_identifier_arity, uses_patterns, uses_constants)


def is_in_fragment(query: Query, fragment: Fragment, *, schema: Optional[Schema] = None) -> bool:
    """Whether ``query`` syntactically belongs to ``fragment``.

    Membership is monotone along ``RO ⊆ RW ⊆ EXT`` (the containments of
    Section 4/5), so a read-only query is also in the larger fragments.
    """
    order = {Fragment.RO: 0, Fragment.RW: 1, Fragment.EXT: 2}
    info = classify(query, schema=schema)
    return order[info.fragment] <= order[fragment]


def required_pgq_n(query: Query, *, schema: Optional[Schema] = None) -> Optional[int]:
    """Smallest ``n`` such that the query is in ``PGQ_n`` (None when unknown)."""
    info = classify(query, schema=schema)
    return info.identifier_arity
