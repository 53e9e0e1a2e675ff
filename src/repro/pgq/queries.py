"""PGQ query abstract syntax (Figure 3 of the paper).

The three fragments share one AST:

* ``PGQro``: relational algebra over base relations plus pattern matching
  applied to a tuple of *base relation names* ``psi_Omega(R1, ..., R6)``.
* ``PGQrw``: adds individual constants and pattern matching over arbitrary
  subqueries ``psi_Omega(Q1, ..., Q6)`` (unary identifiers).
* ``PGQext``: pattern matching over subqueries whose identifier arity may
  be any ``n >= 1`` (``psi^ext_Omega``).

Fragment membership is *checked*, not encoded in separate classes: the
:mod:`repro.pgq.fragments` module classifies a query, and
:class:`GraphPattern` carries an optional ``max_arity`` bound so a query can
be pinned to ``PGQ_n`` (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple

from repro.errors import QueryError
from repro.parameters import Bindings, Parameter, bind_value, check_bindings, require_atomic
from repro.patterns.ast import OutputPattern, PropertyRef, bind_output, pattern_parameters
from repro.relational.conditions import Condition


class Query:
    """Base class for PGQ queries."""

    def children(self) -> Tuple["Query", ...]:
        """Direct subqueries, used by generic traversals."""
        return ()

    def relation_names(self) -> FrozenSet[str]:
        """Base relation names referenced anywhere in the query."""
        names: set = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, BaseRelation):
                names.add(node.name)
            stack.extend(node.children())
        return frozenset(names)

    # Fluent combinators -------------------------------------------------
    def project(self, *positions: int) -> "Project":
        return Project(self, tuple(positions))

    def select(self, condition: Condition) -> "Select":
        return Select(self, condition)

    def product(self, other: "Query") -> "Product":
        return Product(self, other)

    def union(self, other: "Query") -> "Union":
        return Union(self, other)

    def difference(self, other: "Query") -> "Difference":
        return Difference(self, other)


@dataclass(frozen=True)
class BaseRelation(Query):
    """A stored relation ``R`` referenced by name."""

    name: str


@dataclass(frozen=True)
class Constant(Query):
    """An individual constant ``c`` (PGQrw addition, Figure 3).

    Evaluates to the singleton unary relation ``{(c,)}``; the paper requires
    ``c`` to come from the active domain, which the evaluator checks.  ``c``
    is atomic or a parameter slot.
    """

    value: Any
    require_active: bool = True

    def __post_init__(self) -> None:
        require_atomic(self.value, QueryError, "a constant")


@dataclass(frozen=True)
class ConstantRelation(Query):
    """An inline constant relation of arbitrary arity.

    Constant *tuples* are definable in PGQrw from individual constants and
    Cartesian product; this node is provided as a convenience and is
    expanded that way by the fragment analysis.  Every entry is atomic or
    a parameter slot.
    """

    rows: Tuple[Tuple[Any, ...], ...]
    arity: int

    def __post_init__(self) -> None:
        for row in self.rows:
            for value in row:
                require_atomic(value, QueryError, "a constant relation entry")


@dataclass(frozen=True)
class ActiveDomainQuery(Query):
    """The unary active-domain relation ``adom(D)``.

    Used by the FO[TC] -> PGQ translation (Theorem 6.2), where it is the
    query ``Q_A = union over R, i of pi_i(R)``; we keep it as a primitive
    node for readability and expand it during fragment analysis.
    """


@dataclass(frozen=True)
class EmptyRelation(Query):
    """The empty relation of a declared arity (used for empty R5/R6 views)."""

    arity: int


@dataclass(frozen=True)
class Project(Query):
    """Positional projection ``pi_{$i1,...,$ik}(Q)``."""

    operand: Query
    positions: Tuple[int, ...]

    def children(self) -> Tuple[Query, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Select(Query):
    """Selection ``sigma_theta(Q)`` for a positional condition."""

    operand: Query
    condition: Condition

    def children(self) -> Tuple[Query, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Product(Query):
    """Cartesian product ``Q x Q'``."""

    left: Query
    right: Query

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Union(Query):
    """Union ``Q ∪ Q'``."""

    left: Query
    right: Query

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Difference(Query):
    """Difference ``Q - Q'``."""

    left: Query
    right: Query

    def children(self) -> Tuple[Query, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class GraphPattern(Query):
    """Pattern matching over a dynamically constructed property graph view.

    ``sources`` are the six subqueries ``(Q1, ..., Q6)`` whose results are
    fed to ``pgView_ext`` (or ``pgView_n`` when ``max_arity`` is set); the
    output pattern is then evaluated on the resulting graph (Figure 4).

    * In ``PGQro`` every source must be a :class:`BaseRelation`.
    * In ``PGQrw`` the identifier arity must be 1 (``pgView``).
    * In ``PGQ_n`` it must be at most ``n``; ``PGQext`` places no bound.
    """

    output: OutputPattern
    sources: Tuple[Query, Query, Query, Query, Query, Query]
    max_arity: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.sources) != 6:
            raise QueryError(
                f"pattern matching needs exactly 6 view subqueries, got {len(self.sources)}"
            )
        if self.max_arity is not None and self.max_arity < 1:
            raise QueryError(f"max identifier arity must be >= 1, got {self.max_arity}")
        if not isinstance(self.sources, ViewSources):
            object.__setattr__(self, "sources", ViewSources(self.sources))

    def children(self) -> Tuple[Query, ...]:
        return tuple(self.sources)


def graph_pattern_on_relations(
    output: OutputPattern,
    relation_names: Tuple[str, str, str, str, str, str],
    *,
    max_arity: Optional[int] = None,
) -> GraphPattern:
    """``psi_Omega(R1, ..., R6)`` — the PGQro form over base relations."""
    sources = tuple(BaseRelation(name) for name in relation_names)
    return GraphPattern(output, sources, max_arity=max_arity)


def iter_queries(query: Query):
    """Yield the query and all subqueries, pre-order."""
    stack = [query]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def query_size(query: Query) -> int:
    """Number of AST nodes in the query (pattern nodes not included)."""
    return sum(1 for _ in iter_queries(query))


# --------------------------------------------------------------------------- #
# Parameter slots (prepared statements)
# --------------------------------------------------------------------------- #
def query_parameters(query: Query) -> FrozenSet[str]:
    """Names of every parameter slot occurring anywhere in the query:
    relational selection conditions, individual and inline-relation
    constants, and the conditions of ``GraphPattern`` output patterns.

    A pattern's :class:`ViewSources` contributes the names it computed
    once, so the walk skips its source subqueries; callers that run a
    query repeatedly (a ``CompiledQuery``) keep the result instead of
    calling again.
    """
    names: set = set()
    stack = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, Select):
            names |= node.condition.parameters()
        elif isinstance(node, Constant):
            if isinstance(node.value, Parameter):
                names.add(node.value.name)
        elif isinstance(node, ConstantRelation):
            names.update(
                value.name
                for row in node.rows
                for value in row
                if isinstance(value, Parameter)
            )
        elif isinstance(node, GraphPattern):
            names |= pattern_parameters(node.output.pattern) | node.sources.parameters
            continue
        stack.extend(node.children())
    return frozenset(names)


def source_parameters(query: Query) -> FrozenSet[str]:
    """Names of the parameter slots inside the view sources of the query's
    graph patterns (whose bound values pick the views), as each pattern's
    :class:`ViewSources` computed them once."""
    names: set = set()
    stack = [query]
    while stack:
        node = stack.pop()
        if isinstance(node, GraphPattern):
            names |= node.sources.parameters
        else:
            stack.extend(node.children())
    return frozenset(names)


class ViewSources(tuple):
    """A pattern's six view subqueries, with what depends on them alone
    computed once: their parameter slot names, and their structural hash
    on first use (every constant inside is atomic, so it always hashes).
    ``GraphPattern`` wraps its sources in one; a catalog graph's definition
    builds it once, and every statement over the graph shares it.

    Equal to, and hashing like, the plain tuple of the same subqueries, so
    a view keyed on either finds the same cache entry; a view cache key
    ``(sources, max_arity)`` then hashes in constant time.
    """

    parameters: FrozenSet[str]
    _hash: Optional[int]

    def __new__(cls, sources) -> "ViewSources":
        self = super().__new__(cls, sources)
        self.parameters = frozenset().union(*map(query_parameters, self))
        self._hash = None
        return self

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = tuple.__hash__(self)
        return self._hash

    def __reduce__(self):
        return ViewSources, (tuple(self),)  # the hash is per process


def bind_query(query: Query, bindings: Bindings) -> Query:
    """The query with every parameter slot replaced by its bound value.

    Identity-preserving (a slot-free query comes back unchanged, object
    identity included), so bound queries stay structurally equal across
    repeated executions with equal bindings — view caches and executor
    memo tables keyed on query structure keep hitting.
    """
    if isinstance(query, Select):
        operand = bind_query(query.operand, bindings)
        condition = query.condition.bind(bindings)
        if operand is query.operand and condition is query.condition:
            return query
        return Select(operand, condition)
    if isinstance(query, Constant):
        if isinstance(query.value, Parameter):
            return Constant(bind_value(query.value, bindings), query.require_active)
        return query
    if isinstance(query, ConstantRelation):
        if any(isinstance(value, Parameter) for row in query.rows for value in row):
            rows = tuple(
                tuple(bind_value(value, bindings) for value in row) for row in query.rows
            )
            return ConstantRelation(rows, query.arity)
        return query
    if isinstance(query, Project):
        operand = bind_query(query.operand, bindings)
        return query if operand is query.operand else Project(operand, query.positions)
    if isinstance(query, (Product, Union, Difference)):
        left, right = bind_query(query.left, bindings), bind_query(query.right, bindings)
        if left is query.left and right is query.right:
            return query
        return type(query)(left, right)
    if isinstance(query, GraphPattern):
        output = bind_output(query.output, bindings)
        sources = bind_sources(query.sources, bindings)
        if output is query.output and sources is query.sources:
            return query
        return GraphPattern(output, sources, max_arity=query.max_arity)
    # Leaves without constants: BaseRelation, ActiveDomainQuery,
    # EmptyRelation.
    return query


def bind_sources(sources: ViewSources, bindings: Bindings) -> Tuple[Query, ...]:
    """A pattern's view sources with every slot bound; sources holding no
    slot come back as they are, without a walk over their trees, so they
    keep what they computed once."""
    if not sources.parameters:
        return sources
    bound = tuple(bind_query(source, bindings) for source in sources)
    return sources if all(b is s for b, s in zip(bound, sources)) else bound


def resolve_bindings(query: Query, bindings: Optional[Bindings]) -> Query:
    """Validate bindings against the query's slots and bind them eagerly.

    The shared entry check of every engine: raises one
    :class:`~repro.errors.BindingError` listing *all* missing parameters
    and *all* unknown extras (a binding naming no declared slot is a bug
    in the caller, not a value to silently drop).  Returns the query
    unchanged when it has no parameter slots.
    """
    names = query_parameters(query)
    check_bindings(names, bindings or {})
    if not names:
        return query
    return bind_query(query, bindings or {})


def static_query_arity(query: Query, schema) -> int:
    """Arity of a query's result, computed statically from a schema.

    Used by the fragment analysis and by the PGQ -> FO[TC] translation
    (Theorem 6.1), both of which need to know how many columns -- and hence
    how many first-order variables -- a subquery contributes.
    ``schema`` is a :class:`repro.relational.schema.Schema`.
    """
    if isinstance(query, BaseRelation):
        return schema.arity(query.name)
    if isinstance(query, Constant):
        return 1
    if isinstance(query, ConstantRelation):
        return query.arity
    if isinstance(query, ActiveDomainQuery):
        return 1
    if isinstance(query, EmptyRelation):
        return query.arity
    if isinstance(query, Project):
        return len(query.positions)
    if isinstance(query, Select):
        return static_query_arity(query.operand, schema)
    if isinstance(query, Product):
        return static_query_arity(query.left, schema) + static_query_arity(query.right, schema)
    if isinstance(query, (Union, Difference)):
        left = static_query_arity(query.left, schema)
        right = static_query_arity(query.right, schema)
        if left != right:
            raise QueryError(f"union/difference of incompatible arities {left} and {right}")
        return left
    if isinstance(query, GraphPattern):
        identifier_arity = static_query_arity(query.sources[0], schema)
        return output_arity(query.output, identifier_arity)
    raise QueryError(f"cannot compute the arity of {query!r}")


def output_arity(output: OutputPattern, identifier_arity: int) -> int:
    """Arity of the relation produced by an output pattern.

    Each plain variable contributes ``identifier_arity`` columns (the
    identifier components), each property reference contributes one column
    (Section 5: outputs over k-ary graphs are flattened k-tuples).
    """
    arity = 0
    for item in output.items:
        arity += 1 if isinstance(item, PropertyRef) else identifier_arity
    return arity
