"""Abstract syntax of the SQL/PGQ surface subset.

Two statement kinds are modelled:

* ``CREATE PROPERTY GRAPH`` view definitions (Section 1, Example 1.1),
  which declare how nodes and edges of a tabular property graph are derived
  from relational tables;
* ``SELECT ... FROM GRAPH_TABLE(graph MATCH pattern [WHERE cond]
  COLUMNS/RETURN (...))`` queries (Section 2, Example 2.1).

The AST stays close to the concrete syntax; the compiler in
:mod:`repro.sqlpgq.compiler` lowers it onto the paper's formal fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.errors import QueryError
from repro.parameters import require_atomic

#: ``(line, column)`` of the token that introduced an AST node.  Positions
#: are carried for diagnostics only: they are excluded from equality and
#: hashing (plan caches key on structural equality of ASTs) and from repr
#: (snapshot fingerprints hash ``repr(statement)`` of DDL nodes).
SourcePosition = Tuple[int, int]


def _position_field() -> Optional[SourcePosition]:
    return field(default=None, compare=False, repr=False)


# --------------------------------------------------------------------------- #
# CREATE PROPERTY GRAPH
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NodeTableSpec:
    """One vertex table: its key columns, labels and exposed properties."""

    table: str
    key_columns: Tuple[str, ...]
    labels: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    position: Optional[SourcePosition] = _position_field()


@dataclass(frozen=True)
class EdgeTableSpec:
    """One edge table: key, endpoint references, labels and properties."""

    table: str
    key_columns: Tuple[str, ...]
    source_columns: Tuple[str, ...]
    source_table: str
    target_columns: Tuple[str, ...]
    target_table: str
    labels: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    position: Optional[SourcePosition] = _position_field()


@dataclass(frozen=True)
class CreatePropertyGraph:
    """``CREATE PROPERTY GRAPH name ( NODES TABLE ... EDGES TABLE ... )``."""

    name: str
    node_tables: Tuple[NodeTableSpec, ...]
    edge_tables: Tuple[EdgeTableSpec, ...]
    position: Optional[SourcePosition] = _position_field()


# --------------------------------------------------------------------------- #
# MATCH patterns
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class NodeElement:
    """``(x:Label)`` — a node element of a MATCH pattern."""

    variable: Optional[str]
    labels: Tuple[str, ...] = ()
    position: Optional[SourcePosition] = _position_field()


@dataclass(frozen=True)
class Quantifier:
    """A postfix quantifier: ``*`` (0, inf), ``+`` (1, inf) or ``{n,m}``."""

    lower: int
    upper: Optional[int]  # None means unbounded


@dataclass(frozen=True)
class EdgeElement:
    """``-[t:Label]->`` or ``<-[t:Label]-`` with an optional quantifier."""

    variable: Optional[str]
    labels: Tuple[str, ...] = ()
    forward: bool = True
    quantifier: Optional[Quantifier] = None
    position: Optional[SourcePosition] = _position_field()


PathElement = Union[NodeElement, EdgeElement]


# --------------------------------------------------------------------------- #
# WHERE conditions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PropertyOperand:
    """``x.key`` on either side of a comparison."""

    variable: str
    key: str
    position: Optional[SourcePosition] = _position_field()


@dataclass(frozen=True)
class LiteralOperand:
    """A number or string literal (any atomic value, when built by hand)."""

    value: object
    position: Optional[SourcePosition] = _position_field()

    def __post_init__(self) -> None:
        require_atomic(self.value, QueryError, "a literal")


@dataclass(frozen=True)
class ParameterOperand:
    """A ``:name`` parameter placeholder standing where a literal may.

    Parameterized statements are prepared once and executed with per-call
    bindings (:meth:`repro.engine.connection.Connection.prepare`); the
    compiler lowers this operand to a
    :class:`~repro.parameters.Parameter` slot in the condition tree.
    """

    name: str
    position: Optional[SourcePosition] = _position_field()


#: Operands of a WHERE comparison: a property access, a literal, or a
#: parameter placeholder.
Operand = Union[PropertyOperand, LiteralOperand, ParameterOperand]


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with ``op`` in =, <>, <, <=, >, >=."""

    left: Operand
    operator: str
    right: Operand
    position: Optional[SourcePosition] = _position_field()


@dataclass(frozen=True)
class LabelTest:
    """``x IS Label`` / ``Label(x)`` style label predicate (``x:Label`` inline)."""

    variable: str
    label: str
    position: Optional[SourcePosition] = _position_field()


@dataclass(frozen=True)
class BooleanExpression:
    """AND/OR/NOT combination of conditions."""

    operator: str  # "AND", "OR", "NOT"
    operands: Tuple["ConditionExpr", ...]


ConditionExpr = Union[Comparison, LabelTest, BooleanExpression]


# --------------------------------------------------------------------------- #
# GRAPH_TABLE queries
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class OutputColumn:
    """``x.key [AS alias]`` or ``x [AS alias]`` in COLUMNS/RETURN."""

    variable: str
    key: Optional[str] = None
    alias: Optional[str] = None
    position: Optional[SourcePosition] = _position_field()

    @property
    def name(self) -> str:
        if self.alias:
            return self.alias
        return f"{self.variable}.{self.key}" if self.key else self.variable


@dataclass(frozen=True)
class GraphTableQuery:
    """``SELECT ... FROM GRAPH_TABLE(graph MATCH ... WHERE ... COLUMNS (...))``."""

    graph_name: str
    elements: Tuple[PathElement, ...]
    condition: Optional[ConditionExpr]
    columns: Tuple[OutputColumn, ...]
    distinct: bool = False
    #: Projection names of the outer ``SELECT`` list (empty for ``SELECT *``).
    #: Carried for analysis only (arity check against COLUMNS), so excluded
    #: from equality/hash like positions: the compiler ignores the outer list.
    select_items: Tuple[str, ...] = field(default=(), compare=False, repr=False)
    select_star: bool = field(default=True, compare=False, repr=False)
    position: Optional[SourcePosition] = _position_field()
