"""Positional selection conditions for the relational-algebra layer.

Figure 3 of the paper defines selection conditions over query results by
positional equalities ``$i = $j`` closed under the Boolean connectives.
We additionally support comparisons against constants and ordered
comparisons (``<``, ``<=``), which are definable from equality plus the
linear order of the ordered structure (Remark 2.1) and are needed by the
SQL/PGQ surface syntax (e.g. ``t.amount > 100``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Tuple

from repro.errors import BindingError, QueryError
from repro.parameters import Bindings, Parameter, bind_value, require_atomic
from repro.relational.relation import Row


class Condition:
    """Base class for positional conditions evaluated against a row."""

    def evaluate(self, row: Row) -> bool:
        raise NotImplementedError

    def parameters(self) -> FrozenSet[str]:
        """Names of the :class:`~repro.parameters.Parameter` slots used by
        the condition (empty for fully concrete conditions)."""
        return frozenset()

    def bind(self, bindings: "Bindings") -> "Condition":
        """The condition with parameter slots replaced by bound values;
        identity-preserving when nothing changes."""
        return self

    def compile(self, arity: int) -> "Callable[[Row], bool]":
        """A row predicate specialized for relations of fixed ``arity``.

        Column bounds are checked once here instead of once per row, and
        the built-in condition forms compose into plain closures — the
        evaluator's selections call one function per row instead of
        walking the condition tree.  Subclasses that do not specialize
        fall back to :meth:`evaluate`.
        """
        if self.max_position() > arity:
            raise QueryError(
                f"condition refers to ${self.max_position()} but the row has arity {arity}"
            )
        return self.evaluate

    def positions(self) -> FrozenSet[int]:
        """All 1-based column positions mentioned by the condition."""
        raise NotImplementedError

    def max_position(self) -> int:
        positions = self.positions()
        return max(positions) if positions else 0

    # Convenient combinators -------------------------------------------------
    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


def _column_value(row: Row, position: int) -> Any:
    if not 1 <= position <= len(row):
        raise QueryError(f"condition refers to ${position} but the row has arity {len(row)}")
    return row[position - 1]


def _check_position(position: int, arity: int) -> int:
    """Validate a 1-based position at compile time; returns the 0-based index."""
    if not 1 <= position <= arity:
        raise QueryError(f"condition refers to ${position} but the row has arity {arity}")
    return position - 1


@dataclass(frozen=True)
class ColumnEquals(Condition):
    """``$left = $right``."""

    left: int
    right: int

    def evaluate(self, row: Row) -> bool:
        return _column_value(row, self.left) == _column_value(row, self.right)

    def compile(self, arity: int) -> Callable[[Row], bool]:
        i, j = _check_position(self.left, arity), _check_position(self.right, arity)
        return lambda row: row[i] == row[j]

    def positions(self) -> FrozenSet[int]:
        return frozenset({self.left, self.right})


@dataclass(frozen=True)
class ColumnEqualsConstant(Condition):
    """``$position = constant``, the constant atomic or a slot."""

    position: int
    constant: Any

    def __post_init__(self) -> None:
        require_atomic(self.constant, QueryError, "a selection constant")

    def evaluate(self, row: Row) -> bool:
        # Equality against a Parameter is structural (it must be, for plan
        # cache keys), so an unbound slot would silently match nothing;
        # guard the tree-walk path like compile() guards the compiled one.
        if isinstance(self.constant, Parameter):
            raise BindingError(f"parameter {self.constant!r} must be bound before evaluation")
        return _column_value(row, self.position) == self.constant

    def compile(self, arity: int) -> Callable[[Row], bool]:
        i, constant = _check_position(self.position, arity), self.constant
        if isinstance(constant, Parameter):
            raise BindingError(f"parameter {constant!r} must be bound before compilation")
        return lambda row: row[i] == constant

    def positions(self) -> FrozenSet[int]:
        return frozenset({self.position})

    def parameters(self) -> FrozenSet[str]:
        if isinstance(self.constant, Parameter):
            return frozenset({self.constant.name})
        return frozenset()

    def bind(self, bindings: Bindings) -> Condition:
        if isinstance(self.constant, Parameter):
            return ColumnEqualsConstant(self.position, bind_value(self.constant, bindings))
        return self


_COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class ColumnCompare(Condition):
    """``$left  op  $right`` for an ordered comparison operator."""

    left: int
    operator: str
    right: int

    def __post_init__(self) -> None:
        if self.operator not in _COMPARATORS:
            raise QueryError(f"unsupported comparison operator {self.operator!r}")

    def evaluate(self, row: Row) -> bool:
        left = _column_value(row, self.left)
        right = _column_value(row, self.right)
        try:
            return _COMPARATORS[self.operator](left, right)
        except TypeError:
            return False

    def compile(self, arity: int) -> Callable[[Row], bool]:
        i, j = _check_position(self.left, arity), _check_position(self.right, arity)
        compare = _COMPARATORS[self.operator]

        def predicate(row: Row) -> bool:
            try:
                return compare(row[i], row[j])
            except TypeError:
                return False

        return predicate

    def positions(self) -> FrozenSet[int]:
        return frozenset({self.left, self.right})


@dataclass(frozen=True)
class ColumnCompareConstant(Condition):
    """``$position  op  constant`` for an ordered comparison operator, the
    constant atomic or a slot."""

    position: int
    operator: str
    constant: Any

    def __post_init__(self) -> None:
        if self.operator not in _COMPARATORS:
            raise QueryError(f"unsupported comparison operator {self.operator!r}")
        require_atomic(self.constant, QueryError, "a selection constant")

    def evaluate(self, row: Row) -> bool:
        # Ordered comparisons raise through Parameter's reflected
        # operators, but '='/'!=' stay structural — guard them here so an
        # unbound slot can never silently match everything (or nothing).
        if isinstance(self.constant, Parameter):
            raise BindingError(f"parameter {self.constant!r} must be bound before evaluation")
        value = _column_value(row, self.position)
        try:
            return _COMPARATORS[self.operator](value, self.constant)
        except TypeError:
            return False

    def compile(self, arity: int) -> Callable[[Row], bool]:
        i = _check_position(self.position, arity)
        compare, constant = _COMPARATORS[self.operator], self.constant
        if isinstance(constant, Parameter):
            raise BindingError(f"parameter {constant!r} must be bound before compilation")

        def predicate(row: Row) -> bool:
            try:
                return compare(row[i], constant)
            except TypeError:
                return False

        return predicate

    def positions(self) -> FrozenSet[int]:
        return frozenset({self.position})

    def parameters(self) -> FrozenSet[str]:
        if isinstance(self.constant, Parameter):
            return frozenset({self.constant.name})
        return frozenset()

    def bind(self, bindings: Bindings) -> Condition:
        if isinstance(self.constant, Parameter):
            return ColumnCompareConstant(
                self.position, self.operator, bind_value(self.constant, bindings)
            )
        return self


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition

    def evaluate(self, row: Row) -> bool:
        return self.left.evaluate(row) and self.right.evaluate(row)

    def compile(self, arity: int) -> Callable[[Row], bool]:
        first, second = self.left.compile(arity), self.right.compile(arity)
        return lambda row: first(row) and second(row)

    def positions(self) -> FrozenSet[int]:
        return self.left.positions() | self.right.positions()

    def parameters(self) -> FrozenSet[str]:
        return self.left.parameters() | self.right.parameters()

    def bind(self, bindings: Bindings) -> Condition:
        left, right = self.left.bind(bindings), self.right.bind(bindings)
        return self if left is self.left and right is self.right else And(left, right)


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition

    def evaluate(self, row: Row) -> bool:
        return self.left.evaluate(row) or self.right.evaluate(row)

    def compile(self, arity: int) -> Callable[[Row], bool]:
        first, second = self.left.compile(arity), self.right.compile(arity)
        return lambda row: first(row) or second(row)

    def positions(self) -> FrozenSet[int]:
        return self.left.positions() | self.right.positions()

    def parameters(self) -> FrozenSet[str]:
        return self.left.parameters() | self.right.parameters()

    def bind(self, bindings: Bindings) -> Condition:
        left, right = self.left.bind(bindings), self.right.bind(bindings)
        return self if left is self.left and right is self.right else Or(left, right)


@dataclass(frozen=True)
class Not(Condition):
    operand: Condition

    def evaluate(self, row: Row) -> bool:
        return not self.operand.evaluate(row)

    def compile(self, arity: int) -> Callable[[Row], bool]:
        inner = self.operand.compile(arity)
        return lambda row: not inner(row)

    def positions(self) -> FrozenSet[int]:
        return self.operand.positions()

    def parameters(self) -> FrozenSet[str]:
        return self.operand.parameters()

    def bind(self, bindings: Bindings) -> Condition:
        operand = self.operand.bind(bindings)
        return self if operand is self.operand else Not(operand)


@dataclass(frozen=True)
class TrueCondition(Condition):
    """The always-true condition; useful as a neutral element."""

    def evaluate(self, row: Row) -> bool:
        return True

    def compile(self, arity: int) -> Callable[[Row], bool]:
        return lambda row: True

    def positions(self) -> FrozenSet[int]:
        return frozenset()


def conjoin(conditions: Tuple[Condition, ...]) -> Condition:
    """Conjunction of zero or more conditions (empty conjunction is true)."""
    result: Condition = TrueCondition()
    for condition in conditions:
        result = condition if isinstance(result, TrueCondition) else And(result, condition)
    return result
