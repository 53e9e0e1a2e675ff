"""Pattern-level conditions (Figure 1 of the paper).

The grammar of conditions is

    theta := x.k = x'.k' | l(x) | theta ∨ theta | theta ∧ theta | ¬ theta

where ``x, x'`` are pattern variables, ``k, k'`` are property keys, and
``l`` is a label.  A mapping ``mu`` satisfies ``x.k = x'.k'`` when both
property values are defined and equal, and satisfies ``l(x)`` when the
label ``l`` belongs to ``lab(mu(x))``.

We additionally support comparisons between a property and a constant
(``x.k > 100``) and between two properties with an ordered comparator.
Example 2.1 of the paper uses ``t.amount > 100``; on ordered structures
these comparisons are definable, so they do not change the expressiveness
landscape, but they are part of the concrete SQL/PGQ surface.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet

from repro.errors import BindingError, PatternError
from repro.graph.identifiers import Identifier
from repro.graph.property_graph import PropertyGraph
from repro.parameters import Bindings, Parameter, bind_value, require_atomic

#: A variable mapping assigns graph element identifiers to pattern variables.
Mapping = Dict[str, Identifier]

#: Comparator dispatch shared with the planner's scan predicates
#: (:mod:`repro.planner.physical`) — one table, so the oracle and the
#: planned engine can never diverge on an operator.
COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_COMPARATORS = COMPARATORS


class PatternCondition:
    """Base class for pattern conditions evaluated against a mapping."""

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        raise NotImplementedError

    def variables(self) -> FrozenSet[str]:
        """Pattern variables mentioned by the condition."""
        raise NotImplementedError

    def parameters(self) -> FrozenSet[str]:
        """Names of the :class:`~repro.parameters.Parameter` slots used by
        the condition (empty for fully concrete conditions)."""
        return frozenset()

    def bind(self, bindings: Bindings) -> "PatternCondition":
        """The condition with every parameter slot replaced by its bound
        value.  Identity-preserving: a condition without slots (or whose
        sub-trees are unchanged) is returned as-is, so bound trees stay
        equal — and memo/cache friendly — across repeated executions."""
        return self

    def __and__(self, other: "PatternCondition") -> "PatternCondition":
        return AndCondition(self, other)

    def __or__(self, other: "PatternCondition") -> "PatternCondition":
        return OrCondition(self, other)

    def __invert__(self) -> "PatternCondition":
        return NotCondition(self)


@dataclass(frozen=True)
class PropertyEquals(PatternCondition):
    """``x.key = y.other_key``: both defined and equal."""

    left_var: str
    left_key: str
    right_var: str
    right_key: str

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        if self.left_var not in mapping or self.right_var not in mapping:
            return False
        left_elem = mapping[self.left_var]
        right_elem = mapping[self.right_var]
        if not graph.has_property(left_elem, self.left_key):
            return False
        if not graph.has_property(right_elem, self.right_key):
            return False
        return graph.property(left_elem, self.left_key) == graph.property(
            right_elem, self.right_key
        )

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.left_var, self.right_var})


@dataclass(frozen=True)
class PropertyCompare(PatternCondition):
    """``x.key  op  constant`` for an ordered comparator.

    Undefined properties never satisfy the comparison, mirroring the
    three-valued treatment of missing values in the standard.  The
    constant is atomic or a :class:`~repro.parameters.Parameter` slot.
    """

    var: str
    key: str
    operator: str
    constant: Any

    def __post_init__(self) -> None:
        if self.operator not in _COMPARATORS:
            raise PatternError(f"unsupported comparison operator {self.operator!r}")
        require_atomic(self.constant, PatternError, "a comparison constant")

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        # An unbound slot must raise, not silently decide: ordered
        # comparisons raise through Parameter's reflected operators, but
        # '='/'!=' are structural ('!=' would match every defined value).
        if isinstance(self.constant, Parameter):
            raise BindingError(
                f"parameter {self.constant!r} must be bound before evaluation"
            )
        if self.var not in mapping:
            return False
        element = mapping[self.var]
        if not graph.has_property(element, self.key):
            return False
        value = graph.property(element, self.key)
        try:
            return _COMPARATORS[self.operator](value, self.constant)
        except TypeError:
            return False

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.var})

    def parameters(self) -> FrozenSet[str]:
        if isinstance(self.constant, Parameter):
            return frozenset({self.constant.name})
        return frozenset()

    def bind(self, bindings: Bindings) -> "PatternCondition":
        if isinstance(self.constant, Parameter):
            return PropertyCompare(
                self.var, self.key, self.operator, bind_value(self.constant, bindings)
            )
        return self


@dataclass(frozen=True)
class PropertyComparesProperty(PatternCondition):
    """``x.key  op  y.other_key`` for an ordered comparator."""

    left_var: str
    left_key: str
    operator: str
    right_var: str
    right_key: str

    def __post_init__(self) -> None:
        if self.operator not in _COMPARATORS:
            raise PatternError(f"unsupported comparison operator {self.operator!r}")

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        if self.left_var not in mapping or self.right_var not in mapping:
            return False
        left_elem = mapping[self.left_var]
        right_elem = mapping[self.right_var]
        if not graph.has_property(left_elem, self.left_key):
            return False
        if not graph.has_property(right_elem, self.right_key):
            return False
        left = graph.property(left_elem, self.left_key)
        right = graph.property(right_elem, self.right_key)
        try:
            return _COMPARATORS[self.operator](left, right)
        except TypeError:
            return False

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.left_var, self.right_var})


@dataclass(frozen=True)
class HasLabel(PatternCondition):
    """``l(x)``: the element bound to ``x`` carries label ``l``."""

    var: str
    label: str

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        if self.var not in mapping:
            return False
        return self.label in graph.labels(mapping[self.var])

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.var})


@dataclass(frozen=True)
class AndCondition(PatternCondition):
    left: PatternCondition
    right: PatternCondition

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        return self.left.satisfied(graph, mapping) and self.right.satisfied(graph, mapping)

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def parameters(self) -> FrozenSet[str]:
        return self.left.parameters() | self.right.parameters()

    def bind(self, bindings: Bindings) -> "PatternCondition":
        left, right = self.left.bind(bindings), self.right.bind(bindings)
        if left is self.left and right is self.right:
            return self
        return AndCondition(left, right)


@dataclass(frozen=True)
class OrCondition(PatternCondition):
    left: PatternCondition
    right: PatternCondition

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        return self.left.satisfied(graph, mapping) or self.right.satisfied(graph, mapping)

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def parameters(self) -> FrozenSet[str]:
        return self.left.parameters() | self.right.parameters()

    def bind(self, bindings: Bindings) -> "PatternCondition":
        left, right = self.left.bind(bindings), self.right.bind(bindings)
        if left is self.left and right is self.right:
            return self
        return OrCondition(left, right)


@dataclass(frozen=True)
class NotCondition(PatternCondition):
    operand: PatternCondition

    def satisfied(self, graph: PropertyGraph, mapping: Mapping) -> bool:
        return not self.operand.satisfied(graph, mapping)

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def parameters(self) -> FrozenSet[str]:
        return self.operand.parameters()

    def bind(self, bindings: Bindings) -> "PatternCondition":
        operand = self.operand.bind(bindings)
        return self if operand is self.operand else NotCondition(operand)
