"""Pattern and output-pattern abstract syntax (Figure 1 of the paper).

The grammar is

    psi := (x) | -x-> | <-x- | psi1 psi2 | psi^{n..m} | psi<theta>
         | psi1 + psi2    (requires fv(psi1) = fv(psi2))

where the variable ``x`` is optional, and ``0 <= n <= m <= infinity``.
Free variables follow Figure 1 exactly; in particular repetition binds all
variables of its body (``fv(psi^{n..m}) = {}``).

Output patterns ``psi_Omega`` project the matches of ``psi`` onto a tuple
``Omega = (omega_1, ..., omega_n)`` of pairwise-distinct items, each either
a pattern variable or a property reference ``x.k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Tuple, Union

from repro.errors import PatternError
from repro.patterns.conditions import PatternCondition

#: Sentinel for an unbounded upper repetition bound (``m = infinity``).
INFINITY = math.inf


class Pattern:
    """Base class for path patterns."""

    def free_variables(self) -> FrozenSet[str]:
        """``fv(psi)`` per Figure 1."""
        raise NotImplementedError

    def all_variables(self) -> FrozenSet[str]:
        """Every variable syntactically occurring in the pattern (free or bound)."""
        raise NotImplementedError

    def validate(self) -> None:
        """Check well-formedness; raises :class:`PatternError` otherwise."""
        raise NotImplementedError

    # Combinators mirroring the grammar ---------------------------------------
    def then(self, other: "Pattern") -> "Concatenation":
        return Concatenation(self, other)

    def where(self, condition: PatternCondition) -> "Filter":
        return Filter(self, condition)

    def star(self) -> "Repetition":
        """Kleene star ``psi^{0..inf}``."""
        return Repetition(self, 0, INFINITY)

    def output(self, *items: Union[str, "PropertyRef"]) -> "OutputPattern":
        return OutputPattern(self, tuple(items))


@dataclass(frozen=True)
class NodePattern(Pattern):
    """``(x)``: matches any node, binding it to ``x`` when given."""

    variable: Optional[str] = None

    def free_variables(self) -> FrozenSet[str]:
        return frozenset() if self.variable is None else frozenset({self.variable})

    def all_variables(self) -> FrozenSet[str]:
        return self.free_variables()

    def validate(self) -> None:
        return None


@dataclass(frozen=True)
class EdgePattern(Pattern):
    """``-x->`` (forward) or ``<-x-`` (backward) single-edge pattern."""

    variable: Optional[str] = None
    forward: bool = True

    def free_variables(self) -> FrozenSet[str]:
        return frozenset() if self.variable is None else frozenset({self.variable})

    def all_variables(self) -> FrozenSet[str]:
        return self.free_variables()

    def validate(self) -> None:
        return None


@dataclass(frozen=True)
class Concatenation(Pattern):
    """``psi1 psi2``: paths that decompose into a psi1-path then a psi2-path."""

    left: Pattern
    right: Pattern

    def free_variables(self) -> FrozenSet[str]:
        return self.left.free_variables() | self.right.free_variables()

    def all_variables(self) -> FrozenSet[str]:
        return self.left.all_variables() | self.right.all_variables()

    def validate(self) -> None:
        self.left.validate()
        self.right.validate()


@dataclass(frozen=True)
class Disjunction(Pattern):
    """``psi1 + psi2``: union of matches; requires ``fv(psi1) = fv(psi2)``."""

    left: Pattern
    right: Pattern

    def free_variables(self) -> FrozenSet[str]:
        return self.left.free_variables()

    def all_variables(self) -> FrozenSet[str]:
        return self.left.all_variables() | self.right.all_variables()

    def validate(self) -> None:
        self.left.validate()
        self.right.validate()
        if self.left.free_variables() != self.right.free_variables():
            raise PatternError(
                "disjunction requires equal free-variable sets, got "
                f"{sorted(self.left.free_variables())} and "
                f"{sorted(self.right.free_variables())}"
            )


@dataclass(frozen=True)
class Repetition(Pattern):
    """``psi^{n..m}`` with ``0 <= n <= m <= infinity``.

    Repetition erases bindings: ``fv(psi^{n..m}) = {}`` (Figure 1), so the
    semantics only records source and target of the repeated path.
    """

    body: Pattern
    lower: int = 0
    upper: float = INFINITY

    def free_variables(self) -> FrozenSet[str]:
        return frozenset()

    def all_variables(self) -> FrozenSet[str]:
        return self.body.all_variables()

    def validate(self) -> None:
        self.body.validate()
        if self.lower < 0:
            raise PatternError(f"repetition lower bound must be >= 0, got {self.lower}")
        if self.upper != INFINITY and (self.upper < self.lower or int(self.upper) != self.upper):
            raise PatternError(
                f"repetition upper bound must be an integer >= lower bound or infinity, "
                f"got {self.upper}"
            )

    @property
    def is_unbounded(self) -> bool:
        return self.upper == INFINITY


@dataclass(frozen=True)
class Filter(Pattern):
    """``psi<theta>``: matches of ``psi`` whose mapping satisfies ``theta``."""

    body: Pattern
    condition: PatternCondition

    def free_variables(self) -> FrozenSet[str]:
        return self.body.free_variables()

    def all_variables(self) -> FrozenSet[str]:
        return self.body.all_variables() | self.condition.variables()

    def validate(self) -> None:
        self.body.validate()
        unknown = self.condition.variables() - self.body.free_variables()
        if unknown:
            raise PatternError(
                f"filter condition mentions variables not bound by the pattern: {sorted(unknown)}"
            )


@dataclass(frozen=True)
class PropertyRef:
    """An output item ``x.key`` projecting a property of a bound element."""

    variable: str
    key: str

    def __str__(self) -> str:
        return f"{self.variable}.{self.key}"


#: Output items are either plain variables or property references.
OutputItem = Union[str, PropertyRef]


@dataclass(frozen=True)
class OutputPattern:
    """``psi_Omega``: a pattern with an output tuple ``Omega``.

    ``fv(psi_Omega) = {omega_1, ..., omega_n}`` and the items must be
    pairwise distinct (Figure 1).  The empty output tuple yields a Boolean
    (0-ary) query: the result is the singleton empty tuple iff a match
    exists.
    """

    pattern: Pattern
    items: Tuple[OutputItem, ...] = ()

    def validate(self) -> None:
        self.pattern.validate()
        seen = set()
        for item in self.items:
            if item in seen:
                raise PatternError(f"output items must be pairwise distinct; {item!r} repeats")
            seen.add(item)
        bound = self.pattern.free_variables()
        for item in self.items:
            variable = item.variable if isinstance(item, PropertyRef) else item
            if variable not in bound:
                raise PatternError(
                    f"output item {item!r} refers to variable {variable!r}, "
                    f"which is not free in the pattern (free: {sorted(bound)})"
                )

    @property
    def arity(self) -> int:
        return len(self.items)

    def output_variables(self) -> FrozenSet[str]:
        """Variables used by the output tuple."""
        return frozenset(
            item.variable if isinstance(item, PropertyRef) else item for item in self.items
        )


def pattern_depth(pattern: Pattern) -> int:
    """Syntactic depth of a pattern, used for size-bounded enumeration."""
    if isinstance(pattern, (NodePattern, EdgePattern)):
        return 1
    if isinstance(pattern, (Concatenation, Disjunction)):
        return 1 + max(pattern_depth(pattern.left), pattern_depth(pattern.right))
    if isinstance(pattern, (Repetition, Filter)):
        return 1 + pattern_depth(pattern.body)
    raise PatternError(f"unknown pattern node {pattern!r}")


def pattern_size(pattern: Pattern) -> int:
    """Number of AST nodes of a pattern."""
    if isinstance(pattern, (NodePattern, EdgePattern)):
        return 1
    if isinstance(pattern, (Concatenation, Disjunction)):
        return 1 + pattern_size(pattern.left) + pattern_size(pattern.right)
    if isinstance(pattern, (Repetition, Filter)):
        return 1 + pattern_size(pattern.body)
    raise PatternError(f"unknown pattern node {pattern!r}")


def iter_subpatterns(pattern: Pattern) -> Iterator[Pattern]:
    """Yield the pattern and all of its sub-patterns, pre-order."""
    yield pattern
    if isinstance(pattern, (Concatenation, Disjunction)):
        yield from iter_subpatterns(pattern.left)
        yield from iter_subpatterns(pattern.right)
    elif isinstance(pattern, (Repetition, Filter)):
        yield from iter_subpatterns(pattern.body)


# --------------------------------------------------------------------------- #
# Parameter slots (prepared statements)
# --------------------------------------------------------------------------- #
def pattern_parameters(pattern: Pattern) -> FrozenSet[str]:
    """Names of every parameter slot occurring in the pattern's conditions."""
    names: FrozenSet[str] = frozenset()
    for sub in iter_subpatterns(pattern):
        if isinstance(sub, Filter):
            names |= sub.condition.parameters()
    return names


def bind_pattern(pattern: Pattern, bindings) -> Pattern:
    """The pattern with every parameter slot replaced by its bound value.

    Identity-preserving: sub-trees without slots are returned unchanged,
    so a fully concrete pattern keeps its object identity (and a bound
    pattern stays structurally equal across repeated bindings — which is
    what executor memo tables key on).
    """
    if isinstance(pattern, (NodePattern, EdgePattern)):
        return pattern
    if isinstance(pattern, Concatenation):
        left, right = bind_pattern(pattern.left, bindings), bind_pattern(pattern.right, bindings)
        if left is pattern.left and right is pattern.right:
            return pattern
        return Concatenation(left, right)
    if isinstance(pattern, Disjunction):
        left, right = bind_pattern(pattern.left, bindings), bind_pattern(pattern.right, bindings)
        if left is pattern.left and right is pattern.right:
            return pattern
        return Disjunction(left, right)
    if isinstance(pattern, Repetition):
        body = bind_pattern(pattern.body, bindings)
        return pattern if body is pattern.body else Repetition(body, pattern.lower, pattern.upper)
    if isinstance(pattern, Filter):
        body = bind_pattern(pattern.body, bindings)
        condition = pattern.condition.bind(bindings)
        if body is pattern.body and condition is pattern.condition:
            return pattern
        return Filter(body, condition)
    raise PatternError(f"cannot bind unknown pattern node {pattern!r}")


def bind_output(output: OutputPattern, bindings) -> OutputPattern:
    """Bind the parameter slots of an output pattern (items carry none)."""
    pattern = bind_pattern(output.pattern, bindings)
    return output if pattern is output.pattern else OutputPattern(pattern, output.items)
