"""Logical plan IR for pattern matching.

The planner sits between the pattern AST of Figure 1 and the execution
backends: a :class:`~repro.patterns.ast.Pattern` is lowered to a tree of
logical operators, the rule-based optimizer of :mod:`repro.planner.rules`
rewrites the tree, and :mod:`repro.planner.physical` executes it against a
property graph.

Every logical operator produces a *binding table*: a set of rows of the
shape ``(src, tgt, v_1, ..., v_k)`` where ``src``/``tgt`` are the endpoint
identifiers of the matched path and ``v_1 .. v_k`` are the identifiers
bound to the operator's variables, in schema order.  This is the columnar
counterpart of the endpoint semantics' ``(s, t, mu)`` triples (Figure 2):
the schema is fixed per operator, so rows are plain tuples and joins are
hash joins on tuple keys instead of mapping-compatibility checks.

Operators:

* :class:`NodeScan` / :class:`EdgeScan` — leaf scans with pushed-down
  label sets and per-element conditions;
* :class:`JoinStep` — path concatenation, a hash join on the shared
  midpoint plus any shared variables;
* :class:`UnionStep` — disjunction;
* :class:`FilterStep` — residual filter conditions;
* :class:`FixpointStep` — repetition ``psi^{n..m}``, evaluated on the
  body's endpoint-pair relation (bindings are erased, Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from repro.errors import PatternError
from repro.patterns.ast import (
    Concatenation,
    Disjunction,
    EdgePattern,
    Filter,
    NodePattern,
    Pattern,
    Repetition,
)
from repro.patterns.conditions import PatternCondition


class LogicalPlan:
    """Base class for logical plan operators."""

    def variables(self) -> FrozenSet[str]:
        """Variables bound by every output row (the free variables of the
        pattern the operator was lowered from, minus pruned ones)."""
        raise NotImplementedError

    def children(self) -> Tuple["LogicalPlan", ...]:
        return ()


@dataclass(frozen=True)
class NodeScan(LogicalPlan):
    """Scan the node set ``N``; one row ``(n, n[, n])`` per matching node.

    ``variable`` names the scanned element for pushed-down conditions even
    when ``bound`` is False (the optimizer prunes bindings nobody consumes,
    which shrinks the row set without changing projected results).
    """

    variable: Optional[str] = None
    labels: FrozenSet[str] = frozenset()
    condition: Optional[PatternCondition] = None
    bound: bool = True

    def variables(self) -> FrozenSet[str]:
        if self.variable is not None and self.bound:
            return frozenset({self.variable})
        return frozenset()


@dataclass(frozen=True)
class EdgeScan(LogicalPlan):
    """Scan the edge set ``E``; one row per matching edge, oriented by
    ``forward`` (``-x->`` vs ``<-x-``)."""

    variable: Optional[str] = None
    forward: bool = True
    labels: FrozenSet[str] = frozenset()
    condition: Optional[PatternCondition] = None
    bound: bool = True

    def variables(self) -> FrozenSet[str]:
        if self.variable is not None and self.bound:
            return frozenset({self.variable})
        return frozenset()


@dataclass(frozen=True)
class JoinStep(LogicalPlan):
    """Concatenation ``psi1 psi2``: hash join on ``left.tgt = right.src``
    and on every variable bound by both sides."""

    left: LogicalPlan
    right: LogicalPlan

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnionStep(LogicalPlan):
    """Disjunction ``psi1 + psi2``; both sides bind the same variables."""

    left: LogicalPlan
    right: LogicalPlan

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class BindEndpoint(LogicalPlan):
    """Bind a variable to the operand's source or target endpoint.

    Produced by the optimizer from ``JoinStep(NodeScan(v), X)`` (and its
    mirror image): joining an unfiltered bound node scan never changes the
    row set — endpoints are always nodes (Definition 2.1) — it only names
    an endpoint.  The physical operator is free: it extends the column map
    without touching rows.
    """

    operand: LogicalPlan
    variable: str
    use_source: bool = True

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables() | {self.variable}

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class FilterStep(LogicalPlan):
    """Residual filter ``psi<theta>`` that could not be pushed into a scan."""

    operand: LogicalPlan
    condition: PatternCondition

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class EmptyPlan(LogicalPlan):
    """A provably-empty relation with a fixed schema.

    Produced only by the optimizer's ``prune_unsatisfiable`` rewrite
    (never by lowering): when the dataflow pass proves a subplan can
    yield no rows, the subplan is replaced by this leaf.  ``schema``
    records the variables the replaced subplan would have bound, so the
    variable-set invariant checked by the plan verifier still holds;
    ``reason`` names the proof for EXPLAIN output.
    """

    schema: FrozenSet[str] = frozenset()
    reason: str = "unsatisfiable"

    def variables(self) -> FrozenSet[str]:
        return self.schema


@dataclass(frozen=True)
class FixpointStep(LogicalPlan):
    """Repetition ``psi^{lower..upper}`` over the body's pair relation.

    Repetition erases bindings (``fv(psi^{n..m}) = {}``), so only the
    ``(src, tgt)`` pairs of the body matter; the physical operator runs a
    semi-naive delta iteration over that pair relation instead of
    re-enumerating paths.
    """

    body: LogicalPlan
    lower: int = 0
    upper: float = float("inf")

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.body,)

    @property
    def is_unbounded(self) -> bool:
        return self.upper == float("inf")


# --------------------------------------------------------------------------- #
# Lowering from the pattern AST
# --------------------------------------------------------------------------- #
def build_logical_plan(pattern: Pattern) -> LogicalPlan:
    """Lower a validated pattern to its (unoptimized) logical plan."""
    if isinstance(pattern, NodePattern):
        return NodeScan(pattern.variable)
    if isinstance(pattern, EdgePattern):
        return EdgeScan(pattern.variable, forward=pattern.forward)
    if isinstance(pattern, Concatenation):
        return JoinStep(build_logical_plan(pattern.left), build_logical_plan(pattern.right))
    if isinstance(pattern, Disjunction):
        return UnionStep(build_logical_plan(pattern.left), build_logical_plan(pattern.right))
    if isinstance(pattern, Filter):
        return FilterStep(build_logical_plan(pattern.body), pattern.condition)
    if isinstance(pattern, Repetition):
        return FixpointStep(build_logical_plan(pattern.body), pattern.lower, pattern.upper)
    raise PatternError(f"cannot lower unknown pattern node {pattern!r}")


# --------------------------------------------------------------------------- #
# Parameter binding (prepared statements)
# --------------------------------------------------------------------------- #
def bind_plan(plan: LogicalPlan, bindings) -> LogicalPlan:
    """The plan with every parameter slot in its conditions bound.

    Plans are compiled (and cached) over the *parameterized* pattern; this
    cheap structural substitution is all that runs per execution, so two
    bindings of one prepared statement share a single plan compilation.
    Identity-preserving: slot-free sub-plans are returned unchanged, and a
    re-bound plan with equal values is structurally equal to the previous
    one — the executor's per-node table memo keys on exactly that.
    """
    if isinstance(plan, (NodeScan, EdgeScan)):
        if plan.condition is None:
            return plan
        condition = plan.condition.bind(bindings)
        return plan if condition is plan.condition else replace(plan, condition=condition)
    if isinstance(plan, FilterStep):
        operand = bind_plan(plan.operand, bindings)
        condition = plan.condition.bind(bindings)
        if operand is plan.operand and condition is plan.condition:
            return plan
        return FilterStep(operand, condition)
    if isinstance(plan, (JoinStep, UnionStep)):
        left, right = bind_plan(plan.left, bindings), bind_plan(plan.right, bindings)
        if left is plan.left and right is plan.right:
            return plan
        return type(plan)(left, right)
    if isinstance(plan, BindEndpoint):
        operand = bind_plan(plan.operand, bindings)
        if operand is plan.operand:
            return plan
        return BindEndpoint(operand, plan.variable, plan.use_source)
    if isinstance(plan, FixpointStep):
        body = bind_plan(plan.body, bindings)
        return plan if body is plan.body else FixpointStep(body, plan.lower, plan.upper)
    if isinstance(plan, EmptyPlan):
        return plan
    raise PatternError(f"cannot bind unknown plan node {plan!r}")


# --------------------------------------------------------------------------- #
# Plan rendering (EXPLAIN)
# --------------------------------------------------------------------------- #
def describe(plan: LogicalPlan, indent: int = 0) -> str:
    """Render a plan as an indented operator tree (``Connection.explain``)."""
    pad = "  " * indent
    if isinstance(plan, (NodeScan, EdgeScan)):
        kind = "NodeScan" if isinstance(plan, NodeScan) else "EdgeScan"
        parts = []
        if plan.variable is not None:
            parts.append(plan.variable if plan.bound else f"{plan.variable} (pruned)")
        if isinstance(plan, EdgeScan) and not plan.forward:
            parts.append("backward")
        if plan.labels:
            parts.append("labels=" + ",".join(sorted(plan.labels)))
        if plan.condition is not None:
            parts.append(f"condition={plan.condition!r}")
        detail = f" [{'; '.join(parts)}]" if parts else ""
        return f"{pad}{kind}{detail}"
    if isinstance(plan, JoinStep):
        shared = sorted(plan.left.variables() & plan.right.variables())
        keys = ", ".join(["tgt=src"] + shared)
        lines = [f"{pad}HashJoin [{keys}]"]
    elif isinstance(plan, BindEndpoint):
        endpoint = "src" if plan.use_source else "tgt"
        lines = [f"{pad}BindEndpoint [{plan.variable}={endpoint}]"]
    elif isinstance(plan, UnionStep):
        lines = [f"{pad}Union"]
    elif isinstance(plan, FilterStep):
        lines = [f"{pad}Filter [{plan.condition!r}]"]
    elif isinstance(plan, FixpointStep):
        upper = "inf" if plan.is_unbounded else int(plan.upper)
        lines = [f"{pad}SemiNaiveFixpoint [{plan.lower}..{upper}]"]
    elif isinstance(plan, EmptyPlan):
        parts = [plan.reason]
        if plan.schema:
            parts.append("schema=" + ",".join(sorted(plan.schema)))
        return f"{pad}Empty [{'; '.join(parts)}]"
    else:
        raise PatternError(f"cannot describe unknown plan node {plan!r}")
    for child in plan.children():
        lines.append(describe(child, indent + 1))
    return "\n".join(lines)


def plan_size(plan: LogicalPlan) -> int:
    """Number of operators in a plan (tests and cache statistics)."""
    return 1 + sum(plan_size(child) for child in plan.children())
