"""Plan-level abstract interpretation over the logical plan IR.

The semantic analyzer (:mod:`repro.analysis.semantic`) validates a
statement against the catalog *schema*; this module reasons about what an
optimized plan can actually *produce*.  It walks the plan with small
abstract domains:

* **label sets** — scan label sets checked against per-graph statistics
  (:class:`~repro.planner.stats.GraphStatistics`): a label with zero
  carriers makes the scan provably empty (A013);
* **constant/range lattices** — the property-comparison conjuncts that
  filter pushdown folded into a scan (or left in a residual filter) are
  intersected per ``(variable, key)``; an empty intersection is a
  contradiction (A009), and the subplan under it can yield no rows;
* **reachability upper bounds** — CSR degree data from the compact
  encoding bounds how deep a repetition can usefully iterate: a finite
  quantifier bound beyond the graph-diameter bound is vacuous (A012),
  and a join of two unbounded closures approaches a cartesian product
  of endpoints (A010).

Facts compose bottom-up: an empty operand makes a join empty, an empty
repetition body with ``lower >= 1`` makes the fixpoint empty, and so on.
Provably-empty subplans are replaced by
:class:`~repro.planner.logical.EmptyPlan` leaves carrying the schema the
subplan would have bound — :func:`prune_unsatisfiable` is the optimizer
entry point for that rewrite, and every application is checked by the
plan-invariant verifier (``verify_rewrite(..., may_empty=True)``).

Everything here is *static*: no relation is evaluated and no view is
materialized, so the pass stays inside the prepare-time budget enforced
by ``benchmarks/bench_planner.py`` (``dataflow_gate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.verifier import physical_variables
from repro.parameters import Parameter
from repro.patterns.conditions import (
    OrCondition,
    PatternCondition,
    PropertyCompare,
    PropertyComparesProperty,
)
from repro.planner.logical import (
    BindEndpoint,
    EdgeScan,
    EmptyPlan,
    FilterStep,
    FixpointStep,
    JoinStep,
    LogicalPlan,
    NodeScan,
    UnionStep,
)
from repro.planner.rules import split_conjuncts

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.graph.compact import CompactGraph
    from repro.planner.stats import GraphStatistics

_UNSET = object()

#: Comparison operators that can never hold between a property and itself.
_IRREFLEXIVE = frozenset({"<", ">", "!="})


# --------------------------------------------------------------------------- #
# The constant/range lattice
# --------------------------------------------------------------------------- #
class Interval:
    """Abstract value of one ``(variable, key)`` under a conjunction.

    Tracks the tightest lower/upper bound, a required equality, and
    excluded values.  ``empty`` means no runtime value can satisfy every
    constraint — including the cross-type cases: an ordered comparison
    against an incomparable constant raises ``TypeError`` at runtime,
    which the evaluator treats as *false*, so two ordered constraints
    whose constants are mutually incomparable (``x.k > 5 AND x.k < 'a'``)
    admit no value of any type.
    """

    __slots__ = ("lower", "upper", "equals", "excluded", "empty")

    def __init__(self) -> None:
        self.lower: Optional[Tuple[object, bool]] = None  # (value, strict)
        self.upper: Optional[Tuple[object, bool]] = None
        self.equals: object = _UNSET
        self.excluded: List[object] = []
        self.empty = False

    def add(self, operator: str, value: object) -> None:
        if self.empty:
            return
        if operator == "=":
            if self.equals is not _UNSET and not self.equals == value:
                self.empty = True
            else:
                self.equals = value
        elif operator == "!=":
            self.excluded.append(value)
        elif operator in ("<", "<="):
            self._tighten_upper(value, operator == "<")
        elif operator in (">", ">="):
            self._tighten_lower(value, operator == ">")
        self._normalize()

    def _tighten_upper(self, value: object, strict: bool) -> None:
        if self.upper is None:
            self.upper = (value, strict)
            return
        current, current_strict = self.upper
        try:
            if value < current or (value == current and strict):
                self.upper = (value, strict)
        except TypeError:
            self.empty = True

    def _tighten_lower(self, value: object, strict: bool) -> None:
        if self.lower is None:
            self.lower = (value, strict)
            return
        current, current_strict = self.lower
        try:
            if value > current or (value == current and strict):
                self.lower = (value, strict)
        except TypeError:
            self.empty = True

    def _normalize(self) -> None:
        if self.empty:
            return
        try:
            if self.equals is not _UNSET:
                if self.upper is not None:
                    value, strict = self.upper
                    if self.equals > value or (strict and self.equals == value):
                        self.empty = True
                if self.lower is not None:
                    value, strict = self.lower
                    if self.equals < value or (strict and self.equals == value):
                        self.empty = True
                if any(self.equals == excluded for excluded in self.excluded):
                    self.empty = True
            if self.lower is not None and self.upper is not None:
                low, low_strict = self.lower
                high, high_strict = self.upper
                if low > high or (low == high and (low_strict or high_strict)):
                    self.empty = True
        except TypeError:
            # Mixed-type bounds: ordered comparisons against incomparable
            # constants are false for every runtime value (see class doc).
            self.empty = True


def conjunction_satisfiable(conjuncts: List[PatternCondition]) -> bool:
    """Whether a conjunction admits *some* variable assignment.

    Sound but incomplete: ``False`` is a proof of emptiness, ``True``
    merely means no contradiction was found.  Parameter slots are opaque
    (any binding could arrive), negations are not interpreted, and
    disjunctions recurse per arm.
    """
    intervals: dict = {}
    for conjunct in conjuncts:
        if isinstance(conjunct, PropertyCompare):
            if isinstance(conjunct.constant, Parameter):
                continue
            interval = intervals.setdefault((conjunct.var, conjunct.key), Interval())
            interval.add(conjunct.operator, conjunct.constant)
            if interval.empty:
                return False
        elif isinstance(conjunct, PropertyComparesProperty):
            if (
                conjunct.left_var == conjunct.right_var
                and conjunct.left_key == conjunct.right_key
                and conjunct.operator in _IRREFLEXIVE
            ):
                return False
        elif isinstance(conjunct, OrCondition):
            if not (
                condition_satisfiable(conjunct.left)
                or condition_satisfiable(conjunct.right)
            ):
                return False
    return True


def condition_satisfiable(condition: Optional[PatternCondition]) -> bool:
    """Whether a condition tree admits some assignment (see above)."""
    if condition is None:
        return True
    return conjunction_satisfiable(split_conjuncts(condition))


# --------------------------------------------------------------------------- #
# Plan parameters (A011 accounting)
# --------------------------------------------------------------------------- #
def plan_parameters(plan: LogicalPlan) -> FrozenSet[str]:
    """Parameter slot names referenced anywhere in a plan's conditions."""
    names: Set[str] = set()

    def visit(node: LogicalPlan) -> None:
        if isinstance(node, (NodeScan, EdgeScan, FilterStep)):
            condition = node.condition
            if condition is not None:
                names.update(condition.parameters())
        for child in node.children():
            visit(child)

    visit(plan)
    return frozenset(names)


# --------------------------------------------------------------------------- #
# Reachability bounds from CSR degree data
# --------------------------------------------------------------------------- #
def diameter_bound(
    stats: "Optional[GraphStatistics]", graph: "Optional[CompactGraph]"
) -> Optional[int]:
    """Upper bound on the length of any shortest path in the graph.

    With the compact encoding, CSR degree data tightens the bound: every
    node on a shortest path except the last has out-degree >= 1, so the
    path cannot be longer than the number of edge-bearing nodes.  With
    statistics only, ``node_count - 1`` is the classic bound.  ``None``
    when neither source is available.
    """
    if graph is not None:
        offsets = graph.forward_csr[0]
        active = sum(
            1 for index in range(len(offsets) - 1) if offsets[index + 1] > offsets[index]
        )
        return active
    if stats is not None:
        return max(0, stats.node_count - 1)
    return None


def _terminal(plan: LogicalPlan, *, source_side: bool) -> LogicalPlan:
    """The leaf operator contributing a join's shared endpoint.

    Follows the target side of the left operand (``source_side=False``)
    or the source side of the right operand, through the wrappers that
    keep endpoints intact."""
    while True:
        if isinstance(plan, (FilterStep, BindEndpoint)):
            plan = plan.operand
        elif isinstance(plan, JoinStep):
            plan = plan.left if source_side else plan.right
        else:
            return plan


# --------------------------------------------------------------------------- #
# The abstract interpreter
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanDataflow:
    """Everything the dataflow pass learned about one plan."""

    #: The plan with provably-empty subplans replaced by ``EmptyPlan``.
    plan: LogicalPlan
    diagnostics: Tuple[Diagnostic, ...]
    #: The whole plan is provably empty: executing it is pointless.
    statically_empty: bool
    #: Parameter slots that only occurred inside pruned subplans.
    unused_parameters: Tuple[str, ...] = ()


class _PlanInterpreter:
    def __init__(
        self,
        stats: "Optional[GraphStatistics]",
        graph: "Optional[CompactGraph]",
    ) -> None:
        self.stats = stats
        self.graph = graph
        self.diagnostics: List[Diagnostic] = []

    def diag(self, code: str, message: str, hint: Optional[str] = None) -> None:
        self.diagnostics.append(Diagnostic(code, message, hint=hint))

    def _empty(self, plan: LogicalPlan, reason: str) -> EmptyPlan:
        if isinstance(plan, EmptyPlan):
            return plan
        return EmptyPlan(schema=physical_variables(plan), reason=reason)

    # ------------------------------------------------------------------ #
    def prune(self, plan: LogicalPlan) -> LogicalPlan:
        if isinstance(plan, (NodeScan, EdgeScan)):
            return self._prune_scan(plan)
        if isinstance(plan, JoinStep):
            return self._prune_join(plan)
        if isinstance(plan, UnionStep):
            return self._prune_union(plan)
        if isinstance(plan, FilterStep):
            return self._prune_filter(plan)
        if isinstance(plan, BindEndpoint):
            operand = self.prune(plan.operand)
            if isinstance(operand, EmptyPlan):
                return self._empty(plan, operand.reason)
            if operand is plan.operand:
                return plan
            return BindEndpoint(operand, plan.variable, plan.use_source)
        if isinstance(plan, FixpointStep):
            return self._prune_fixpoint(plan)
        return plan

    def _prune_scan(self, plan) -> LogicalPlan:
        stats = self.stats
        if stats is not None:
            on_edges = isinstance(plan, EdgeScan)
            if on_edges and stats.edge_count == 0:
                self.diag(
                    "A014",
                    "the graph has no edges; the pattern's endpoints can "
                    "never be connected",
                    hint="every edge traversal over this graph is empty",
                )
                return self._empty(plan, "edgeless graph: endpoints unreachable")
            for label in sorted(plan.labels):
                carriers = (
                    stats.labeled_edge_count(label)
                    if on_edges
                    else stats.labeled_node_count(label)
                )
                if carriers == 0:
                    kind = "edge" if on_edges else "node"
                    self.diag(
                        "A013",
                        f"label {label!r} matches no {kind} of this graph",
                        hint="the label exists in the schema but has no carriers",
                    )
                    return self._empty(plan, f"no {kind} carries label {label!r}")
        if plan.condition is not None and not condition_satisfiable(plan.condition):
            name = plan.variable or ("edge" if isinstance(plan, EdgeScan) else "node")
            self.diag(
                "A009",
                f"scan condition on {name!r} is contradictory",
                hint="the pushed-down conjuncts admit no property value",
            )
            return self._empty(plan, f"contradictory condition on {name!r}")
        return plan

    def _prune_join(self, plan: JoinStep) -> LogicalPlan:
        left = self.prune(plan.left)
        right = self.prune(plan.right)
        if isinstance(left, EmptyPlan):
            return self._empty(plan, left.reason)
        if isinstance(right, EmptyPlan):
            return self._empty(plan, right.reason)
        left_terminal = _terminal(left, source_side=False)
        right_terminal = _terminal(right, source_side=True)
        if (
            isinstance(left_terminal, FixpointStep)
            and left_terminal.is_unbounded
            and isinstance(right_terminal, FixpointStep)
            and right_terminal.is_unbounded
        ):
            self.diag(
                "A010",
                "two unbounded reachability closures join only on their shared "
                "endpoint; on dense graphs this approaches a cartesian product "
                "of endpoint pairs",
                hint="bound one quantifier or split the query",
            )
        if left is plan.left and right is plan.right:
            return plan
        return JoinStep(left, right)

    def _prune_union(self, plan: UnionStep) -> LogicalPlan:
        left = self.prune(plan.left)
        right = self.prune(plan.right)
        left_empty = isinstance(left, EmptyPlan)
        right_empty = isinstance(right, EmptyPlan)
        if left_empty and right_empty:
            return self._empty(plan, "both union arms are empty")
        if left_empty or right_empty:
            side = "left" if left_empty else "right"
            self.diag(
                "A008",
                f"the {side} union arm can produce no rows",
                hint="every result comes from the other arm",
            )
        if left is plan.left and right is plan.right:
            return plan
        return UnionStep(left, right)

    def _prune_filter(self, plan: FilterStep) -> LogicalPlan:
        operand = self.prune(plan.operand)
        if isinstance(operand, EmptyPlan):
            return self._empty(plan, operand.reason)
        if not condition_satisfiable(plan.condition):
            self.diag(
                "A009",
                "filter condition is contradictory",
                hint="the conjunction admits no property values",
            )
            return self._empty(plan, "contradictory filter")
        if operand is plan.operand:
            return plan
        return FilterStep(operand, plan.condition)

    def _prune_fixpoint(self, plan: FixpointStep) -> LogicalPlan:
        body = self.prune(plan.body)
        bound = diameter_bound(self.stats, self.graph)
        if bound is not None and not plan.is_unbounded and plan.upper > max(bound, 1):
            self.diag(
                "A012",
                f"quantifier upper bound {int(plan.upper)} exceeds the graph "
                f"diameter bound {bound}; iterations beyond it add no pairs",
                hint="use an unbounded quantifier or lower the bound",
            )
        if isinstance(body, EmptyPlan) and plan.lower >= 1:
            # lower == 0 keeps the identity pairs even over an empty body.
            return self._empty(plan, "empty repetition body with lower bound >= 1")
        if body is plan.body:
            return plan
        return FixpointStep(body, plan.lower, plan.upper)


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def analyze_plan(
    plan: LogicalPlan,
    *,
    stats: "Optional[GraphStatistics]" = None,
    graph: "Optional[CompactGraph]" = None,
) -> PlanDataflow:
    """Run the abstract interpreter over one logical plan.

    Returns the pruned plan together with every diagnostic the walk
    produced.  ``stats``/``graph`` sharpen the domains (label carrier
    counts, CSR degree bounds); without them only the stats-free facts
    (range contradictions, structural emptiness propagation) fire.
    """
    interpreter = _PlanInterpreter(stats, graph)
    pruned = interpreter.prune(plan)
    diagnostics = interpreter.diagnostics
    statically_empty = isinstance(pruned, EmptyPlan)
    unused: Tuple[str, ...] = ()
    if statically_empty:
        diagnostics.append(
            Diagnostic(
                "A008",
                f"the query is statically empty: {pruned.reason}",
                hint="it will return zero rows without executing",
            )
        )
    else:
        dropped = sorted(plan_parameters(plan) - plan_parameters(pruned))
        for name in dropped:
            diagnostics.append(
                Diagnostic(
                    "A011",
                    f"parameter :{name} only occurs in a pruned subplan; its "
                    "binding is never consulted",
                    hint="remove the parameter or the contradiction around it",
                )
            )
        unused = tuple(dropped)
    return PlanDataflow(pruned, tuple(diagnostics), statically_empty, unused)


def prune_unsatisfiable(
    plan: LogicalPlan,
    stats: "Optional[GraphStatistics]" = None,
    graph: "Optional[CompactGraph]" = None,
) -> LogicalPlan:
    """Optimizer rewrite: replace provably-empty subplans with
    :class:`EmptyPlan` leaves (diagnostics are the session layer's job;
    the optimizer only wants the transformed plan)."""
    return analyze_plan(plan, stats=stats, graph=graph).plan


__all__ = [
    "Interval",
    "PlanDataflow",
    "analyze_plan",
    "condition_satisfiable",
    "conjunction_satisfiable",
    "diameter_bound",
    "plan_parameters",
    "prune_unsatisfiable",
]
