"""Rule-based logical-plan optimizer.

Three rewrite passes, each semantics-preserving under the endpoint
semantics of Figure 2:

1. **Filter pushdown** (:func:`push_down_filters`): a filter condition is
   split into conjuncts and each conjunct is pushed as deep as possible —
   through joins into the side that binds all its variables, through
   unions into both branches (disjunction branches bind equal variable
   sets, Figure 1), and into leaf scans.  A ``HasLabel`` conjunct on a
   scan becomes part of the scan's label set; other single-variable
   conditions become the scan's per-element condition, so they are
   checked once per node/edge instead of once per produced match.

2. **Variable pruning** (:func:`prune_variables`): bindings that no
   enclosing operator consumes (output items, residual filters, shared
   join keys) are dropped from scans.  This shrinks binding tables — in
   particular inside repetition bodies, whose bindings are erased by the
   repetition anyway — without changing the projected result, because
   projection distributes over the set semantics.

3. **Simplification** (:func:`simplify`): joins against unfiltered node
   scans degenerate — unbound scans vanish, bound ones become free
   endpoint bindings (:class:`~repro.planner.logical.BindEndpoint`).

When per-graph statistics are supplied, the **cost-based join ordering**
pass of :mod:`repro.planner.cost` runs between pushdown and pruning: it
re-associates concatenation chains so the most selective joins evaluate
first.  It sits after pushdown (scans must carry their label sets and
conditions to be costed) and before pruning (the pruner derives join keys
from the final tree shape).  Without statistics the optimizer keeps the
lowered left-deep order.

Pushdown through a join is sound because every row of a sub-plan binds
exactly the sub-plan's variable set: if the conjunct's variables are all
bound on one side, its truth value is decided there and filtering early
removes only rows the filter would remove later.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, FrozenSet, List, Optional

from repro.patterns.conditions import AndCondition, HasLabel, PatternCondition
from repro.planner.logical import (
    BindEndpoint,
    EdgeScan,
    FilterStep,
    FixpointStep,
    JoinStep,
    LogicalPlan,
    NodeScan,
    UnionStep,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.planner.stats import GraphStatistics


def optimize(
    plan: LogicalPlan,
    needed: FrozenSet[str],
    stats: "Optional[GraphStatistics]" = None,
    verify: Optional[bool] = None,
) -> LogicalPlan:
    """Run all rewrite passes; ``needed`` are the output-pattern variables.

    ``stats`` enables the cost-based join-ordering pass; ``None`` falls
    back to the purely rule-based pipeline.  ``verify`` turns on the
    per-pass invariant checks of :mod:`repro.analysis.verifier` (``None``
    defers to the ``REPRO_VERIFY_PLANS`` environment variable).
    """
    # Imported lazily, like the cost pass: the verifier is optional
    # tooling and the planner must not depend on it at import time.
    from repro.analysis.verifier import verification_enabled, verify_rewrite

    check = verification_enabled(verify)
    needed = frozenset(needed)

    pushed = push_down_filters(plan)
    if check:
        verify_rewrite("push_down_filters", plan, pushed, needed)
    plan = pushed
    # Satisfiability pruning runs right after pushdown so the scans
    # already carry their label sets and folded conjuncts — that is what
    # the abstract domains interpret.  Without statistics only the
    # stats-free facts (range contradictions, structural emptiness) can
    # prune; label-carrier emptiness needs ``stats``.  may_prune /
    # may_empty: a pruned subplan's variables and filter atoms
    # legitimately vanish with it, replaced by an EmptyPlan leaf.
    from repro.analysis.dataflow import prune_unsatisfiable

    unsat = prune_unsatisfiable(plan, stats)
    if check:
        verify_rewrite(
            "prune_unsatisfiable", plan, unsat, needed, may_prune=True, may_empty=True
        )
    plan = unsat
    if stats is not None:
        from repro.planner.cost import order_joins

        ordered = order_joins(plan, stats)
        if check:
            verify_rewrite("order_joins", plan, ordered, needed)
        plan = ordered
    pruned = prune_variables(plan, needed)
    if check:
        verify_rewrite("prune_variables", plan, pruned, needed, may_prune=True)
    plan = pruned
    simplified = simplify(plan)
    if check:
        verify_rewrite("simplify", plan, simplified, needed)
    return simplified


# --------------------------------------------------------------------------- #
# Pass 1: filter pushdown
# --------------------------------------------------------------------------- #
def split_conjuncts(condition: PatternCondition) -> List[PatternCondition]:
    """Flatten a tree of ``AndCondition`` into its conjuncts."""
    if isinstance(condition, AndCondition):
        return split_conjuncts(condition.left) + split_conjuncts(condition.right)
    return [condition]


def conjoin(conditions: List[PatternCondition]) -> PatternCondition:
    result = conditions[0]
    for condition in conditions[1:]:
        result = AndCondition(result, condition)
    return result


def push_down_filters(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, FilterStep):
        operand = push_down_filters(plan.operand)
        residual: List[PatternCondition] = []
        for conjunct in split_conjuncts(plan.condition):
            pushed = _try_push(operand, conjunct)
            if pushed is None:
                residual.append(conjunct)
            else:
                operand = pushed
        return FilterStep(operand, conjoin(residual)) if residual else operand
    if isinstance(plan, JoinStep):
        return JoinStep(push_down_filters(plan.left), push_down_filters(plan.right))
    if isinstance(plan, UnionStep):
        return UnionStep(push_down_filters(plan.left), push_down_filters(plan.right))
    if isinstance(plan, FixpointStep):
        return FixpointStep(push_down_filters(plan.body), plan.lower, plan.upper)
    return plan


def _absorb_into_scan(scan, conjunct: PatternCondition):
    """Fold a single-variable conjunct into a leaf scan."""
    if isinstance(conjunct, HasLabel):
        return replace(scan, labels=scan.labels | {conjunct.label})
    condition = (
        conjunct if scan.condition is None else AndCondition(scan.condition, conjunct)
    )
    return replace(scan, condition=condition)


def _try_push(plan: LogicalPlan, conjunct: PatternCondition) -> Optional[LogicalPlan]:
    """Push one conjunct into ``plan``; None when it must stay above."""
    variables = conjunct.variables()
    if isinstance(plan, (NodeScan, EdgeScan)):
        if plan.variable is not None and variables == {plan.variable}:
            return _absorb_into_scan(plan, conjunct)
        return None
    if isinstance(plan, JoinStep):
        if variables <= plan.left.variables():
            pushed = _try_push(plan.left, conjunct)
            left = pushed if pushed is not None else FilterStep(plan.left, conjunct)
            return JoinStep(left, plan.right)
        if variables <= plan.right.variables():
            pushed = _try_push(plan.right, conjunct)
            right = pushed if pushed is not None else FilterStep(plan.right, conjunct)
            return JoinStep(plan.left, right)
        return None
    if isinstance(plan, UnionStep):
        if not variables <= plan.variables():
            return None
        sides = []
        for side in (plan.left, plan.right):
            pushed = _try_push(side, conjunct)
            sides.append(pushed if pushed is not None else FilterStep(side, conjunct))
        return UnionStep(sides[0], sides[1])
    if isinstance(plan, FilterStep):
        pushed = _try_push(plan.operand, conjunct)
        if pushed is not None:
            return FilterStep(pushed, plan.condition)
        return None
    # FixpointStep: its body binds no outward-visible variables, so a
    # conjunct can never reference anything inside it.
    return None


# --------------------------------------------------------------------------- #
# Pass 2: variable pruning
# --------------------------------------------------------------------------- #
def prune_variables(plan: LogicalPlan, needed: FrozenSet[str]) -> LogicalPlan:
    if isinstance(plan, (NodeScan, EdgeScan)):
        if plan.variable is not None and plan.variable not in needed and plan.bound:
            return replace(plan, bound=False)
        return plan
    if isinstance(plan, JoinStep):
        # Shared variables are join keys: they stay bound on both sides even
        # when nothing above consumes them.
        shared = plan.left.variables() & plan.right.variables()
        left = prune_variables(plan.left, (needed & plan.left.variables()) | shared)
        right = prune_variables(plan.right, (needed & plan.right.variables()) | shared)
        return JoinStep(left, right)
    if isinstance(plan, UnionStep):
        keep = needed & plan.variables()
        return UnionStep(
            prune_variables(plan.left, keep), prune_variables(plan.right, keep)
        )
    if isinstance(plan, FilterStep):
        return FilterStep(
            prune_variables(plan.operand, needed | plan.condition.variables()),
            plan.condition,
        )
    if isinstance(plan, FixpointStep):
        # Repetition erases bindings: nothing outside the fixpoint can need
        # them, so the body is pruned down to what its own filters consume.
        return FixpointStep(
            prune_variables(plan.body, frozenset()), plan.lower, plan.upper
        )
    return plan


# --------------------------------------------------------------------------- #
# Pass 3: simplification
# --------------------------------------------------------------------------- #
def _is_plain_scan(plan: LogicalPlan) -> bool:
    """An unfiltered node scan produces exactly the identity pair relation
    over ``N``; joining with it never changes the row set because every
    row's endpoints are nodes (src/tgt are total into ``N``, Definition
    2.1) — it can at most *name* an endpoint."""
    return isinstance(plan, NodeScan) and not plan.labels and plan.condition is None


def simplify(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, JoinStep):
        left, right = simplify(plan.left), simplify(plan.right)
        # Joining an unfiltered node scan degenerates: unbound scans vanish,
        # bound ones become a free endpoint binding (unless the variable is
        # shared with the other side, where the join equates occurrences).
        if _is_plain_scan(right) and not (right.variables() & left.variables()):
            if not right.variables():
                return left
            return BindEndpoint(left, right.variable, use_source=False)
        if _is_plain_scan(left) and not (left.variables() & right.variables()):
            if not left.variables():
                return right
            return BindEndpoint(right, left.variable, use_source=True)
        return JoinStep(left, right)
    if isinstance(plan, BindEndpoint):
        return BindEndpoint(simplify(plan.operand), plan.variable, plan.use_source)
    if isinstance(plan, UnionStep):
        return UnionStep(simplify(plan.left), simplify(plan.right))
    if isinstance(plan, FilterStep):
        return FilterStep(simplify(plan.operand), plan.condition)
    if isinstance(plan, FixpointStep):
        # Degenerate bounds (e.g. psi^{1..1}) are NOT collapsed to the
        # body: the fixpoint operator is where the runtime
        # ``max_repetitions`` guard lives, and plans are compiled without
        # knowing the bound.
        return FixpointStep(simplify(plan.body), plan.lower, plan.upper)
    return plan
