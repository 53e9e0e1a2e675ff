"""Plan-invariant verifier for the rule-based optimizer and the executor.

Every optimizer rewrite must be semantics-preserving; this module checks
the *structural* part of that contract after each pass and at the
logical->physical boundary:

* **schema preservation** — the variable set a plan binds is unchanged by
  ``push_down_filters`` / ``order_joins`` / ``simplify``; pruning may only
  drop variables nothing above consumes (``after`` is a subset of
  ``before`` and keeps everything in ``needed``);
* **no dropped filters** — the set of condition atoms (residual filter
  conjuncts, scan conditions, and scan label sets normalized back to
  ``HasLabel`` atoms) survives every rewrite;
* **operator sanity** — union arms both bind every variable consumed
  above the union (asymmetry beyond that is pruning residue the physical
  union projects away), fixpoint bounds satisfy ``0 <= lower <= upper``,
  and filter conditions reference only variables their operand binds;
* **column provenance** — a physical binding table's column map names
  exactly the columns the executor materializes for the plan
  (:func:`physical_variables`) with in-range row indices.

Verification is off by default; it is enabled per database with
``Database(verify_plans=True)`` or globally with ``REPRO_VERIFY_PLANS=1``
(the CI full-suite job runs under the latter).  A violation raises
:class:`~repro.errors.PlanVerificationError` — a raise always means an
optimizer bug, never a user error.
"""

from __future__ import annotations

import os
from typing import FrozenSet, Hashable, Optional, Set, Tuple

from repro.errors import PlanVerificationError
from repro.patterns.conditions import HasLabel
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

_TRUTHY = {"1", "true", "yes", "on"}

#: Physical rows sampled per table for the width/provenance check.
_ROW_SAMPLE_LIMIT = 100


def verification_enabled(flag: Optional[bool] = None) -> bool:
    """Whether plan verification is on: an explicit flag wins, otherwise
    the ``REPRO_VERIFY_PLANS`` environment variable decides."""
    if flag is not None:
        return flag
    return os.environ.get("REPRO_VERIFY_PLANS", "").strip().lower() in _TRUTHY


# --------------------------------------------------------------------------- #
# Condition atoms
# --------------------------------------------------------------------------- #
def condition_atoms(plan: LogicalPlan) -> FrozenSet[Hashable]:
    """Every filter atom a plan applies, wherever a rewrite may have moved it.

    ``HasLabel`` conjuncts and scan label sets are normalized to the same
    ``("label", var, label)`` form because pushdown folds the former into
    the latter; all other conditions are frozen dataclasses over atomic
    constants, so they hash and represent themselves.  Atoms are a *set*:
    pushdown through a union legitimately duplicates a conjunct into both
    arms.
    """
    from repro.planner.rules import split_conjuncts

    atoms: Set[Hashable] = set()

    def add(conjunct) -> None:
        if isinstance(conjunct, HasLabel):
            atoms.add(("label", conjunct.var, conjunct.label))
            return
        atoms.add(conjunct)

    def visit(node: LogicalPlan) -> None:
        if isinstance(node, (NodeScan, EdgeScan)):
            for label in node.labels:
                atoms.add(("label", node.variable, label))
            if node.condition is not None:
                for conjunct in split_conjuncts(node.condition):
                    add(conjunct)
            return
        if isinstance(node, FilterStep):
            for conjunct in split_conjuncts(node.condition):
                add(conjunct)
        for child in node.children():
            visit(child)

    visit(plan)
    return frozenset(atoms)


# --------------------------------------------------------------------------- #
# Per-node structural sanity
# --------------------------------------------------------------------------- #
def physical_variables(plan: LogicalPlan) -> FrozenSet[str]:
    """The column set the executor materializes for a plan.

    Identical to :meth:`~repro.planner.logical.LogicalPlan.variables`
    except at unions: variables bound in only one arm are pruning residue
    (kept for a branch-internal filter), and the physical union operator
    projects both arms to their *overlap* before combining rows.
    """
    if isinstance(plan, UnionStep):
        return physical_variables(plan.left) & physical_variables(plan.right)
    if isinstance(plan, FilterStep):
        return physical_variables(plan.operand)
    if isinstance(plan, BindEndpoint):
        return physical_variables(plan.operand) | {plan.variable}
    if isinstance(plan, FixpointStep):
        return frozenset()
    children = plan.children()
    if children:
        result: FrozenSet[str] = frozenset()
        for child in children:
            result |= physical_variables(child)
        return result
    return plan.variables()


def check_plan_sanity(
    rule: str, plan: LogicalPlan, needed: FrozenSet[str] = frozenset()
) -> None:
    """Operator invariants that must hold for *any* well-formed plan.

    ``needed`` is the variable set the enclosing operators consume — the
    same contract :func:`~repro.planner.rules.prune_variables` descends
    with — so the check tracks which bindings each sub-plan must provide.
    """
    if isinstance(plan, UnionStep):
        common = physical_variables(plan.left) & physical_variables(plan.right)
        required = needed & plan.variables()
        if not required <= common:
            raise PlanVerificationError(
                rule,
                f"union arms do not both bind consumed variables "
                f"{sorted(required - common)} (the union projects to the "
                "arm overlap, losing them)",
            )
        check_plan_sanity(rule, plan.left, required)
        check_plan_sanity(rule, plan.right, required)
        return
    if isinstance(plan, FixpointStep):
        if plan.lower < 0 or plan.lower > plan.upper:
            raise PlanVerificationError(
                rule,
                f"fixpoint bounds {plan.lower}..{plan.upper} violate "
                "0 <= lower <= upper",
            )
        # Repetition erases its body's bindings: nothing above can
        # consume them.
        check_plan_sanity(rule, plan.body, frozenset())
        return
    if isinstance(plan, FilterStep):
        missing = plan.condition.variables() - plan.operand.variables()
        if missing:
            raise PlanVerificationError(
                rule,
                f"filter references variables {sorted(missing)} its operand "
                "does not bind",
            )
        check_plan_sanity(rule, plan.operand, needed | plan.condition.variables())
        return
    if isinstance(plan, BindEndpoint):
        if plan.variable in plan.operand.variables():
            raise PlanVerificationError(
                rule,
                f"endpoint binding shadows variable {plan.variable!r} already "
                "bound by its operand",
            )
        check_plan_sanity(rule, plan.operand, needed - {plan.variable})
        return
    if isinstance(plan, JoinStep):
        shared = plan.left.variables() & plan.right.variables()
        check_plan_sanity(rule, plan.left, (needed | shared) & plan.left.variables())
        check_plan_sanity(rule, plan.right, (needed | shared) & plan.right.variables())
        return
    for child in plan.children():
        check_plan_sanity(rule, child, needed)


# --------------------------------------------------------------------------- #
# Rewrite verification
# --------------------------------------------------------------------------- #
def contains_empty(plan: LogicalPlan) -> bool:
    """Whether a plan contains any :class:`EmptyPlan` leaf."""
    if isinstance(plan, EmptyPlan):
        return True
    return any(contains_empty(child) for child in plan.children())


def verify_rewrite(
    rule: str,
    before: LogicalPlan,
    after: LogicalPlan,
    needed: FrozenSet[str],
    *,
    may_prune: bool = False,
    may_empty: bool = False,
) -> LogicalPlan:
    """Check one logical->logical rewrite; returns ``after`` on success.

    With ``may_prune`` the rewrite may drop variables nothing needs (the
    pruning pass); otherwise the bound variable set must be preserved
    exactly.  Condition atoms must survive every pass — except under
    ``may_empty`` (the satisfiability-pruning pass), where atoms of a
    subplan proved empty legitimately vanish with it; the relaxation only
    applies when the rewritten plan actually carries an ``EmptyPlan``
    leaf standing in for the eliminated subplan.
    """
    before_vars = before.variables()
    after_vars = after.variables()
    if may_prune:
        if not after_vars <= before_vars:
            raise PlanVerificationError(
                rule,
                f"rewrite invented variables {sorted(after_vars - before_vars)}",
            )
        required = needed & before_vars
        if not required <= after_vars:
            raise PlanVerificationError(
                rule,
                f"rewrite dropped needed variables {sorted(required - after_vars)}",
            )
    elif before_vars != after_vars:
        raise PlanVerificationError(
            rule,
            f"rewrite changed the bound variable set {sorted(before_vars)} -> "
            f"{sorted(after_vars)}",
        )
    missing = condition_atoms(before) - condition_atoms(after)
    if missing and not (may_empty and contains_empty(after)):
        raise PlanVerificationError(
            rule, f"rewrite dropped {len(missing)} filter atom(s): {sorted(map(repr, missing))}"
        )
    check_plan_sanity(rule, after, needed)
    return after


# --------------------------------------------------------------------------- #
# Logical -> physical verification
# --------------------------------------------------------------------------- #
def verify_physical_result(plan: LogicalPlan, columns, rows) -> None:
    """Check a physical binding table against its logical plan's schema.

    ``columns`` maps each bound variable to its index in the row tuples
    ``(src, tgt, extras...)``; the map must name exactly the plan's
    variables and every index must be in range for every (sampled) row.
    """
    expected = physical_variables(plan)
    actual = frozenset(columns)
    if actual != expected:
        raise PlanVerificationError(
            "physical lowering",
            f"binding table columns {sorted(actual)} do not match the plan's "
            f"variables {sorted(expected)}",
        )
    indices: Tuple[int, ...] = tuple(columns.values())
    if len(set(indices)) != len(indices):
        raise PlanVerificationError(
            "physical lowering",
            f"binding table maps two variables to one row index: {dict(columns)}",
        )
    checked = 0
    for row in rows:
        if len(row) < 2:
            raise PlanVerificationError(
                "physical lowering",
                f"row {row!r} is narrower than the (src, tgt) endpoint prefix",
            )
        for variable, index in columns.items():
            if not 0 <= index < len(row):
                raise PlanVerificationError(
                    "physical lowering",
                    f"column {variable!r} points at index {index} of a "
                    f"{len(row)}-wide row",
                )
        checked += 1
        if checked >= _ROW_SAMPLE_LIMIT:
            break


__all__ = [
    "check_plan_sanity",
    "condition_atoms",
    "contains_empty",
    "physical_variables",
    "verification_enabled",
    "verify_physical_result",
    "verify_rewrite",
]
