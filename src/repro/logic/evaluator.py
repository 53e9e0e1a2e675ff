"""Finite-model evaluation of FO[TC] formulas over a database.

``[[phi(x-bar)]]_D`` is the relation of all tuples over the active domain
that satisfy the formula (Section 6.1).  Quantifiers and negation are
relativized to the active domain, the standard convention for query
languages over ordered structures (Remark 2.1).

The transitive-closure operator is evaluated by materializing, per fixed
parameter tuple, the binary relation on ``k``-tuples defined by the body
and computing its reflexive-transitive closure with a breadth-first
fixpoint.  Closures are cached per (formula, parameters), so repeated
checks (e.g. while enumerating free-variable assignments) are cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import LogicError
from repro.logic.formulas import (
    And,
    ConstantTerm,
    Equals,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
    Term,
    TransitiveClosure,
    Variable,
)
from repro.relational.database import Database
from repro.relational.relation import Relation

#: An assignment maps variable names to domain values.
Assignment = Dict[str, Any]


@dataclass
class LogicCounters:
    """Operation counts of one FO[TC] evaluation."""

    atom_checks: int = 0
    tc_edges_materialized: int = 0
    tc_bfs_steps: int = 0
    assignments_enumerated: int = 0

    def total_operations(self) -> int:
        return (
            self.atom_checks
            + self.tc_edges_materialized
            + self.tc_bfs_steps
            + self.assignments_enumerated
        )


class FOTCEvaluator:
    """Evaluates FO[TC] formulas on one database instance."""

    def __init__(self, database: Database, *, counters: Optional[LogicCounters] = None):
        self.database = database
        self.domain: Tuple[Any, ...] = database.active_domain()
        self.counters = counters if counters is not None else LogicCounters()
        self._tc_cache: Dict[Tuple[Formula, Tuple], Dict[Tuple, Set[Tuple]]] = {}

    # ------------------------------------------------------------------ #
    # Term and formula satisfaction
    # ------------------------------------------------------------------ #
    def _value(self, term: Term, assignment: Assignment) -> Any:
        if isinstance(term, Variable):
            if term.name not in assignment:
                raise LogicError(f"unbound variable {term.name!r} during evaluation")
            return assignment[term.name]
        if isinstance(term, ConstantTerm):
            return term.value
        raise LogicError(f"unknown term {term!r}")

    def satisfies(self, formula: Formula, assignment: Optional[Assignment] = None) -> bool:
        """``D |= formula[assignment]``."""
        assignment = assignment or {}
        return self._sat(formula, assignment)

    def _sat(self, formula: Formula, assignment: Assignment) -> bool:
        if isinstance(formula, RelationAtom):
            self.counters.atom_checks += 1
            relation = self.database.relation(formula.relation)
            row = tuple(self._value(t, assignment) for t in formula.terms)
            if len(row) != relation.arity:
                raise LogicError(
                    f"atom {formula.relation} has {len(row)} terms, relation arity is {relation.arity}"
                )
            return row in relation
        if isinstance(formula, Equals):
            return self._value(formula.left, assignment) == self._value(formula.right, assignment)
        if isinstance(formula, Not):
            return not self._sat(formula.operand, assignment)
        if isinstance(formula, And):
            return self._sat(formula.left, assignment) and self._sat(formula.right, assignment)
        if isinstance(formula, Or):
            return self._sat(formula.left, assignment) or self._sat(formula.right, assignment)
        if isinstance(formula, Exists):
            return self._sat_exists(formula, assignment)
        if isinstance(formula, ForAll):
            return self._sat_forall(formula, assignment)
        if isinstance(formula, TransitiveClosure):
            return self._sat_tc(formula, assignment)
        raise LogicError(f"unknown formula node {formula!r}")

    def _sat_exists(self, formula: Exists, assignment: Assignment) -> bool:
        for values in itertools.product(self.domain, repeat=len(formula.variables)):
            self.counters.assignments_enumerated += 1
            extended = dict(assignment)
            extended.update(zip(formula.variables, values))
            if self._sat(formula.body, extended):
                return True
        return False

    def _sat_forall(self, formula: ForAll, assignment: Assignment) -> bool:
        for values in itertools.product(self.domain, repeat=len(formula.variables)):
            self.counters.assignments_enumerated += 1
            extended = dict(assignment)
            extended.update(zip(formula.variables, values))
            if not self._sat(formula.body, extended):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Transitive closure
    # ------------------------------------------------------------------ #
    def _sat_tc(self, formula: TransitiveClosure, assignment: Assignment) -> bool:
        start = tuple(self._value(t, assignment) for t in formula.start_terms)
        end = tuple(self._value(t, assignment) for t in formula.end_terms)
        if start == end:
            # TC is reflexive (length-0 sequences are allowed).
            return True
        parameters = tuple(
            (name, assignment[name])
            for name in sorted(formula.parameter_variables())
            if name in assignment
        )
        reachable = self._tc_reachability(formula, parameters, assignment)
        return end in reachable.get(start, set())

    def _tc_reachability(
        self,
        formula: TransitiveClosure,
        parameters: Tuple[Tuple[str, Any], ...],
        assignment: Assignment,
    ) -> Dict[Tuple, Set[Tuple]]:
        key = (formula, parameters)
        if key in self._tc_cache:
            return self._tc_cache[key]
        arity = formula.arity
        tuples = list(itertools.product(self.domain, repeat=arity))
        successors: Dict[Tuple, List[Tuple]] = {}
        base_assignment = dict(parameters)
        # Parameters may also include variables bound further out that are
        # not parameters of this TC; keep whatever the assignment provides
        # for the body's free variables other than u-bar/v-bar.
        for name in formula.parameter_variables():
            if name in assignment:
                base_assignment[name] = assignment[name]
        for source in tuples:
            local = dict(base_assignment)
            local.update(zip(formula.source_vars, source))
            outgoing = []
            for target in tuples:
                local_target = dict(local)
                local_target.update(zip(formula.target_vars, target))
                self.counters.tc_edges_materialized += 1
                if self._sat(formula.body, local_target):
                    outgoing.append(target)
            if outgoing:
                successors[source] = outgoing
        reachable: Dict[Tuple, Set[Tuple]] = {}
        for source in tuples:
            seen = {source}
            frontier = [source]
            while frontier:
                next_frontier = []
                for current in frontier:
                    for successor in successors.get(current, ()):
                        self.counters.tc_bfs_steps += 1
                        if successor not in seen:
                            seen.add(successor)
                            next_frontier.append(successor)
                frontier = next_frontier
            reachable[source] = seen
        self._tc_cache[key] = reachable
        return reachable

    # ------------------------------------------------------------------ #
    # Result relations
    # ------------------------------------------------------------------ #
    def result(
        self, formula: Formula, free_variables: Optional[Tuple[str, ...]] = None
    ) -> Relation:
        """``[[phi(x-bar)]]_D``: all satisfying tuples over the active domain.

        ``free_variables`` fixes the column order; by default the free
        variables are taken in sorted order.  A sentence (no free variables)
        yields a 0-ary relation that is non-empty iff the sentence holds.
        """
        if free_variables is None:
            free_variables = tuple(sorted(formula.free_variables()))
        missing = formula.free_variables() - set(free_variables)
        if missing:
            raise LogicError(f"free variables {sorted(missing)} not listed in the output order")
        if not free_variables:
            holds = self.satisfies(formula, {})
            return Relation(0, [()] if holds else [])
        rows = []
        for values in itertools.product(self.domain, repeat=len(free_variables)):
            self.counters.assignments_enumerated += 1
            assignment = dict(zip(free_variables, values))
            if self._sat(formula, assignment):
                rows.append(values)
        return Relation(len(free_variables), rows)


def evaluate_formula(
    formula: Formula,
    database: Database,
    free_variables: Optional[Tuple[str, ...]] = None,
) -> Relation:
    """Convenience wrapper: evaluate a formula on a database."""
    return FOTCEvaluator(database).result(formula, free_variables)


def satisfies(database: Database, formula: Formula, assignment: Optional[Assignment] = None) -> bool:
    """Convenience wrapper: ``D |= formula[assignment]``."""
    return FOTCEvaluator(database).satisfies(formula, assignment)
