"""Bottom-up ("algebraic") evaluation of FO[TC] formulas: the FO[TC]
oracle of every translation check (Theorems 6.1 / 6.2).

Checking one assignment at a time is exponential in the number of nested
quantifiers, and the formulas produced by the PGQ -> FO[TC] translation
(Theorem 6.1) are deeply quantified, so evaluation is relation-at-a-time:
every subformula is evaluated to the relation of its satisfying
assignments over the active domain, quantifiers become projections,
conjunction becomes a join, and negation becomes a complement relative to
``adom^k``.  The module imports only the logic and relational layers, so
it stays independent of the engines and translations it judges.

Transitive closure is evaluated by grouping the body relation by its
parameter columns and running a breadth-first reachability fixpoint over
``k``-tuples per group, which keeps the whole evaluation inside NL data
complexity (the point of Corollary 6.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

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


@dataclass
class _Rel:
    """A set of satisfying assignments: named columns plus a row set."""

    columns: Tuple[str, ...]
    rows: Set[Tuple[Any, ...]]

    @property
    def is_boolean(self) -> bool:
        return not self.columns


class AlgebraicFOTCEvaluator:
    """Relation-at-a-time FO[TC] evaluation over one database."""

    def __init__(self, database: Database):
        self.database = database
        self.domain: Tuple[Any, ...] = database.active_domain()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def result(
        self, formula: Formula, free_variables: Optional[Tuple[str, ...]] = None
    ) -> Relation:
        """``[[phi(x-bar)]]_D`` with the given output column order."""
        if free_variables is None:
            free_variables = tuple(sorted(formula.free_variables()))
        missing = formula.free_variables() - set(free_variables)
        if missing:
            raise LogicError(f"free variables {sorted(missing)} not listed in the output order")
        rel = self._eval(formula)
        aligned = self._align(rel, tuple(free_variables))
        if not free_variables:
            return Relation(0, [()] if aligned.rows else [])
        return Relation(len(free_variables), aligned.rows)

    def satisfies(self, formula: Formula, assignment: Optional[Dict[str, Any]] = None) -> bool:
        """``D |= formula[assignment]`` via the bottom-up relation."""
        assignment = assignment or {}
        free = tuple(sorted(formula.free_variables()))
        unbound = [name for name in free if name not in assignment]
        if unbound:
            raise LogicError(f"unbound variables {unbound} in satisfaction check")
        rel = self._eval(formula)
        aligned = self._align(rel, free)
        if not free:
            return bool(aligned.rows)
        return tuple(assignment[name] for name in free) in aligned.rows

    # ------------------------------------------------------------------ #
    # Alignment helpers
    # ------------------------------------------------------------------ #
    def _align(self, rel: _Rel, target: Tuple[str, ...]) -> _Rel:
        """Extend with unconstrained active-domain columns and reorder."""
        if rel.columns == target:
            return rel
        missing = [name for name in target if name not in rel.columns]
        columns = rel.columns
        rows = rel.rows
        for name in missing:
            rows = {row + (value,) for row in rows for value in self.domain}
            columns = columns + (name,)
        extra = [name for name in columns if name not in target]
        if extra:
            raise LogicError(f"cannot align: columns {extra} are not part of the target {target}")
        index = [columns.index(name) for name in target]
        return _Rel(tuple(target), {tuple(row[i] for i in index) for row in rows})

    # ------------------------------------------------------------------ #
    # Formula cases
    # ------------------------------------------------------------------ #
    def _eval(self, formula: Formula) -> _Rel:
        if isinstance(formula, RelationAtom):
            return self._atom(formula)
        if isinstance(formula, Equals):
            return self._equality(formula)
        if isinstance(formula, Not):
            return self._negation(formula)
        if isinstance(formula, And):
            return self._join(self._eval(formula.left), self._eval(formula.right))
        if isinstance(formula, Or):
            return self._union(self._eval(formula.left), self._eval(formula.right))
        if isinstance(formula, Exists):
            return self._exists(formula)
        if isinstance(formula, ForAll):
            return self._eval(Not(Exists(formula.variables, Not(formula.body))))
        if isinstance(formula, TransitiveClosure):
            return self._transitive_closure(formula)
        raise LogicError(f"unknown formula node {formula!r}")

    def _constrain(self, columns_per_position: Sequence[Term], rows: Set[Tuple]) -> _Rel:
        """Filter rows by constant / repeated-variable constraints and project."""
        first_position: Dict[str, int] = {}
        checks: List[Tuple[int, Any]] = []
        equalities: List[Tuple[int, int]] = []
        for index, term_obj in enumerate(columns_per_position):
            if isinstance(term_obj, ConstantTerm):
                checks.append((index, term_obj.value))
            elif isinstance(term_obj, Variable):
                if term_obj.name in first_position:
                    equalities.append((first_position[term_obj.name], index))
                else:
                    first_position[term_obj.name] = index
            else:
                raise LogicError(f"unknown term {term_obj!r}")
        kept = {
            row
            for row in rows
            if all(row[i] == value for i, value in checks)
            and all(row[i] == row[j] for i, j in equalities)
        }
        columns = tuple(sorted(first_position, key=lambda name: first_position[name]))
        if not columns:
            return _Rel((), {()} if kept else set())
        indices = [first_position[name] for name in columns]
        return _Rel(columns, {tuple(row[i] for i in indices) for row in kept})

    def _atom(self, formula: RelationAtom) -> _Rel:
        relation = self.database.relation(formula.relation)
        if len(formula.terms) != relation.arity:
            raise LogicError(
                f"atom {formula.relation} has {len(formula.terms)} terms, "
                f"relation arity is {relation.arity}"
            )
        return self._constrain(formula.terms, set(relation.rows))

    def _equality(self, formula: Equals) -> _Rel:
        left, right = formula.left, formula.right
        if isinstance(left, ConstantTerm) and isinstance(right, ConstantTerm):
            return _Rel((), {()} if left.value == right.value else set())
        if isinstance(left, Variable) and isinstance(right, Variable):
            if left.name == right.name:
                return _Rel((left.name,), {(value,) for value in self.domain})
            return _Rel((left.name, right.name), {(value, value) for value in self.domain})
        variable, constant = (left, right) if isinstance(left, Variable) else (right, left)
        assert isinstance(variable, Variable) and isinstance(constant, ConstantTerm)
        rows = {(constant.value,)} if constant.value in set(self.domain) else set()
        return _Rel((variable.name,), rows)

    def _join(self, left: _Rel, right: _Rel) -> _Rel:
        if left.is_boolean:
            return right if left.rows else _Rel(right.columns, set())
        if right.is_boolean:
            return left if right.rows else _Rel(left.columns, set())
        shared = [name for name in right.columns if name in left.columns]
        left_key = [left.columns.index(name) for name in shared]
        right_key = [right.columns.index(name) for name in shared]
        right_extra = [i for i, name in enumerate(right.columns) if name not in left.columns]
        index: Dict[Tuple, List[Tuple]] = {}
        for row in right.rows:
            key = tuple(row[i] for i in right_key)
            index.setdefault(key, []).append(tuple(row[i] for i in right_extra))
        columns = left.columns + tuple(right.columns[i] for i in right_extra)
        rows = set()
        for row in left.rows:
            key = tuple(row[i] for i in left_key)
            for extension in index.get(key, ()):
                rows.add(row + extension)
        return _Rel(columns, rows)

    def _union(self, left: _Rel, right: _Rel) -> _Rel:
        target = tuple(sorted(set(left.columns) | set(right.columns)))
        left_aligned = self._align(left, target)
        right_aligned = self._align(right, target)
        return _Rel(target, left_aligned.rows | right_aligned.rows)

    def _negation(self, formula: Not) -> _Rel:
        inner = self._eval(formula.operand)
        columns = tuple(sorted(formula.operand.free_variables()))
        aligned = self._align(inner, columns)
        if not columns:
            return _Rel((), set() if aligned.rows else {()})
        universe = set(itertools.product(self.domain, repeat=len(columns)))
        return _Rel(columns, universe - aligned.rows)

    def _exists(self, formula: Exists) -> _Rel:
        inner = self._eval(formula.body)
        bound = set(formula.variables)
        remaining = tuple(name for name in inner.columns if name not in bound)
        if remaining == inner.columns:
            return inner
        indices = [inner.columns.index(name) for name in remaining]
        rows = {tuple(row[i] for i in indices) for row in inner.rows}
        if not remaining:
            return _Rel((), {()} if rows else set())
        return _Rel(remaining, rows)

    # ------------------------------------------------------------------ #
    # Transitive closure
    # ------------------------------------------------------------------ #
    def _transitive_closure(self, formula: TransitiveClosure) -> _Rel:
        k = formula.arity
        parameters = tuple(sorted(formula.parameter_variables()))
        body = self._eval(formula.body)
        columns = formula.source_vars + formula.target_vars + parameters
        aligned = self._align(body, columns)

        # Group the body pairs by parameter values and compute, per group,
        # the set of pairs connected by a non-empty path.
        groups: Dict[Tuple, Dict[Tuple, Set[Tuple]]] = {}
        for row in aligned.rows:
            source = row[:k]
            target = row[k : 2 * k]
            params = row[2 * k :]
            groups.setdefault(params, {}).setdefault(source, set()).add(target)

        positive: Set[Tuple] = set()
        for params, adjacency in groups.items():
            reachable = self._closure(adjacency)
            for source, targets in reachable.items():
                for target in targets:
                    positive.add(source + target + params)

        # The closure is reflexive on every tuple over the active domain,
        # for every parameter assignment.
        param_universe = list(itertools.product(self.domain, repeat=len(parameters)))
        reflexive = {
            tup + tup + params
            for tup in itertools.product(self.domain, repeat=k)
            for params in param_universe
        }

        rows = positive | reflexive
        terms = (
            tuple(formula.start_terms)
            + tuple(formula.end_terms)
            + tuple(Variable(name) for name in parameters)
        )
        return self._constrain(terms, rows)

    @staticmethod
    def _closure(adjacency: Dict[Tuple, Set[Tuple]]) -> Dict[Tuple, Set[Tuple]]:
        """Reachability by at least one edge, from every source in the graph."""
        nodes = set(adjacency)
        for targets in adjacency.values():
            nodes.update(targets)
        reachable: Dict[Tuple, Set[Tuple]] = {}
        for start in nodes:
            seen: Set[Tuple] = set()
            frontier = list(adjacency.get(start, ()))
            seen.update(frontier)
            while frontier:
                next_frontier = []
                for node in frontier:
                    for successor in adjacency.get(node, ()):
                        if successor not in seen:
                            seen.add(successor)
                            next_frontier.append(successor)
                frontier = next_frontier
            reachable[start] = seen
        return reachable


def evaluate_formula_algebraic(
    formula: Formula,
    database: Database,
    free_variables: Optional[Tuple[str, ...]] = None,
) -> Relation:
    """Convenience wrapper around :class:`AlgebraicFOTCEvaluator`."""
    return AlgebraicFOTCEvaluator(database).result(formula, free_variables)
