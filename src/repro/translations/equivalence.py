"""Semantic-equivalence checks for the two translations.

Theorems 6.1 and 6.2 assert that the translations preserve semantics on
*every* database.  These helpers check the equality ``[[Q]]_D =
[[phi_Q]]_D`` (and the converse direction) on concrete databases; they back
the translation test-suites.  The PGQ side runs on an execution engine
(any registered backend), the FO[TC] side on the engine's database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.logic.algebraic import AlgebraicFOTCEvaluator
from repro.logic.formulas import Formula
from repro.pgq.queries import Query
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.translations.fotc_to_pgq import translate_formula
from repro.translations.pgq_to_fotc import translate_query

if TYPE_CHECKING:
    from repro.engine.registry import Engine


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one equivalence check."""

    equivalent: bool
    original_rows: int
    translated_rows: int
    detail: str = ""


def check_query_translation(query: Query, engine: "Engine") -> EquivalenceReport:
    """Check ``[[Q]]_D = [[tau(Q)]]_D`` for the PGQ -> FO[TC] translation,
    with ``Q`` evaluated by ``engine`` over its database ``D``."""
    database = engine.database
    direct = engine.evaluate(query)
    formula, variables = translate_query(query, database.schema)
    translated = AlgebraicFOTCEvaluator(database).result(formula, variables)
    equivalent = _same_relation(direct, translated)
    return EquivalenceReport(
        equivalent,
        len(direct),
        len(translated),
        "" if equivalent else _difference_detail(direct, translated),
    )


def check_formula_translation(
    formula: Formula,
    engine: "Engine",
    free_variables: Optional[Tuple[str, ...]] = None,
) -> EquivalenceReport:
    """Check ``[[phi]]_D = [[T(phi)]]_D`` for the FO[TC] -> PGQ translation,
    with ``T(phi)`` evaluated by ``engine`` over its database ``D``.

    For sentences the check compares truth values (the translated query is
    unary by convention, non-empty iff true).
    """
    direct = AlgebraicFOTCEvaluator(engine.database).result(formula, free_variables)
    query, variables = translate_formula(formula, free_variables)
    translated = engine.evaluate(query)
    if not variables:
        equivalent = bool(direct) == bool(translated)
        return EquivalenceReport(equivalent, len(direct), len(translated))
    equivalent = _same_relation(direct, translated)
    return EquivalenceReport(
        equivalent,
        len(direct),
        len(translated),
        "" if equivalent else _difference_detail(direct, translated),
    )


def roundtrip_query(query: Query, engine: "Engine") -> bool:
    """PGQ -> FO[TC] -> PGQ round-trip preserves the result: ``engine``
    evaluates both queries over its database."""
    direct = engine.evaluate(query)
    formula, variables = translate_query(query, engine.database.schema)
    back, back_vars = translate_formula(formula, variables)
    translated = engine.evaluate(back)
    if not back_vars:
        return bool(direct) == bool(translated)
    return _same_relation(direct, translated)


def roundtrip_formula(
    formula: Formula,
    database: Database,
    free_variables: Optional[Tuple[str, ...]] = None,
) -> bool:
    """FO[TC] -> PGQ -> FO[TC] round-trip preserves the result on ``database``."""
    direct = AlgebraicFOTCEvaluator(database).result(formula, free_variables)
    query, variables = translate_formula(formula, free_variables)
    back_formula, back_vars = translate_query(query, database.schema)
    translated = AlgebraicFOTCEvaluator(database).result(back_formula, back_vars)
    if not variables:
        return bool(direct) == bool(translated)
    return _same_relation(direct, translated)


def _same_relation(left: Relation, right: Relation) -> bool:
    if len(left) == 0 and len(right) == 0:
        return True
    return left.arity == right.arity and left.rows == right.rows


def _difference_detail(left: Relation, right: Relation) -> str:
    only_left = sorted(left.rows - right.rows, key=repr)[:3]
    only_right = sorted(right.rows - left.rows, key=repr)[:3]
    return f"only in original: {only_left}; only in translation: {only_right}"
