"""The naive backend: the formal evaluator as a registered engine.

``NaiveEngine`` is :class:`~repro.pgq.evaluator.PGQEvaluator` wearing the
:class:`~repro.engine.registry.Engine` protocol.  It exists as its own
backend for two reasons: it is the **semantics oracle** — the direct
implementation of Figures 2 and 4 of the paper that every optimized
backend is tested against — and it is the baseline the planner benchmarks
measure speedups from.

Governance: evaluation polls the active :mod:`repro.governance` governor
from the pattern-enumeration loop (site ``oracle.enumerate`` in
:mod:`repro.matching.endpoint`), so deadlines, cancellation, and budget
limits interrupt even this backend's exhaustive enumeration mid-query.
"""

from __future__ import annotations

from typing import Optional

from repro.pgq.evaluator import PGQEvaluator
from repro.relational.database import Database


class NaiveEngine(PGQEvaluator):
    """Set-at-a-time evaluation straight from the paper's semantics.

    The constructor is inherited unchanged from :class:`PGQEvaluator`
    (``database``, ``max_repetitions``); the subclass only contributes the
    Engine-protocol surface.  Prepared statements substitute their
    bindings *eagerly* (the inherited
    ``prepare``/``evaluate(query, bindings=...)`` path): every execution
    is an ordinary one-shot evaluation of the literal-substituted query,
    which keeps this backend the semantics oracle the optimized engines'
    deferred-binding paths are property-tested against.
    """

    name = "naive"

    def close(self) -> None:
        """Nothing to release; present for the Engine protocol."""


def make_naive_engine(
    database: Database,
    *,
    max_repetitions: Optional[int] = None,
    verify_plans: Optional[bool] = None,
):
    # ``verify_plans`` is a database-level setting every backend is handed;
    # this one compiles no plans to verify.
    return NaiveEngine(database, max_repetitions=max_repetitions)
