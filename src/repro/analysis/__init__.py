"""Static analysis subsystem: semantic analyzer, dataflow, plan verifier.

* :mod:`repro.analysis.semantic` — resolves labels, properties, graph and
  table names against the catalog schema, infers parameter types and the
  result schema, and rejects ill-formed statements before compilation
  with position-carrying diagnostics;
* :mod:`repro.analysis.schema` — data-sampled property types and the
  DDL diagnostics;
* :mod:`repro.analysis.dataflow` — abstract interpretation over the
  logical plan IR: satisfiability pruning (``prune_unsatisfiable``),
  emptiness/cartesian/quantifier warnings (A008+), and the
  statically-empty verdict the session layer short-circuits on;
* :mod:`repro.analysis.verifier` — checks structural invariants on every
  optimizer rewrite and logical->physical lowering, enabled via
  ``Database(verify_plans=True)`` or ``REPRO_VERIFY_PLANS=1``;
* :mod:`repro.analysis.diagnostics` — the diagnostic record, the
  stable error-code registry with per-code default severities, and the
  analyzer's verdict (``QueryAnalysis``).
"""

from repro.analysis.dataflow import (
    PlanDataflow,
    analyze_plan,
    condition_satisfiable,
    plan_parameters,
    prune_unsatisfiable,
)
from repro.analysis.diagnostics import (
    ERROR_CODES,
    WARNING_CODES,
    Diagnostic,
    default_severity,
    strict_analysis_enabled,
)
from repro.analysis.schema import analyze_ddl
from repro.analysis.semantic import QueryAnalysis, analyze_query
from repro.analysis.verifier import (
    check_plan_sanity,
    condition_atoms,
    contains_empty,
    physical_variables,
    verification_enabled,
    verify_physical_result,
    verify_rewrite,
)

__all__ = [
    "Diagnostic",
    "ERROR_CODES",
    "PlanDataflow",
    "QueryAnalysis",
    "WARNING_CODES",
    "analyze_ddl",
    "analyze_plan",
    "analyze_query",
    "check_plan_sanity",
    "condition_atoms",
    "condition_satisfiable",
    "contains_empty",
    "default_severity",
    "physical_variables",
    "plan_parameters",
    "prune_unsatisfiable",
    "strict_analysis_enabled",
    "verification_enabled",
    "verify_physical_result",
    "verify_rewrite",
]
