"""Position-carrying diagnostics for the static analysis subsystem.

Every analyzer rejection is a :class:`Diagnostic` with a stable error
code, a message, the source span of the offending construct, and (where
the fix is mechanical) a hint.  Diagnostics render deterministically so
tests can pin them in a golden file; the codes themselves are documented
in :data:`ERROR_CODES` (mirrored in the README's error-code table).
A :class:`QueryAnalysis` is the semantic analyzer's verdict on one
statement: its diagnostics and the types it inferred.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.errors import AnalysisError, PGQAnalysisError

#: Stable error codes raised by the semantic analyzer.  Codes are part of
#: the public surface (tests and downstream tooling match on them): never
#: renumber, only append.
ERROR_CODES: Mapping[str, str] = {
    "A001": "unknown graph or table name",
    "A002": "unknown label",
    "A003": "unknown property key or column",
    "A004": "unbound variable",
    "A005": "arity mismatch",
    "A006": "parameter type conflict",
    "A007": "never-satisfiable predicate",
    # A008+ are produced by the plan-level abstract interpreter
    # (repro.analysis.dataflow), not the front-end semantic analyzer.
    # They default to "warning" severity: the query is well-formed, the
    # dataflow pass merely proved something suspicious about what it can
    # return.  ``strict_analysis`` promotes them to errors.
    "A008": "statically-empty subplan",
    "A009": "contradictory predicate",
    "A010": "cartesian product between pattern variables",
    "A011": "unused parameter binding",
    "A012": "quantifier bound exceeds graph diameter",
    "A013": "label matches no graph element",
    "A014": "provably unreachable pattern endpoints",
}

#: Codes whose findings default to ``warning`` severity (the dataflow
#: codes): the statement still prepares and executes unless
#: ``strict_analysis`` promotes them.  A001–A007 stay hard errors.
WARNING_CODES = frozenset(
    {"A008", "A009", "A010", "A011", "A012", "A013", "A014"}
)

#: The two diagnostic severities, in increasing order of gravity.
SEVERITIES = ("warning", "error")


def default_severity(code: str) -> str:
    """The severity a diagnostic of ``code`` carries unless overridden."""
    return "warning" if code in WARNING_CODES else "error"


_TRUTHY = {"1", "true", "yes", "on"}


def strict_analysis_enabled(flag: Optional[bool] = None) -> bool:
    """Whether analyzer warnings are promoted to hard failures: an
    explicit flag (``Database(strict_analysis=...)`` /
    ``connect(strict_analysis=...)``) wins, otherwise the
    ``REPRO_STRICT_ANALYSIS`` environment variable decides — the same
    contract as :func:`repro.analysis.verifier.verification_enabled`."""
    if flag is not None:
        return flag
    return os.environ.get("REPRO_STRICT_ANALYSIS", "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding: code, message, source span, optional hint.

    ``severity`` defaults per code (A001–A007 are errors, the dataflow
    codes A008–A014 are warnings) and is carried structurally — the
    rendered text is unchanged for error-severity findings so the golden
    diagnostics stay stable.
    """

    code: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None
    hint: Optional[str] = None
    severity: str = ""

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", default_severity(self.code))
        elif self.severity not in SEVERITIES:
            raise ValueError(f"unknown diagnostic severity {self.severity!r}")

    @property
    def span(self) -> Optional[Tuple[int, int]]:
        """``(line, column)`` of the offending construct, when known."""
        if self.line is None:
            return None
        return (self.line, self.column if self.column is not None else 1)

    def render(self) -> str:
        location = ""
        if self.line is not None:
            location = f" at line {self.line}"
            if self.column is not None:
                location += f", column {self.column}"
        prefix = "warning " if self.severity == "warning" else ""
        text = f"{prefix}{self.code}: {self.message}{location}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def __str__(self) -> str:
        return self.render()

    def to_payload(self) -> dict:
        """JSON-ready structured form (service dry-run, Explain payloads)."""
        payload = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.line is not None:
            payload["line"] = self.line
        if self.column is not None:
            payload["column"] = self.column
        if self.hint:
            payload["hint"] = self.hint
        return payload


@dataclass(frozen=True)
class QueryAnalysis:
    """The analyzer's verdict on one query statement."""

    diagnostics: Tuple[Diagnostic, ...] = ()
    #: ``:name`` -> inferred type ("number" | "string" | "any").
    parameter_types: Mapping[str, str] = field(default_factory=dict)
    #: Inferred result schema: ``(column name, type)`` per output column,
    #: in projection order.  Types are the flat value lattice plus
    #: ``"node id"`` / ``"edge id"`` for identifier outputs.
    result_schema: Tuple[Tuple[str, str], ...] = ()

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self, *, strict: bool = False) -> "QueryAnalysis":
        """Raise on error diagnostics; under ``strict`` also promote
        warning-severity findings to :class:`PGQAnalysisError`."""
        errors = self.errors
        if errors:
            raise AnalysisError(errors)
        if strict and self.diagnostics:
            raise PGQAnalysisError(self.diagnostics)
        return self

    def merged(self, extra: Tuple[Diagnostic, ...]) -> "QueryAnalysis":
        """This analysis with ``extra`` diagnostics appended (plan-level
        dataflow findings attach to the front-end verdict this way)."""
        if not extra:
            return self
        return QueryAnalysis(
            self.diagnostics + tuple(extra),
            dict(self.parameter_types),
            self.result_schema,
        )


__all__ = [
    "Diagnostic",
    "ERROR_CODES",
    "QueryAnalysis",
    "SEVERITIES",
    "WARNING_CODES",
    "default_severity",
]
