"""Exception hierarchy for the repro package.

Every subsystem raises exceptions rooted at :class:`ReproError` so callers can
catch problems coming from this library without catching unrelated failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised when a property graph is constructed inconsistently."""


class SchemaError(ReproError):
    """Raised when a relation or database violates its declared schema."""


class ArityError(SchemaError):
    """Raised when a tuple or identifier has the wrong arity."""


class ViewError(ReproError):
    """Raised when relations do not satisfy the property-graph-view conditions.

    The conditions are (1)-(4) of Definition 3.1 / 5.1 of the paper:
    disjoint node/edge identifier relations, functional source/target
    relations into the node set, label relation over graph elements, and a
    property relation that encodes a partial function.
    """


class PatternError(ReproError):
    """Raised when a pattern or output pattern is syntactically invalid."""


class QueryError(ReproError):
    """Raised when a PGQ query is ill-formed or evaluated incorrectly."""


class FragmentError(QueryError):
    """Raised when a query does not belong to the fragment it is used as."""


class LogicError(ReproError):
    """Raised when an FO[TC] formula is ill-formed or cannot be evaluated."""


class TranslationError(ReproError):
    """Raised when a PGQ <-> FO[TC] translation cannot be produced."""


class ParseError(ReproError):
    """Raised by the SQL/PGQ lexer and parser on malformed input."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        # Multi-line messages carry a source excerpt with a caret; the
        # location suffix attaches to the first line so the caret stays
        # aligned under the offending column.
        head, newline, tail = message.partition("\n")
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{head}{location}{newline}{tail}")
        self.line = line
        self.column = column


class AnalysisError(QueryError):
    """Raised by the semantic analyzer with position-carrying diagnostics.

    Subclasses :class:`QueryError` so existing callers catching query
    problems also see analysis rejections.  ``diagnostics`` holds every
    :class:`repro.analysis.diagnostics.Diagnostic` found (not just the
    first); the message renders them all.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        if not self.diagnostics:
            raise ValueError("AnalysisError requires at least one diagnostic")
        super().__init__("\n".join(d.render() for d in self.diagnostics))


class PGQAnalysisError(AnalysisError):
    """Analyzer *warnings* promoted to a hard failure by strict mode.

    Raised instead of plain :class:`AnalysisError` when
    ``Database(strict_analysis=True)`` (or ``REPRO_STRICT_ANALYSIS=1``)
    promotes warning-severity dataflow diagnostics (codes A008–A014) to
    errors.  Kept as a distinct subclass so callers can opt into strict
    mode and still distinguish "your query is wrong" (plain
    ``AnalysisError``) from "your query is suspicious" (this class).
    """


class AnalysisSchemaError(AnalysisError, SchemaError):
    """Analyzer rejection of DDL that violates the catalog schema.

    DDL problems (unknown source table, unknown key column, mixed key
    arities) historically raise :class:`SchemaError`; the analyzer keeps
    that contract while attaching its structured diagnostics, so both
    ``except SchemaError`` and ``except AnalysisError`` continue to work.
    """


class PlanVerificationError(LogicError):
    """Raised when a plan rewrite or lowering violates a planner invariant.

    Only raised with verification enabled (``Database(verify_plans=True)``
    or ``REPRO_VERIFY_PLANS=1``); a raise means an optimizer rule produced
    a plan that is not equivalent to its input.
    """

    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(f"plan verification failed after {rule}: {message}")


class EngineError(ReproError):
    """Raised by execution engines (in-memory session or SQLite backend)."""


class GovernanceError(EngineError):
    """Base of the query-lifecycle governance hierarchy.

    Every governance rejection — deadline, cancellation, resource budget,
    admission — carries ``progress``: a small dict of partial-progress
    counters (checkpoints fired per site, intermediate tuples counted,
    elapsed seconds) captured at the moment the query was stopped, so
    callers and operators can see how far the query got.
    """

    def __init__(self, message: str, *, progress=None):
        super().__init__(message)
        self.progress = dict(progress) if progress else {}


class QueryTimeoutError(GovernanceError):
    """A query exceeded its wall-clock deadline and was stopped at a
    cooperative checkpoint (or by the SQLite progress handler)."""


class QueryCancelledError(GovernanceError):
    """A query was cancelled through its :class:`CancellationToken`
    (``QueryResult.cancel()``, an explicit token, or a parent token)."""

    def __init__(self, message: str, *, reason: str = "cancelled", progress=None):
        super().__init__(message, progress=progress)
        self.reason = reason


class ResourceExhaustedError(GovernanceError):
    """A query exceeded a :class:`QueryBudget` resource limit (maximum
    output rows, or maximum intermediate tuples / mask bits)."""


class AdmissionTimeoutError(GovernanceError):
    """A query could not be admitted: the ``max_concurrent_queries``
    semaphore stayed full past the admission timeout, or the bounded
    wait queue overflowed."""


class FaultInjectedError(GovernanceError):
    """Raised by the deterministic fault-injection harness
    (:mod:`repro.governance.faults`) when a checkpoint hits its scripted
    failure — only ever seen in chaos tests, never in production paths."""


class ConnectionClosedError(EngineError):
    """An operation was attempted on a closed ``Connection``/``Database``
    (or on a ``QueryResult`` whose connection closed under it).  Carries
    the close site's reason so the error names *why* the handle is gone."""

    def __init__(self, message: str, *, reason: str = "closed"):
        super().__init__(f"{message} ({reason})")
        self.reason = reason


class BindingError(QueryError):
    """Raised when a parameterized query is executed with missing bindings,
    or when an unbound :class:`~repro.parameters.Parameter` slot reaches
    evaluation (e.g. a bare matcher fed a parameterized condition)."""
