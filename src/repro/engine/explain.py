"""Structured EXPLAIN output.

Owns the :class:`Explain` value object, its text rendering, and
:func:`gather_explain` — how the optimized plan of a statement's front
half and the execution provenance of its connection (engine counters,
plan-cache and prepared-statement accounting, snapshot and
shared-materialization figures) are collected into one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.observability.analyze import OperatorStats
from repro.planner.logical import describe
from repro.planner.rules import optimize

if TYPE_CHECKING:  # pragma: no cover - type hints only (import cycle guard)
    from repro.engine.connection import Connection
    from repro.engine.statement import FrontHalf


@dataclass
class Explain:
    """Structured EXPLAIN output: plan tree plus execution provenance.

    ``plan`` is the optimized logical plan rendering; ``counters`` the
    engine's execution counters (compact encode time — tallied on the
    engine that built each shared matcher cold, so warm sibling
    connections may report zeros here);
    ``cache`` the plan cache statistics including the
    ``prepared_hits``/``prepared_misses`` breakdown, a ``provenance``
    marker (``"shared"`` for snapshot-scoped caches, ``"private"`` for
    engine-owned ones) and ``session_*`` counters that accumulate across
    ``use_engine`` backend swaps instead of silently resetting with the
    engine (measured from the connection's attach-time baseline, so on a
    *shared* cache they cover the cache activity this connection
    observed — concurrent sibling connections' hits included);
    ``prepared`` the connection's prepared-statement accounting.
    ``snapshot`` is the content fingerprint of the snapshot the
    connection reads, ``shared`` the snapshot cache's build/hit figures
    (cold view materializations, shared hits, compact encodings), and
    ``streamed`` how many results this connection served through the
    streaming projection path.  ``str(explain)`` renders the classic text
    form, and substring membership tests work directly on the object.
    """

    plan: str
    counters: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    prepared: Dict[str, int] = field(default_factory=dict)
    snapshot: str = ""
    shared: Dict[str, int] = field(default_factory=dict)
    streamed: int = 0
    #: Per-operator execution profile (wall time, rows, memo hits), set
    #: by :meth:`Connection.explain_analyze` and rendered as an indented
    #: tree by ``str(explain)``.
    analyze: Optional[OperatorStats] = None
    #: Semantic-analyzer notes for the statement — today the inferred
    #: ``:name`` parameter types — rendered as an ``-- analyzer:`` line.
    #: Empty when the statement declares no parameters or the connection
    #: was opened with ``analyze=False``.
    diagnostics: Tuple[str, ...] = ()
    #: Structured analysis diagnostics (code, severity, position): the
    #: semantic analyzer's findings merged with the plan-level dataflow
    #: warnings (A008+).  A statement that *prepares* can still carry
    #: warning-severity entries here.
    analysis: Tuple[Diagnostic, ...] = ()
    #: Inferred result schema: ``(column name, type)`` per output column,
    #: from the analyzer's type lattice plus ``node id`` / ``edge id``
    #: for identifier outputs.  Empty with ``analyze=False``.
    schema: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        text = self.plan
        if self.counters:
            text += (
                "\n-- engine counters: "
                f"compact_encode_s={self.counters.get('compact_encode_s', 0.0):.6f}"
            )
        if self.cache:
            text += (
                f"\n-- plan cache: hits={self.cache.get('hits', 0)} "
                f"misses={self.cache.get('misses', 0)} "
                f"prepared_hits={self.cache.get('prepared_hits', 0)} "
                f"size={self.cache.get('size', 0)} "
                f"provenance={self.cache.get('provenance', 'private')}"
            )
        if self.prepared:
            text += (
                f"\n-- prepared statements: statements={self.prepared.get('statements', 0)} "
                f"executions={self.prepared.get('executions', 0)} "
                f"binding_reuse={self.prepared.get('binding_reuse', 0)}"
            )
        if self.snapshot or self.shared or self.streamed:
            shared_hits = sum(
                count for key, count in self.shared.items() if key.endswith("_shared_hits")
            )
            text += (
                f"\n-- snapshot: {self.snapshot[:12] if self.snapshot else '-'} "
                f"shared_hits={shared_hits} "
                f"views_built={self.shared.get('views_built', 0)} "
                f"streamed={self.streamed}"
            )
        if self.schema:
            text += "\n-- schema: " + ", ".join(
                f"{name} {kind}" for name, kind in self.schema
            )
        if self.diagnostics:
            text += "\n-- analyzer: " + "; ".join(self.diagnostics)
        for diagnostic in self.analysis:
            text += "\n-- " + diagnostic.render()
        if self.analyze is not None:
            text += "\n-- EXPLAIN ANALYZE\n" + self.analyze.render()
        return text

    def __contains__(self, item: str) -> bool:
        return item in str(self)



def gather_explain(connection: "Connection", front: "FrontHalf") -> Explain:
    """The :class:`Explain` of ``front`` as ``connection`` sees it now."""
    notes = tuple(
        f"parameter :{name} inferred {kind}"
        for name, kind in sorted(front.parameter_types.items())
    )
    # Only this rendering needs the optimized plan, so the rewrite rules
    # run here rather than in the front half.
    needed = frozenset(front.query.output.output_variables())
    plan_text = describe(optimize(front.logical, needed))
    counters: Dict[str, float] = {}
    cache: Dict[str, float] = {}
    engine = connection._engine
    engine_counters = getattr(engine, "plan_counters", None)
    if engine_counters is not None:
        counters = {"compact_encode_s": engine_counters.compact_encode_s}
    plan_cache = getattr(engine, "plan_cache", None) if engine is not None else None
    if plan_cache is not None:
        cache = dict(plan_cache.info())
        cache["provenance"] = (
            "shared" if getattr(plan_cache, "shared", False) else "private"
        )
    retired = connection._retired_cache
    if cache or retired:
        baseline = connection._cache_baseline
        for key in ("hits", "misses", "prepared_hits", "prepared_misses"):
            live = int(cache.get(key, 0)) - int(baseline.get(key, 0))
            cache["session_" + key] = retired.get(key, 0) + max(live, 0)
    prepared = {
        "statements": connection._prepared_statements
        + len(connection._sugar_texts_seen)
        + connection._sugar_texts_overflow,
        "executions": connection._prepared_executions,
        "binding_reuse": connection._prepared_reuse,
    }
    snapshot = connection.snapshot
    return Explain(
        plan_text,
        counters,
        cache,
        prepared,
        snapshot=snapshot.fingerprint,
        shared=snapshot.cache.stats(),
        streamed=connection._live_streams.served,
        diagnostics=notes,
        analysis=front.diagnostics,
        schema=front.result_schema,
    )
