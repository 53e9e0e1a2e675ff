"""The planned backend: plan-based pattern matching behind the oracle API.

``PlannedEngine`` reuses the relational operators and the view-building
phase of :class:`~repro.pgq.evaluator.PGQEvaluator` unchanged and swaps
only the pattern matcher: graph views are matched by the planner's
:class:`~repro.planner.physical.PlanExecutor` instead of the naive
endpoint evaluator.

* Every materialized view's :class:`~repro.planner.stats.GraphStatistics`
  are collected once and drive the optimizer's join-ordering pass, so
  concatenation chains evaluate their most selective joins first.
* The compiled-plan memo is a :class:`PlanCache` owned by the engine (or
  by the snapshot-cache scope a connection attaches), keyed by the
  statistics fingerprint so equal patterns planned against different
  graphs never alias.
* The view cache inherited from :class:`PGQEvaluator` keeps one
  ``PlanExecutor`` alive per materialized graph, so its sub-plan tables
  persist across a session's repeated queries.
* A view is built **from scans** of the base tables its six sources read
  and from the evaluated relations of the sources that scan no table
  (:mod:`repro.pgq.scans`: one pass per table or relation, conditions
  (1)-(4) as sufficient whole-set tests) whenever they pass; otherwise
  **from relations**, the formal ``(R1, ..., R6)`` → ``pgView`` path the
  naive oracle always takes and the only one that can reject a view
  (:func:`~repro.pgq.scans.view_graph`, the sqlite engine's view
  constructor too).  The executor's operators run on
  the compact integer encoding (dense node/edge IDs, label bitsets,
  property columns — :mod:`repro.graph.compact`), and so do the
  statistics; identifiers are decoded only at output projection.  The
  scans emit that encoding directly, and the view's ``PropertyGraph`` is
  decoded from it only if a row-at-a-time consumer asks (a condition the
  columns cannot answer); the formal path builds the graph and encodes it.

Result sets are identical to the oracle on every query — that is checked
by the cross-engine equivalence tests.

Governance: the physical operators poll the active
:mod:`repro.governance` governor cooperatively — fixpoint rounds and the
closure kernel (``fixpoint.round``), hash-join probe loops
(``join.probe``, which also meter ``max_intermediate``), and output
decode/mask expansion (``stream.decode``) — so deadlines, cross-thread
cancellation, and resource budgets abort a running query within
milliseconds instead of at operator boundaries.  With no budget, token,
or fault plan active, no governor is installed and the checkpoint guards
reduce to a ``None`` test (see ``governance_gate`` in the benchmarks).
"""

from __future__ import annotations

from typing import Optional

from repro.pgq.evaluator import PGQEvaluator
from repro.pgq.scans import view_graph
from repro.planner.physical import PlanCache, PlanCounters, PlanExecutor
from repro.planner.stats import collect_graph_statistics
from repro.relational.database import Database


class PlannedEngine(PGQEvaluator):
    """Planner-backed evaluation: same semantics, physical operators."""

    name = "planned"

    def __init__(
        self,
        database: Database,
        *,
        max_repetitions: Optional[int] = None,
        plan_cache: Optional[PlanCache] = None,
        verify_plans: Optional[bool] = None,
    ):
        super().__init__(database, max_repetitions=max_repetitions)
        private_cache = plan_cache is None
        self._private_plan_cache = private_cache
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.plan_counters = PlanCounters()
        #: Plan-invariant verification (``Database(verify_plans=True)`` /
        #: ``REPRO_VERIFY_PLANS=1``), threaded to every executor.
        self.verify_plans = verify_plans
        # Surface the execution counters through PlanCache.info() so a
        # session can observe encode activity without the harness —
        # only on the engine's own private cache: a user-shared cache
        # serves several engines, and pinning one engine's counters there
        # would misreport the others' work.
        if private_cache:
            self.plan_cache.counters = self.plan_counters

    def use_snapshot_cache(self, scope) -> None:
        """Attach a snapshot-cache scope (see the base hook) and adopt the
        scope's *shared* plan cache.

        The shared cache is keyed on ``(snapshot fingerprint, engine
        kind)``, so every connection's planned engine over one snapshot
        compiles each (parameterized) plan shape once.  An explicitly
        user-supplied ``plan_cache`` is respected and kept; execution
        counters stay per-engine either way (a shared cache serves
        several engines, and pinning one engine's counters there would
        misreport the others' work — ``PlanCache.info()`` of a shared
        cache therefore reports plan statistics only).

        Counter-attribution caveat: the shared view entry carries ONE
        matcher, wired to the counters of the engine that built it cold.
        Sibling connections executing through that warm matcher therefore
        see their work tallied on the builder's ``plan_counters`` (their
        own ``Explain.counters`` stay at zero); per-connection
        observability comes from ``Explain.shared``/``streamed`` and the
        plan-cache statistics instead.
        """
        super().use_snapshot_cache(scope)
        if self._private_plan_cache:
            self.plan_cache = scope.plan_cache()

    def _materialize_view(self, sources, max_arity, span):
        """Build the view's encoding from table scans and evaluated sources
        when the whole-set tests vouch for it, otherwise from the six
        relations (:func:`~repro.pgq.scans.view_graph`) — encoded on the
        cold view path, not mid-query under the executor's encode lock."""
        return view_graph(sources, self.database, max_arity, span, self._eval)

    def _make_matcher(self, graph) -> PlanExecutor:
        return PlanExecutor(
            graph,
            max_repetitions=self.max_repetitions,
            counters=self.plan_counters,
            plan_cache=self.plan_cache,
            graph_stats=collect_graph_statistics(graph),
            verify_plans=self.verify_plans,
        )

    def close(self) -> None:
        """Nothing to release; present for the Engine protocol."""


def make_planned_engine(
    database: Database,
    *,
    max_repetitions: Optional[int] = None,
    plan_cache: Optional[PlanCache] = None,
    verify_plans: Optional[bool] = None,
):
    return PlannedEngine(
        database,
        max_repetitions=max_repetitions,
        plan_cache=plan_cache,
        verify_plans=verify_plans,
    )
