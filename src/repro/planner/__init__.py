"""Query planner: logical plan IR, rewrite rules, physical execution.

The planner is the layer between the surface/formal query languages and
the execution backends:

* :mod:`repro.planner.logical` — the plan IR and pattern lowering;
* :mod:`repro.planner.rules` — the rule-based optimizer (filter and
  label pushdown, variable pruning, repetition rewriting);
* :mod:`repro.planner.stats` — per-graph statistics collection;
* :mod:`repro.planner.cost` — the cardinality model and the cost-based
  join-ordering pass driven by those statistics;
* :mod:`repro.planner.physical` — int-column execution (hash joins, the
  bitmask repetition fixpoint), the compiled-plan memo and
  :func:`compile_plan`, the one lower-and-optimize step, which the SQLite
  backend calls too before lowering the plan to SQL;
* :mod:`repro.planner.decode` — output decode and projection: binding
  tables to row sets, or to row batches in result order for cursors.

The :class:`~repro.planner.physical.PlanExecutor` plugs into
:class:`~repro.pgq.evaluator.PGQEvaluator` through the matcher oracle
interface, which is how :class:`~repro.engine.planned.PlannedEngine`
reuses the relational and view-building layers unchanged.
"""

from repro.planner.logical import (
    BindEndpoint,
    EdgeScan,
    FilterStep,
    FixpointStep,
    JoinStep,
    LogicalPlan,
    NodeScan,
    UnionStep,
    build_logical_plan,
    describe,
    plan_size,
)
from repro.planner.cost import condition_selectivity, estimate_cardinality, order_joins
from repro.planner.physical import PlanCache, PlanCounters, PlanExecutor, compile_plan
from repro.planner.rules import optimize, prune_variables, push_down_filters, simplify
from repro.planner.stats import GraphStatistics, collect_graph_statistics

__all__ = [
    "BindEndpoint",
    "EdgeScan",
    "FilterStep",
    "FixpointStep",
    "GraphStatistics",
    "JoinStep",
    "LogicalPlan",
    "NodeScan",
    "PlanCache",
    "PlanCounters",
    "PlanExecutor",
    "UnionStep",
    "build_logical_plan",
    "collect_graph_statistics",
    "compile_plan",
    "condition_selectivity",
    "describe",
    "estimate_cardinality",
    "optimize",
    "order_joins",
    "plan_size",
    "prune_variables",
    "push_down_filters",
    "simplify",
]
