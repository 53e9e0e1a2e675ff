"""Physical execution of logical plans over a property graph.

The executor turns a :class:`~repro.planner.logical.LogicalPlan` into a
*binding table* over the graph's compact integer encoding
(:meth:`~repro.graph.property_graph.PropertyGraph.compact`): a set of int
rows ``(src, tgt, extra_1, ..., extra_k)`` together with a **column map**
assigning each bound variable the row index holding its value and a
**kind** naming the ID space that value lives in.  Variables bound to a
path endpoint map to index 0 or 1, so the common case — decorating a
reachability fixpoint with its endpoint variables — costs nothing: the
``BindEndpoint`` operator only extends the column map.  Compared with the
naive endpoint evaluator this avoids the per-match mapping dictionaries
and the boxed identifier tuples entirely:

* scans select dense node/edge IDs a whole column at a time: label sets
  are bitmask tests, and a pushed-down condition maps its comparator
  over the value columns, once per leaf, not once per produced match;
  rows are then zipped from the ID list and the endpoint columns;
* concatenation is a **hash join** keyed on the shared midpoint plus the
  values of variables bound on both sides, packed into one int — the
  mapping-compatibility check of Figure 2 becomes int equality;
* unbounded repetition closes the body's endpoint-pair relation on
  per-source successor bitmasks (word-parallel OR propagation) and keeps
  the result in mask form; depth-guarded and bounded repetition run the
  shared kernels of :mod:`repro.matching.fixpoint`;
* identifiers and property values are decoded only at output projection
  (:mod:`repro.planner.decode`).

ID spaces.  A pattern variable ranges over ``N ∪ E`` with ``N`` and ``E``
disjoint (the ``pgView`` condition ``R1 ∩ R2 = ∅``).  A column is tagged
``"node"`` or ``"edge"`` when every row binds it in that one space, and
``"element"`` when a disjunction binds it to a node in one branch and an
edge in the other: the union lifts both branches into one element space
(node ``i`` stays ``i``, edge ``e`` becomes ``node_count + e``), so lifting
a node column is a retag.  A join whose shared variable is a node on one
side and an edge on the other is empty by disjointness.

The executor is the planner's *matcher*: it satisfies the same
``evaluate_output`` oracle interface as
:class:`~repro.matching.endpoint.EndpointEvaluator`, and the cross-engine
tests check both produce identical row sets on every query.

Compiled plans are memoized in :class:`PlanCache` keyed by
``(pattern, needed variables, graph-stats fingerprint)`` — costed plans
are ordered for a concrete graph shape, so the fingerprint keeps plans for
differently-shaped graphs apart; executed sub-plan tables are memoized per
executor, i.e. per graph, so the effective memo key is (graph, pattern).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from itertools import compress, filterfalse, repeat
from operator import and_, is_not
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import BindingError, PatternError
from repro.governance import CHECK_INTERVAL, current_governor
from repro.graph import compact as compact_encoding
from repro.graph.compact import MISSING as _COMPACT_MISSING, bit_positions, bitmask, iter_bits
from repro.graph.property_graph import PropertyGraph
from repro.matching import fixpoint
from repro.observability.analyze import active_profiler
from repro.observability.tracing import trace_span
from repro.parameters import Parameter
from repro.patterns.conditions import (
    COMPARATORS,
    AndCondition,
    HasLabel,
    NotCondition,
    OrCondition,
    PatternCondition,
    PropertyCompare,
    PropertyComparesProperty,
    PropertyEquals,
)
from repro.patterns.ast import OutputPattern, Pattern, pattern_parameters
from repro.planner.decode import project, stream_project
from repro.planner.logical import (
    BindEndpoint,
    EdgeScan,
    EmptyPlan,
    FilterStep,
    FixpointStep,
    JoinStep,
    LogicalPlan,
    NodeScan,
    UnionStep,
    bind_plan,
    build_logical_plan,
    describe,
)
from repro.planner.rules import optimize

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.planner.stats import GraphStatistics

#: Column map: variable name -> index of its value within a row.
ColumnMap = Dict[str, int]


def compile_plan(pattern, needed, stats, verify=None) -> LogicalPlan:
    """Build and optimize one plan under ``plan`` / ``optimize`` spans —
    the one front half of every plan-consuming backend: :class:`PlanCache`
    (and so the planned executor) and the SQLite lowering."""
    with trace_span("plan"):
        logical = build_logical_plan(pattern)
    with trace_span("optimize"):
        return optimize(logical, needed, stats, verify=verify)


def _compares(compare, left, right) -> bool:
    """``compare(left, right)``, False where the two do not order."""
    try:
        return compare(left, right)
    except TypeError:
        return False


def _profile_label(plan: LogicalPlan) -> str:
    """The node's own :func:`describe` line (children stripped)."""
    return describe(plan).splitlines()[0].strip()


@dataclass
class PlanCounters:
    """Execution counters of a plan executor: rows produced, hash-join
    probes, fixpoint rounds and delta pairs of the repetition operator.

    ``compact_encode_s`` accumulates the wall-clock cost of building the
    compact integer graph encodings the executor runs on.
    """

    rows_produced: int = 0
    join_probes: int = 0
    fixpoint_rounds: int = 0
    delta_pairs: int = 0
    compact_encode_s: float = 0.0


class PlanCache:
    """LRU memo of optimized logical plans.

    Keys are ``(pattern, needed vars, stats fingerprint)``.  Plans are
    cost-ordered for a concrete data distribution, which the
    :meth:`~repro.planner.stats.GraphStatistics.fingerprint` component of
    the key captures: the same pattern planned against differently-shaped
    graphs occupies separate entries instead of aliasing.  A bare executor
    built without statistics compiles graph-independent plans (key
    component ``None``).

    Every pattern is a key: condition constants are atomic by
    construction (:func:`~repro.parameters.is_atomic`), so patterns hash.

    Repetition bounds are *not* part of the key on purpose: compiled plans
    never bake in ``max_repetitions`` — the bound is enforced by the
    executor at run time — so executors with conflicting bounds can share
    one cache (see the cross-session regression tests).
    """

    def __init__(self, maxsize: int = 512, *, shared: bool = False):
        self.maxsize = maxsize
        #: Provenance flag: ``True`` when the cache is owned by a
        #: cross-connection scope (a snapshot cache) rather than one
        #: engine.  Shared caches say so in :meth:`info` — counters then
        #: aggregate every sharer's activity and survive engine swaps,
        #: instead of silently resetting with the engine.
        self.shared = shared
        #: Guards the LRU structure and counters: snapshot-scoped caches
        #: serve several connections' engines concurrently, and holding
        #: the lock across a cold ``optimize`` also makes each plan shape
        #: compile exactly once under contention.
        self._lock = threading.Lock()
        self._plans: "OrderedDict[Tuple, Tuple[LogicalPlan, bool]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Hits/misses on *parameterized* shapes (patterns carrying
        #: :class:`~repro.parameters.Parameter` slots), counted separately
        #: on top of ``hits``/``misses`` so prepared-statement reuse is
        #: observable distinctly from plain repeated-pattern reuse.
        self.prepared_hits = 0
        self.prepared_misses = 0
        #: Execution counters of the engine this cache serves (attached by
        #: :class:`~repro.engine.planned.PlannedEngine`); when present,
        #: :meth:`info` surfaces the encode-time counter so it is
        #: observable without the benchmark harness.
        self.counters: Optional[PlanCounters] = None

    def plan_for(
        self,
        pattern: Pattern,
        needed: FrozenSet[str],
        stats: Optional["GraphStatistics"] = None,
        verify: Optional[bool] = None,
    ) -> LogicalPlan:
        needed = frozenset(needed)
        key = (pattern, needed, stats.fingerprint() if stats is not None else None)
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                plan, parameterized = entry
                self.hits += 1
                if parameterized:
                    self.prepared_hits += 1
                self._plans.move_to_end(key)
                return plan
            parameterized = bool(pattern_parameters(pattern))
            self.misses += 1
            if parameterized:
                self.prepared_misses += 1
            plan = compile_plan(pattern, needed, stats, verify)
            self._plans[key] = (plan, parameterized)
            if len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
            return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0
            self.prepared_hits = 0
            self.prepared_misses = 0

    def info(self) -> Dict[str, float]:
        """Cache statistics; counts are ints, ``compact_encode_s`` (when
        engine counters are attached) is wall-clock seconds.
        ``prepared_hits``/``prepared_misses`` break out the subset of
        ``hits``/``misses`` on parameterized (prepared-statement) shapes."""
        info = {
            "hits": self.hits,
            "misses": self.misses,
            "prepared_hits": self.prepared_hits,
            "prepared_misses": self.prepared_misses,
            "size": len(self._plans),
        }
        if self.shared:
            # Only shared caches carry the flag: bare/private caches keep
            # the legacy info shape their tests (and callers) rely on.
            info["shared"] = True
        if self.counters is not None:
            info["compact_encode_s"] = self.counters.compact_encode_s
        return info


class CompactTable(NamedTuple):
    """A binding table over integer IDs.

    ``columns`` maps variables to row indices; ``kinds`` records each
    variable's ID space (``"node"``, ``"edge"``, or ``"element"`` for a
    column a disjunction lifted into the shared node-then-edge space) so
    values decode through the right interning table.
    When ``masks`` is set the table is an endpoint-pair relation held as
    per-source reachability bitmasks (bit ``j`` of ``masks[i]`` = row
    ``(i, j)``) — the repetition fixpoint's native format, expanded into
    real rows only by consumers that need them (the projection fast path
    decodes masks straight into output tuples).
    """

    columns: ColumnMap
    kinds: Dict[str, str]
    rows: Set
    masks: Optional[List[int]] = None

    def unpacked(self) -> "CompactTable":
        """Expand a mask-form pair relation into real ``(src, tgt)`` rows."""
        if self.masks is None:
            return self
        # A dense closure expands to O(V^2) pairs; without polling, the
        # whole expansion is one un-interruptible stretch right before
        # the first decoded row.
        governor = current_governor()
        checked = 0
        rows: Set[Tuple] = set()
        for i, mask in enumerate(self.masks):
            if mask:
                rows.update([(i, j) for j in bit_positions(mask)])
            if governor is not None and len(rows) - checked >= 4096:
                governor.checkpoint("stream.decode")
                checked = len(rows)
        return CompactTable(self.columns, self.kinds, rows)

    def packed(self, node_count: int) -> "CompactTable":
        """The inverse of :meth:`unpacked`: ``(src, tgt)`` rows over node
        IDs as one bitmask per source, ``node_count`` of them."""
        masks = [0] * node_count
        for source, target in self.rows:
            masks[source] |= 1 << target
        return CompactTable(self.columns, self.kinds, set(), masks)


class PlanExecutor:
    """Executes logical plans against one property graph.

    Satisfies the matcher oracle interface (``evaluate_output``) used by
    :class:`~repro.pgq.evaluator.PGQEvaluator`, so it can be swapped in for
    the naive endpoint evaluator behind a graph view.

    Plans run on the graph's compact integer encoding
    (:meth:`~repro.graph.property_graph.PropertyGraph.compact`): scans
    emit int rows over dense node/edge IDs, hash joins key on packed
    ints, and the repetition fixpoint walks successor bitmasks —
    identifiers are decoded only at output projection, so results are
    identical to the naive oracle.
    """

    #: Output rows are built from a fixed projection layout, so their
    #: arity is correct by construction; the evaluator skips its per-row
    #: length scan (the naive oracle keeps it as the semantic check).
    trusted_output_arity = True

    #: The executor accepts parameterized patterns plus per-execution
    #: bindings (``evaluate_output(output, bindings=...)``): plans are
    #: compiled and cached over the parameter *slots* and bound afterwards,
    #: so one compilation serves every binding of a prepared statement.
    supports_parameters = True

    #: ``evaluate_output(output, positions=...)`` returns the output rows
    #: projected onto ``positions`` (1-based, each within the row), decoded
    #: in place: a relational ``Project`` over a pattern builds no row of
    #: the pattern's full width.
    supports_projection = True

    #: Per-plan-node table memos are cleared past this size: distinct
    #: bindings of prepared statements produce distinct (bound) filter
    #: nodes, and a long-lived executor fed many bindings must not retain
    #: every historical result table.
    _MEMO_MAX = 4096

    def __init__(
        self,
        graph: PropertyGraph,
        *,
        max_repetitions: Optional[int] = None,
        counters: Optional[PlanCounters] = None,
        plan_cache: Optional[PlanCache] = None,
        graph_stats: Optional["GraphStatistics"] = None,
        verify_plans: Optional[bool] = None,
    ):
        self.graph = graph
        self.max_repetitions = max_repetitions
        self.counters = counters if counters is not None else PlanCounters()
        self.plan_cache = plan_cache
        # Resolved once (explicit kwarg wins over REPRO_VERIFY_PLANS); when
        # on, every optimizer pass and every physical binding table is
        # checked against the plan's schema — a debugging/CI mode.
        from repro.analysis.verifier import verification_enabled

        self.verify_plans = verification_enabled(verify_plans)
        #: Statistics of ``graph``; when present the optimizer cost-orders
        #: concatenation chains and the plan cache keys on the fingerprint.
        self.graph_stats = graph_stats
        # Sub-plan tables computed against this graph; together with the
        # pattern-keyed PlanCache this memoizes work by (graph, pattern).
        self._tables: Dict[LogicalPlan, CompactTable] = {}
        # Last compact encoding observed, for encode-time accounting.
        self._encoded = None

    # ------------------------------------------------------------------ #
    # Oracle interface
    # ------------------------------------------------------------------ #
    def _plan_for_output(self, output: OutputPattern, bindings) -> LogicalPlan:
        """Shared front half of the oracle interface: validate, fetch the
        (cached) plan for the parameterized shape, bind, trim memos."""
        output.validate()
        needed = frozenset(output.output_variables())
        verify = self.verify_plans
        if self.plan_cache is not None:
            plan = self.plan_cache.plan_for(output.pattern, needed, self.graph_stats, verify)
        else:
            plan = compile_plan(output.pattern, needed, self.graph_stats, verify)
        if bindings:
            plan = bind_plan(plan, bindings)
        if len(self._tables) > self._MEMO_MAX:
            self._tables.clear()
        profiler = active_profiler()
        if profiler is not None:
            profiler.use_labeler(_profile_label)
            profiler.add_root(plan)
        return plan

    def evaluate_output(
        self, output: OutputPattern, bindings=None, positions=None
    ) -> FrozenSet[Tuple]:
        """Plan, execute and project one output pattern on the graph.

        ``bindings`` resolve the pattern's parameter slots *after* plan
        compilation: the (cached) plan is keyed on the parameterized shape
        and the substitution below is a cheap structural walk, so repeated
        executions with different bindings never recompile.  ``positions``
        projects the rows further (see ``supports_projection``).
        """
        plan = self._plan_for_output(output, bindings)
        return project(self._compact_graph(), self.execute(plan), output, positions)

    def stream_output(
        self, output: OutputPattern, bindings=None
    ) -> Tuple[Iterator[List[Tuple]], bool]:
        """Plan and execute eagerly, then *stream* the output projection.

        The physical plan (scans, joins, the repetition fixpoint) runs
        before this method returns — so binding errors, depth-bound
        ``PatternError`` and plan failures surface at call time exactly
        like :meth:`evaluate_output` — but projection and identifier
        decoding are deferred: the result is
        :func:`repro.planner.decode.stream_project`'s ``(batches,
        ordered)``, lists of distinct output rows decoded as they are
        pulled, and whether they arrive in result order.
        """
        plan = self._plan_for_output(output, bindings)
        return stream_project(self._compact_graph(), self.execute(plan), output)

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #
    @staticmethod
    def _empty_columns(plan: EmptyPlan) -> ColumnMap:
        # Zero rows, but the column map must still name exactly the
        # schema the pruned subplan would have bound (the provenance
        # check at the logical->physical boundary relies on it).
        return {
            variable: index + 2
            for index, variable in enumerate(sorted(plan.schema))
        }

    def _count_round(self) -> None:
        self.counters.fixpoint_rounds += 1
        governor = current_governor()
        if governor is not None:
            governor.checkpoint("fixpoint.round")

    def _count_delta(self, fresh: int) -> None:
        self.counters.delta_pairs += fresh
        governor = current_governor()
        if governor is not None:
            governor.checkpoint("fixpoint.delta", fresh)

    def _compact_graph(self):
        """The graph's integer encoding, with encode-time accounting."""
        encoded = self.graph.compact()
        if encoded is not self._encoded:
            self.counters.compact_encode_s += encoded.encode_seconds
            self._encoded = encoded
        return encoded

    def execute(self, plan: LogicalPlan) -> CompactTable:
        """Evaluate a plan over integer columns; tables are memoized per
        plan node so repeated identical sub-plans run once per graph."""
        cached = self._tables.get(plan)
        profiler = active_profiler()
        if cached is not None:
            if profiler is not None:
                profiler.memo_hit(plan, _profile_label(plan))
            return cached
        if profiler is None:
            result = self._execute(plan)
        else:
            start = perf_counter()
            result = self._execute(plan)
            elapsed = perf_counter() - start
        if result.masks is not None:
            produced = sum(map(int.bit_count, result.masks))
        else:
            produced = len(result.rows)
        if profiler is not None:
            profiler.record(plan, _profile_label(plan), elapsed, produced)
        self.counters.rows_produced += produced
        if self.verify_plans and result.masks is None:
            # Mask-form tables are pure endpoint-pair relations (no bound
            # columns), so only row-form tables have a layout to check.
            from repro.analysis.verifier import verify_physical_result

            verify_physical_result(plan, result.columns, result.rows)
        self._tables[plan] = result
        return result

    def _execute(self, plan: LogicalPlan) -> CompactTable:
        if isinstance(plan, NodeScan):
            return self._compact_node_scan(plan)
        if isinstance(plan, EdgeScan):
            return self._compact_edge_scan(plan)
        if isinstance(plan, BindEndpoint):
            operand = self.execute(plan.operand)
            columns = dict(operand.columns)
            columns[plan.variable] = 0 if plan.use_source else 1
            kinds = dict(operand.kinds)
            kinds[plan.variable] = "node"
            return CompactTable(columns, kinds, operand.rows, operand.masks)
        if isinstance(plan, JoinStep):
            return self._compact_join(plan)
        if isinstance(plan, UnionStep):
            return self._compact_union(plan)
        if isinstance(plan, FilterStep):
            return self._compact_filter(plan)
        if isinstance(plan, FixpointStep):
            return self._compact_fixpoint(plan)
        if isinstance(plan, EmptyPlan):
            columns = self._empty_columns(plan)
            return CompactTable(columns, {v: "node" for v in columns}, set())
        raise PatternError(f"unknown physical operator for {plan!r}")

    def _select(
        self, condition: PatternCondition, kind: str, variable: str, ids: Sequence[int]
    ) -> List[int]:
        """The IDs among ``ids`` (one space's, distinct) that satisfy a
        pushed-down scan condition, a whole column at a time.

        Scan conditions reference exactly the scanned variable, so every
        leaf resolves against this space's dense columns: a property
        comparison drops the :data:`MISSING` slots by identity and maps
        the comparator over the rest, a label is a mask test, ``And``
        chains selections, ``Or`` selects the right side among what the
        left one left out, and ``Not`` is a difference.  A leaf the
        columns cannot answer (a cross-variable comparison, a condition
        kind of its own) keeps ``condition.satisfied`` per element.
        """
        if isinstance(condition, AndCondition):
            chosen = self._select(condition.left, kind, variable, ids)
            return self._select(condition.right, kind, variable, chosen)
        if isinstance(condition, OrCondition):
            chosen = self._select(condition.left, kind, variable, ids)
            rest = list(filterfalse(set(chosen).__contains__, ids))
            return chosen + self._select(condition.right, kind, variable, rest)
        if isinstance(condition, NotCondition):
            chosen = set(self._select(condition.operand, kind, variable, ids))
            return list(filterfalse(chosen.__contains__, ids))
        encoded = self._compact_graph()
        if isinstance(condition, HasLabel):
            label_mask = encoded.node_label_mask if kind == "node" else encoded.edge_label_mask
            within = bitmask(ids, len(encoded.ids(kind)))
            return bit_positions(label_mask(condition.label) & within)
        if isinstance(condition, PropertyCompare):
            if isinstance(condition.constant, Parameter):
                raise BindingError(
                    f"parameter {condition.constant!r} must be bound before execution"
                )
            columns = [encoded.property_column(condition.key, kind)]
            constant = condition.constant
        elif (
            isinstance(condition, (PropertyEquals, PropertyComparesProperty))
            and condition.left_var == condition.right_var
        ):
            columns = [
                encoded.property_column(condition.left_key, kind),
                encoded.property_column(condition.right_key, kind),
            ]
        else:
            graph, idents = self.graph, encoded.ids(kind)
            return [i for i in ids if condition.satisfied(graph, {variable: idents[i]})]
        compare = COMPARATORS[getattr(condition, "operator", "=")]
        if type(ids) is not range:  # a range is the whole space: its columns as they are
            columns = [list(map(column.__getitem__, ids)) for column in columns]
        defined = list(map(is_not, columns[0], repeat(_COMPACT_MISSING)))
        for column in columns[1:]:
            defined = list(map(and_, defined, map(is_not, column, repeat(_COMPACT_MISSING))))
        if not all(defined):
            ids = list(compress(ids, defined))
            columns = [list(compress(column, defined)) for column in columns]
        operands = columns if len(columns) == 2 else [columns[0], repeat(constant)]
        try:
            return list(compress(ids, map(compare, *operands)))
        except TypeError:  # a value that does not order against its operand
            return [i for i, *values in zip(ids, *operands) if _compares(compare, *values)]

    def _scan_ids(self, plan: NodeScan | EdgeScan, kind: str) -> Sequence[int]:
        """The IDs a node or edge scan emits: the label mask's positions —
        the whole space as a ``range`` when the mask covers it — narrowed
        by the pushed-down condition."""
        encoded = self._compact_graph()
        label_mask = encoded.node_label_mask if kind == "node" else encoded.edge_label_mask
        everything = (1 << len(encoded.ids(kind))) - 1
        mask = reduce(and_, map(label_mask, plan.labels), everything)
        ids = range(len(encoded.ids(kind))) if mask == everything else bit_positions(mask)
        if plan.condition is not None:
            ids = self._select(plan.condition, kind, plan.variable, ids)
        return ids

    def _compact_node_scan(self, plan: NodeScan) -> CompactTable:
        ids = self._scan_ids(plan, "node")
        variable = plan.variable
        bound = plan.bound and variable is not None
        columns = {variable: 0} if bound else {}
        kinds = {variable: "node"} if bound else {}
        return CompactTable(columns, kinds, set(zip(ids, ids)))

    def _compact_edge_scan(self, plan: EdgeScan) -> CompactTable:
        encoded = self._compact_graph()
        ids = self._scan_ids(plan, "edge")
        variable = plan.variable
        bound = plan.bound and variable is not None
        ends = [encoded.edge_src, encoded.edge_tgt]
        if not plan.forward:
            ends.reverse()
        if type(ids) is not range:
            ends = [map(column.__getitem__, ids) for column in ends]
        rows = set(zip(*ends, ids) if bound else zip(*ends))
        columns = {variable: 2} if bound else {}
        kinds = {variable: "edge"} if bound else {}
        return CompactTable(columns, kinds, rows)

    def _kind_spans(self) -> Dict[str, int]:
        """Size of each ID space; the lifted element space is the nodes
        followed by the edges."""
        encoded = self._compact_graph()
        nodes, edges = encoded.node_count, encoded.edge_count
        return {"node": nodes, "edge": edges, "element": nodes + edges}

    def _lift(self, kind: str, target: str) -> int:
        """Offset moving an ID of space ``kind`` into space ``target``: only
        an edge ID changes value when lifted into the element space (edges
        follow the nodes there); node IDs are element IDs already."""
        return self._compact_graph().node_count if kind == "edge" != target else 0

    def _compact_join(self, plan: JoinStep) -> CompactTable:
        left = self.execute(plan.left).unpacked()
        right = self.execute(plan.right).unpacked()
        left_columns, right_columns = left.columns, right.columns

        columns: ColumnMap = {}
        copy_left: List[int] = []
        for variable, index in left_columns.items():
            if index == 0:
                columns[variable] = 0
            else:
                columns[variable] = 2 + len(copy_left)
                copy_left.append(index)
        copy_right: List[int] = []
        for variable, index in right_columns.items():
            if variable in left_columns:
                continue  # shared: identical value already kept from the left
            if index == 1:
                columns[variable] = 1
            else:
                columns[variable] = 2 + len(copy_left) + len(copy_right)
                copy_right.append(index)
        kinds = dict(left.kinds)
        for variable, kind in right.kinds.items():
            kinds.setdefault(variable, kind)

        # Join keys pack into one int (mixed-radix over each variable's ID
        # space): equality on the packed key is equality on the components,
        # and hashing a small int beats hashing a tuple of boxed values.
        left_keys: List[Tuple[int, int, int]] = []
        right_keys: List[Tuple[int, int, int]] = []
        shared = sorted(set(left_columns) & set(right_columns))
        if shared:
            spans = self._kind_spans()
            for variable in shared:
                left_kind, right_kind = left.kinds[variable], right.kinds[variable]
                if {left_kind, right_kind} == {"node", "edge"}:
                    # N and E are disjoint: no element satisfies both bindings.
                    return CompactTable(columns, kinds, set())
                # Sides in different spaces compare in the element space.
                stride = max(spans[left_kind], spans[right_kind], 1)
                left_keys.append(
                    (left_columns[variable], stride, self._lift(left_kind, right_kind))
                )
                right_keys.append(
                    (right_columns[variable], stride, self._lift(right_kind, left_kind))
                )

        index_map: Dict[int, List[Tuple]] = {}
        setdefault = index_map.setdefault
        for row in right.rows:
            key = row[0]
            for index, stride, lift in right_keys:
                key = key * stride + row[index] + lift
            setdefault(key, []).append(row)
        rows: Set[Tuple] = set()
        add = rows.add
        probes = 0
        governor = current_governor()
        checked = 0
        for row in left.rows:
            key = row[1]
            for index, stride, lift in left_keys:
                key = key * stride + row[index] + lift
            matches = index_map.get(key)
            if not matches:
                continue
            probes += len(matches)
            if governor is not None and probes - checked >= CHECK_INTERVAL:
                governor.checkpoint("join.probe", probes - checked)
                checked = probes
            head = (row[0],)
            left_extra = tuple(row[i] for i in copy_left)
            for other in matches:
                add(head + (other[1],) + left_extra + tuple(other[i] for i in copy_right))
        if governor is not None and probes > checked:
            governor.checkpoint("join.probe", probes - checked)
        self.counters.join_probes += probes
        return CompactTable(columns, kinds, rows)

    def _canonical(
        self, table: CompactTable, keep: List[str], kinds: Dict[str, str]
    ) -> CompactTable:
        """Project a table onto ``keep`` (sorted) at indices 2.., in the ID
        spaces ``kinds`` — union branches may lay columns out differently,
        carry residue columns their internal filters needed, or bind a
        variable in the other space."""
        columns, own_kinds, rows, _masks = table
        canonical = {variable: 2 + i for i, variable in enumerate(keep)}
        moves = [
            (columns[variable], self._lift(own_kinds[variable], kinds[variable]))
            for variable in keep
        ]
        if any(lift for _index, lift in moves):
            projected = {
                (row[0], row[1]) + tuple(row[i] + lift for i, lift in moves)
                for row in rows
            }
        elif canonical == columns:
            return CompactTable(canonical, kinds, rows)
        else:
            projected = {
                (row[0], row[1]) + tuple(row[i] for i, _lift in moves) for row in rows
            }
        return CompactTable(canonical, kinds, projected)

    def _compact_union(self, plan: UnionStep) -> CompactTable:
        left = self.execute(plan.left).unpacked()
        right = self.execute(plan.right).unpacked()
        # Variables bound in only one branch are pruning residue (kept for a
        # branch-internal filter); anything consumed above the union is kept
        # in both branches by prune_variables, so project to the overlap.
        keep = sorted(set(left.columns) & set(right.columns))
        # A variable bound to a node in one branch and an edge in the other
        # ranges over N ∪ E: both branches lift into the element space.
        kinds = {
            variable: left.kinds[variable]
            if left.kinds[variable] == right.kinds[variable]
            else "element"
            for variable in keep
        }
        left = self._canonical(left, keep, kinds)
        right = self._canonical(right, keep, kinds)
        return CompactTable(left.columns, kinds, left.rows | right.rows)

    def _compact_filter(self, plan: FilterStep) -> CompactTable:
        table = self.execute(plan.operand).unpacked()
        condition = plan.condition
        encoded = self._compact_graph()
        bound = [
            (variable, table.columns[variable], encoded.ids(table.kinds.get(variable, "node")))
            for variable in condition.variables()
            if variable in table.columns
        ]
        graph = self.graph
        kept = {
            row
            for row in table.rows
            if condition.satisfied(graph, {v: ids[row[i]] for v, i, ids in bound})
        }
        return CompactTable(table.columns, table.kinds, kept)

    # -- repetition over integer IDs ----------------------------------- #
    def _compact_fixpoint(self, plan: FixpointStep) -> CompactTable:
        body = self.execute(plan.body)
        node_count = self._compact_graph().node_count
        rounds_before = self.counters.fixpoint_rounds
        with trace_span("fixpoint") as span:
            if plan.is_unbounded and self.max_repetitions is None:
                if body.masks is not None:  # nested repetition: already a pair relation
                    successor_masks = list(body.masks)
                    successor_masks += [0] * (node_count - len(successor_masks))
                else:
                    successor_masks = [0] * node_count
                    for row in body.rows:
                        successor_masks[row[0]] |= 1 << row[1]
                masks = self._compact_closure_masks(
                    successor_masks, plan.lower, node_count
                )
                span.tag(rounds=self.counters.fixpoint_rounds - rounds_before)
                return CompactTable({}, {}, set(), masks)
            pairs = {(row[0], row[1]) for row in body.unpacked().rows}
            # Depth-guarded paths reuse the shared kernels (the
            # ``max_repetitions`` error behavior must not drift between
            # engines); int IDs are ordinary hashables to them.
            identity = {(i, i) for i in range(node_count)}
            adjacency = fixpoint.adjacency_of(pairs)
            if plan.is_unbounded:
                result = fixpoint.unbounded_pairs_delta(
                    adjacency,
                    plan.lower,
                    identity,
                    max_repetitions=self.max_repetitions,
                    on_round=self._count_round,
                    on_delta=self._count_delta,
                )
            else:
                result = fixpoint.bounded_pairs(
                    adjacency,
                    plan.lower,
                    int(plan.upper),
                    identity,
                    max_repetitions=self.max_repetitions,
                    on_round=self._count_round,
                )
            span.tag(
                rounds=self.counters.fixpoint_rounds - rounds_before,
                pairs=len(result),
            )
        return CompactTable({}, {}, set(result))

    def _compact_closure_masks(
        self, successor_masks: List[int], lower: int, node_count: int
    ) -> List[int]:
        """Unbounded closure on successor bitmasks, mask-form output.

        The kernel propagates whole reach masks (word-parallel).  The
        result stays in mask form — consumers expand rows lazily and the
        projection fast path decodes masks straight into output tuples.
        """
        governor = current_governor()
        on_round = None
        if governor is not None:
            # The governor poll rides the kernel's per-round hook; the
            # executor's own round accounting stays on the returned total.
            on_round = lambda: governor.checkpoint("fixpoint.round")  # noqa: E731
        reach, rounds = compact_encoding.closure_masks(successor_masks, on_round=on_round)
        self.counters.fixpoint_rounds += rounds
        if lower > 0:
            composed: List[int] = []
            for i in range(node_count):
                # The per-source composition is the longest stretch after
                # the closure rounds; poll so deadlines/cancels land here
                # too instead of waiting for the first decoded row.
                if governor is not None and not i & 63:
                    governor.checkpoint("fixpoint.round")
                frontier = compact_encoding.compose_frontier(
                    successor_masks, 1 << i, lower
                )
                mask = 0
                for j in iter_bits(frontier):
                    mask |= reach[j]
                composed.append(mask)
            reach = composed
        return reach
