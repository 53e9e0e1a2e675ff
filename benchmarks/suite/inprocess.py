"""The five single-threaded in-process workloads and their staged replays.

Untraced, a workload is ``setup`` + ``op(i)``; the harness times ``op``
from outside.  Traced, each workload first runs the real op under one
``op`` span and then replays the same op *stage by stage*, wrapping every
call into a layer's public function in a span named after the layer.
Nothing here reaches into a private attribute of the program under test.
"""

from __future__ import annotations

from collections import Counter
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import analyze_plan
from repro.analysis.semantic import analyze_query
from repro.engine.database import Database
from repro.governance import QueryBudget
from repro.graph.compact import closure_masks
from repro.matching.endpoint import EndpointEvaluator
from repro.observability import NULL_TRACER, RingBufferSink, Tracer
from repro.patterns.ast import bind_output
from repro.pgq.evaluator import PGQEvaluator
from repro.pgq.queries import GraphPattern
from repro.pgq.views import materialize_graph
from repro.planner import (
    PlanCache,
    PlanCounters,
    PlanExecutor,
    build_logical_plan,
    collect_graph_statistics,
    optimize,
    plan_size,
)
from repro.separations.pairs import pair_reachability_query, pair_reachability_reference
from repro.sqlpgq.compiler import compile_query
from repro.sqlpgq.lexer import tokenize
from repro.sqlpgq.parser import parse_statement

from benchmarks.suite import data
from benchmarks.suite.measure import Window, closed_loop
from benchmarks.suite.spans import SpanRecorder, layer_ms

REACH_SQL = data.REACH_SQL.format(minimum=":minimum")
REACH_LITERAL_SQL = data.REACH_SQL.format(minimum="500")


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def overhead_pct(with_layer: Sequence[float], without: Sequence[float]) -> float:
    return (median(with_layer) - median(without)) / median(without) * 100.0


class Workload:
    """One named workload: seeded set-up, an op, and a traced replay."""

    name = ""
    clients = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        #: False once ``verify`` saw the program, the reference or the naive
        #: engine disagree; the run then reports ``correct: false``.
        self.oracle_ok = True
        #: Counts and ratios the traced pass gathers beside the span timings.
        self.counts: Dict[str, float] = {}
        #: Length of a traced window, for workloads whose traced pass has one.
        self.trace_seconds = 1.0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` opened (nothing, for per-op databases)."""

    def verify(self) -> None:
        """Compare the program row-set-equal with the suite's reference and
        with ``connect("naive")``.  Called after the untraced window and
        after its memory was read: the naive engine's working set is larger
        than the program's and would otherwise set ``peak_rss_mb``."""
        raise NotImplementedError

    def op(self, index: int) -> bool:
        raise NotImplementedError

    def run(self, seconds: float, first_index: int = 0, min_ops: int = 0) -> Window:
        return closed_loop(self.op, seconds, first_index=first_index, min_ops=min_ops)

    def child_peak_rss_mb(self) -> float:
        """Peak resident set of a server child so far, for workloads with one."""
        return 0.0

    def trace(
        self, recorder: SpanRecorder, ops: int, first_index: int
    ) -> Tuple[Dict[str, float], int, int]:
        """``ops`` real ops under an ``op`` span each, then the same ops
        replayed stage by stage; per-layer metrics by name, and how many
        real ops ran and failed."""
        self.prepare_replay(first_index)
        failed = 0
        indexes = range(first_index, first_index + ops)
        for index in indexes:
            with recorder.span("op", op_id=index):
                failed += not self.op(index)
        self.after_real_ops()
        for index in indexes:
            self.replay(recorder, index)
        self.trace_extras(recorder)
        return self.layer_metrics(recorder), ops, failed

    def prepare_replay(self, first_index: int) -> None:
        """Build what the replay needs before the real ops run."""

    def after_real_ops(self) -> None:
        """Read counters that must cover the real ops and nothing else."""

    def replay(self, recorder: SpanRecorder, index: int) -> None:
        raise NotImplementedError

    def trace_extras(self, recorder: SpanRecorder) -> None:
        """Layer calls measured apart from the per-op replay."""

    def layer_metrics(self, recorder: SpanRecorder) -> Dict[str, float]:
        spans = recorder.spans
        layers = layer_ms(spans)
        # Layer spans are named <module>.<stage>; op / pipeline / connection group them.
        metrics = {f"{name}_ms": value for name, value in layers.items() if "." in name}
        by_id = {span["id"]: span for span in spans}
        op_ms = [
            (s["end"] - s["start"]) * 1000.0 for s in spans if s["name"] == "op"
        ]
        staged: Dict[int, float] = {}
        for span in spans:
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] == "pipeline":
                staged[parent["id"]] = staged.get(parent["id"], 0.0) + (
                    span["end"] - span["start"]
                ) * 1000.0
        if staged and op_ms:
            staged_ms = median(staged.values())
            metrics["engine.residual_ms"] = median(op_ms) - staged_ms
            metrics["bench.trace_coverage_ratio"] = staged_ms / median(op_ms)
        metrics.update(self.counts)
        return metrics


# --------------------------------------------------------------------------- #
# Shared pieces
# --------------------------------------------------------------------------- #
def checked_bindings(values: Sequence, smoke: bool) -> List:
    """The bindings compared row-set-equal against the naive engine: both
    ends and the middle of the range — the same on every seed, so that
    set-up does the same work on every seed."""
    ordered = sorted(values)
    return ordered[:1] if smoke else [ordered[0], ordered[len(ordered) // 2], ordered[-1]]


def load_bank(accounts: Sequence, transfers: Sequence) -> Database:
    database = Database()
    database.create_table("Account", data.ACCOUNT_COLUMNS, accounts)
    database.create_table("Transfer", data.TRANSFER_COLUMNS, transfers)
    database.execute(data.TRANSFERS_DDL)
    return database


def front_end(recorder: SpanRecorder, text: str, snapshot, counts: Dict[str, float]):
    """lex/parse -> analyze -> compile -> lower -> dataflow, one span each."""
    with recorder.span("sqlpgq.parse"):
        tokens = tokenize(text)
        statement = parse_statement(text)
    with recorder.span("analysis.semantic"):
        analysis = analyze_query(statement, snapshot.catalog, snapshot.database)
    with recorder.span("sqlpgq.compile"):
        query = compile_query(statement, snapshot.catalog)
    with recorder.span("planner.logical"):
        logical = build_logical_plan(query.output.pattern)
    with recorder.span("analysis.dataflow"):
        flow = analyze_plan(logical)
    counts["sqlpgq.tokens"] = len(tokens)
    counts["analysis.diagnostics"] = len(analysis.diagnostics) + len(flow.diagnostics)
    return query, logical


def build_view(recorder: SpanRecorder, pattern: GraphPattern, snapshot, counts):
    """View-source algebra -> pgView -> compact encode -> statistics."""
    evaluator = PGQEvaluator(snapshot.database)
    # The snapshot scope is what lets the six sources share their common
    # subexpressions, as they do inside one engine evaluation.
    evaluator.use_snapshot_cache(snapshot.scope_for(("suite",)))
    with recorder.span("relational.view_sources"):
        relations = tuple(evaluator.evaluate(source) for source in pattern.sources)
    with recorder.span("pgq.view_materialize"):
        graph, arity = materialize_graph(relations, pattern.max_arity)
    with recorder.span("graph.compact_encode"):
        graph.compact()
    with recorder.span("planner.stats"):
        stats = collect_graph_statistics(graph)
    counts["relational.view_source_rows"] = sum(len(relation) for relation in relations)
    counts["pgq.view_nodes"] = graph.node_count()
    counts["pgq.view_edges"] = graph.edge_count()
    counts["pgq.identifier_arity"] = arity
    return graph, stats


def plan_and_execute(
    recorder: SpanRecorder,
    pattern: GraphPattern,
    logical,
    executor: PlanExecutor,
    counts: Dict[str, float],
    bindings: Optional[Dict] = None,
):
    """Optimize with statistics, then execute on a plan cache primed for
    this pattern, so ``planner.execute`` holds no planning time."""
    needed = pattern.output.output_variables()
    with recorder.span("planner.optimize"):
        plan = optimize(logical, needed, executor.graph_stats)
    executor.plan_cache.plan_for(pattern.output.pattern, needed, executor.graph_stats)
    counts["planner.plan_nodes"] = plan_size(plan)
    return timed_execute(recorder, executor, pattern, counts, bindings)


def timed_execute(recorder, executor: PlanExecutor, pattern: GraphPattern, counts, bindings):
    """``evaluate_output`` under a ``planner.execute`` span, with the exact
    work counts of that one call."""
    counters = executor.counters
    base = (counters.rows_produced, counters.join_probes, counters.fixpoint_rounds)
    with recorder.span("planner.execute"):
        rows = executor.evaluate_output(pattern.output, bindings=bindings)
    counts["planner.rows_produced"] = counters.rows_produced - base[0]
    counts["planner.join_probes"] = counters.join_probes - base[1]
    counts["planner.fixpoint_rounds"] = counters.fixpoint_rounds - base[2]
    return rows


def new_executor(graph, stats) -> PlanExecutor:
    return PlanExecutor(
        graph, plan_cache=PlanCache(), graph_stats=stats, counters=PlanCounters()
    )


def connection_cache_ratios(connection, database, text: str, before: Dict) -> Dict[str, float]:
    """Hit ratios of the connection's real caches over the traced ops."""
    after = cache_counters(connection, database, text)
    return cache_ratios({key: after[key] - before[key] for key in after})


def cache_ratios(delta: Dict[str, float]) -> Dict[str, float]:
    return {
        "planner.plan_cache_hit_ratio": ratio(delta["plan_hits"], delta["plan_misses"]),
        "engine.snapshot_cache_hit_ratio": ratio(delta["shared_hits"], delta["built"]),
        "engine.stmt_cache_hit_ratio": ratio(
            delta["stmt_reuse"], delta["stmt_executions"] - delta["stmt_reuse"]
        ),
    }


def cache_counters(connection, database, text: str) -> Dict[str, float]:
    explain = connection.explain(text)
    return {
        "plan_hits": explain.cache.get("hits", 0),
        "plan_misses": explain.cache.get("misses", 0),
        "stmt_reuse": explain.prepared["binding_reuse"],
        "stmt_executions": explain.prepared["executions"],
        **snapshot_counters(database),
    }


def snapshot_counters(database) -> Dict[str, float]:
    stats = database.snapshot_cache.stats()
    return {
        "shared_hits": sum(v for k, v in stats.items() if k.endswith("_shared_hits")),
        "built": sum(v for k, v in stats.items() if k.endswith("_built")),
    }


# --------------------------------------------------------------------------- #
# reach_warm / reach_sqlite
# --------------------------------------------------------------------------- #
class PreparedReach(Workload):
    """One prepared ``->+`` statement, bindings cycling in seeded order."""

    engine = ""
    minimums: Sequence[int] = ()
    execute_span, fetch_span = "engine.execute", "engine.fetch"

    def setup(self) -> None:
        accounts, (transfers,) = data.bank_tables(self.seed)
        self.database = load_bank(accounts, transfers)
        self.connection = self.database.connect(self.engine)
        self.statement = self.connection.prepare(REACH_SQL)
        self.bindings = data.shuffled(self.seed, "reach", self.minimums)
        self.transfers = transfers
        self.expected = {b: data.reach_count(transfers, b) for b in self.bindings}

    def verify(self) -> None:
        naive = self.database.connect("naive")
        for minimum in checked_bindings(self.minimums, self.smoke):
            reference = data.reach_pairs(self.transfers, minimum)
            for connection in (naive, self.connection):
                rows = connection.execute(REACH_SQL, {"minimum": minimum}).rows
                self.oracle_ok &= set(rows) == reference

    def teardown(self) -> None:
        self.database.close()

    def op(self, index: int) -> bool:
        minimum = self.bindings[index % len(self.bindings)]
        rows = self.statement.execute(minimum=minimum).rows
        return len(rows) == self.expected[minimum]

    def prepare_replay(self, first_index: int) -> None:
        self.before = cache_counters(self.connection, self.database, REACH_SQL)

    def after_real_ops(self) -> None:
        self.counts.update(
            connection_cache_ratios(self.connection, self.database, REACH_SQL, self.before)
        )

    def replay(self, recorder, index):
        minimum = self.bindings[index % len(self.bindings)]
        with recorder.span("connection", op_id=index):
            with recorder.span("engine.prepare"):
                fresh = self.connection.prepare(REACH_SQL)
            fresh.close()
            with recorder.span(self.execute_span):
                result = self.statement.execute(minimum=minimum)
            with recorder.span(self.fetch_span):
                rows = result.rows
        self.counts["engine.rows_out"] = len(rows)


class ReachWarm(PreparedReach):
    name = "reach_warm"
    engine = "planned"
    minimums = range(480, 521)

    def prepare_replay(self, first_index: int) -> None:
        """Pre-build and pre-encode the view the staged executor runs on."""
        snapshot = self.database.snapshot()
        scratch = SpanRecorder()
        self.query, _ = front_end(scratch, REACH_SQL, snapshot, {})
        self.graph, stats = build_view(scratch, self.query, snapshot, {})
        self.executor = new_executor(self.graph, stats)
        for minimum in self.bindings:  # as warm as the connection's matcher
            self.executor.evaluate_output(self.query.output, bindings={"minimum": minimum})
        super().prepare_replay(first_index)

    def replay(self, recorder, index):
        super().replay(recorder, index)
        minimum = self.bindings[index % len(self.bindings)]
        with recorder.span("pipeline", op_id=index):
            timed_execute(
                recorder, self.executor, self.query, self.counts, {"minimum": minimum}
            )

    def trace_extras(self, recorder):
        encoded = self.graph.compact()
        successors = [0] * encoded.node_count
        for source, target in zip(encoded.edge_src, encoded.edge_tgt):
            successors[source] |= 1 << target
        bound = bind_output(self.query.output, {"minimum": self.bindings[0]})
        for _ in range(3):
            with recorder.span("graph.closure"):
                closure_masks(successors)
            with recorder.span("matching.oracle"):
                EndpointEvaluator(self.graph).evaluate_output(bound)
        self.counts["observability.tracer_on_overhead_pct"] = self.interleaved(
            lambda: self.connection.use_tracer(Tracer([RingBufferSink()])),
            lambda: self.connection.use_tracer(NULL_TRACER),
            {},
        )
        generous = QueryBudget(
            timeout_s=600.0, max_output_rows=10**9, max_intermediate=10**12
        )
        self.counts["governance.budget_overhead_pct"] = self.interleaved(
            lambda: None, lambda: None, {"budget": generous}
        )

    def interleaved(self, switch_on, switch_off, governed: Dict) -> float:
        """A/B on the warm op: layer on, layer off, same binding, in turn."""
        sides: List[List[float]] = [[], []]
        for index in range(5 if self.smoke else 30):
            minimum = self.bindings[index % len(self.bindings)]
            for side, switch, extra in ((0, switch_on, governed), (1, switch_off, {})):
                switch()
                begin = perf_counter()
                self.statement.execute({"minimum": minimum}, **extra).rows
                sides[side].append(perf_counter() - begin)
        return overhead_pct(sides[0], sides[1])


class ReachSqlite(PreparedReach):
    """The same statement on the sqlite backend, where the planner does no
    work.  The bindings sit higher than reach_warm's (600…640, ~35–100 ms
    an op) because the contract gives every workload the same window: at
    480…520 an op takes ~200 ms and a window would hold fewer than the
    100 ops p90 needs."""

    name = "reach_sqlite"
    engine = "sqlite"
    minimums = range(600, 641)
    execute_span, fetch_span = "engine.sqlite_execute", "engine.sqlite_fetch"


# --------------------------------------------------------------------------- #
# reach_cold
# --------------------------------------------------------------------------- #
class ReachCold(Workload):
    name = "reach_cold"

    def setup(self) -> None:
        self.accounts, (self.transfers,) = data.bank_tables(self.seed)
        self.expected = data.reach_count(self.transfers, 500)
        self.totals: Counter = Counter()

    def verify(self) -> None:
        reference = data.reach_pairs(self.transfers, 500)
        database = load_bank(self.accounts, self.transfers)
        for engine in ("naive", "planned"):
            rows = database.connect(engine).execute(REACH_LITERAL_SQL).rows
            self.oracle_ok &= set(rows) == reference
        database.close()

    def op(self, index: int) -> bool:
        database = load_bank(self.accounts, self.transfers)
        connection = database.connect("planned")
        rows = connection.execute(REACH_LITERAL_SQL).rows
        database.close()
        return len(rows) == self.expected

    def replay(self, recorder, index):
        counts = self.counts
        with recorder.span("pipeline", op_id=index):
            database = Database()
            with recorder.span("engine.create_table"):
                database.create_table("Account", data.ACCOUNT_COLUMNS, self.accounts)
                database.create_table("Transfer", data.TRANSFER_COLUMNS, self.transfers)
            with recorder.span("engine.ddl"):
                database.execute(data.TRANSFERS_DDL)
            with recorder.span("engine.fingerprint"):
                snapshot = database.snapshot()
                snapshot.fingerprint
            with recorder.span("engine.connect"):
                connection = database.connect("planned")
            query, logical = front_end(recorder, REACH_LITERAL_SQL, snapshot, counts)
            graph, stats = build_view(recorder, query, snapshot, counts)
            rows = plan_and_execute(
                recorder, query, logical, new_executor(graph, stats), counts
            )
            connection.close()
            database.close()
        counts["engine.rows_out"] = len(rows)
        # The Connection-level split of the same op, on its own database.
        database = load_bank(self.accounts, self.transfers)
        connection = database.connect("planned")
        with recorder.span("connection", op_id=index):
            with recorder.span("engine.prepare"):
                statement = connection.prepare(REACH_LITERAL_SQL)
            with recorder.span("engine.execute"):
                result = statement.execute()
            with recorder.span("engine.fetch"):
                result.rows
        self.totals.update(cache_counters(connection, database, REACH_LITERAL_SQL))
        database.close()

    def trace_extras(self, recorder):
        # Every op had a database of its own: the ratios are over their sum.
        self.counts.update(cache_ratios(self.totals))


# --------------------------------------------------------------------------- #
# pairs_ext
# --------------------------------------------------------------------------- #
class PairsExt(Workload):
    name = "pairs_ext"

    def setup(self) -> None:
        self.rows = data.pair_rows(self.seed)
        self.query = pair_reachability_query()
        database = self.fresh()
        self.reference = pair_reachability_reference(database.snapshot().database)
        database.close()
        self.expected = len(self.reference)
        self.totals: Counter = Counter()

    def verify(self) -> None:
        for engine in ("naive", "planned"):
            # One database per engine: a shared one would hand the second
            # engine the first one's cached relation.
            checked = self.fresh()
            rows = checked.connect(engine).evaluate(self.query).rows
            self.oracle_ok &= set(rows) == self.reference
            checked.close()

    def fresh(self) -> Database:
        database = Database()
        database.create_table("E4", data.E4_COLUMNS, self.rows)
        return database

    def op(self, index: int) -> bool:
        database = self.fresh()
        result = database.connect("planned").evaluate(self.query)
        database.close()
        return len(result) == self.expected

    def replay(self, recorder, index):
        counts = self.counts
        pattern = self.query.operand
        with recorder.span("pipeline", op_id=index):
            database = Database()
            with recorder.span("engine.create_table"):
                database.create_table("E4", data.E4_COLUMNS, self.rows)
            with recorder.span("engine.fingerprint"):
                snapshot = database.snapshot()
                snapshot.fingerprint
            with recorder.span("engine.connect"):
                connection = database.connect("planned")
            with recorder.span("planner.logical"):
                logical = build_logical_plan(pattern.output.pattern)
            graph, stats = build_view(recorder, pattern, snapshot, counts)
            rows = plan_and_execute(
                recorder, pattern, logical, new_executor(graph, stats), counts
            )
            connection.close()
            database.close()
        counts["engine.rows_out"] = len(rows)
        database = self.fresh()
        connection = database.connect("planned")
        with recorder.span("connection", op_id=index):
            with recorder.span("engine.execute"):
                result = connection.evaluate(self.query)
            with recorder.span("engine.fetch"):
                result.rows
        self.totals.update(snapshot_counters(database))
        database.close()

    def trace_extras(self, recorder):
        self.counts["engine.snapshot_cache_hit_ratio"] = ratio(
            self.totals["shared_hits"], self.totals["built"]
        )
        database = self.fresh()
        snapshot = database.snapshot()
        graph, _ = build_view(SpanRecorder(), self.query.operand, snapshot, {})
        with recorder.span("matching.oracle"):
            EndpointEvaluator(graph).evaluate_output(self.query.operand.output)
        database.close()


# --------------------------------------------------------------------------- #
# adhoc_compile
# --------------------------------------------------------------------------- #
class AdhocCompile(Workload):
    name = "adhoc_compile"

    def setup(self) -> None:
        accounts, (transfers,) = data.bank_tables(self.seed)
        self.database = load_bank(accounts, transfers)
        self.connection = self.database.connect("planned")
        # Every statement text is unique: literal 990 + k * 1e-6 with k
        # running on from a seeded start.  Amounts are whole numbers, so
        # every literal below 991 selects the same rows.
        self.first_k = data.shuffled(self.seed, "adhoc", range(100_000))[0]
        self.reference = data.hop_pairs(transfers, 990)
        self.expected = len(self.reference)

    def verify(self) -> None:
        naive = self.database.connect("naive")
        for index in range(1 if self.smoke else 3):
            text = self.text(-1 - index)
            for connection in (naive, self.connection):
                self.oracle_ok &= set(connection.execute(text).rows) == self.reference

    def text(self, index: int) -> str:
        k = (self.first_k + index) % 900_000
        return data.HOP_SQL.format(minimum=f"{990 + k * 1e-6:.6f}")

    def teardown(self) -> None:
        self.database.close()

    def op(self, index: int) -> bool:
        rows = self.connection.execute(self.text(index)).rows
        return len(rows) == self.expected

    def prepare_replay(self, first_index: int) -> None:
        snapshot = self.database.snapshot()
        self.probe = self.text(first_index)
        query, _ = front_end(SpanRecorder(), self.probe, snapshot, {})
        graph, stats = build_view(SpanRecorder(), query, snapshot, {})
        self.executor = new_executor(graph, stats)  # the view is warm, as in the op
        self.before = cache_counters(self.connection, self.database, self.probe)

    def after_real_ops(self) -> None:
        self.counts.update(
            connection_cache_ratios(self.connection, self.database, self.probe, self.before)
        )

    def replay(self, recorder, index):
        # Texts of the replay's own: the op's text now sits in the statement LRU.
        text = self.text(index + 250_000)
        snapshot = self.database.snapshot()
        with recorder.span("pipeline", op_id=index):
            query, logical = front_end(recorder, text, snapshot, self.counts)
            rows = plan_and_execute(recorder, query, logical, self.executor, self.counts)
        self.counts["engine.rows_out"] = len(rows)
        text = self.text(index + 500_000)
        with recorder.span("connection", op_id=index):
            with recorder.span("engine.prepare"):
                statement = self.connection.prepare(text)
            with recorder.span("engine.execute"):
                result = statement.execute()
            with recorder.span("engine.fetch"):
                result.rows
        statement.close()


IN_PROCESS = (ReachWarm, ReachCold, PairsExt, AdhocCompile, ReachSqlite)
