"""Engine comparison: naive oracle vs planned vs SQLite.

Runs two repetition-heavy workloads (amount-filtered transitive
reachability over random transfer graphs, and PGQext pair reachability
over 4-ary identifiers) on all registered engines and records the timings
in ``BENCH_planner.json`` so later PRs have a performance trajectory.

Measurement levels per workload:

* ``*_query`` — end-to-end engine evaluation of the full PGQ query
  (view subqueries, graph construction, pattern matching).  The naive
  and planned sides build a fresh engine per repeat so every repeat
  measures a cold query (the planned side keeps one plan cache across
  repeats); the SQLite side reuses one engine.
* ``*_matcher`` — pattern matching only, on a pre-built graph view.
* ``prepared_session`` — the prepared-statement workload (PR 4): one
  statement executed with ``PREPARED_BINDINGS`` different ``:minimum``
  bindings, comparing per-call literal substitution (every call pays
  parse + compile + plan; distinct literals defeat the plan cache by
  design) against ``session.prepare(...)`` + per-binding ``execute``.
  The ``prepared_gate`` floor (prepared >= 2x ad hoc) is asserted by the
  CI smoke job.
* ``snapshot_session`` — a new connection over a warm snapshot against a
  cold private session (PR 5).

The speed of the planned executor itself is guarded by the ``reach_warm``
and ``pairs_ext`` workloads of ``benchmarks/suite`` (``BENCHMARK.json``),
not by a gate here.

The ``observability_gate`` workload (PR 6) times the full Database →
Connection stack with the default disabled tracer against the warm
engine invoked directly on the largest transfers size; the smoke job
asserts the instrumented-but-off path adds < 3%.  The
``governance_gate`` workload (PR 8) mirrors it for the query-lifecycle
governance layer: the warm prepared-execute loop through the connection
with *no* budget and *no* token (the disabled-governance path — one
context-variable read per operator, no governor allocated) against the
engine-level compiled statement invoked directly; the smoke job asserts
the ungoverned stack adds < 8%.  The ``enabled_overhead_gate`` workload
is their counterpart for the layers switched *on*: the same warm
prepared ``->+`` execute, result order included (``.rows``), with a
recording tracer against ``NULL_TRACER`` and with a generous
``QueryBudget`` against none, each under a 20% ceiling — a streamed
result pays both per decoded *batch*, and a per-row wrapper sneaking
back in shows up here first.  Every timed sample
additionally feeds a per-workload latency histogram; the payload's
``latency_percentiles`` section reports p50/p95/p99 (computed by the
``repro.observability.metrics.Histogram`` the engine itself uses)
alongside the best-of timings in the ``workloads`` tables.

Usage::

    PYTHONPATH=src python benchmarks/bench_planner.py            # full run
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, List

from repro.datasets import (
    TransferWorkloadConfig,
    generate_iban_database,
    iban_view_relations,
    pair_graph_database,
)
from repro.engine import NaiveEngine, PlannedEngine, SQLiteEngine
from repro.matching import EndpointEvaluator
from repro.patterns.builder import edge, node, output, plus, prop_cmp, seq, where
from repro.pgq import graph_pattern_on_relations, pg_view, pg_view_ext
from repro.planner import PlanCache, PlanExecutor
from repro.separations import pair_reachability_query

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_planner.json"

TRANSFER_SIZES = [(50, 150), (100, 400), (200, 800)]
PAIR_SIZES = [4, 6, 8, 10, 12]
SMOKE_TRANSFER_SIZES = [(40, 120)]
SMOKE_PAIR_SIZES = [3]

#: Distinct ``:minimum`` bindings per measured ``prepared_session`` sweep.
PREPARED_BINDINGS = 25
#: Workload size of the prepared-statement sweep (small on purpose: the
#: gate isolates parse+plan overhead, not execution throughput).
PREPARED_WORKLOAD = (30, 90)

IBAN_VIEW = ("AccountNodes", "TransferEdges", "Sources", "Targets", "Labels", "Properties")

PREPARED_DDL = """CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))"""

PREPARED_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > :minimum
  COLUMNS (x.iban, y.iban) )"""


#: Per-label raw timing samples collected by :func:`_time`; rendered into
#: the ``latency_percentiles`` payload section (p50/p95/p99 alongside the
#: best-of numbers the gates use).
_LATENCY_SAMPLES: Dict[str, List[float]] = {}


def _time(function: Callable[[], object], repeats: int, label: str | None = None) -> float:
    """Best-of-N wall-clock seconds for one call.

    With ``label`` set, every individual sample is also recorded for the
    percentile summary — best-of stays the headline (and gate) number,
    the percentiles document run-to-run spread.
    """
    samples = _LATENCY_SAMPLES.setdefault(label, []) if label is not None else None
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        elapsed = time.perf_counter() - start
        if samples is not None:
            samples.append(elapsed)
        best = min(best, elapsed)
    return best


def _latency_percentiles() -> Dict[str, dict]:
    """p50/p95/p99 per labelled timing series, via the observability
    histogram (exact while the sample count fits its reservoir)."""
    from repro.observability.metrics import Histogram

    summary: Dict[str, dict] = {}
    for label in sorted(_LATENCY_SAMPLES):
        samples = _LATENCY_SAMPLES[label]
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        quantiles = histogram.percentiles()
        summary[label] = {
            "count": len(samples),
            "best_s": min(samples),
            "p50_s": quantiles["p50"],
            "p95_s": quantiles["p95"],
            "p99_s": quantiles["p99"],
        }
    return summary


def _filtered_reachability_output(threshold: int = 500):
    pattern = seq(
        node("x"),
        plus(seq(where(edge("t"), prop_cmp("t", "amount", ">", threshold)), node())),
        node("y"),
    )
    return output(pattern, "x", "y")


def _transfer_database(accounts: int, transfers: int):
    return generate_iban_database(
        TransferWorkloadConfig(accounts=accounts, transfers=transfers, seed=7)
    )


def _transfer_query():
    # The six iban view relations are registered under canonical names below.
    return graph_pattern_on_relations(_filtered_reachability_output(), IBAN_VIEW)


def _transfer_view_database(database):
    from repro.relational.database import Database

    relations = iban_view_relations(database)
    return Database.from_dict(
        {name: [tuple(row) for row in relation.rows] for name, relation in zip(IBAN_VIEW, relations)},
        arities={name: relation.arity for name, relation in zip(IBAN_VIEW, relations)},
    )


def bench_transfers(sizes, repeats: int) -> Dict[str, List[dict]]:
    query_rows: List[dict] = []
    matcher_rows: List[dict] = []
    out = _filtered_reachability_output()
    for accounts, transfers in sizes:
        database = _transfer_database(accounts, transfers)
        view_db = _transfer_view_database(database)
        query = _transfer_query()

        # A fresh engine per call: its view cache starts empty, so every
        # repeat is a cold query.
        plan_cache = PlanCache()
        naive = lambda: NaiveEngine(view_db).evaluate(query)  # noqa: E731
        planned = lambda: PlannedEngine(view_db, plan_cache=plan_cache).evaluate(query)  # noqa: E731
        sqlite_engine = SQLiteEngine(view_db)
        expected = naive()
        assert planned().rows == expected.rows
        assert sqlite_engine.evaluate(query).rows == expected.rows

        tag = f"transfers_query[{accounts}x{transfers}]"
        naive_s = _time(naive, repeats, f"{tag}.naive")
        planned_s = _time(planned, repeats, f"{tag}.planned")
        sqlite_s = _time(lambda: sqlite_engine.evaluate(query), repeats, f"{tag}.sqlite")
        sqlite_engine.close()
        query_rows.append(
            {
                "accounts": accounts,
                "transfers": transfers,
                "rows": len(expected),
                "naive_s": naive_s,
                "planned_s": planned_s,
                "sqlite_s": sqlite_s,
                "speedup_planned_vs_naive": round(naive_s / planned_s, 2),
            }
        )

        graph = pg_view(iban_view_relations(database))
        cache = PlanCache()
        assert PlanExecutor(graph, plan_cache=cache).evaluate_output(out) == EndpointEvaluator(
            graph
        ).evaluate_output(out)
        naive_m = _time(lambda: EndpointEvaluator(graph).evaluate_output(out), repeats)
        planned_m = _time(
            lambda: PlanExecutor(graph, plan_cache=cache).evaluate_output(out), repeats
        )
        matcher_rows.append(
            {
                "accounts": accounts,
                "transfers": transfers,
                "naive_s": naive_m,
                "planned_s": planned_m,
                "speedup_planned_vs_naive": round(naive_m / planned_m, 2),
            }
        )
    return {"transfers_query": query_rows, "transfers_matcher": matcher_rows}


def bench_pairs(sizes, repeats: int) -> Dict[str, List[dict]]:
    query_rows: List[dict] = []
    matcher_rows: List[dict] = []
    query = pair_reachability_query()
    for values in sizes:
        database = pair_graph_database(values, seed=5, edge_probability=0.15)
        plan_cache = PlanCache()
        naive = lambda: NaiveEngine(database).evaluate(query)  # noqa: E731
        planned = lambda: PlannedEngine(database, plan_cache=plan_cache).evaluate(query)  # noqa: E731
        sqlite_engine = SQLiteEngine(database)  # n-ary view: falls back to the oracle
        expected = naive()
        assert planned().rows == expected.rows
        assert sqlite_engine.evaluate(query).rows == expected.rows

        tag = f"pairs_reachability[{values}]"
        naive_s = _time(naive, repeats, f"{tag}.naive")
        planned_s = _time(planned, repeats, f"{tag}.planned")
        sqlite_s = _time(lambda: sqlite_engine.evaluate(query), repeats, f"{tag}.sqlite")
        sqlite_engine.close()
        query_rows.append(
            {
                "values": values,
                "pair_nodes": values * values,
                "rows": len(expected),
                "naive_s": naive_s,
                "planned_s": planned_s,
                "sqlite_s": sqlite_s,
                "speedup_planned_vs_naive": round(naive_s / planned_s, 2),
            }
        )

        # Matcher level: reachability on the materialized 4-ary pair graph.
        graph_pattern = query.operand  # Project(GraphPattern(...), ...)
        view_relations = tuple(
            NaiveEngine(database).evaluate(source) for source in graph_pattern.sources
        )
        graph = pg_view_ext(view_relations)
        out = graph_pattern.output
        cache = PlanCache()
        assert PlanExecutor(graph, plan_cache=cache).evaluate_output(out) == EndpointEvaluator(
            graph
        ).evaluate_output(out)
        naive_m = _time(lambda: EndpointEvaluator(graph).evaluate_output(out), repeats)
        planned_m = _time(
            lambda: PlanExecutor(graph, plan_cache=cache).evaluate_output(out), repeats
        )
        matcher_rows.append(
            {
                "values": values,
                "pair_nodes": values * values,
                "naive_s": naive_m,
                "planned_s": planned_m,
                "speedup_planned_vs_naive": round(naive_m / planned_m, 2),
            }
        )
    return {"pairs_reachability": query_rows, "pairs_matcher": matcher_rows}


def bench_prepared(repeats: int) -> Dict[str, List[dict]]:
    """Prepared statements vs per-call parse+plan on varying bindings.

    One connection, one statement shape, ``PREPARED_BINDINGS`` different
    amount thresholds.  The ad hoc side substitutes each threshold into
    the SQL text (every text is unique — a fractional epsilon keeps the
    result set identical while defeating both the statement LRU and the
    plan cache, exactly the pre-prepared-statement cost model); the
    prepared side binds ``:minimum`` on one compiled statement.  Runs in
    smoke mode too: the >= 2x floor is a CI gate (``prepared_gate``).
    """
    import random

    repeats = max(repeats, 3)
    accounts, transfers = PREPARED_WORKLOAD
    rng = random.Random(7)
    names = [f"A{i}" for i in range(accounts)]
    from repro.engine.database import Database as CatalogDatabase

    db = CatalogDatabase()
    db.create_table("Account", ["iban"], [(name,) for name in names])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 1000))
            for i in range(transfers)
        ],
    )
    db.execute(PREPARED_DDL)
    session = db.connect(engine="planned")
    thresholds = [500 + i for i in range(PREPARED_BINDINGS)]
    session.execute(PREPARED_QUERY.replace(":minimum", str(thresholds[0])))  # warm views

    prepared = session.prepare(PREPARED_QUERY)
    for threshold in thresholds:  # correctness: prepared == literal per binding
        literal = session.execute(PREPARED_QUERY.replace(":minimum", str(threshold)))
        assert prepared.execute(minimum=threshold).equals_unordered(literal)

    unique = iter(range(1_000_000))

    def adhoc_sweep() -> None:
        # Amounts are integers >= 1, so a tiny fractional epsilon keeps
        # every comparison result identical while making each statement
        # text (and thus each parse + plan) unique.
        for threshold in thresholds:
            session.execute(
                PREPARED_QUERY.replace(":minimum", str(threshold + next(unique) / 10**9))
            )

    def prepared_sweep() -> None:
        for threshold in thresholds:
            prepared.execute(minimum=threshold)

    adhoc_s = _time(adhoc_sweep, repeats, "prepared_session.adhoc")
    prepared_s = _time(prepared_sweep, repeats, "prepared_session.prepared")
    info = session._get_engine().plan_cache.info()
    db.close()
    return {
        "prepared_session": [
            {
                "accounts": accounts,
                "transfers": transfers,
                "bindings": PREPARED_BINDINGS,
                "adhoc_s": adhoc_s,
                "prepared_s": prepared_s,
                "speedup_prepared_vs_adhoc": round(adhoc_s / prepared_s, 2),
                "prepared_hits": info["prepared_hits"],
                "prepared_misses": info["prepared_misses"],
            }
        ]
    }


#: Workload size of the snapshot-sharing sweep (modest: the gate isolates
#: cold-vs-warm snapshot overhead, not execution throughput).
SNAPSHOT_WORKLOAD = (80, 280)


def bench_snapshot_session(repeats: int) -> Dict[str, List[dict]]:
    """Warm-snapshot connections vs cold private sessions (PR 5).

    The cold side opens a fresh ``Database`` (its own empty
    ``SnapshotCache``) per measurement and pays the full session cost:
    snapshot fingerprinting, view materialization, compact encoding,
    statistics and planning.  The warm side opens a *new connection* over
    an already-warm database, sharing all of that through the snapshot
    cache.  Runs in smoke mode too: the >= 1.5x floor is a CI gate
    (``snapshot_gate``); full runs gate at the recorded >= 2x target.
    """
    import random

    from repro.engine.database import Database as CatalogDatabase

    repeats = max(repeats, 3)
    accounts, transfers = SNAPSHOT_WORKLOAD
    rng = random.Random(13)
    names = [f"A{i}" for i in range(accounts)]
    account_rows = [(name,) for name in names]
    transfer_rows = [
        (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 1000))
        for i in range(transfers)
    ]

    def make_db() -> CatalogDatabase:
        db = CatalogDatabase()
        db.create_table("Account", ["iban"], account_rows)
        db.create_table(
            "Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], transfer_rows
        )
        db.execute(PREPARED_DDL)
        return db

    # A selective threshold keeps the (shared-cost) projection small, so
    # the measurement isolates what sharing actually removes: the view
    # materialization, encoding and planning the cold session pays.
    query_text = PREPARED_QUERY.replace(":minimum", "900")

    warm_db = make_db()
    baseline = warm_db.connect(engine="planned").execute(query_text)
    oracle = warm_db.connect(engine="naive").execute(query_text)
    assert baseline.equals_unordered(oracle)

    # One fresh database (fresh cache) per cold call, built outside the
    # timed region — the timing covers connect + execute only.
    cold_dbs = iter([make_db() for _ in range(repeats)])

    def cold_run() -> None:
        db = next(cold_dbs)
        db.connect(engine="planned").execute(query_text).rows

    def warm_run() -> None:
        warm_db.connect(engine="planned").execute(query_text).rows

    cold_s = _time(cold_run, repeats, "snapshot_session.cold")
    warm_s = _time(warm_run, repeats, "snapshot_session.warm")
    stats = warm_db.snapshot_cache.stats()
    return {
        "snapshot_session": [
            {
                "accounts": accounts,
                "transfers": transfers,
                "cold_session_s": cold_s,
                "warm_connection_s": warm_s,
                "speedup_warm_vs_cold": round(cold_s / warm_s, 2),
                "views_built": stats["views_built"],
                "views_shared_hits": stats["views_shared_hits"],
                "compact_encodings": stats["compact_encodings"],
            }
        ]
    }


#: Ceiling on the disabled-tracer stack overhead (percent), asserted by
#: the CI smoke job: the Database -> Connection -> PreparedStatement path
#: with the default NULL_TRACER may cost at most this much over invoking
#: the warm engine directly.
OBSERVABILITY_OVERHEAD_PCT = 3.0

#: Workload of the observability gate: the largest transfers size.
OBSERVABILITY_WORKLOAD = TRANSFER_SIZES[-1]


def bench_observability_gate(repeats: int) -> Dict[str, List[dict]]:
    """Disabled-tracer overhead on the largest transfers workload.

    Both sides run the *same* warm engine instance on the *same* compiled
    query: the baseline invokes ``engine.evaluate`` directly, the stack
    side goes through ``Connection.execute`` (statement LRU, tracer
    check, metrics recording, result wrapping) with tracing disabled —
    so the ratio isolates everything the instrumented session layer adds
    when observability is off.  The smoke job asserts the
    ``OBSERVABILITY_OVERHEAD_PCT`` ceiling.
    """
    import random

    from repro.engine.database import Database as CatalogDatabase
    from repro.sqlpgq.compiler import compile_query
    from repro.sqlpgq.parser import parse_statement

    repeats = max(repeats, 5)
    accounts, transfers = OBSERVABILITY_WORKLOAD
    rng = random.Random(29)
    names = [f"A{i}" for i in range(accounts)]
    db = CatalogDatabase()
    db.create_table("Account", ["iban"], [(name,) for name in names])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 1000))
            for i in range(transfers)
        ],
    )
    db.execute(PREPARED_DDL)
    text = PREPARED_QUERY.replace(":minimum", "500")
    connection = db.connect(engine="planned")
    warm = connection.execute(text)
    statement = parse_statement(text)
    query = compile_query(statement, connection.catalog)
    engine = connection._get_engine()
    assert warm.equals_unordered(engine.evaluate(query).rows)

    raw_s = _time(
        lambda: engine.evaluate(query), repeats, "observability_gate.raw_engine"
    )
    stack_s = _time(
        lambda: len(connection.execute(text)), repeats, "observability_gate.connection"
    )
    connection.close()
    overhead_pct = round((stack_s / raw_s - 1.0) * 100, 2)
    return {
        "observability_gate": [
            {
                "workload": f"transfers_query {accounts}/{transfers}",
                "raw_engine_s": raw_s,
                "connection_s": stack_s,
                "overhead_pct": overhead_pct,
            }
        ]
    }


#: Ceiling asserted by the CI smoke job: the semantic analyzer may add
#: at most this much to the cold setup of a never-seen statement text
#: (parse + analyze + compile + dataflow + engine preparation).  Recorded
#: in BENCH_planner.json: 17.0% (17.0-22.7% over seven runs on one box);
#: the ceiling leaves ~1.5x over the worst of them.
ANALYSIS_OVERHEAD_PCT = 35.0

#: prepare() calls per timed analysis_gate sweep.
ANALYSIS_PREPARES = 40


def _distinct_texts():
    """Never-repeating variants of ``PREPARED_QUERY``: a fractional
    literal keeps the result set of threshold 500 (amounts are whole
    numbers) while making every text — and so every front half — cold,
    the shape ``adhoc_compile`` of ``benchmarks/suite`` has."""
    for k in range(1, 900_000):
        yield PREPARED_QUERY.replace(":minimum", f"{500 + k * 1e-6:.6f}")


def bench_analysis_gate(repeats: int) -> Dict[str, List[dict]]:
    """Semantic-analyzer share of cold statement setup time.

    Two connections over one warm snapshot prepare statement texts
    neither has seen; one runs the analyzer (the default), the other
    opts out with ``analyze=False``.  Both sides pay parse + compile +
    dataflow + engine preparation — the identical non-analyzer work — so
    the ratio isolates the analyzer walk (graph-summary lookup, label
    and property resolution, type inference).  Every text is distinct:
    a repeated text is a statement-store hit that runs no analyzer at
    all.  The smoke job asserts the ``ANALYSIS_OVERHEAD_PCT`` ceiling.
    """
    import random

    from repro.engine.database import Database as CatalogDatabase

    # Best-of over interleaved sweeps pins both sides to their floor
    # instead of comparing two noisy single draws.
    repeats = max(repeats * 4, 20)
    accounts, transfers = PREPARED_WORKLOAD
    rng = random.Random(31)
    names = [f"A{i}" for i in range(accounts)]
    db = CatalogDatabase()
    db.create_table("Account", ["iban"], [(name,) for name in names])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 1000))
            for i in range(transfers)
        ],
    )
    db.execute(PREPARED_DDL)
    analyzed = db.connect(engine="planned")
    bare = db.connect(engine="planned", analyze=False)
    # Warm both sides: view tables, schema-summary memo, engine state.
    statement = analyzed.prepare(PREPARED_QUERY)
    assert statement.parameter_types == {"minimum": "number"}
    statement.close()
    bare.prepare(PREPARED_QUERY).close()
    texts = _distinct_texts()

    def prepare_sweep(connection) -> None:
        for _ in range(ANALYSIS_PREPARES):
            connection.prepare(next(texts)).close()

    # Interleave the two sweeps so both sides sample the same machine
    # conditions (a GC pause or a noisy neighbour hitting only one
    # side's block would otherwise dominate the signal).
    analyzed_s = bare_s = float("inf")
    for _ in range(repeats):
        analyzed_s = min(
            analyzed_s,
            _time(lambda: prepare_sweep(analyzed), 1, "analysis_gate.analyzed"),
        )
        bare_s = min(
            bare_s, _time(lambda: prepare_sweep(bare), 1, "analysis_gate.bare")
        )
    analyzed.close()
    bare.close()
    overhead_pct = round((analyzed_s / bare_s - 1.0) * 100, 2)
    return {
        "analysis_gate": [
            {
                "workload": f"prepared_session {accounts}/{transfers}",
                "prepares": ANALYSIS_PREPARES,
                "bare_prepare_s": bare_s,
                "analyzed_prepare_s": analyzed_s,
                "overhead_pct": overhead_pct,
            }
        ]
    }


#: Ceiling asserted by the CI smoke job: the disabled-governance path
#: (no budget, no token — ``make_governor`` returns None and no
#: checkpoint allocates) may add at most this much to the warm
#: prepared-execute loop over the engine-level compiled statement.
#: The loop it is a share of got ~6x cheaper when decode went batch-form
#: (18 -> 2.9 ms per execute): the statement's fixed bookkeeping, 60-120
#: us an execute then and now (metrics recording is most of it), measured
#: 0.3-0.6 % against the old loop and measures 1.8-4.1 % against this one
#: (a dozen smoke runs on one box).  The ceiling leaves ~2x over the worst
#: of them and is still the tighter bound in time: 8 % of 2.9 ms allows
#: 230 us an execute where 2 % of 18 ms allowed 360.
GOVERNANCE_OVERHEAD_PCT = 8.0

#: prepared.execute() calls per timed governance_gate sweep.
GOVERNANCE_EXECUTES = 20


def _transfers_catalog(accounts: int, transfers: int, *, seed: int):
    """A catalog ``Database`` holding a seeded random transfers graph."""
    import random

    from repro.engine.database import Database as CatalogDatabase

    rng = random.Random(seed)
    names = [f"A{i}" for i in range(accounts)]
    db = CatalogDatabase()
    db.create_table("Account", ["iban"], [(name,) for name in names])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 1000))
            for i in range(transfers)
        ],
    )
    db.execute(PREPARED_DDL)
    return db


def bench_governance_gate(repeats: int) -> Dict[str, List[dict]]:
    """Disabled-governance overhead on the warm prepared-execute loop.

    Both sides run the *same* warm compiled statement on the *same*
    engine and drain the *same* streaming decode: the baseline invokes
    the engine-level compiled form's ``execute_stream`` directly (no
    session wrapper at all), the governed side goes through
    ``PreparedStatement.execute`` with no budget, no token and no
    admission controller — the path that merges budgets (to nothing),
    asks ``make_governor`` for a governor (gets None) and runs the
    executor loops whose checkpoints poll an empty context variable.
    The ratio therefore bounds everything the governance layer costs
    when it is off; the smoke job asserts the
    ``GOVERNANCE_OVERHEAD_PCT`` ceiling.
    """
    repeats = max(repeats * 4, 12)
    accounts, transfers = TRANSFER_SIZES[-1]
    connection = _transfers_catalog(accounts, transfers, seed=37).connect(engine="planned")
    thresholds = [500 + i for i in range(GOVERNANCE_EXECUTES)]
    prepared = connection.prepare(PREPARED_QUERY)
    warm = prepared.execute(minimum=thresholds[0])  # warm views + plan cache
    compiled = prepared._compiled
    assert warm.equals_unordered(compiled.execute({"minimum": thresholds[0]}).rows)

    def raw_sweep() -> None:
        # Drain into a list: the decode *and* the row buffer both sides pay.
        for threshold in thresholds:
            _arity, batches, _ordered = compiled.execute_stream({"minimum": threshold})
            list(chain.from_iterable(batches))

    def governed_off_sweep() -> None:
        # len() forces the streamed result, matching the baseline's
        # materialization — the sweep must not defer the decode work.
        for threshold in thresholds:
            len(prepared.execute(minimum=threshold))

    # Interleave the sweeps (same rationale as analysis_gate): the
    # disabled path's cost is microseconds against a millisecond-scale
    # execute, so both sides must sample the same machine conditions.
    raw_s = governed_s = float("inf")
    for _ in range(repeats):
        raw_s = min(raw_s, _time(lambda: raw_sweep(), 1, "governance_gate.raw"))
        governed_s = min(
            governed_s,
            _time(lambda: governed_off_sweep(), 1, "governance_gate.ungoverned"),
        )
    connection.close()
    overhead_pct = round((governed_s / raw_s - 1.0) * 100, 2)
    return {
        "governance_gate": [
            {
                "workload": f"prepared_session {accounts}/{transfers}",
                "executes": GOVERNANCE_EXECUTES,
                "raw_compiled_s": raw_s,
                "ungoverned_stack_s": governed_s,
                "overhead_pct": overhead_pct,
            }
        ]
    }


#: Ceiling asserted by the CI smoke job, for each of the two layers
#: switched ON (a recording tracer; a budget that never fires) over the
#: warm prepared ``->+`` execute read through ``.rows``.  Measured 24-26 %
#: / 21-24 % while both wrapped every decoded row (three runs of this
#: gate on the parent of the batch-form change), under 1 % / 4.2-7.2 %
#: with one clock pair per drain and one governor poll per batch.
ENABLED_OVERHEAD_PCT = 20.0


def bench_enabled_overhead_gate(repeats: int) -> Dict[str, List[dict]]:
    """Tracer-on and budget-on overhead on the warm prepared execute.

    One warm prepared statement on one connection, every sweep reading
    the whole result in result order; the sides differ only in the layer
    under test — ``Tracer([RingBufferSink()])`` against ``NULL_TRACER`` on
    the connection, and a ``QueryBudget`` too generous to fire against no
    budget.  Interleaved best-of, as in ``governance_gate``; the smoke
    job asserts the ``ENABLED_OVERHEAD_PCT`` ceiling on both.
    """
    from repro.governance import QueryBudget
    from repro.observability import NULL_TRACER, RingBufferSink, Tracer

    repeats = max(repeats * 4, 12)
    accounts, transfers = TRANSFER_SIZES[-1]
    connection = _transfers_catalog(accounts, transfers, seed=41).connect(engine="planned")
    thresholds = [500 + i for i in range(GOVERNANCE_EXECUTES)]
    prepared = connection.prepare(PREPARED_QUERY)
    prepared.execute(minimum=thresholds[0]).rows  # warm views + plan cache
    generous = QueryBudget(timeout_s=600.0, max_output_rows=10**9, max_intermediate=10**12)

    def sweep(tracer, budget) -> None:
        connection.use_tracer(tracer)
        for threshold in thresholds:
            prepared.execute(minimum=threshold, budget=budget).rows

    sides = {
        "plain": (NULL_TRACER, None),
        "tracer_on": (Tracer([RingBufferSink()]), None),
        "budget_on": (NULL_TRACER, generous),
    }
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(repeats):
        for side, (tracer, budget) in sides.items():
            best[side] = min(
                best[side],
                _time(lambda: sweep(tracer, budget), 1, f"enabled_overhead_gate.{side}"),
            )
    connection.close()
    return {
        "enabled_overhead_gate": [
            {
                "workload": f"prepared_session {accounts}/{transfers}",
                "executes": GOVERNANCE_EXECUTES,
                "plain_s": best["plain"],
                "tracer_on_s": best["tracer_on"],
                "budget_on_s": best["budget_on"],
                "tracer_on_overhead_pct": round(
                    (best["tracer_on"] / best["plain"] - 1.0) * 100, 2
                ),
                "budget_on_overhead_pct": round(
                    (best["budget_on"] / best["plain"] - 1.0) * 100, 2
                ),
            }
        ]
    }


#: Ceiling asserted by the CI smoke job: the plan-level dataflow pass
#: (logical lowering + abstract interpretation + satisfiability pruning)
#: may claim at most this share of the cold setup of a never-seen
#: statement text.  Recorded in BENCH_planner.json: 7.7% (7.5-8.2% over
#: seven runs); the ceiling leaves ~1.8x over the worst of them.
DATAFLOW_OVERHEAD_PCT = 15.0

#: Floor asserted by the CI smoke job: a statically-empty prepared
#: statement short-circuits before the engine, so its warm execute must
#: beat the satisfiable twin's by at least this factor.
DATAFLOW_SHORT_CIRCUIT_FLOOR = 5.0

#: prepare()/execute() calls per timed dataflow_gate sweep.
DATAFLOW_SWEEP = 40


def bench_dataflow_gate(repeats: int) -> Dict[str, List[dict]]:
    """Dataflow-pass share of prepare time, and the short-circuit win.

    Two measurements over one warm snapshot.  First, the prepare-time
    share: a ``prepare()`` sweep over statement texts the connection has
    never seen (each one runs the whole front half cold) against a sweep
    of the dataflow stage alone — the logical lowering plus the abstract
    interpretation, called directly on as many compiled queries.
    Second, the short-circuit: a statically-empty prepared statement (constant range
    contradiction) executes against its satisfiable twin — the empty
    side returns its schema-only relation without invoking the engine,
    so the ratio shows what the verdict saves.  The smoke job asserts
    the ``DATAFLOW_OVERHEAD_PCT`` ceiling and the
    ``DATAFLOW_SHORT_CIRCUIT_FLOOR`` floor.
    """
    import random

    from repro.analysis.dataflow import analyze_plan
    from repro.engine.database import Database as CatalogDatabase
    from repro.planner.logical import build_logical_plan
    from repro.sqlpgq.compiler import compile_query
    from repro.sqlpgq.parser import parse_statement

    repeats = max(repeats * 4, 20)
    accounts, transfers = PREPARED_WORKLOAD
    rng = random.Random(41)
    names = [f"A{i}" for i in range(accounts)]
    db = CatalogDatabase()
    db.create_table("Account", ["iban"], [(name,) for name in names])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 1000))
            for i in range(transfers)
        ],
    )
    db.execute(PREPARED_DDL)
    connection = db.connect(engine="planned")
    connection.prepare(PREPARED_QUERY).close()  # warm views + engine state
    texts = _distinct_texts()
    queries = [
        compile_query(parse_statement(next(texts)), connection.catalog)
        for _ in range(DATAFLOW_SWEEP)
    ]

    def prepare_sweep() -> None:
        for _ in range(DATAFLOW_SWEEP):
            connection.prepare(next(texts)).close()

    def dataflow_sweep() -> None:
        for query in queries:
            analyze_plan(build_logical_plan(query.output.pattern))

    # Interleaved best-of (same rationale as analysis_gate): both sides
    # must sample the same machine conditions.
    prepare_s = dataflow_s = float("inf")
    for _ in range(repeats):
        prepare_s = min(
            prepare_s, _time(lambda: prepare_sweep(), 1, "dataflow_gate.prepare")
        )
        dataflow_s = min(
            dataflow_s, _time(lambda: dataflow_sweep(), 1, "dataflow_gate.pass")
        )
    share_pct = round(dataflow_s / prepare_s * 100, 2)

    empty = connection.prepare(
        PREPARED_QUERY.replace(
            "t.amount > :minimum", "t.amount > 900 AND t.amount < 10"
        )
    )
    live = connection.prepare(PREPARED_QUERY.replace(":minimum", "500"))
    assert empty.statically_empty and not live.statically_empty
    assert empty.execute().rows == ()
    len(live.execute())  # warm the closure's view/plan state

    def empty_sweep() -> None:
        for _ in range(DATAFLOW_SWEEP):
            empty.execute()

    def live_sweep() -> None:
        # len() forces the streamed rows so the live side pays its full
        # decode, matching what a caller consuming the result pays.
        for _ in range(DATAFLOW_SWEEP):
            len(live.execute())

    empty_s = live_s = float("inf")
    for _ in range(repeats):
        empty_s = min(
            empty_s, _time(lambda: empty_sweep(), 1, "dataflow_gate.empty")
        )
        live_s = min(live_s, _time(lambda: live_sweep(), 1, "dataflow_gate.live"))
    connection.close()
    return {
        "dataflow_gate": [
            {
                "workload": f"prepared_session {accounts}/{transfers}",
                "sweep": DATAFLOW_SWEEP,
                "prepare_s": prepare_s,
                "dataflow_pass_s": dataflow_s,
                "share_pct": share_pct,
                "live_execute_s": live_s,
                "empty_execute_s": empty_s,
                "short_circuit_speedup": round(live_s / empty_s, 2),
            }
        ]
    }


def _print_table(title: str, rows: List[dict]) -> None:
    print(f"\n# {title}")
    if not rows:
        return
    header = list(rows[0])
    widths = [max(len(h), *(len(_fmt(r[h])) for r in rows)) for h in header]
    print("  " + "  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(_fmt(row[h]).rjust(w) for h, w in zip(header, widths)))


def _fmt(value) -> str:
    return f"{value:.5f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small sizes, one repeat (CI)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    repeats = 1 if args.smoke else 3
    transfer_sizes = SMOKE_TRANSFER_SIZES if args.smoke else TRANSFER_SIZES
    pair_sizes = SMOKE_PAIR_SIZES if args.smoke else PAIR_SIZES

    workloads: Dict[str, List[dict]] = {}
    workloads.update(bench_transfers(transfer_sizes, repeats))
    workloads.update(bench_pairs(pair_sizes, repeats))
    # The gates below run in both modes — they are what CI asserts.
    workloads.update(bench_prepared(repeats))
    workloads.update(bench_snapshot_session(repeats))
    workloads.update(bench_observability_gate(repeats))
    workloads.update(bench_analysis_gate(repeats))
    workloads.update(bench_governance_gate(repeats))
    workloads.update(bench_enabled_overhead_gate(repeats))
    workloads.update(bench_dataflow_gate(repeats))

    for name, rows in workloads.items():
        _print_table(name, rows)

    payload = {
        "generated_by": "benchmarks/bench_planner.py" + (" --smoke" if args.smoke else ""),
        "engines": ["naive", "planned", "sqlite"],
        "workloads": workloads,
        "latency_percentiles": _latency_percentiles(),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    missed = False
    # Prepared-statement floor (smoke and full): executing one prepared
    # statement across varying bindings must stay >= 2x the per-call
    # parse+plan path.
    for row in workloads["prepared_session"]:
        speedup = row["speedup_prepared_vs_adhoc"]
        below = speedup < 2.0
        missed = missed or below
        status = "BELOW TARGET" if below else "ok"
        print(
            f"prepared_session: prepared execution is {speedup}x the "
            f"per-call parse+plan path over {row['bindings']} bindings [{status}]"
        )
    # Snapshot-sharing floor: a second connection over a warm snapshot
    # must stay >= 1.5x a cold private session (full runs gate at the
    # recorded >= 2x target).
    snapshot_floor = 1.5 if args.smoke else 2.0
    for row in workloads["snapshot_session"]:
        speedup = row["speedup_warm_vs_cold"]
        below = speedup < snapshot_floor
        missed = missed or below
        status = "BELOW TARGET" if below else "ok"
        print(
            f"snapshot_session: a warm-snapshot connection is {speedup}x a "
            f"cold private session (floor {snapshot_floor}x) [{status}]"
        )
    # Disabled-tracer overhead ceiling (smoke and full): the full
    # Database -> Connection -> PreparedStatement stack with the default
    # NULL_TRACER may add at most OBSERVABILITY_OVERHEAD_PCT over the
    # warm engine invoked directly.
    for row in workloads["observability_gate"]:
        overhead = row["overhead_pct"]
        above = overhead >= OBSERVABILITY_OVERHEAD_PCT
        missed = missed or above
        status = "ABOVE CEILING" if above else "ok"
        print(
            f"observability_gate {row['workload']}: disabled-tracer stack adds "
            f"{overhead}% over the raw engine "
            f"(ceiling {OBSERVABILITY_OVERHEAD_PCT}%) [{status}]"
        )
    # Analyzer prepare-time ceiling (smoke and full): running the
    # semantic analyzer on a never-seen statement text may add at most
    # ANALYSIS_OVERHEAD_PCT over an analyze=False connection.
    for row in workloads["analysis_gate"]:
        overhead = row["overhead_pct"]
        above = overhead >= ANALYSIS_OVERHEAD_PCT
        missed = missed or above
        status = "ABOVE CEILING" if above else "ok"
        print(
            f"analysis_gate {row['workload']}: the semantic analyzer adds "
            f"{overhead}% to cold prepare time "
            f"(ceiling {ANALYSIS_OVERHEAD_PCT}%) [{status}]"
        )
    # Disabled-governance ceiling (smoke and full): the no-budget,
    # no-token prepared-execute path may add at most
    # GOVERNANCE_OVERHEAD_PCT over the engine-level compiled statement.
    for row in workloads["governance_gate"]:
        overhead = row["overhead_pct"]
        above = overhead >= GOVERNANCE_OVERHEAD_PCT
        missed = missed or above
        status = "ABOVE CEILING" if above else "ok"
        print(
            f"governance_gate {row['workload']}: the disabled-governance "
            f"stack adds {overhead}% to warm prepared execution "
            f"(ceiling {GOVERNANCE_OVERHEAD_PCT}%) [{status}]"
        )
    # Enabled-layer ceilings (smoke and full): a recording tracer, and a
    # budget that never fires, may each add at most ENABLED_OVERHEAD_PCT
    # to the warm prepared execute read in result order.
    for row in workloads["enabled_overhead_gate"]:
        for layer in ("tracer_on", "budget_on"):
            overhead = row[f"{layer}_overhead_pct"]
            above = overhead >= ENABLED_OVERHEAD_PCT
            missed = missed or above
            status = "ABOVE CEILING" if above else "ok"
            print(
                f"enabled_overhead_gate {row['workload']}: {layer} adds "
                f"{overhead}% to warm prepared execution "
                f"(ceiling {ENABLED_OVERHEAD_PCT}%) [{status}]"
            )
    # Dataflow prepare-share ceiling + short-circuit floor (smoke and
    # full): the plan-level abstract interpretation may claim at most
    # DATAFLOW_OVERHEAD_PCT of cold prepare time, and a statically-empty
    # prepared statement (never reaching the engine) must execute at
    # least DATAFLOW_SHORT_CIRCUIT_FLOOR x faster than its satisfiable
    # twin.
    for row in workloads["dataflow_gate"]:
        share = row["share_pct"]
        above = share >= DATAFLOW_OVERHEAD_PCT
        missed = missed or above
        status = "ABOVE CEILING" if above else "ok"
        print(
            f"dataflow_gate {row['workload']}: the dataflow pass claims "
            f"{share}% of cold prepare time "
            f"(ceiling {DATAFLOW_OVERHEAD_PCT}%) [{status}]"
        )
        speedup = row["short_circuit_speedup"]
        below = speedup < DATAFLOW_SHORT_CIRCUIT_FLOOR
        missed = missed or below
        status = "BELOW TARGET" if below else "ok"
        print(
            f"dataflow_gate {row['workload']}: statically-empty execution "
            f"short-circuits at {speedup}x the satisfiable twin "
            f"(floor {DATAFLOW_SHORT_CIRCUIT_FLOOR}x) [{status}]"
        )
    if args.smoke:
        return 1 if missed else 0
    for key in (
        "transfers_query",
        "transfers_matcher",
        "pairs_reachability",
        "pairs_matcher",
    ):
        largest = workloads[key][-1]
        speedup = largest["speedup_planned_vs_naive"]
        below = speedup < 5.0
        missed = missed or below
        status = "BELOW TARGET" if below else "ok"
        print(f"{key}: planned is {speedup}x naive at the largest size [{status}]")
    # Nonzero exit makes a perf regression below the recorded targets
    # (>= 5x planned vs naive) fail loudly.
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
