"""Tests for the observability layer: tracing, metrics, EXPLAIN ANALYZE,
the slow-query log and snapshot-cache liveness (PR 6; pins since PR 18).

Spans and histograms are tested against hand-built references; the
engine-facing pieces run real queries through the Database -> Connection
stack on all three engines.
"""

import json
import os
import sys
import threading
import time

import pytest

from repro.engine.database import Database as CatalogDatabase
from repro.observability import (
    Histogram,
    JsonLinesSink,
    MetricsRegistry,
    NULL_TRACER,
    RingBufferSink,
    Tracer,
    activate,
    active_tracer,
    deactivate,
    iter_spans,
    trace_span,
)

ENGINES = ["naive", "planned", "sqlite"]

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

HOP_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]-> (y) COLUMNS (x.iban, t.amount, y.iban) )"""

PATH_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 100 COLUMNS (x.iban, y.iban) )"""


def transfers_database(**kwargs) -> CatalogDatabase:
    import random

    rng = random.Random(7)
    accounts = [f"A{i}" for i in range(8)]
    db = CatalogDatabase(**kwargs)
    db.create_table("Account", ["iban"], [(a,) for a in accounts])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(accounts), rng.choice(accounts), i, rng.randint(1, 500))
            for i in range(24)
        ],
    )
    db.execute(DDL)
    return db


# --------------------------------------------------------------------------- #
# Tracing: nesting, thread safety, no-op cost
# --------------------------------------------------------------------------- #
def test_span_nesting_builds_one_tree_per_root():
    ring = RingBufferSink()
    tracer = Tracer(sinks=(ring,))
    with tracer.span("query", engine="planned"):
        with tracer.span("plan"):
            pass
        with tracer.span("execute") as execute:
            execute.tag(rows=3)
            tracer.event("compact.encode", nodes=5)

    records = ring.records()
    assert len(records) == 1  # only the root is emitted
    root = records[0]
    assert root["name"] == "query"
    assert root["tags"] == {"engine": "planned"}
    assert [child["name"] for child in root["children"]] == ["plan", "execute"]
    execute_rec = root["children"][1]
    assert execute_rec["tags"]["rows"] == 3
    assert execute_rec["children"][0]["name"] == "compact.encode"
    assert root["duration_s"] >= execute_rec["duration_s"] >= 0.0
    assert sorted(span["name"] for span in iter_spans(root)) == [
        "compact.encode", "execute", "plan", "query",
    ]


def test_tracer_is_thread_safe_with_independent_trees():
    ring = RingBufferSink()
    tracer = Tracer(sinks=(ring,))
    barrier = threading.Barrier(2)

    def worker(label: str) -> None:
        barrier.wait()
        for index in range(20):
            with tracer.span("query", worker=label):
                with tracer.span("execute", step=index):
                    pass

    threads = [threading.Thread(target=worker, args=(name,)) for name in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    records = ring.records()
    assert len(records) == 40
    for root in records:
        # No cross-thread contamination: every root has exactly its own child.
        assert root["name"] == "query"
        assert [child["name"] for child in root["children"]] == ["execute"]
    by_worker = {"a": 0, "b": 0}
    for root in records:
        by_worker[root["tags"]["worker"]] += 1
    assert by_worker == {"a": 20, "b": 20}


def test_activate_deactivate_scopes_the_ambient_tracer():
    assert active_tracer() is NULL_TRACER
    tracer = Tracer(sinks=(RingBufferSink(),))
    token = activate(tracer)
    try:
        assert active_tracer() is tracer
    finally:
        deactivate(token)
    assert active_tracer() is NULL_TRACER


def test_disabled_tracer_spans_are_free():
    # Identity: the null tracer hands out one shared no-op span, so the
    # hot path allocates nothing.
    assert NULL_TRACER.span("execute", rows=1) is NULL_TRACER.span("plan")
    assert not NULL_TRACER.enabled

    # Generous relative guard: a trace_span-wrapped loop under the null
    # tracer must stay within an order of magnitude of the bare loop.
    iterations = 20_000

    def bare() -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            pass
        return time.perf_counter() - start

    def wrapped() -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            with trace_span("execute"):
                pass
        return time.perf_counter() - start

    bare_s = min(bare() for _ in range(3))
    wrapped_s = min(wrapped() for _ in range(3))
    assert wrapped_s < max(bare_s * 50, 0.05)


def test_json_lines_sink_round_trips(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonLinesSink(path)
    tracer = Tracer(sinks=(sink,))
    with tracer.span("query", engine="planned"):
        with tracer.span("execute") as span:
            span.tag(rows=2, obj=object())  # non-JSON-native tag value
    tracer.emit({"kind": "slow_query", "duration_s": 1.0})
    sink.close()

    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0]["name"] == "query"
    assert records[0]["children"][0]["tags"]["rows"] == 2
    assert records[1]["kind"] == "slow_query"


# --------------------------------------------------------------------------- #
# Metrics: quantile accuracy, Prometheus rendering
# --------------------------------------------------------------------------- #
def test_histogram_quantiles_match_sorted_reference():
    import random

    rng = random.Random(42)
    samples = [rng.uniform(0.0001, 2.0) for _ in range(800)]
    histogram = Histogram()
    for sample in samples:
        histogram.observe(sample)

    ordered = sorted(samples)
    for q in (0.5, 0.95, 0.99):
        expected = ordered[min(int(q * len(ordered)), len(ordered) - 1)]
        # <= 1024 observations keep the reservoir exact.
        assert histogram.quantile(q) == pytest.approx(expected)
    assert histogram.count == len(samples)
    assert histogram.sum == pytest.approx(sum(samples))
    percentiles = histogram.percentiles()
    assert set(percentiles) == {"p50", "p95", "p99"}
    assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]


def test_histogram_buckets_are_cumulative():
    histogram = Histogram(buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        histogram.observe(value)
    assert histogram.cumulative_buckets() == [(0.1, 1), (1.0, 3), (float("inf"), 4)]


def test_prometheus_export_format():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", "Completed queries", engine="planned").inc(3)
    registry.gauge("repro_plan_cache_size", "Cached plans").set(7)
    histogram = registry.histogram(
        "repro_query_seconds", "Latency", buckets=(0.1, 1.0), engine="planned"
    )
    histogram.observe(0.05)
    histogram.observe(0.5)

    text = registry.to_prometheus()
    assert "# HELP repro_queries_total Completed queries" in text
    assert "# TYPE repro_queries_total counter" in text
    assert 'repro_queries_total{engine="planned"} 3' in text
    assert "# TYPE repro_plan_cache_size gauge" in text
    assert "repro_plan_cache_size 7" in text
    assert "# TYPE repro_query_seconds histogram" in text
    assert 'repro_query_seconds_bucket{engine="planned",le="0.1"} 1' in text
    assert 'repro_query_seconds_bucket{engine="planned",le="+Inf"} 2' in text
    assert 'repro_query_seconds_count{engine="planned"} 2' in text
    assert text.endswith("\n")


def test_database_metrics_record_queries():
    db = transfers_database(metrics=MetricsRegistry())
    with db.connect(engine="planned") as connection:
        connection.execute(HOP_QUERY)
        connection.execute(HOP_QUERY)
    exported = db.export_metrics()
    queries = exported["repro_queries_total"]["values"][0]
    assert queries["value"] == 2
    assert queries["labels"] == {"engine": "planned"}
    latency = exported["repro_query_seconds"]["values"][0]
    assert latency["count"] == 2
    assert latency["sum"] > 0.0
    assert "repro_snapshot_cache_entries" in exported


def test_query_metrics_follow_the_connection_engine():
    # The per-query instruments are bound per engine: after use_engine the
    # queries land under the new label, and an instrument appears only
    # once a query used it (naive streams nothing and has no plan cache).
    registry = MetricsRegistry()
    db = transfers_database(metrics=registry)
    with db.connect(engine="planned") as connection:
        connection.execute(HOP_QUERY).rows
        connection.execute(PATH_QUERY).rows
        connection.use_engine("naive")
        connection.execute(HOP_QUERY).rows
        connection.use_engine("planned")
        connection.execute(HOP_QUERY).rows
    text = registry.to_prometheus()
    families = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")]
    assert families == [
        "repro_queries_total",
        "repro_query_seconds",
        "repro_streamed_results_total",
        "repro_rows_produced_total",
        "repro_plan_cache_hits",
        "repro_plan_cache_misses",
        "repro_plan_cache_prepared_hits",
        "repro_plan_cache_prepared_misses",
        "repro_plan_cache_size",
        "repro_result_decode_seconds",
        "repro_result_rows_total",
        "repro_fixpoint_rounds_total",
    ]
    samples = {
        line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1]
        for line in text.splitlines()
        if not line.startswith("#") and "_bucket" not in line
    }
    assert samples['repro_queries_total{engine="naive"}'] == "1"
    assert samples['repro_queries_total{engine="planned"}'] == "3"
    assert samples['repro_query_seconds_count{engine="naive"}'] == "1"
    assert samples['repro_streamed_results_total{engine="planned"}'] == "3"
    assert samples['repro_result_decode_seconds_count{engine="planned"}'] == "3"
    assert samples['repro_plan_cache_size{engine="planned"}'] == "2"
    naive = {sample for sample in samples if 'engine="naive"' in sample}
    assert naive == {
        'repro_queries_total{engine="naive"}',
        'repro_query_seconds_sum{engine="naive"}',
        'repro_query_seconds_count{engine="naive"}',
    }


def test_concurrent_ad_hoc_queries_count_exactly_once_each():
    # Threads share one connection: its bound instruments and its
    # snapshot's property types fill concurrently on first use, and a
    # lost update would drop a count or type a column twice differently.
    registry = MetricsRegistry()
    db = transfers_database(metrics=registry)
    threads, per_thread = min(16, (os.cpu_count() or 1) + 4), 10
    barrier, schemas = threading.Barrier(threads), set()
    with db.connect(engine="planned") as connection:

        def run(worker: int) -> None:
            barrier.wait(5.0)
            for index in range(per_thread):
                text = HOP_QUERY.replace("COLUMNS", f"WHERE t.amount > {worker}{index} COLUMNS")
                schemas.add(connection.prepare(text).result_schema)
                connection.execute(text).rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(n,)) for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
    exported = registry.collect()
    assert exported["repro_queries_total"]["values"] == [
        {"labels": {"engine": "planned"}, "value": threads * per_thread}
    ]
    assert schemas == {(("x.iban", "string"), ("t.amount", "number"), ("y.iban", "string"))}


# --------------------------------------------------------------------------- #
# EXPLAIN ANALYZE
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ENGINES)
def test_explain_analyze_reports_rows_and_time(engine):
    db = transfers_database()
    with db.connect(engine=engine) as connection:
        expected = len(connection.execute(PATH_QUERY))
        explain = connection.explain_analyze(PATH_QUERY)
    analyze = explain.analyze
    assert analyze is not None
    assert analyze.rows_out == expected
    assert analyze.wall_s > 0.0
    assert f"engine={engine}" in analyze.label
    stage_names = [child.label for child in analyze.children]
    assert any(label.startswith("Execute") for label in stage_names)
    assert any(label.startswith("Decode") for label in stage_names)
    rendering = str(analyze)
    assert "wall=" in rendering and f"rows={expected}" in rendering


def test_explain_analyze_exposes_operator_profile_on_planned_engine():
    db = transfers_database()
    # The naive oracle never touches the planned executor, so the profiled
    # run below is cold and every plan node actually executes.
    with db.connect(engine="naive") as oracle:
        expected = len(oracle.execute(PATH_QUERY))
    with db.connect(engine="planned") as connection:
        explain = connection.explain_analyze(PATH_QUERY)
    analyze = explain.analyze
    fixpoint = analyze.find("SemiNaiveFixpoint")
    assert fixpoint is not None
    assert fixpoint.calls >= 1
    scan = analyze.find("EdgeScan")
    assert scan is not None
    assert scan.rows_out > 0
    # The top plan operator produced the full result set; the root stage
    # (which drains the streamed projection) agrees with the oracle.
    top_operator = analyze.find("BindEndpoint")
    assert top_operator is not None and top_operator.rows_out == expected
    assert analyze.rows_out == expected


def test_explain_analyze_counts_memo_hits_on_repeat():
    db = transfers_database()
    with db.connect(engine="planned") as connection:
        connection.execute(PATH_QUERY)  # warm the executor memo
        explain = connection.explain_analyze(PATH_QUERY)
    analyze = explain.analyze
    profiled = [
        span
        for span in _walk(analyze)
        if span.memo_hits or span.calls
    ]
    assert profiled  # something was profiled even on the warm path
    assert analyze.rows_out > 0


def _walk(stats):
    yield stats
    for child in stats.children:
        yield from _walk(child)


# --------------------------------------------------------------------------- #
# Slow-query log
# --------------------------------------------------------------------------- #
def test_slow_query_log_emits_record_at_threshold():
    ring = RingBufferSink()
    db = transfers_database(
        tracer=Tracer(sinks=(ring,)),
        metrics=MetricsRegistry(),
        slow_query_seconds=0.0,
    )
    with db.connect(engine="planned") as connection:
        connection.execute(HOP_QUERY)
    slow = [r for r in ring.records() if r.get("kind") == "slow_query"]
    assert len(slow) == 1
    record = slow[0]
    assert record["engine"] == "planned"
    assert record["duration_s"] >= 0.0
    assert "GRAPH_TABLE" in record["statement"]
    assert any(stage["name"] == "execute" for stage in record["stages"])


def test_slow_query_log_respects_threshold_and_disarm():
    ring = RingBufferSink()
    db = transfers_database(tracer=Tracer(sinks=(ring,)), metrics=MetricsRegistry())
    db.set_slow_query_log(60.0)  # nothing here takes a minute
    with db.connect(engine="planned") as connection:
        connection.execute(HOP_QUERY)
    assert not [r for r in ring.records() if r.get("kind") == "slow_query"]

    db.set_slow_query_log(0.0)
    with db.connect(engine="planned") as connection:
        connection.execute(HOP_QUERY)
    assert [r for r in ring.records() if r.get("kind") == "slow_query"]
    metrics = db.export_metrics()
    assert metrics["repro_slow_queries_total"]["values"][0]["value"] == 1

    db.set_slow_query_log(None)
    ring.clear()
    with db.connect(engine="planned") as connection:
        connection.execute(HOP_QUERY)
    assert not [r for r in ring.records() if r.get("kind") == "slow_query"]


# --------------------------------------------------------------------------- #
# SQLite streaming truthfulness
# --------------------------------------------------------------------------- #
def test_sqlite_pattern_results_stream_from_the_decoder_not_a_cursor():
    # SQLite runs the match and every id row is fetched at execute time;
    # the rows then decode in Python, a batch at a time.  No cursor
    # outlives the execution, so the view tables drop while the result
    # is still unread.
    db = transfers_database()
    with db.connect(engine="sqlite") as connection:
        result = connection.execute(HOP_QUERY)
        assert result.streamed is True
        engine = connection._get_engine()
        ((view, _users),) = engine._shared_view_tables.values()
        engine._drop_tables(view.names)
        tables = "SELECT name FROM sqlite_temp_master WHERE type = 'table'"
        assert engine.connection.execute(tables).fetchall() == []
        first = next(iter(result))
        assert len(first) == 3
        rows = result.rows  # drain the remainder
    assert len(rows) == 24
    with db.connect(engine="naive") as connection:
        oracle = connection.execute(HOP_QUERY)
    assert oracle.equals_unordered(rows)


def test_sqlite_streamed_result_survives_connection_close():
    db = transfers_database()
    connection = db.connect(engine="sqlite")
    result = connection.execute(HOP_QUERY)
    assert result.streamed is True
    connection.close()  # drains live streams before closing sqlite
    assert len(result.rows) == 24


# --------------------------------------------------------------------------- #
# Snapshot-cache liveness: counted pins, released at close()
# --------------------------------------------------------------------------- #
def replace_transfers(db: CatalogDatabase, amount: int) -> None:
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [("T0", "A0", "A1", 0, amount), ("T1", "A1", "A2", 1, amount)],
    )


def test_snapshot_cache_gc_drops_unreferenced_fingerprints():
    db = transfers_database(metrics=MetricsRegistry())
    connection = db.connect(engine="planned")
    connection.execute(HOP_QUERY)
    connection.close()
    cache = db.snapshot_cache
    # Closing alone keeps the warm state: the database still pins its
    # head, so sequential connections reuse it.
    warm = cache.stats()
    assert warm["entries"] > 0 and warm["gc_evicted"] == 0
    assert warm["pinned_snapshots"] == 1
    # A table-replacing write moves the head pin at the next snapshot();
    # nobody reads the superseded snapshot, so its entries go right there
    # — no garbage collection, no sweep.
    replace_transfers(db, 7)
    db.snapshot()
    stats = cache.stats()
    assert stats["entries"] == 0
    assert stats["gc_evicted"] == warm["entries"]
    assert stats["pinned_snapshots"] == 1
    metrics = db.export_metrics()
    assert metrics["repro_snapshot_cache_gc_evicted"]["values"][0]["value"] > 0
    assert metrics["repro_snapshot_cache_pinned_snapshots"]["values"][0]["value"] == 1


def test_snapshot_cache_keeps_entries_while_a_connection_is_live():
    db = transfers_database()
    first = db.connect(engine="planned")
    first.execute(HOP_QUERY)
    second = db.connect(engine="planned")
    second.execute(HOP_QUERY)
    replace_transfers(db, 7)
    db.snapshot()  # the head moved on; both connections still read the old one
    cache = db.snapshot_cache
    assert cache.stats()["pinned_snapshots"] == 2
    first.close()
    # The second connection still pins the fingerprint.
    assert cache.stats()["entries"] > 0
    assert cache.stats()["gc_evicted"] == 0
    assert len(second.execute(HOP_QUERY).rows) == 24
    second.close()
    assert cache.stats()["entries"] == 0
    assert cache.stats()["pinned_snapshots"] == 1
    second.close()  # idempotent: the pin is released once
    assert cache.stats()["pinned_snapshots"] == 1
