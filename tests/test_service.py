"""The query service: protocol mapping, pooling, handoff, HTTP transport.

Covers ISSUE 9's tentpole and satellites end-to-end:

* the error→HTTP mapping (governance 408/413/429 with progress dicts,
  statement faults 400, closed handles 503) and request validation;
* the per-snapshot connection pool — reuse, exhaustion → 429, version
  drift detection, and graceful handoff on DDL (in-flight leases finish
  on the pinned snapshot, idle connections close, the retired
  generation drains to zero);
* DDL issued mid-traffic while N threads query through a real HTTP
  server: zero failed requests, old/new fingerprints only, pool drained;
* the ``Connection.close(drain=False)`` regression — an in-flight
  streamed query raises :class:`ConnectionClosedError` from subsequent
  fetches and the live SQLite cursor is released, not leaked;
* the stdlib :class:`ServiceClient` over a real socket (keep-alive
  reuse, Prometheus ``/metrics``, 404/405 paths).

Most tests drive :meth:`QueryService.handle` in-process (no sockets);
the transport tests bind an ephemeral port.
"""

import json
import re
import socket
import threading
from statistics import median
from time import perf_counter

import pytest

from repro.engine import connection as connection_module
from repro.engine.database import Database
from repro.errors import (
    AdmissionTimeoutError,
    ConnectionClosedError,
    ParseError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.governance import FaultPlan, active_fault_plan, install_fault_plan
from repro.observability.metrics import MetricsRegistry
from repro.service import (
    ConnectionPool,
    ProtocolError,
    QueryService,
    Server,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import QueryRequest, error_payload, status_for

DDL = """CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))"""

HOP_QUERY = (
    "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]-> (y) "
    "WHERE t.amount > :minimum COLUMNS (x.iban AS src, y.iban AS dst) )"
)

CHAIN_QUERY = (
    "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]->+ (y) "
    "COLUMNS (x.iban AS src, y.iban AS dst) )"
)


def make_database(accounts: int = 6, transfers: int = 8, **kwargs) -> Database:
    """A small Transfers catalog over a private metrics registry."""
    kwargs.setdefault("metrics", MetricsRegistry())
    db = Database(**kwargs)
    ibans = [f"A{i}" for i in range(accounts)]
    db.create_table("Account", ["iban"], [(iban,) for iban in ibans])
    rows = [
        (f"t{i}", ibans[i % accounts], ibans[(i + 1) % accounts], i, 100 * (i + 1))
        for i in range(transfers)
    ]
    db.create_table("Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], rows)
    db.execute(DDL)
    return db


@pytest.fixture
def db():
    database = make_database()
    yield database
    database.close()


@pytest.fixture
def fault_plan():
    """Install-and-restore wrapper (the chaos job has an ambient plan)."""
    previous = active_fault_plan()
    yield install_fault_plan
    install_fault_plan(previous)


def post_query(service, payload):
    status, _, body = service.handle("POST", "/query", json.dumps(payload).encode())
    return status, json.loads(body)


# --------------------------------------------------------------------- #
# Protocol: error mapping and request validation
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_status_mapping_is_most_specific_first(self):
        assert status_for(QueryTimeoutError("t")) == 408
        assert status_for(AdmissionTimeoutError("a")) == 429
        assert status_for(ResourceExhaustedError("r")) == 413
        assert status_for(QueryCancelledError("c")) == 499
        assert status_for(ParseError("p")) == 400
        assert status_for(ConnectionClosedError("gone")) == 503
        assert status_for(ProtocolError("nope", status=404)) == 404
        assert status_for(RuntimeError("?")) == 500

    def test_governance_payload_carries_progress(self):
        error = QueryTimeoutError("deadline", progress={"elapsed_s": 0.05})
        payload = error_payload(error)["error"]
        assert payload["type"] == "QueryTimeoutError"
        assert payload["progress"] == {"elapsed_s": 0.05}

    def test_closed_payload_carries_reason(self):
        payload = error_payload(ConnectionClosedError("gone", reason="pool closed"))
        assert payload["error"]["reason"] == "pool closed"

    def test_request_validation(self):
        with pytest.raises(ProtocolError, match="statement"):
            QueryRequest.from_payload({})
        with pytest.raises(ProtocolError, match="unknown query field"):
            QueryRequest.from_payload({"statement": "x", "timeout": 5})
        with pytest.raises(ProtocolError, match="params"):
            QueryRequest.from_payload({"statement": "x", "params": [1]})
        with pytest.raises(ProtocolError, match="timeout_ms"):
            QueryRequest.from_payload({"statement": "x", "timeout_ms": "soon"})
        with pytest.raises(ProtocolError, match="non-negative"):
            QueryRequest.from_payload({"statement": "x", "timeout_ms": -1})

    def test_budget_request_overrides_service_default(self):
        request = QueryRequest.from_payload({"statement": "x", "timeout_ms": 250})
        assert request.budget(default_timeout_ms=1000).timeout_s == 0.25
        ambient = QueryRequest.from_payload({"statement": "x"})
        assert ambient.budget(default_timeout_ms=1000).timeout_s == 1.0
        assert ambient.budget() is None


# --------------------------------------------------------------------- #
# In-process service dispatch
# --------------------------------------------------------------------- #
class TestQueryService:
    def test_query_roundtrip(self, db):
        with QueryService(db, pool_size=2) as service:
            status, body = post_query(
                service, {"statement": HOP_QUERY, "params": {"minimum": 0}}
            )
            assert status == 200
            assert body["columns"] == ["src", "dst"]
            assert body["row_count"] == len(body["rows"]) > 0
            assert body["engine"] == "planned"
            assert body["snapshot"] == db.snapshot().fingerprint
            assert body["elapsed_ms"] >= 0

    def test_params_filter_rows(self, db):
        with QueryService(db) as service:
            _, everything = post_query(
                service, {"statement": HOP_QUERY, "params": {"minimum": 0}}
            )
            _, filtered = post_query(
                service, {"statement": HOP_QUERY, "params": {"minimum": 500}}
            )
            assert 0 < filtered["row_count"] < everything["row_count"]

    def test_dry_run_leaves_nothing_on_the_pooled_connection(self, db):
        # A dry run builds the statement's front half and stops: the
        # backend must not be asked to prepare (on sqlite that persisted
        # an indexed pair table per request, never dropped).
        with QueryService(db, engine="sqlite", pool_size=1) as service:

            def temp_tables() -> int:
                with service.pool.acquire() as connection:
                    backend = connection._get_engine().connection
                    return backend.execute(
                        "SELECT COUNT(*) FROM sqlite_temp_master WHERE type = 'table'"
                    ).fetchone()[0]

            before = temp_tables()
            for minimum in range(5):
                statement = CHAIN_QUERY.replace(
                    "COLUMNS", f"WHERE t.amount > {minimum} COLUMNS"
                )
                status, body = post_query(
                    service, {"statement": statement, "dry_run": True}
                )
                assert status == 200
                assert set(body) == {
                    "dry_run", "schema", "diagnostics", "parameters",
                    "statically_empty", "engine", "snapshot", "elapsed_ms",
                }
                assert body["engine"] == "sqlite"
            assert temp_tables() == before

    def test_unknown_path_is_404_and_wrong_method_is_405(self, db):
        with QueryService(db) as service:
            assert service.handle("GET", "/nope")[0] == 404
            assert service.handle("GET", "/query")[0] == 405
            assert service.handle("POST", "/metrics")[0] == 405

    def test_malformed_requests_are_400(self, db):
        with QueryService(db) as service:
            assert service.handle("POST", "/query", b"not json")[0] == 400
            assert service.handle("POST", "/query", b"[]")[0] == 400
            status, body = post_query(service, {"statement": "SELECT nonsense"})
            assert status == 400
            assert body["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "statement",
        [
            HOP_QUERY.replace(":minimum", "1.2.3"),
            HOP_QUERY.replace(":minimum", "\u00b2"),
            HOP_QUERY.replace("->", "->{1.5,2}"),
        ],
        ids=["decimal", "superscript", "quantifier"],
    )
    def test_malformed_numbers_are_400_parse_errors(self, db, statement):
        with QueryService(db, pool_size=1) as service:
            status, body = post_query(service, {"statement": statement})
        assert status == 400
        assert body["error"]["type"] == "ParseError"
        assert "line 1, column" in body["error"]["message"]

    def test_ddl_through_query_endpoint_is_rejected(self, db):
        status, body = post_query(QueryService(db), {"statement": DDL})
        assert status == 400
        assert "/ddl" in body["error"]["message"]

    @pytest.mark.parametrize(
        "prefix", ["-- note\n", "\n\n", "-- a\n-- b\n   "], ids=repr
    )
    def test_ddl_behind_a_comment_is_rejected_by_statement_kind(self, db, prefix):
        statement = prefix + DDL.replace("Transfers", "Other")
        with QueryService(db, pool_size=1) as service:
            post_query(service, {"statement": HOP_QUERY, "params": {"minimum": 0}})
            generation = service.pool._generation
            before = (db.snapshot().fingerprint, service.pool.stats())
            status, body = post_query(service, {"statement": statement})
            assert status == 400
            assert body["error"]["type"] == "ProtocolError"
            assert "/ddl" in body["error"]["message"]
            assert (db.snapshot().fingerprint, service.pool.stats()) == before
            assert service.pool._generation is generation
            assert sorted(db.snapshot().catalog.names()) == ["Transfers"]
            with service.pool.acquire() as connection:
                assert sorted(connection.snapshot.catalog.names()) == ["Transfers"]

    def test_ddl_behind_a_comment_is_rejected_over_http(self, db):
        with Server(db, port=0, pool_size=1) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.query(HOP_QUERY, {"minimum": 0})
                before = client.healthz()
                with pytest.raises(ServiceError) as info:
                    client.query("-- note\n" + DDL.replace("Transfers", "Other"))
                assert info.value.status == 400
                assert info.value.kind == "ProtocolError"
                after = client.healthz()
                assert after["graphs"] == before["graphs"] == ["Transfers"]
                assert after["pool"] == before["pool"]
                assert after["snapshot"] == before["snapshot"] == db.snapshot().fingerprint

    def test_a_repeated_query_text_is_parsed_once(self, db, monkeypatch):
        parses = []
        parse = connection_module.parse_statement
        monkeypatch.setattr(
            connection_module,
            "parse_statement",
            lambda text: parses.append(text) or parse(text),
        )
        with QueryService(db, pool_size=1) as service:
            for minimum in (0, 500, 0):
                status, _ = post_query(
                    service, {"statement": HOP_QUERY, "params": {"minimum": minimum}}
                )
                assert status == 200
        assert parses == [HOP_QUERY]

    @pytest.mark.parametrize("hop", ["->", "->+"])
    def test_served_rows_are_the_engines_rows(self, hop):
        db = Database(metrics=MetricsRegistry())
        db.create_table(
            "Account",
            ["iban", "flag", "score"],
            [("A0", True, 1.5), ("A1", None, -0.25), ("A2", False, None), ("A3", "x", 2.0)],
        )
        db.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [("t0", "A0", "A1", 0, 0.5), ("t1", "A1", "A2", 1, None), ("t2", "A2", "A0", 2, 3),
             ("t3", "A3", "A1", 3, True), ("t4", "A0", "A3", 4, -1.25)],
        )
        db.execute(DDL.replace("LABEL Account", "LABEL Account PROPERTIES (iban, flag, score)"))
        columns = "x.flag, x.score, y.iban, y.flag" + (", t.amount" if hop == "->" else "")
        statement = (
            f"SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]{hop} (y) "
            f"COLUMNS ({columns}) )"
        )
        with db, db.connect("planned") as connection:
            expected = connection.execute(statement).rows
            assert len(expected) > 4
            with QueryService(db, pool_size=1) as service:
                status, _, payload = service.handle(
                    "POST", "/query", json.dumps({"statement": statement}).encode()
                )
            assert status == 200
            body = json.loads(payload)
            assert json.dumps(body["rows"]) == json.dumps(expected)  # in order, by JSON
            assert body["row_count"] == len(expected)
            with Server(db, port=0, pool_size=1) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    served = client.query(statement)
            assert repr(served.rows) == repr(list(expected))
            assert served.row_count == len(expected)

    def test_missing_binding_is_400(self, db):
        with QueryService(db) as service:
            status, body = post_query(service, {"statement": HOP_QUERY})
            assert status == 400
            assert body["error"]["type"] == "BindingError"

    @pytest.mark.parametrize("engine", ["planned", "sqlite"])
    def test_non_atomic_binding_is_400(self, db, engine):
        # A JSON array is no domain element: every engine refuses it as a
        # BindingError naming the slot, never as sqlite's own binding fault.
        with QueryService(db, engine=engine, pool_size=1) as service:
            payload = {"statement": HOP_QUERY, "params": {"minimum": [1]}}
            status, body = post_query(service, payload)
            assert status == 400
            assert body["error"]["type"] == "BindingError"
            assert ":minimum" in body["error"]["message"]

    def test_ddl_creates_table_and_graph_with_handoff(self, db):
        with QueryService(db) as service:
            before = db.version
            payload = {
                "table": {
                    "name": "Wire",
                    "columns": ["w_id", "src_iban", "tgt_iban"],
                    "rows": [["w1", "A0", "A2"]],
                },
                "statement": DDL.replace("Transfers", "Wires").replace(
                    "Transfer ", "Wire "
                ).replace("(t_id)", "(w_id)").replace(" PROPERTIES (ts, amount)", ""),
            }
            status, body = service_post(service, "/ddl", payload)
            assert status == 200
            assert body["table"] == "Wire"
            assert body["graph"] == "Wires"
            assert body["handoff"] is True
            assert body["version"] == db.version > before
            status, rows = post_query(
                service,
                {
                    "statement": (
                        "SELECT * FROM GRAPH_TABLE ( Wires MATCH (x) -[w:Wire]-> (y) "
                        "COLUMNS (x.iban AS src, y.iban AS dst) )"
                    )
                },
            )
            assert status == 200
            assert rows["rows"] == [["A0", "A2"]]

    def test_healthz_and_metrics(self, db):
        with QueryService(db, pool_size=3) as service:
            post_query(service, {"statement": HOP_QUERY, "params": {"minimum": 0}})
            health = json.loads(service.handle("GET", "/healthz")[2])
            assert health["status"] == "ok"
            assert health["graphs"] == ["Transfers"]
            assert health["pool"]["size"] == 3
            status, content_type, body = service.handle("GET", "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
            text = body.decode()
            assert "repro_service_requests_total" in text
            assert "repro_service_request_seconds" in text
            assert_prometheus_text(text)

    def test_timeout_maps_to_408_with_progress(self, db, fault_plan):
        fault_plan(FaultPlan(latency_s=0.005))
        with QueryService(db, pool_size=1) as service:
            status, body = post_query(
                service, {"statement": CHAIN_QUERY, "timeout_ms": 1}
            )
            assert status == 408
            assert body["error"]["type"] == "QueryTimeoutError"
            assert "elapsed_s" in body["error"]["progress"]

    def test_budget_maps_to_413(self, db):
        with QueryService(db) as service:
            status, body = post_query(
                service,
                {
                    "statement": HOP_QUERY,
                    "params": {"minimum": 0},
                    "max_output_rows": 1,
                },
            )
            assert status == 413
            assert body["error"]["type"] == "ResourceExhaustedError"
            assert body["error"]["progress"]["output_rows"] >= 1

    def test_pool_exhaustion_maps_to_429(self, db):
        with QueryService(db, pool_size=1, acquire_timeout_s=0.02) as service:
            with service.pool.acquire():  # hold the only connection
                status, body = post_query(
                    service, {"statement": HOP_QUERY, "params": {"minimum": 0}}
                )
            assert status == 429
            assert body["error"]["type"] == "AdmissionTimeoutError"
            assert body["error"]["progress"]["pool_size"] == 1

    def test_admission_control_maps_to_429(self):
        db = make_database(
            max_concurrent_queries=1, max_admission_queue=0, admission_timeout_s=0.02
        )
        try:
            with QueryService(db, pool_size=2) as service:
                with db.admission.slot():  # occupy the only execution slot
                    status, body = post_query(
                        service, {"statement": HOP_QUERY, "params": {"minimum": 0}}
                    )
                assert status == 429
                assert body["error"]["type"] == "AdmissionTimeoutError"
        finally:
            db.close()

    def test_closed_service_maps_to_503(self, db):
        service = QueryService(db)
        service.close()
        status, body = post_query(
            service, {"statement": HOP_QUERY, "params": {"minimum": 0}}
        )
        assert status == 503
        assert body["error"]["type"] == "ConnectionClosedError"

    def test_requests_are_counted_and_timed(self, db):
        with QueryService(db) as service:
            post_query(service, {"statement": HOP_QUERY, "params": {"minimum": 0}})
            service.handle("GET", "/nope")
            counter = db.metrics.counter(
                "repro_service_requests_total", route="/query", status="200"
            )
            assert counter.value == 1
            histogram = db.metrics.histogram(
                "repro_service_request_seconds", route="/query"
            )
            assert histogram.count == 1
            missed = db.metrics.counter(
                "repro_service_requests_total", route="unknown", status="404"
            )
            assert missed.value == 1


class TestSnapshotLiveness:
    """The served cache follows live snapshots: the head, plus whatever a
    lease still reads."""

    @staticmethod
    def write(service, marker: int) -> None:
        rows = [[f"t{i}", f"A{i % 6}", f"A{(i + 1) % 6}", i, 1000 * marker + i] for i in range(8)]
        table = {
            "name": "Transfer",
            "columns": ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            "rows": rows,
        }
        status, body = service_post(service, "/ddl", {"table": table})
        assert status == 200 and body["handoff"] is True

    def test_distinct_writes_leave_only_the_head_snapshot(self, db):
        cache = db.snapshot_cache
        with QueryService(db, pool_size=2) as service:
            readings = []
            for marker in range(1, 13):
                self.write(service, marker)
                status, body = post_query(
                    service, {"statement": HOP_QUERY, "params": {"minimum": 0}}
                )
                assert status == 200 and body["row_count"] == 6
                readings.append(cache.stats())
            # One snapshot held, the same number of entries after every
            # write, and every superseded snapshot's entries tallied.
            assert {stats["pinned_snapshots"] for stats in readings} == {1}
            per_snapshot = readings[0]["entries"]
            assert per_snapshot > 0
            assert [stats["entries"] for stats in readings] == [per_snapshot] * 12
            evicted = [stats["gc_evicted"] for stats in readings]
            assert evicted == sorted(evicted)
            assert evicted[-1] - evicted[0] == per_snapshot * 11
            assert "repro_snapshot_cache_pinned_snapshots 1" in service.metrics_text()
        assert cache.stats()["pinned_snapshots"] == 1  # pool closed: the head's pin


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket; everything read until the
    server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as raw:
        raw.sendall(request)
        reply = b""
        while chunk := raw.recv(65536):
            reply += chunk
    return reply


def service_post(service, path, payload):
    status, _, body = service.handle("POST", path, json.dumps(payload).encode())
    return status, json.loads(body)


_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE.+-]+(?:[0-9eE.+-]*| NaN| \+Inf)?$"
)


def assert_prometheus_text(text: str) -> None:
    """Every line is a comment or ``name{labels} value`` sample."""
    assert text.strip(), "metrics exposition is empty"
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _PROM_LINE.match(line), f"not a Prometheus sample line: {line!r}"


# --------------------------------------------------------------------- #
# Connection pool
# --------------------------------------------------------------------- #
class TestConnectionPool:
    def test_connections_are_reused(self, db):
        with ConnectionPool(db, size=2) as pool:
            with pool.acquire() as first:
                pass
            with pool.acquire() as second:
                assert second is first
            assert pool.stats()["opened_total"] == 1

    def test_exhaustion_raises_admission_timeout(self, db):
        with ConnectionPool(db, size=1, acquire_timeout_s=0.02) as pool:
            with pool.acquire():
                with pytest.raises(AdmissionTimeoutError) as info:
                    with pool.acquire():
                        pass
                assert info.value.progress["pool_size"] == 1

    def test_acquire_notices_version_drift(self, db):
        with ConnectionPool(db, size=2) as pool:
            with pool.acquire() as connection:
                old = connection.snapshot.fingerprint
            db.create_table("Extra", ["x"], [(1,)])
            with pool.acquire() as connection:
                assert connection.snapshot.fingerprint != old
                assert connection.snapshot.version == db.version
            assert pool.stats()["handoffs"] == 1

    def test_handoff_finishes_inflight_lease_then_drains(self, db):
        with ConnectionPool(db, size=2) as pool:
            lease = pool.acquire()
            connection = lease.__enter__()
            old_fingerprint = connection.snapshot.fingerprint
            db.create_table("Extra", ["x"], [(1,)])
            assert pool.refresh() is True
            # The leased connection still serves its pinned snapshot.
            assert connection.snapshot.fingerprint == old_fingerprint
            result = connection.execute(HOP_QUERY, {"minimum": 0})
            assert len(result.rows) > 0
            assert pool.stats()["retired_open"] == 1
            # The lease pins the superseded snapshot: its cache entries
            # stay readable beside the new head's until it is returned.
            cache = db.snapshot_cache
            held = cache.stats()
            assert held["pinned_snapshots"] == 2
            assert held["entries"] > 0 and held["gc_evicted"] == 0
            lease.__exit__(None, None, None)
            # Release closed the retired connection and drained the
            # generation; the pool serves only the new snapshot now, and
            # the cache forgot the old one in the same instant.
            assert pool.stats()["retired_open"] == 0
            dropped = cache.stats()
            assert dropped["pinned_snapshots"] == 1
            assert dropped["entries"] == 0
            assert dropped["gc_evicted"] == held["entries"]
            with pytest.raises(ConnectionClosedError):
                connection.execute(HOP_QUERY, {"minimum": 0})
            with pool.acquire() as fresh:
                assert fresh.snapshot.fingerprint != old_fingerprint

    def test_closed_pool_rejects_acquires(self, db):
        pool = ConnectionPool(db, size=1)
        pool.close()
        with pytest.raises(ConnectionClosedError):
            with pool.acquire():
                pass


# --------------------------------------------------------------------- #
# Satellite: Connection.close(drain=False) regression
# --------------------------------------------------------------------- #
class TestCloseWithoutDrain:
    @pytest.mark.parametrize("engine", ["planned", "sqlite"])
    def test_inflight_stream_raises_after_close(self, db, engine):
        connection = db.connect(engine=engine)
        result = connection.execute(HOP_QUERY, {"minimum": 0})
        assert result.streamed
        # Pull one row through the streaming surface (iteration does not
        # materialize; the ordered fetch* accessors would).
        first = next(iter(result))
        assert first is not None
        connection.close(reason="recycled by pool", drain=False)
        with pytest.raises(ConnectionClosedError, match="recycled by pool"):
            result.fetchall()
        with pytest.raises(ConnectionClosedError):
            len(result)

    def test_sqlite_cursor_is_released_not_leaked(self):
        from repro.pgq import Project

        # Over 256 rows: a cursor read a batch at a time would be mid-read.
        database = make_database(accounts=300, transfers=300)
        connection = database.connect(engine="sqlite")
        result = connection.execute(HOP_QUERY, {"minimum": 0})
        next(iter(result))
        engine = connection._get_engine()
        # A statement with a relational root is fetched whole at execute
        # too: mid-stream, no cursor reads the view tables, so SQLite
        # drops them (it refuses to drop a table a live statement reads),
        # and the unread batches stay readable.
        statement = engine.prepare(Project(connection.compile(HOP_QUERY), (2,)))
        expected = statement.execute({"minimum": 0}).rows
        _arity, batches, _ordered = statement.execute_stream({"minimum": 0})
        first = next(batches)
        ((view, _users),) = engine._shared_view_tables.values()
        for table in view.names:
            engine.connection.execute(f"DROP TABLE {table}")
        rows = first + [row for batch in batches for row in batch]
        assert len(first) < len(rows) == len(expected) and set(rows) == expected
        connection.close(drain=False)
        with pytest.raises(ConnectionClosedError):
            result.fetchall()
        database.close()

    def test_default_close_still_drains(self, db):
        """The historical contract: close() keeps produced rows readable."""
        connection = db.connect(engine="sqlite")
        result = connection.execute(HOP_QUERY, {"minimum": 0})
        connection.close()
        assert len(result.rows) > 0


# --------------------------------------------------------------------- #
# Satellite: graceful snapshot handoff under concurrent traffic
# --------------------------------------------------------------------- #
class TestHandoffUnderTraffic:
    def test_ddl_mid_traffic_over_http(self):
        db = make_database(accounts=8, transfers=12)
        workers = 6
        failures = []
        fingerprints = set()
        stop = threading.Event()
        try:
            with Server(db, port=0, pool_size=4) as server:
                def hammer():
                    client = ServiceClient("127.0.0.1", server.port, timeout_s=10.0)
                    try:
                        while not stop.is_set():
                            response = client.query(HOP_QUERY, {"minimum": 0})
                            fingerprints.add(response.snapshot)
                            if response.row_count <= 0:
                                failures.append("empty result")
                    except (ServiceError, OSError) as error:
                        failures.append(repr(error))
                    finally:
                        client.close()

                threads = [threading.Thread(target=hammer) for _ in range(workers)]
                old_fingerprint = db.snapshot().fingerprint
                for thread in threads:
                    thread.start()
                control = ServiceClient("127.0.0.1", server.port)
                control.query(HOP_QUERY, {"minimum": 0})  # traffic is flowing
                outcome = control.create_table("Audit", ["a_id"], [["x1"]])
                assert outcome["handoff"] is True
                new_fingerprint = outcome["snapshot"]
                assert new_fingerprint != old_fingerprint
                # Queries keep succeeding against the new snapshot.
                after = control.query(HOP_QUERY, {"minimum": 0})
                assert after.snapshot == new_fingerprint
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not failures, f"requests failed across the handoff: {failures[:3]}"
                # Every response came from exactly the old or new snapshot.
                assert fingerprints <= {old_fingerprint, new_fingerprint}
                stats = server.service.pool.stats()
                assert stats["retired_open"] == 0, "old generation must drain"
                assert stats["version"] == db.version
                control.close()
        finally:
            stop.set()
            db.close()


# --------------------------------------------------------------------- #
# HTTP transport + client
# --------------------------------------------------------------------- #
class TestServerHTTP:
    def test_keepalive_roundtrips(self, db):
        with Server(db, port=0, pool_size=2) as server:
            assert server.port != 0
            with ServiceClient("127.0.0.1", server.port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                first = client.query(HOP_QUERY, {"minimum": 0})
                second = client.query(HOP_QUERY, {"minimum": 500})
                assert second.row_count < first.row_count
                assert client._transport.connection is not None  # socket reused
                assert_prometheus_text(client.metrics())

    def test_error_statuses_over_http(self, db):
        with Server(db, port=0) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError) as info:
                    client.query("SELECT nonsense")
                assert info.value.status == 400
                with pytest.raises(ServiceError) as info:
                    client.query(HOP_QUERY, {"minimum": 0}, max_output_rows=1)
                assert info.value.status == 413
                assert info.value.progress  # governance progress survives the wire

    def test_unknown_endpoint_over_http(self, db):
        with Server(db, port=0) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                status, _, body = client._request("GET", "/nope", None)
                assert status == 404
                assert json.loads(body)["error"]["type"] == "ProtocolError"

    def test_malformed_content_length_is_answered_400_and_counted(self, db):
        with Server(db, port=0) as server:
            for value in (b"abc", b"-5"):
                reply = raw_exchange(
                    server.port,
                    b"POST /query HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: " + value + b"\r\n\r\n",
                )
                head, _, body = reply.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 400 "), reply[:80]
                # The body length is unknowable: the socket is not reused.
                assert b"\r\nConnection: close" in head
                error = json.loads(body)["error"]
                assert error["type"] == "ProtocolError"
                assert "Content-Length" in error["message"]
        counted = db.metrics.counter(
            "repro_service_requests_total", route="/query", status="400"
        )
        assert counted.value == 2

    def test_stdlib_rejections_take_the_service_shape(self, db):
        with Server(db, port=0) as server:
            reply = raw_exchange(server.port, b"PATCH /query HTTP/1.1\r\nHost: test\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert b"\r\nContent-Type: application/json" in head
        assert json.loads(body)["error"]["type"] == "ProtocolError"

    def test_a_response_is_one_send_on_a_nodelay_socket(self, db):
        class CountingSocket:
            """Delegates to the accepted socket, counting ``send*`` calls."""

            def __init__(self, sock):
                self._sock = sock
                self.sends = []

            def __getattr__(self, name):
                attribute = getattr(self._sock, name)
                if name.startswith("send"):
                    def counted(*args, **kwargs):
                        self.sends.append(name)
                        return attribute(*args, **kwargs)
                    return counted
                return attribute

        accepted = []
        with Server(db, port=0) as server:
            accept = server._httpd.get_request

            def get_request():
                sock, address = accept()
                accepted.append(CountingSocket(sock))
                return accepted[-1], address

            server._httpd.get_request = get_request
            with ServiceClient("127.0.0.1", server.port) as client:
                client.healthz()
                client.query(HOP_QUERY, {"minimum": 0})
                client.query(CHAIN_QUERY)
                client.metrics()
                with pytest.raises(ServiceError):
                    client.query("SELECT nonsense")
                status, _, _ = client._request("GET", "/nope", None)
                assert status == 404
                (connection,) = accepted  # keep-alive: one socket served all six
                assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
                assert connection.sends == ["sendall"] * 6

    #: Thirty keep-alive round trips per payload size.  Two sends on a
    #: Nagle socket cost a flat 40 ms each (the delayed ACK), so a median
    #: under 10 ms cannot pass by luck, and cannot fail under load short
    #: of a 50x slowdown of a ~0.2 ms exchange.
    ROUND_TRIPS = 30

    def test_keepalive_round_trips_do_not_stall_at_any_payload_size(self):
        names = [f"ACCOUNT-{i:04d}" for i in range(48)]
        database = Database(metrics=MetricsRegistry())
        database.create_table("Account", ["iban"], [(name,) for name in names])
        database.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [   # lap k of the ring links i -> i + k + 1: 624 distinct pairs
                (f"t{i}", names[i % 48], names[(i + 1 + i // 48) % 48], i, 100 + i)
                for i in range(48 * 13)
            ],
        )
        database.execute(DDL)
        requests = {
            "healthz": ("GET", "/healthz", None, range(100, 1_000)),
            "hop": (
                "POST", "/query",
                {"statement": HOP_QUERY, "params": {"minimum": 0}},
                range(15_000, 40_000),
            ),
            # Past one 64 KB loopback segment: a single write without
            # TCP_NODELAY would still stall on its last partial segment.
            "chain": ("POST", "/query", {"statement": CHAIN_QUERY}, range(65_536, 200_000)),
        }
        try:
            with Server(database, port=0, pool_size=2) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    for name, (method, path, payload, size) in requests.items():
                        status, _, body = client._request(method, path, payload)  # warm
                        assert status == 200 and len(body) in size, (name, len(body))
                        laps = []
                        for _ in range(self.ROUND_TRIPS):
                            begin = perf_counter()
                            status, _, body = client._request(method, path, payload)
                            laps.append(perf_counter() - begin)
                            assert status == 200
                        assert median(laps) < 0.010, (name, sorted(laps)[::5])
        finally:
            database.close()
