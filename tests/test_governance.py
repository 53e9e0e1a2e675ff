"""Query lifecycle governance: deadlines, cancellation, budgets, faults.

End-to-end coverage of the governance layer across all three engines:

* wall-clock deadlines (``timeout=``) abort promptly — the acceptance
  bound is 250ms for a ``timeout=0.05`` query on a workload that runs
  several times longer uninterrupted — on the naive oracle, the planned
  executor (its run stretched by injected checkpoint latency: closure
  plus batch decode of 356k rows take about the deadline itself) and the
  SQLite backend;
* cooperative cancellation lands cross-thread, both through an explicit
  :class:`CancellationToken` mid-fixpoint and through
  :meth:`QueryResult.cancel` on a streaming result;
* :class:`QueryBudget` resource caps (output rows, intermediate work)
  raise :class:`ResourceExhaustedError` with partial-progress counters;
* the deterministic fault-injection harness proves every checkpoint
  class actually fires (fixpoint round, join probe, stream decode,
  oracle enumeration, SQLite progress handler) and that the SQLite
  transient-retry policy absorbs injected lock errors;
* admission control sheds load (slot timeout, bounded-queue overflow)
  and its accounting returns to zero — including under the mixed
  multi-threaded stress workload of normal / deadline / pre-cancelled /
  burst queries.

The module runs in the regular tier-1 suite *and* in the CI
``chaos-smoke`` job under ``REPRO_FAULTS="latency=..."``; the fault
fixture therefore snapshots and restores the active plan rather than
clearing it.
"""

import random
import threading
import time
from time import perf_counter

import pytest

from repro.engine.database import Database
from repro.errors import (
    AdmissionTimeoutError,
    ConnectionClosedError,
    EngineError,
    FaultInjectedError,
    GovernanceError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from repro.governance import (
    CancellationToken,
    FaultPlan,
    QueryBudget,
    QueryGovernor,
    activate_governor,
    active_fault_plan,
    clear_fault_plan,
    install_fault_plan,
    make_governor,
    parse_fault_spec,
)
from repro.observability.metrics import MetricsRegistry

DDL = """CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))"""

PARAM_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > :minimum
  COLUMNS (x.iban, y.iban) )"""

#: Unselective threshold: the reachability closure over (almost) every
#: edge — the expensive shape the deadline/cancel tests interrupt.
HEAVY_QUERY = PARAM_QUERY.replace(":minimum", "1")
#: Mid-selective threshold: meaningful but quick result set.
MID_QUERY = PARAM_QUERY.replace(":minimum", "500")
#: Highly selective threshold: near-instant; used to warm caches/views.
CHEAP_QUERY = PARAM_QUERY.replace(":minimum", "990")

#: Two-hop pattern: its plan joins the two edge scans, so the hash-join
#: probe loop (``join.probe`` checkpoints, intermediate-work accounting)
#: actually runs — the ``->+`` closure compiles to the compact closure
#: kernel, which has rounds but no joins.
JOIN_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t1:Transfer]-> (y) -[t2:Transfer]-> (z)
  WHERE t1.amount > 1
  COLUMNS (x.iban, z.iban) )"""

#: ≥ 300ms uninterrupted on the naive and SQLite engines.
MEDIUM = (200, 800)
#: The planned engine's heavy shape: 356k rows out of a 600-node closure
#: (tens of milliseconds; tests that must interrupt it hold it at a
#: checkpoint or slow every checkpoint with a fault plan).
BIG = (600, 3000)

#: The acceptance deadline and the bound it must be enforced within.
TIMEOUT_S = 0.05
ABORT_BOUND_S = 0.25


def build_transfers(accounts, transfers, seed=7, **db_kwargs):
    rng = random.Random(seed)
    names = [f"A{i}" for i in range(accounts)]
    db = Database(**db_kwargs)
    db.create_table("Account", ["iban"], [(name,) for name in names])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 1000))
            for i in range(transfers)
        ],
    )
    db.execute(DDL)
    return db


@pytest.fixture(scope="module")
def medium_db():
    return build_transfers(*MEDIUM)


@pytest.fixture
def fresh_big_db():
    """A fresh large database per test.

    Function-scoped on purpose: the snapshot cache shares materialized
    results across connections of one database, so a heavy query that
    ran once (even partially) would satisfy later executions from cache
    and skip the eager fixpoint these tests must interrupt.
    """
    db = build_transfers(*BIG)
    # Warm the snapshot cache (view build + compact encoding) so the
    # tests measure checkpoint latency, not cold view builds.
    db.connect(engine="planned").execute(CHEAP_QUERY).rows
    return db


@pytest.fixture
def fault_guard():
    """Snapshot/restore the process-wide fault plan.

    Restoring (rather than clearing) keeps the chaos-smoke job's
    ``REPRO_FAULTS`` latency plan active for the tests that follow.
    """
    previous = active_fault_plan()
    try:
        yield
    finally:
        install_fault_plan(previous)


def expect_timeout(run):
    """Run ``run``, assert QueryTimeoutError, return (error, elapsed)."""
    start = perf_counter()
    with pytest.raises(QueryTimeoutError) as excinfo:
        run()
    return excinfo.value, perf_counter() - start


# --------------------------------------------------------------------------- #
# Deadlines: the acceptance bound on all three engines
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_naive_engine_aborts_within_bound(self, medium_db):
        connection = medium_db.connect(engine="naive")
        error, elapsed = expect_timeout(
            lambda: len(connection.execute(HEAVY_QUERY, timeout=TIMEOUT_S))
        )
        assert elapsed < ABORT_BOUND_S
        assert error.progress["checkpoints"] > 0
        assert "oracle.enumerate" in error.progress["sites"]

    def test_planned_engine_aborts_within_bound(self, fresh_big_db, fault_guard):
        connection = fresh_big_db.connect(engine="planned")
        connection.execute(CHEAP_QUERY).rows  # warm plan + statement caches
        # Fixpoint plus decode finish in about the deadline itself; 1ms at
        # each of the ≥ 600 checkpoints (one per decoded batch) makes the
        # uninterrupted run ≥ 0.6s whatever the machine's speed.
        install_fault_plan(FaultPlan(latency_s=0.001))
        error, elapsed = expect_timeout(
            lambda: len(connection.execute(HEAVY_QUERY, timeout=TIMEOUT_S))
        )
        assert elapsed < ABORT_BOUND_S
        assert "fixpoint.round" in error.progress["sites"]

    def test_sqlite_engine_aborts_within_bound(self, medium_db):
        connection = medium_db.connect(engine="sqlite")
        prepared = connection.prepare(PARAM_QUERY)
        prepared.execute(minimum=990).rows  # warm: load tables, build pairs
        # The parameterized repetition defers pair tables, so execution
        # materializes inside the governed window — the sqlite progress
        # handler (not just the decode stream) must stop it.
        error, elapsed = expect_timeout(
            lambda: len(prepared.execute(minimum=1, timeout=TIMEOUT_S))
        )
        assert elapsed < ABORT_BOUND_S
        assert "sqlite.progress" in error.progress["sites"]

    def test_sqlite_adhoc_stream_respects_deadline(self, medium_db):
        connection = medium_db.connect(engine="sqlite")
        # An ad-hoc literal pattern fetches all its id rows inside the
        # governed window, so the deadline fires there, in the SQL fetch
        # (the progress handler), before any row decodes.
        with pytest.raises(QueryTimeoutError) as excinfo:
            connection.execute(HEAVY_QUERY, timeout=TIMEOUT_S)
        assert "sqlite.progress" in excinfo.value.progress["sites"]

    def test_sqlite_governed_window_covers_the_whole_statement(self):
        # A relational root's rows are fetched inside the governed window
        # too, so streamed and drained the statement polls the progress
        # handler as often as materialized: no SQLite work runs unwatched.
        from repro.datasets import GRAPH_VIEW_SCHEMA, erdos_renyi
        from repro.engine import SQLiteEngine
        from repro.patterns.builder import edge, node, output, seq, star
        from repro.pgq import Project, graph_pattern_on_relations

        walk = seq(node("x"), edge("t"), node(), star(seq(edge(), node())), node("y"))
        pattern = graph_pattern_on_relations(output(walk, "x", "t", "y"), GRAPH_VIEW_SCHEMA)
        polls = []
        with SQLiteEngine(erdos_renyi(60, 0.15, seed=3)) as engine:
            statement = engine.prepare(Project(pattern, (1, 3)))
            for streamed in (False, True):
                governor = QueryGovernor(QueryBudget(), CancellationToken())
                with activate_governor(governor):
                    if streamed:
                        _arity, batches, _ordered = statement.execute_stream()
                        assert sum(len(batch) for batch in batches) > 256
                    else:
                        assert len(statement.execute().rows) > 256
                polls.append(governor.sites["sqlite.progress"])
        assert polls[0] == polls[1] > 0

    def test_generous_deadline_does_not_fire(self, medium_db):
        connection = medium_db.connect(engine="planned")
        result = connection.execute(MID_QUERY, timeout=60.0)
        assert len(result) > 0


# --------------------------------------------------------------------------- #
# Cooperative cancellation across threads
# --------------------------------------------------------------------------- #
class TestCancellation:
    def test_cross_thread_token_cancel_mid_fixpoint(self, fresh_big_db, fault_guard):
        connection = fresh_big_db.connect(engine="planned")
        token = CancellationToken()
        outcome = {}

        class ParkAtFirstRound(FaultPlan):
            """Holds the worker inside its first ``fixpoint.round``
            checkpoint until the main thread has cancelled: the cancel
            lands mid-fixpoint by construction, not by sleeping a guess."""

            reached = threading.Event()
            resume = threading.Event()

            def on_checkpoint(self, site):
                super().on_checkpoint(site)
                if site == "fixpoint.round" and not self.reached.is_set():
                    self.reached.set()
                    assert self.resume.wait(5.0)

        plan = ParkAtFirstRound()
        install_fault_plan(plan)

        def run():
            begin = perf_counter()
            try:
                outcome["rows"] = len(connection.execute(HEAVY_QUERY, token=token))
            except GovernanceError as error:
                outcome["error"] = error
            outcome["elapsed"] = perf_counter() - begin

        worker = threading.Thread(target=run)
        worker.start()
        assert plan.reached.wait(5.0)  # the worker is inside the fixpoint
        assert token.cancel("operator abort") is True
        plan.resume.set()
        worker.join(15.0)
        assert not worker.is_alive()
        error = outcome.get("error")
        assert isinstance(error, QueryCancelledError), outcome
        assert error.reason == "operator abort"
        # It stopped at that very checkpoint: no further round, no decode.
        assert error.progress["sites"] == {"fixpoint.round": 1}
        # ... and promptly once the worker was let go.
        assert outcome["elapsed"] < 1.5

    def test_result_cancel_from_other_thread_stops_streaming(self, medium_db):
        connection = medium_db.connect(engine="planned")
        result = connection.execute(HEAVY_QUERY, token=CancellationToken())
        assert result.streamed
        iterator = iter(result)
        for _ in range(128):
            next(iterator)
        canceller = threading.Thread(target=result.cancel)
        canceller.start()
        canceller.join(5.0)
        with pytest.raises(QueryCancelledError):
            for _ in iterator:
                pass
        # Nothing left to cancel the second time around.
        assert result.cancel() is False

    def test_pre_cancelled_token_aborts_at_first_checkpoint(self, medium_db):
        connection = medium_db.connect(engine="naive")
        token = CancellationToken()
        token.cancel("gave up before starting")
        with pytest.raises(QueryCancelledError) as excinfo:
            len(connection.execute(HEAVY_QUERY, token=token))
        assert excinfo.value.reason == "gave up before starting"


# --------------------------------------------------------------------------- #
# Resource budgets
# --------------------------------------------------------------------------- #
class TestBudgets:
    def test_max_output_rows_streamed(self, medium_db):
        connection = medium_db.connect(engine="planned")
        with pytest.raises(ResourceExhaustedError) as excinfo:
            len(connection.execute(HEAVY_QUERY, budget=QueryBudget(max_output_rows=100)))
        assert excinfo.value.progress["output_rows"] > 100

    def test_max_intermediate_join_probes(self):
        # Fresh database: a cached join result would skip the probe loop.
        db = build_transfers(*MEDIUM)
        connection = db.connect(engine="planned")
        with pytest.raises(ResourceExhaustedError) as excinfo:
            len(connection.execute(JOIN_QUERY, budget=QueryBudget(max_intermediate=500)))
        assert excinfo.value.progress["intermediate"] > 500
        assert "join.probe" in excinfo.value.progress["sites"]

    def test_database_default_budget_and_per_call_override(self):
        db = build_transfers(40, 140, seed=11, default_budget=QueryBudget(max_output_rows=5))
        connection = db.connect(engine="planned")
        with pytest.raises(ResourceExhaustedError):
            len(connection.execute(HEAVY_QUERY))
        # The per-call budget overlays the database default field-wise.
        result = connection.execute(HEAVY_QUERY, budget=QueryBudget(max_output_rows=10**9))
        assert len(result) > 5

    def test_budget_merge_is_field_wise(self):
        base = QueryBudget(timeout_s=1.0, max_output_rows=10)
        merged = base.merged(QueryBudget(max_output_rows=99))
        assert merged == QueryBudget(timeout_s=1.0, max_output_rows=99)
        assert base.merged(None) is base
        assert QueryBudget().is_unlimited()
        assert not QueryBudget(timeout_s=0.0).is_unlimited()

    def test_governance_aborts_are_counted_in_metrics(self):
        registry = MetricsRegistry()
        db = build_transfers(40, 140, seed=11, metrics=registry)
        connection = db.connect(engine="planned")
        with pytest.raises(QueryTimeoutError):
            len(connection.execute(HEAVY_QUERY, timeout=0.001))
        counters = registry.collect()["repro_query_aborts_total"]["values"]
        assert any(
            entry["labels"].get("kind") == "timeout" and entry["value"] >= 1
            for entry in counters
        )

    @pytest.mark.parametrize("phase", ["execute", "decode"])
    def test_an_abort_is_counted_once_in_either_phase(self, phase):
        registry = MetricsRegistry()
        db = build_transfers(40, 140, seed=11, metrics=registry)
        connection = db.connect(engine="planned")
        if phase == "execute":
            # A deadline of zero expires at the first checkpoint of the plan.
            with pytest.raises(QueryTimeoutError) as excinfo:
                connection.execute(HEAVY_QUERY, timeout=0.0)
            kind = "timeout"
        else:
            # The plan runs to completion; the sixth row aborts the decode.
            result = connection.execute(HEAVY_QUERY, budget=QueryBudget(max_output_rows=5))
            assert result.streamed
            with pytest.raises(ResourceExhaustedError) as excinfo:
                len(result)
            kind = "resource_exhausted"
        # Rows were counted out only once execute() had returned.
        assert (excinfo.value.progress["output_rows"] > 0) == (phase == "decode")
        counters = registry.collect()["repro_query_aborts_total"]["values"]
        assert [(entry["labels"]["kind"], entry["value"]) for entry in counters] == [(kind, 1)]


# --------------------------------------------------------------------------- #
# Governor unit behavior
# --------------------------------------------------------------------------- #
class TestGovernorUnit:
    def test_checkpoints_count_sites_and_progress(self):
        governor = QueryGovernor(QueryBudget(), CancellationToken())
        governor.checkpoint("a")
        governor.checkpoint("a", amount=7)
        governor.checkpoint("b")
        progress = governor.progress()
        assert progress["checkpoints"] == 3
        assert progress["sites"] == {"a": 2, "b": 1}
        assert progress["intermediate"] == 7
        assert progress["elapsed_s"] >= 0.0

    def test_intermediate_limit_enforced(self):
        governor = QueryGovernor(QueryBudget(max_intermediate=10), CancellationToken())
        with pytest.raises(ResourceExhaustedError):
            governor.checkpoint("join.probe", amount=11)

    def test_output_limit_enforced(self):
        governor = QueryGovernor(QueryBudget(max_output_rows=3), CancellationToken())
        governor.count_output(3)
        with pytest.raises(ResourceExhaustedError):
            governor.count_output(1)

    def test_deadline_and_expired_probe(self):
        governor = QueryGovernor(QueryBudget(timeout_s=0.0), CancellationToken())
        time.sleep(0.002)
        assert governor.expired()
        with pytest.raises(QueryTimeoutError):
            governor.checkpoint("fixpoint.round")

    def test_cancelled_token_raises_with_reason(self):
        token = CancellationToken()
        governor = QueryGovernor(QueryBudget(), token)
        token.cancel("because")
        assert governor.expired()
        with pytest.raises(QueryCancelledError) as excinfo:
            governor.checkpoint("stream.decode")
        assert excinfo.value.reason == "because"

    def test_disabled_path_has_no_governor(self, fault_guard):
        install_fault_plan(None)
        assert make_governor(None, None) is None
        assert make_governor(QueryBudget(), None) is None

    def test_fault_plan_alone_forces_a_governor(self, fault_guard):
        install_fault_plan(FaultPlan())
        governor = make_governor(None, None)
        assert governor is not None
        assert governor.faults is active_fault_plan()


# --------------------------------------------------------------------------- #
# Cancellation tokens
# --------------------------------------------------------------------------- #
class TestCancellationToken:
    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert not token.cancelled()
        assert token.cancel("first") is True
        assert token.cancel("second") is False
        assert token.cancelled()
        assert token.reason == "first"

    def test_child_sees_parent_cancellation_not_vice_versa(self):
        parent = CancellationToken()
        child = parent.child()
        assert not child.cancelled()
        parent.cancel("shutdown")
        assert child.cancelled()

        other = CancellationToken()
        grandchild = other.child()
        grandchild.cancel("local only")
        assert grandchild.cancelled()
        assert not other.cancelled()

    def test_callbacks_fire_once_and_late_registration_fires_immediately(self):
        token = CancellationToken()
        fired = []
        token.add_callback(lambda: fired.append("kept"))
        removed = lambda: fired.append("removed")
        token.add_callback(removed)
        token.remove_callback(removed)
        token.cancel("go")
        assert fired == ["kept"]
        token.add_callback(lambda: fired.append("late"))
        assert fired == ["kept", "late"]


# --------------------------------------------------------------------------- #
# Fault injection: every checkpoint class provably fires
# --------------------------------------------------------------------------- #
class TestFaultInjection:
    @staticmethod
    def _install(**kwargs):
        plan = FaultPlan(**kwargs)
        install_fault_plan(plan)
        return plan

    def test_fixpoint_round_checkpoint_fires(self, fault_guard):
        db = build_transfers(40, 140, seed=11)  # fresh: no cached closure
        plan = self._install(fail_at=1, site="fixpoint.round")
        connection = db.connect(engine="planned")
        with pytest.raises(FaultInjectedError):
            len(connection.execute(HEAVY_QUERY))
        assert plan.checkpoints_seen()["fixpoint.round"] >= 1

    def test_join_probe_checkpoint_fires(self, fault_guard):
        db = build_transfers(40, 140, seed=11)  # fresh: no cached join
        plan = self._install(fail_at=1, site="join.probe")
        connection = db.connect(engine="planned")
        with pytest.raises(FaultInjectedError):
            len(connection.execute(JOIN_QUERY))
        assert plan.checkpoints_seen()["join.probe"] >= 1

    def test_stream_decode_checkpoint_fires(self, medium_db, fault_guard):
        plan = self._install(fail_at=1, site="stream.decode")
        connection = medium_db.connect(engine="planned")
        with pytest.raises(FaultInjectedError):
            len(connection.execute(HEAVY_QUERY))
        assert plan.checkpoints_seen()["stream.decode"] >= 1

    def test_oracle_enumerate_checkpoint_fires(self, medium_db, fault_guard):
        plan = self._install(fail_at=1, site="oracle.enumerate")
        connection = medium_db.connect(engine="naive")
        with pytest.raises(FaultInjectedError):
            len(connection.execute(HEAVY_QUERY))
        assert plan.checkpoints_seen()["oracle.enumerate"] >= 1

    def test_sqlite_progress_checkpoint_fires(self, medium_db, fault_guard):
        connection = medium_db.connect(engine="sqlite")
        prepared = connection.prepare(PARAM_QUERY)
        prepared.execute(minimum=990).rows  # warm before installing the fault
        plan = self._install(fail_at=1, site="sqlite.progress")
        with pytest.raises(FaultInjectedError):
            len(prepared.execute(minimum=1))
        assert plan.checkpoints_seen()["sqlite.progress"] >= 1

    def test_fault_recovery_and_oracle_equivalence(self, fault_guard):
        db = build_transfers(40, 140, seed=11)
        connection = db.connect(engine="planned")
        install_fault_plan(FaultPlan(fail_at=1, site="fixpoint.round"))
        with pytest.raises(FaultInjectedError):
            len(connection.execute(HEAVY_QUERY))
        clear_fault_plan()
        survivors = connection.execute(HEAVY_QUERY)
        oracle = db.connect(engine="naive").execute(HEAVY_QUERY)
        assert survivors.equals_unordered(oracle)

    def test_per_site_ordinal_ignores_other_sites(self):
        plan = FaultPlan(fail_at=2, site="b")
        plan.on_checkpoint("a")  # other sites never count toward the ordinal
        plan.on_checkpoint("b")
        plan.on_checkpoint("a")
        with pytest.raises(FaultInjectedError):
            plan.on_checkpoint("b")
        assert plan.checkpoints_seen() == {"": 4, "a": 2, "b": 2}

    def test_parse_fault_spec(self):
        plan = parse_fault_spec("latency=0.0005, fail_at=3, site=join.probe, transient=2")
        assert plan.latency_s == 0.0005
        assert plan.fail_at == 3
        assert plan.site == "join.probe"
        assert plan.transient == 2
        with pytest.raises(ValueError):
            parse_fault_spec("bogus=1")


# --------------------------------------------------------------------------- #
# SQLite transient-error retry policy
# --------------------------------------------------------------------------- #
class TestTransientRetry:
    def test_injected_lock_errors_are_absorbed(self, fault_guard):
        db = build_transfers(40, 140, seed=11)
        connection = db.connect(engine="sqlite")
        baseline = connection.execute(MID_QUERY)
        baseline.rows
        install_fault_plan(FaultPlan(transient=2))
        retried = connection.execute(MID_QUERY)
        assert retried.equals_unordered(baseline)

    def test_persistent_lock_errors_surface_as_engine_error(self, fault_guard):
        db = build_transfers(40, 140, seed=11)
        connection = db.connect(engine="sqlite")
        install_fault_plan(FaultPlan(transient=50))
        with pytest.raises(EngineError, match="transient SQLite error persisted"):
            len(connection.execute(MID_QUERY))


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmission:
    def _hold_slot(self, db):
        """Start a slow naive query holding the single slot; return
        (thread, token, errors) — cancel the token to free the slot."""
        token = CancellationToken()
        errors = []

        def hold():
            try:
                len(db.connect(engine="naive").execute(HEAVY_QUERY, token=token))
            except GovernanceError as error:
                errors.append(error)

        worker = threading.Thread(target=hold)
        worker.start()
        deadline = time.monotonic() + 5.0
        while db.admission_stats()["running"] < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert db.admission_stats()["running"] == 1
        return worker, token, errors

    def test_admission_timeout_when_slots_stay_full(self):
        db = build_transfers(*MEDIUM, max_concurrent_queries=1, admission_timeout_s=0.1)
        worker, token, errors = self._hold_slot(db)
        try:
            with pytest.raises(AdmissionTimeoutError, match="no execution slot"):
                db.connect(engine="planned").execute(CHEAP_QUERY)
        finally:
            token.cancel("free the slot")
            worker.join(15.0)
        # The holder was cancelled (or, on a very slow scheduler, finished).
        assert not errors or isinstance(errors[0], QueryCancelledError)
        stats = db.admission_stats()
        assert stats["running"] == 0 and stats["queued"] == 0
        assert stats["admitted"] >= 1 and stats["rejected"] >= 1
        assert stats["completed"] >= 1
        # The database recovers: the next query is admitted normally.
        assert db.connect(engine="planned").execute(CHEAP_QUERY).rows is not None

    def test_bounded_queue_overflow_rejects_immediately(self):
        db = build_transfers(
            *MEDIUM,
            max_concurrent_queries=1,
            max_admission_queue=0,
            admission_timeout_s=30.0,
        )
        worker, token, _errors = self._hold_slot(db)
        try:
            start = perf_counter()
            with pytest.raises(AdmissionTimeoutError, match="queue full"):
                db.connect(engine="planned").execute(CHEAP_QUERY)
            # Rejected by overflow, not by waiting out the 30s timeout.
            assert perf_counter() - start < 5.0
        finally:
            token.cancel("free the slot")
            worker.join(15.0)

    def test_unbounded_database_has_no_admission_state(self, medium_db):
        assert medium_db.admission is None
        assert medium_db.admission_stats() == {}


# --------------------------------------------------------------------------- #
# Closed-handle contract on results and databases
# --------------------------------------------------------------------------- #
class TestClosedHandles:
    def test_closed_result_blocks_further_access(self, medium_db):
        connection = medium_db.connect(engine="planned")
        result = connection.execute(HEAVY_QUERY, token=CancellationToken())
        assert result.streamed
        result.close(reason="teardown")
        with pytest.raises(ConnectionClosedError, match="teardown"):
            result.rows
        result.close(reason="teardown")  # idempotent

    def test_database_close_reason_reaches_connections(self):
        db = build_transfers(40, 140, seed=11)
        connection = db.connect(engine="planned")
        db.close()
        with pytest.raises(ConnectionClosedError, match="database closed"):
            connection.execute(CHEAP_QUERY)


# --------------------------------------------------------------------------- #
# Mixed-lifecycle stress: ≥8 threads, admission accounting drains to zero
# --------------------------------------------------------------------------- #
class TestStressMixedWorkload:
    def test_mixed_lifecycle_under_admission(self):
        db = build_transfers(
            100, 400, seed=7, max_concurrent_queries=4, admission_timeout_s=0.25
        )
        expected = set(db.connect(engine="naive").execute(HEAVY_QUERY).rows)
        warm = db.connect(engine="planned").execute(HEAVY_QUERY)
        assert set(warm.rows) == expected
        expected_cheap = set(db.connect(engine="planned").execute(CHEAP_QUERY).rows)

        kinds = ["normal"] * 4 + ["deadline"] * 3 + ["cancel"] * 3 + ["burst"] * 2
        barrier = threading.Barrier(len(kinds))
        outcomes = []
        lock = threading.Lock()

        def run(kind):
            connection = db.connect(engine="planned")
            barrier.wait(10.0)
            try:
                if kind == "normal":
                    rows = set(connection.execute(HEAVY_QUERY).rows)
                elif kind == "deadline":
                    rows = set(connection.execute(HEAVY_QUERY, timeout=0.003).rows)
                elif kind == "cancel":
                    token = CancellationToken()
                    token.cancel("stress pre-cancel")
                    rows = set(connection.execute(HEAVY_QUERY, token=token).rows)
                else:  # burst
                    rows = set(connection.execute(CHEAP_QUERY).rows)
            except GovernanceError as error:
                with lock:
                    outcomes.append((kind, "error", error))
            else:
                with lock:
                    outcomes.append((kind, "rows", rows))

        threads = [threading.Thread(target=run, args=(kind,)) for kind in kinds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert len(outcomes) == len(kinds)

        # Every thread ends in correct rows or a governance error — never
        # a wrong result, never an unrelated exception.
        for kind, shape, payload in outcomes:
            if shape == "rows":
                assert payload == (expected_cheap if kind == "burst" else expected)
            else:
                assert isinstance(payload, GovernanceError)
        # Pre-cancelled tokens must abort at the first checkpoint.
        for kind, shape, payload in outcomes:
            if kind == "cancel":
                assert shape == "error"
                assert isinstance(payload, QueryCancelledError)
        assert any(k == "normal" and s == "rows" for k, s, _ in outcomes)

        # No leaked permits: admission accounting returns to zero.
        stats = db.admission_stats()
        assert stats["running"] == 0
        assert stats["queued"] == 0
        assert stats["admitted"] == stats["completed"]
        # And the database still services queries afterwards.
        assert set(db.connect(engine="planned").execute(CHEAP_QUERY).rows) == expected_cheap
