"""The Database/Connection catalog API: snapshots, sharing, streaming.

Covers the top-level redesign end to end: MVCC-style versioning with
immutable fingerprinted snapshots, cross-connection shared
materialization through the ``SnapshotCache`` (one cold view build, one
compact encoding per snapshot — including under concurrent prepared
execution), server-side streaming cursors on the planned engine,
``Explain`` snapshot/shared/streamed provenance and the lifecycle
satellites (``close()``, statement-store resource release).
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.database import Database, SnapshotCache, SnapshotScope
from repro.errors import EngineError, PatternError

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

CHAIN_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 100
  COLUMNS (x.iban, y.iban) )"""

PARAM_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > :minimum
  COLUMNS (x.iban, y.iban) )"""

HOP_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]-> (y) COLUMNS (x.iban, t.amount, y.iban) )"""

ACCOUNTS = [("A1",), ("A2",), ("A3",), ("A4",)]
TRANSFERS = [
    ("T1", "A1", "A2", 1, 250),
    ("T2", "A2", "A3", 2, 500),
    ("T3", "A3", "A4", 3, 50),
    ("T4", "A4", "A1", 4, 700),
]


def make_database(*, transfers=TRANSFERS, cache=None) -> Database:
    db = Database(snapshot_cache=cache)
    db.create_table("Account", ["iban"], ACCOUNTS)
    db.create_table(
        "Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], transfers
    )
    db.execute(DDL)
    return db


def larger_database(accounts: int = 40, transfers: int = 140, seed: int = 11) -> Database:
    import random

    rng = random.Random(seed)
    names = [f"A{i}" for i in range(accounts)]
    db = Database()
    db.create_table("Account", ["iban"], [(n,) for n in names])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [
            (f"T{i}", rng.choice(names), rng.choice(names), i, rng.randint(1, 500))
            for i in range(transfers)
        ],
    )
    db.execute(DDL)
    return db


# --------------------------------------------------------------------------- #
# Catalog versioning and snapshots
# --------------------------------------------------------------------------- #
class TestDatabaseCatalog:
    def test_mutations_bump_the_version(self):
        db = Database()
        assert db.version == 0
        db.create_table("Account", ["iban"], ACCOUNTS)
        assert db.version == 1
        db.create_table(
            "Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], TRANSFERS
        )
        db.execute(DDL)
        assert db.version == 3
        assert db.drop_graph("Transfers") is True
        assert db.version == 4
        assert db.drop_graph("Transfers") is False  # unknown: no bump
        assert db.version == 4

    def test_snapshot_is_memoized_per_version(self):
        db = make_database()
        assert db.snapshot() is db.snapshot()
        before = db.snapshot()
        db.create_table("Audit", ["entry"], [("e1",)])
        after = db.snapshot()
        assert after is not before
        assert before.version < after.version

    def test_ddl_never_invalidates_handed_out_snapshots(self):
        db = make_database()
        connection = db.connect(engine="planned")
        before = connection.execute(CHAIN_QUERY)
        # Raise the A3->A4 amount above the threshold on the live catalog.
        updated = [row for row in TRANSFERS if row[0] != "T3"] + [
            ("T3", "A3", "A4", 3, 950)
        ]
        db.create_table("Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], updated)
        # The pinned connection still reads its snapshot ...
        again = connection.execute(CHAIN_QUERY)
        assert before.equals_unordered(again)
        assert ("A3", "A1") not in again.to_set()
        # ... while a fresh connection observes the new version.
        fresh = db.connect(engine="planned")
        assert ("A3", "A1") in fresh.execute(CHAIN_QUERY).to_set()

    def test_content_fingerprints_key_on_data_not_identity(self):
        first = make_database().snapshot()
        second = make_database().snapshot()
        assert first.data_fingerprint == second.data_fingerprint
        assert first.fingerprint == second.fingerprint
        shuffled = make_database(transfers=list(reversed(TRANSFERS))).snapshot()
        assert shuffled.data_fingerprint == first.data_fingerprint  # row order irrelevant
        changed = make_database(
            transfers=TRANSFERS[:-1] + [("T4", "A4", "A1", 4, 999)]
        ).snapshot()
        assert changed.data_fingerprint != first.data_fingerprint

    def test_graph_ddl_changes_fingerprint_but_not_data_fingerprint(self):
        db = make_database()
        before = db.snapshot()
        db.execute(DDL.replace("Transfers", "Transfers2"))
        after = db.snapshot()
        assert after.data_fingerprint == before.data_fingerprint
        assert after.fingerprint != before.fingerprint

    def test_suite_fingerprints_are_pinned(self):
        # Byte-identical digests across PRs: shared caches, and the
        # benchmark's parent / change pairing, key on them.
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
        try:
            from benchmarks.suite import data
        finally:
            del sys.path[0]
        accounts, (transfers,) = data.bank_tables(7)
        with Database() as bank, Database() as pairs:
            bank.create_table("Account", data.ACCOUNT_COLUMNS, accounts)
            bank.create_table("Transfer", data.TRANSFER_COLUMNS, transfers)
            bank.execute(data.TRANSFERS_DDL)
            pairs.create_table("E4", data.E4_COLUMNS, data.pair_rows(7))
            pinned = [
                (snapshot.data_fingerprint, snapshot.fingerprint)
                for snapshot in (bank.snapshot(), pairs.snapshot())
            ]
        assert pinned == [
            (
                "36dd6aa5614384066ac9981332803007e95d8cbd0989ae9c5a9ac29b498a22b3",
                "123a01ebb2e58e94ec7fa40df47ff67761377353c4eb8da2a5a2cead5a13f97f",
            ),
            (
                "d7c5e786f2b2779e747a880f02899dd9b73eebfdc0c1b7b49b1c0cdb31997d17",
                "0ecd6cee4762c54f1269ca273d783f461c4c2f56e4aac62a3c8e4a2362d9bd49",
            ),
        ]

    @pytest.mark.parametrize(
        "row, kind",
        [("xy", "str"), ({"k", "j"}, "set"), (5, "int")],
    )
    def test_create_table_rejects_rows_that_are_not_tuples_or_lists(self, row, kind):
        # Regression: "xy" was stored as ('x', 'y'), a set in hash order,
        # and 5 escaped as a bare TypeError.
        db = Database()
        with pytest.raises(EngineError) as caught:
            db.create_table("T", ["a", "b"], [("p", "q"), row])
        assert str(caught.value).startswith(f"table 'T': row {row!r} ({kind}) is not a tuple")
        assert db.table_names() == () and db.version == 0
        db.create_table("T", ["a", "b"], [("p", "q"), ["r", "s"]])  # lists are rows
        assert db.snapshot().database.relation("T").rows == {("p", "q"), ("r", "s")}

    def test_register_graph_validates_eagerly(self):
        db = Database()
        db.create_table("Account", ["iban"], ACCOUNTS)
        with pytest.raises(Exception):
            db.execute(DDL)  # Transfer table missing
        assert db.graph_names() == ()

    def test_database_execute_rejects_queries(self):
        db = make_database()
        with pytest.raises(EngineError, match="connection"):
            db.execute(CHAIN_QUERY)

    def test_close_is_terminal_for_the_catalog(self):
        db = make_database()
        connection = db.connect(engine="sqlite")
        connection.execute(HOP_QUERY)
        db.close()
        assert connection._engine is None  # backend released
        with pytest.raises(EngineError, match="closed"):
            db.snapshot()
        with pytest.raises(EngineError, match="closed"):
            db.create_table("X", ["a"], [])
        db.close()  # idempotent

    def test_context_manager_closes_connections(self):
        with make_database() as db:
            connection = db.connect(engine="sqlite")
            connection.execute(HOP_QUERY)
            assert connection._engine is not None
        assert connection._engine is None


# --------------------------------------------------------------------------- #
# Connections
# --------------------------------------------------------------------------- #
class TestConnection:
    @pytest.mark.parametrize("engine", ["naive", "planned", "sqlite"])
    def test_cross_engine_equivalence_over_one_snapshot(self, engine):
        with larger_database() as db:
            with db.connect(engine="naive") as oracle:
                expected = oracle.execute(CHAIN_QUERY)
            with db.connect(engine=engine) as connection:
                for query in (CHAIN_QUERY, HOP_QUERY):
                    oracle_rows = db.connect(engine="naive").execute(query)
                    assert connection.execute(query).equals_unordered(oracle_rows), query
                assert connection.execute(CHAIN_QUERY).equals_unordered(expected)

    def test_connection_ddl_advances_only_that_connection(self):
        with make_database() as db:
            bystander = db.connect(engine="planned")
            bystander.execute(CHAIN_QUERY)
            actor = db.connect(engine="planned")
            actor.execute(DDL.replace("Transfers", "Second"))
            assert "Second" in actor.graph_names()
            assert "Second" not in bystander.graph_names()
            assert "Second" in db.connect().graph_names()

    def test_connection_ddl_after_external_table_change_resets_the_engine(self):
        # A connection's own DDL normally keeps its engine (data
        # unchanged), but if another writer replaced a table on the live
        # database in between, the advance must reset the engine so it
        # can never serve rows from the superseded data.
        with make_database() as db:
            connection = db.connect(engine="planned")
            connection.execute(CHAIN_QUERY)  # engine built on the old data
            updated = [row for row in TRANSFERS if row[0] != "T3"] + [
                ("T3", "A3", "A4", 3, 950)
            ]
            db.create_table(
                "Transfer", ["t_id", "src_iban", "tgt_iban", "ts", "amount"], updated
            )
            connection.execute(DDL)  # moves this connection to the head
            assert ("A3", "A1") in connection.execute(CHAIN_QUERY).to_set()

    def test_prepared_statements_recompile_after_connection_ddl(self):
        with make_database() as db, db.connect(engine="planned") as connection:
            statement = connection.prepare(PARAM_QUERY)
            before = statement.execute(minimum=100)
            connection.execute(DDL)  # re-create the graph through this connection
            after = statement.execute(minimum=100)
            assert before.equals_unordered(after)

    def test_use_engine_keeps_session_cache_counters_cumulative(self):
        # The provenance satellite: prepared_hits must not silently reset
        # when use_engine swaps backends mid-connection.
        with make_database() as db, db.connect(engine="planned") as connection:
            statement = connection.prepare(PARAM_QUERY)
            statement.execute(minimum=100)
            statement.execute(minimum=400)
            explain = connection.explain(PARAM_QUERY)
            assert explain.cache["provenance"] == "shared"
            assert explain.cache["prepared_hits"] == 1
            assert explain.cache["session_prepared_hits"] == 1
            connection.use_engine("sqlite")
            statement.execute(minimum=100)
            connection.use_engine("planned")
            statement.execute(minimum=200)
            statement.execute(minimum=300)
            explain = connection.explain(PARAM_QUERY)
            # one hit before the swap, two after: cumulative, not reset
            assert explain.cache["session_prepared_hits"] >= 3

    def test_snapshot_provenance_in_explain(self):
        with make_database() as db, db.connect(engine="planned") as connection:
            connection.execute(CHAIN_QUERY)
            explain = connection.explain(CHAIN_QUERY)
            assert explain.snapshot == connection.snapshot.fingerprint
            assert explain.shared["views_built"] == 1
            assert explain.streamed == 1
            assert "snapshot:" in explain


# --------------------------------------------------------------------------- #
# Shared materialization (the tentpole acceptance)
# --------------------------------------------------------------------------- #
class TestSharedMaterialization:
    def test_two_connections_share_one_view_and_one_encoding(self):
        with make_database() as db:
            first = db.connect(engine="planned")
            second = db.connect(engine="planned")
            a = first.execute(CHAIN_QUERY)
            b = second.execute(CHAIN_QUERY)
            assert a.equals_unordered(b)
            stats = db.snapshot_cache.stats()
            assert stats["views_built"] == 1
            assert stats["views_shared_hits"] >= 1
            assert stats["compact_encodings"] == 1

    def test_plan_compiled_once_across_connections(self):
        with make_database() as db:
            first = db.connect(engine="planned")
            second = db.connect(engine="planned")
            first.prepare(PARAM_QUERY).execute(minimum=100)
            second.prepare(PARAM_QUERY).execute(minimum=400)
            # Both engines adopted the same shared plan cache, so the
            # second connection's execution is a prepared hit.
            info = second._get_engine().plan_cache.info()
            assert info["shared"] is True
            assert info["prepared_misses"] == 1
            assert info["prepared_hits"] == 1

    def test_relational_cse_shared_across_engine_kinds(self):
        # sqlite builds a catalog view from table scans, as planned does;
        # a view whose sources are relational queries is built from its six
        # relations, which naive and sqlite share through the snapshot
        # cache's relational CSE entries.
        from repro.separations import pair_reachability_query

        with make_database() as db:
            db.connect(engine="sqlite").execute(CHAIN_QUERY)
            assert db.snapshot_cache.stats()["relations_built"] == 0
        with Database() as db:
            db.create_table("E4", ["u1", "u2", "v1", "v2"], [("a", "b", "b", "c")])
            query = pair_reachability_query()
            expected = db.connect(engine="naive").evaluate(query)
            built_once = db.snapshot_cache.stats()["relations_built"]
            assert built_once > 0
            assert db.connect(engine="sqlite").evaluate(query).rows == expected.rows
            stats = db.snapshot_cache.stats()
            assert stats["relations_built"] == built_once
            assert stats["relations_shared_hits"] >= 1

    def test_planned_view_build_materializes_no_relations(self):
        # A planned build reads the base tables directly: the six
        # relations are built once, by the naive connection that needs them.
        with make_database() as db:
            planned = db.connect(engine="planned").execute(CHAIN_QUERY)
            assert db.snapshot_cache.stats()["relations_built"] == 0
            naive = db.connect(engine="naive").execute(CHAIN_QUERY)
            built_once = db.snapshot_cache.stats()["relations_built"]
            assert built_once > 0
            assert planned.equals_unordered(naive)
            db.connect(engine="planned").execute(CHAIN_QUERY)
            assert db.snapshot_cache.stats()["relations_built"] == built_once

    def test_engine_kinds_never_alias(self):
        with make_database() as db:
            planned = db.connect(engine="planned")
            bounded = db.connect(engine="planned", max_repetitions=64)
            naive = db.connect(engine="naive")
            results = [
                connection.execute(CHAIN_QUERY) for connection in (planned, bounded, naive)
            ]
            assert results[0].equals_unordered(results[1])
            assert results[0].equals_unordered(results[2])
            # Three semantically distinct configurations: three view entries.
            assert db.snapshot_cache.stats()["views_built"] == 3

    def test_identical_data_shares_through_an_explicit_common_cache(self):
        cache = SnapshotCache()
        with make_database(cache=cache) as first, make_database(cache=cache) as second:
            first.connect(engine="planned").execute(CHAIN_QUERY)
            second.connect(engine="planned").execute(CHAIN_QUERY)
            stats = cache.stats()
            # Same content fingerprint: the second database's connection
            # reuses the first one's materialization.
            assert stats["views_built"] == 1
            assert stats["views_shared_hits"] >= 1

    def test_close_leaves_an_injected_shared_cache_intact(self):
        # Two databases over identical data share one fingerprint, pinned
        # once by each head: closing one keeps the entries, closing both
        # drops them — and close() never clears a cache it does not own.
        cache = SnapshotCache()
        first, second = make_database(cache=cache), make_database(cache=cache)
        readers = [db.connect(engine="planned") for db in (first, second)]
        for reader in readers:
            reader.execute(CHAIN_QUERY)
        warm = cache.stats()
        assert warm["views_built"] == 1 and warm["views_shared_hits"] >= 1
        assert warm["pinned_snapshots"] == 1  # one fingerprint, four pins
        first.close()  # closes its reader as well
        assert cache.stats()["entries"] == warm["entries"]
        assert cache.stats()["gc_evicted"] == 0
        with second.connect(engine="planned") as connection:
            connection.execute(CHAIN_QUERY)
        assert cache.stats()["views_built"] == 1  # still warm for the survivor
        second.close()
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["pinned_snapshots"] == 0
        assert stats["gc_evicted"] == warm["entries"]
        assert stats["views_built"] == 1  # counters survive: not cleared

    def test_warm_snapshot_survives_live_ddl(self):
        with make_database() as db:
            connection = db.connect(engine="planned")
            connection.execute(CHAIN_QUERY)
            db.create_table("Audit", ["entry"], [("e1",)])  # new version
            connection.execute(CHAIN_QUERY)  # still served from warm state
            assert db.snapshot_cache.stats()["views_built"] == 1


# --------------------------------------------------------------------------- #
# Snapshot liveness: counted pins, released at close()
# --------------------------------------------------------------------------- #
def transfer_rows(marker: int):
    """Four transfers whose contents (the amounts) are unique to ``marker``."""
    return [(t_id, src, dst, ts, 1000 + marker) for t_id, src, dst, ts, _ in TRANSFERS]


class TestSnapshotPins:
    COLUMNS = ["t_id", "src_iban", "tgt_iban", "ts", "amount"]

    def test_sequential_connections_build_each_view_once(self):
        with make_database() as db:
            for _ in range(2):
                with db.connect(engine="planned") as connection:
                    assert len(connection.execute(CHAIN_QUERY).rows) > 0
                # No connection is open, the head pin alone keeps it warm.
                assert db.snapshot_cache.stats()["pinned_snapshots"] == 1
            stats = db.snapshot_cache.stats()
            assert stats["views_built"] == 1
            assert stats["gc_evicted"] == 0

    def test_graph_ddl_over_unchanged_tables_evicts_nothing(self):
        with make_database() as db:
            with db.connect(engine="planned") as connection:
                connection.execute(CHAIN_QUERY)
                warm = db.snapshot_cache.stats()["entries"]
                # Through the connection (its pin moves) and on the
                # database (the head pin moves): same data fingerprint.
                connection.execute(DDL.replace("Transfers", "Again"))
                db.execute(DDL.replace("Transfers", "Thrice"))
                db.snapshot()
                connection.execute(CHAIN_QUERY)
            with db.connect(engine="planned") as connection:
                connection.execute(CHAIN_QUERY.replace("Transfers", "Thrice"))
            stats = db.snapshot_cache.stats()
            assert stats["gc_evicted"] == 0
            assert stats["entries"] >= warm
            assert stats["pinned_snapshots"] == 1

    def test_replaced_table_is_forgotten_when_its_last_reader_closes(self):
        with make_database() as db:
            reader = db.connect(engine="planned")
            before = reader.execute(CHAIN_QUERY).to_set()
            db.create_table("Transfer", self.COLUMNS, transfer_rows(1))
            with db.connect(engine="planned") as fresh:  # moves the head pin
                assert fresh.execute(CHAIN_QUERY).to_set() != before
                cache = db.snapshot_cache
                assert cache.stats()["pinned_snapshots"] == 2
                assert cache.stats()["gc_evicted"] == 0
                assert reader.execute(CHAIN_QUERY).to_set() == before
                head_entries = cache.stats()["entries"]
                reader.close()
                stats = cache.stats()
                assert stats["pinned_snapshots"] == 1
                assert 0 < stats["entries"] < head_entries
                assert stats["gc_evicted"] == head_entries - stats["entries"]

    def test_connection_ddl_after_a_foreign_write_moves_the_pin(self):
        with make_database() as db:
            connection = db.connect(engine="planned")
            connection.execute(CHAIN_QUERY)
            db.create_table("Transfer", self.COLUMNS, transfer_rows(2))
            connection.execute(DDL.replace("Transfers", "Again"))  # advances to the head
            stats = db.snapshot_cache.stats()
            assert stats["pinned_snapshots"] == 1
            assert stats["gc_evicted"] > 0
            connection.close()
            assert db.snapshot_cache.stats()["pinned_snapshots"] == 1  # the head's

    def test_unpin_of_an_unknown_or_cleared_fingerprint_is_a_no_op(self):
        cache = SnapshotCache()
        cache.unpin("never-pinned")
        db = make_database(cache=cache)
        connection = db.connect(engine="planned")
        connection.execute(CHAIN_QUERY)
        cache.clear()
        assert cache.stats()["pinned_snapshots"] == 0
        connection.close()  # unpins what clear() already forgot
        db.close()
        stats = cache.stats()
        assert stats["pinned_snapshots"] == 0 and stats["gc_evicted"] == 0

    def test_never_pinned_fingerprints_are_left_to_the_lru(self):
        cache = SnapshotCache()
        scope = SnapshotScope(cache, "loose", ("kind",))
        assert scope.relation("q", lambda: "value") == ("value", True)
        cache.pin("other")
        cache.unpin("other")
        assert scope.relation("q", lambda: "rebuilt") == ("value", False)
        assert cache.stats()["pinned_snapshots"] == 0

    def test_build_outliving_its_last_pin_is_returned_but_not_stored(self):
        cache = SnapshotCache()
        scope = SnapshotScope(cache, "fp", ("kind",))
        cache.pin("fp")

        def build():
            cache.unpin("fp")  # the last reader closes mid-build
            return "late"

        assert scope.relation("q", build) == ("late", True)
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["relations_built"] == 1
        # Nothing is wedged: the next lookup simply builds again.
        assert scope.relation("q", lambda: "again") == ("again", True)

    def test_readers_racing_a_table_replacing_writer_leave_only_the_head(self):
        with make_database() as db:
            stop = threading.Event()
            progress = threading.Condition()
            queries = [0]
            failures = []

            def reader():
                try:
                    while not stop.is_set():
                        with db.connect(engine="planned") as connection:
                            assert len(connection.execute(CHAIN_QUERY).rows) > 0
                        with progress:
                            queries[0] += 1
                            progress.notify_all()
                except BaseException as error:  # surfaced below
                    failures.append(repr(error))
                    raise

            readers = [threading.Thread(target=reader) for _ in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # more interleavings per write
            try:
                for thread in readers:
                    thread.start()
                for marker in range(50):
                    db.create_table("Transfer", self.COLUMNS, transfer_rows(marker))
                    db.snapshot()
                    with progress:  # nine more: one reader at least began after the write
                        target = queries[0] + 9
                        assert progress.wait_for(lambda: queries[0] >= target, timeout=30.0)
            finally:
                stop.set()
                for thread in readers:
                    thread.join(timeout=30.0)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in readers)
            assert not failures, failures[:3]
            cache = db.snapshot_cache
            head = db.snapshot().data_fingerprint
            with cache._lock:
                fingerprints = {key[1] for key in cache._entries}
            assert fingerprints == {head}
            stats = cache.stats()
            assert stats["pinned_snapshots"] == 1
            assert stats["views_built"] >= 50  # every head was read
            assert stats["gc_evicted"] > 0


# --------------------------------------------------------------------------- #
# Concurrency (satellite): N threads over one snapshot
# --------------------------------------------------------------------------- #
class TestConcurrentConnections:
    THREADS = 6
    THRESHOLDS = (0, 50, 150, 250, 400)

    def test_threads_agree_with_oracle_and_materialize_once(self):
        with larger_database() as oracle_db:
            expected = {
                minimum: oracle_db.connect(engine="naive")
                .prepare(PARAM_QUERY)
                .execute(minimum=minimum)
                .to_set()
                for minimum in self.THRESHOLDS
            }
        with larger_database() as db:
            snapshot = db.snapshot()
            barrier = threading.Barrier(self.THREADS)

            def worker(_index: int):
                connection = db.connect(engine="planned", snapshot=snapshot)
                statement = connection.prepare(PARAM_QUERY)
                barrier.wait()  # maximize cold-path contention
                return {
                    minimum: statement.execute(minimum=minimum).to_set()
                    for minimum in self.THRESHOLDS
                }

            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                outcomes = list(pool.map(worker, range(self.THREADS)))
            for outcome in outcomes:
                assert outcome == expected
            stats = db.snapshot_cache.stats()
            # Exactly one cold materialization and one compact encoding
            # for the single view, no matter how many threads raced.
            assert stats["views_built"] == 1
            assert stats["compact_encodings"] == 1
            assert stats["views_shared_hits"] >= self.THREADS - 1

    def test_one_connection_shared_across_threads_serializes_correctly(self):
        # A single connection is safe to share: statement execution
        # serializes on the connection lock, so interleaved bindings
        # never clobber each other's in-flight evaluation state.
        with larger_database() as oracle_db:
            oracle = oracle_db.connect(engine="naive").prepare(PARAM_QUERY)
            expected = {
                minimum: oracle.execute(minimum=minimum).to_set()
                for minimum in self.THRESHOLDS
            }
        with larger_database() as db:
            connection = db.connect(engine="planned")
            statement = connection.prepare(PARAM_QUERY)

            def worker(minimum: int):
                return minimum, statement.execute(minimum=minimum).to_set()

            jobs = list(self.THRESHOLDS) * 4
            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                for minimum, rows in pool.map(worker, jobs):
                    assert rows == expected[minimum], minimum


# --------------------------------------------------------------------------- #
# Streaming cursors (the tentpole acceptance)
# --------------------------------------------------------------------------- #
class TestStreamingCursors:
    def test_iteration_starts_before_full_projection_materializes(self):
        # The generator probe: after pulling the first row, the result's
        # source generator must still be live with most rows unpulled.
        with larger_database() as db, db.connect(engine="planned") as connection:
            result = connection.execute(CHAIN_QUERY)
            assert result.streamed is True
            iterator = iter(result)
            first = next(iterator)
            assert first is not None
            assert result._source is not None  # projection not exhausted
            total = len(db.connect(engine="naive").execute(CHAIN_QUERY))
            assert total > 10
            assert len(result._fetched) < total  # only a prefix was decoded

    def test_streamed_rows_equal_the_materialized_result(self):
        with larger_database() as db:
            streamed = db.connect(engine="planned").execute(CHAIN_QUERY)
            oracle = db.connect(engine="naive").execute(CHAIN_QUERY)
            assert streamed.streamed and not oracle.streamed
            assert streamed.equals_unordered(oracle)

    def test_ordered_accessors_keep_deterministic_order(self):
        with larger_database() as db, db.connect(engine="planned") as connection:
            result = connection.execute(CHAIN_QUERY)
            iterator = iter(result)
            next(iterator)  # partially consumed in arrival order
            first = result.fetchone()  # ordered access sorts lazily
            assert result.rows == tuple(sorted(result.rows, key=repr))
            assert result.rows[0] == first
            assert list(result) == list(result.rows)  # post-materialization order

    def test_streamed_parameterized_execution(self):
        with larger_database() as db, db.connect(engine="planned") as connection:
            statement = connection.prepare(PARAM_QUERY)
            for minimum in (50, 250):
                streamed = statement.execute(minimum=minimum)
                assert streamed.streamed is True
                literal = connection.execute(CHAIN_QUERY.replace("> 100", f"> {minimum}"))
                assert streamed.equals_unordered(literal)

    def test_depth_bound_errors_surface_at_execute_time(self):
        # Streaming must not defer plan execution: the depth-overrun
        # PatternError raises from execute(), not from first iteration.
        with make_database() as db:
            connection = db.connect(engine="planned", max_repetitions=0)
            with pytest.raises(PatternError, match="max_repetitions=0"):
                connection.execute(
                    """SELECT * FROM GRAPH_TABLE ( Transfers
                      MATCH (x) -[t:Transfer]->{1,1} (y) COLUMNS (x.iban, y.iban) )"""
                )

    def test_property_projection_streams_with_dedup(self):
        with larger_database() as db:
            streamed = db.connect(engine="planned").execute(HOP_QUERY)
            assert streamed.streamed is True
            oracle = db.connect(engine="naive").execute(HOP_QUERY)
            assert streamed.equals_unordered(oracle)

    def test_explain_counts_streamed_results(self):
        with make_database() as db, db.connect(engine="planned") as connection:
            connection.execute(CHAIN_QUERY)
            connection.execute(CHAIN_QUERY)
            assert connection.explain(CHAIN_QUERY).streamed == 2


# --------------------------------------------------------------------------- #
# Lifecycle (satellite): close() and statement-LRU resource release
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_sqlite_temp_tables_are_one_set_of_view_tables_and_nothing_else(self):
        # Whatever ran — prepared, sugar and one-shot; parameterized and
        # literal; streamed, materialized, abandoned mid-stream or timed
        # out; statements evicted from a two-slot store — the backend
        # holds exactly the seven engine-owned tables of the one graph view
        # (R1..R6 over integer element ids + the id table).
        from repro.errors import QueryTimeoutError

        with larger_database() as db, db.connect(engine="sqlite") as connection:
            connection._STATEMENT_CACHE_SIZE = 2
            engine = connection._get_engine()
            statement = connection.prepare(PARAM_QUERY)
            for index in range(200):
                statement.execute(minimum=100 + index % 40 * 10)
            query = connection.compile(CHAIN_QUERY)
            for _ in range(20):
                assert len(engine.evaluate(query)) > 0  # one-shot, materialized
            texts = [CHAIN_QUERY.replace("> 100", f"> {450 + i}") for i in range(6)]
            for text in texts + texts:
                assert connection.execute(text).streamed
            assert len(connection._statements) == 2
            abandoned = connection.execute(PARAM_QUERY, {"minimum": 0})
            next(iter(abandoned))
            del abandoned
            with pytest.raises(QueryTimeoutError):
                connection.execute(PARAM_QUERY, {"minimum": 0}, timeout=0.0)
            tables = [
                name for (name,) in engine.connection.execute(
                    "SELECT name FROM sqlite_temp_master WHERE type = 'table'"
                )
            ]
            assert len(tables) == 7, tables
            assert all(name.startswith("__view") for name in tables), tables

    def test_connection_close_releases_explicitly_prepared_statements(self):
        with make_database() as db:
            connection = db.connect(engine="sqlite")
            statement = connection.prepare(PARAM_QUERY)
            statement.execute(minimum=100)
            engine = connection._get_engine()
            backend = engine._connection
            assert backend is not None
            connection.close()
            assert engine._connection is None  # backend connection closed
            assert statement._compiled is None  # compiled form released

    def test_closed_connection_raises_with_the_close_reason(self):
        from repro.errors import ConnectionClosedError

        with make_database() as db:
            connection = db.connect(engine="planned")
            before = connection.execute(CHAIN_QUERY)
            connection.close()
            connection.close()  # idempotent
            with pytest.raises(ConnectionClosedError, match="connection closed"):
                connection.execute(CHAIN_QUERY)
            assert len(before) > 0  # results produced before close stay readable
