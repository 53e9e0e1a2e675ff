"""E11 (Section 7): the formal evaluator vs the SQLite recursive-CTE backend.

Both engines return identical results; the benchmark compares their cost on
the bank workload and on random graph views, exercising the SQL path
(joins + WITH RECURSIVE) that a relational engine would run.
"""

from __future__ import annotations

import pytest

from repro.datasets import GRAPH_VIEW_SCHEMA, TransferWorkloadConfig, erdos_renyi, generate_iban_database
from repro.engine import Connection, Database, SQLiteEngine
from repro.patterns.builder import edge, node, output, plus, prop_cmp, seq, where
from repro.pgq import PGQEvaluator, graph_pattern_on_relations

VIEW = GRAPH_VIEW_SCHEMA

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

QUERY = """
SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 300
  COLUMNS (x.iban, y.iban) )
"""


def bank_session(accounts: int = 40, transfers: int = 150) -> Connection:
    database = generate_iban_database(
        TransferWorkloadConfig(accounts=accounts, transfers=transfers, seed=31)
    )
    db = Database()
    db.register_database(
        database,
        {"Account": ["iban"], "Transfer": ["t_id", "src_iban", "tgt_iban", "ts", "amount"]},
    )
    db.execute(DDL)
    return db.connect()


def graph_query():
    pattern = seq(node("x"), plus(seq(where(edge("t"), prop_cmp("t", "w", ">", 20)), node())), node("y"))
    return graph_pattern_on_relations(output(pattern, "x", "y"), VIEW)


def test_formal_evaluator_bank(benchmark):
    session = bank_session()
    query = session.compile(QUERY)
    benchmark(lambda: PGQEvaluator(session.database).evaluate(query))


def test_sqlite_engine_bank(benchmark):
    session = bank_session()
    query = session.compile(QUERY)
    engine = SQLiteEngine(session.database)
    benchmark(lambda: engine.evaluate(query))
    engine.close()


@pytest.mark.parametrize("nodes", [20, 40])
def test_formal_evaluator_random_graph(benchmark, nodes):
    database = erdos_renyi(nodes, 0.08, seed=41, property_key="w")
    query = graph_query()
    benchmark(lambda: PGQEvaluator(database).evaluate(query))


@pytest.mark.parametrize("nodes", [20, 40])
def test_sqlite_engine_random_graph(benchmark, nodes):
    database = erdos_renyi(nodes, 0.08, seed=41, property_key="w")
    query = graph_query()
    engine = SQLiteEngine(database)
    benchmark(lambda: engine.evaluate(query))
    engine.close()


def test_engines_agree_table(table_printer, benchmark):
    rows = []
    session = bank_session()
    query = session.compile(QUERY)
    formal = PGQEvaluator(session.database).evaluate(query)
    with SQLiteEngine(session.database) as engine:
        sqlite_result = engine.evaluate(query)
        sql_text = engine.compile_to_sql(query)
    rows.append(["bank workload", len(formal), len(sqlite_result),
                 formal.rows == sqlite_result.rows, "WITH RECURSIVE" in sql_text])
    database = erdos_renyi(25, 0.08, seed=41, property_key="w")
    formal = PGQEvaluator(database).evaluate(graph_query())
    with SQLiteEngine(database) as engine:
        sqlite_result = engine.evaluate(graph_query())
    rows.append(["random graph", len(formal), len(sqlite_result),
                 formal.rows == sqlite_result.rows, True])
    table_printer(
        "E11: formal evaluator vs SQLite recursive-CTE backend",
        ["workload", "formal rows", "sqlite rows", "identical", "uses WITH RECURSIVE"],
        rows,
    )
    assert all(row[3] for row in rows)
    benchmark(lambda: PGQEvaluator(session.database).evaluate(query))
