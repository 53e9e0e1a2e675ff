"""E1 (Examples 1.1/2.1): bank-transfer view creation and amount-filtered reachability.

Measures the three layers of SQL/PGQ on the transfer workload: (iii) view
creation, (i) pattern matching, and the full surface-syntax round trip.
"""

from __future__ import annotations

import pytest

from repro.datasets import TransferWorkloadConfig, generate_iban_database, iban_view_relations
from repro.engine import Connection, Database
from repro.patterns.builder import edge, node, output, plus, prop_cmp, seq, where
from repro.matching import EndpointEvaluator
from repro.pgq import pg_view

QUERY = """
SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 500
  COLUMNS (x.iban, y.iban) )
"""

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""


def _database(accounts: int, transfers: int):
    return generate_iban_database(
        TransferWorkloadConfig(accounts=accounts, transfers=transfers, seed=7)
    )


def _session(accounts: int, transfers: int) -> Connection:
    db = Database()
    db.register_database(
        _database(accounts, transfers),
        {"Account": ["iban"], "Transfer": ["t_id", "src_iban", "tgt_iban", "ts", "amount"]},
    )
    db.execute(DDL)
    return db.connect()


@pytest.mark.parametrize("accounts,transfers", [(50, 150), (100, 400)])
def test_view_creation(benchmark, accounts, transfers):
    """Layer (iii): building the property graph view from relations."""
    database = _database(accounts, transfers)
    relations = iban_view_relations(database)
    graph = benchmark(lambda: pg_view(relations))
    assert graph.edge_count() == transfers


@pytest.mark.parametrize("accounts,transfers", [(50, 150), (100, 400)])
def test_filtered_reachability(benchmark, accounts, transfers):
    """Layer (i): the Example 2.1 pattern on the materialized view."""
    graph = pg_view(iban_view_relations(_database(accounts, transfers)))
    pattern = seq(
        node("x"),
        plus(seq(where(edge("t"), prop_cmp("t", "amount", ">", 500)), node())),
        node("y"),
    )
    out = output(pattern, "x", "y")
    rows = benchmark(lambda: EndpointEvaluator(graph).evaluate_output(out))
    assert rows is not None


def test_surface_syntax_round_trip(benchmark, table_printer):
    """Full stack: parse, compile, build the view and evaluate."""
    session = _session(60, 200)
    result = benchmark(lambda: session.execute(QUERY))
    table_printer(
        "E1: Example 2.1 on the synthetic transfer workload",
        ["accounts", "transfers", "result rows"],
        [[60, 200, len(result)]],
    )
    assert len(result) > 0
