"""Fraud-detection style workload: suspicious transfer chains.

The paper motivates SQL/PGQ with fraud detection over transfer graphs.
This example generates a synthetic transfer workload, defines the property
graph view, and runs three analyst queries:

1. accounts reachable by chains of large transfers (possible layering) —
   run through the **prepared-statement API** with a parameterized
   ``:threshold``, the way an analyst would sweep sensitivity levels
   without re-planning the query per run;
2. round-trips: money that returns to the originating account;
3. strictly increasing transfer chains (Example 5.3), found via the
   composite-identifier view construction of ``PGQext``;
4. an ``EXPLAIN ANALYZE`` of the layering query — the per-operator
   execution profile (wall time, rows, memo hits) the planned engine
   reports through the observability layer.
"""

from __future__ import annotations

from repro import Connection, GraphDatabase
from repro.datasets import TransferWorkloadConfig, generate_iban_database
from repro.pgq import PGQEvaluator
from repro.separations import increasing_amount_pairs_query, increasing_amount_pairs_reference


def build_session(accounts: int = 30, transfers: int = 120) -> Connection:
    database = generate_iban_database(
        TransferWorkloadConfig(accounts=accounts, transfers=transfers, seed=17)
    )
    db = GraphDatabase()
    db.register_database(
        database,
        {
            "Account": ["iban"],
            "Transfer": ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        },
    )
    db.execute(
        """
        CREATE PROPERTY GRAPH Transfers (
          NODES TABLE Account KEY (iban) LABEL Account,
          EDGES TABLE Transfer KEY (t_id)
            SOURCE KEY src_iban REFERENCES Account
            TARGET KEY tgt_iban REFERENCES Account
            LABELS Transfer PROPERTIES (ts, amount))
        """
    )
    # The planned engine exposes the physical plan to EXPLAIN ANALYZE
    # (section 4); results are engine-independent.
    return db.connect(engine="planned")


def main() -> None:
    session = build_session()

    print("== 1. Layering: transfer chains above a parameterized threshold ==")
    # Prepared once; each sensitivity level below is only a new binding of
    # :threshold on the same compiled plan (see README "Prepared
    # statements" for the migration from one-shot execute calls).
    layering_query = session.prepare(
        """
        SELECT * FROM GRAPH_TABLE ( Transfers
          MATCH (src) -[t:Transfer]->+ (dst)
          WHERE t.amount > :threshold
          COLUMNS (src.iban, dst.iban) )
        """
    )
    for threshold in (950, 900, 800):
        layering = layering_query.execute(threshold=threshold)
        print(f"   threshold {threshold}: {len(layering)} suspicious (source, destination) pairs")
    for row in layering.fetchmany(5):
        print("   ", row)

    print("\n== 2. Round trips: money returning to its origin in 2 hops ==")
    round_trips = session.execute(
        """
        SELECT * FROM GRAPH_TABLE ( Transfers
          MATCH (a) -[t1:Transfer]-> (b) -[t2:Transfer]-> (c)
          WHERE a.iban = c.iban
          COLUMNS (a.iban, b.iban) )
        """
    )
    print(f"   {len(round_trips)} two-hop round trips")
    for row in list(round_trips)[:5]:
        print("   ", row)

    print("\n== 3. Strictly increasing transfer chains (Example 5.3, PGQext) ==")
    query = increasing_amount_pairs_query()
    relation = PGQEvaluator(session.database).evaluate(query)
    reference = increasing_amount_pairs_reference(session.database)
    print(f"   {len(relation)} account pairs connected by increasing-amount paths")
    print("   matches the direct reference implementation:",
          set(relation.rows) == set(reference))

    print("\n== 4. EXPLAIN ANALYZE: where the layering query spends its time ==")
    explain = session.explain_analyze(
        """
        SELECT * FROM GRAPH_TABLE ( Transfers
          MATCH (src) -[t:Transfer]->+ (dst)
          WHERE t.amount > 900
          COLUMNS (src.iban, dst.iban) )
        """
    )
    for line in str(explain.analyze).splitlines():
        print("   " + line)


if __name__ == "__main__":
    main()
