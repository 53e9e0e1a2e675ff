"""Seeded input generators and the suite's own reachability reference.

Every input the program under test sees is made here from ``--seed``.
The *shape* of each dataset (who transfers to whom, the multiset of
amounts, which pairs step to which) is drawn once from a fixed topology
seed; the run seed permutes identities, row order, binding order and
the service schedule.  The reason is measured, not aesthetic: drawing
the bank topology itself from the run seed moves ``->+`` row counts by
±15 % (20.5 k … 27 k rows at 200/800) and pair reachability by 2.5×,
which would bury a 10 % regression under seed-to-seed spread.  With the
topology fixed, every seed asks for the same amount of work from
differently named, differently ordered data.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.datasets import TransferWorkloadConfig, generate_iban_database, pair_graph_database

ACCOUNT_COLUMNS = ["iban"]
TRANSFER_COLUMNS = ["t_id", "src_iban", "tgt_iban", "ts", "amount"]
E4_COLUMNS = ["u1", "u2", "v1", "v2"]

TRANSFERS_DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

#: The two statements of the bank workloads; ``{minimum}`` is a literal or
#: a ``:parameter``.
REACH_SQL = (
    "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x)-[t:Transfer]->+(y) "
    "WHERE t.amount > {minimum} COLUMNS (x.iban AS src, y.iban AS dst) )"
)
HOP_SQL = REACH_SQL.replace("->+", "->")

#: Topology seeds: the ones the sizing probes of the issue were made on.
BANK_TOPOLOGY_SEED = 7
PAIRS_TOPOLOGY_SEED = 5

Row = Tuple


def bank_tables(
    seed: int, accounts: int = 200, transfers: int = 800, variants: int = 1
) -> Tuple[List[Row], List[List[Row]]]:
    """``(Account rows, [Transfer rows per variant])`` for one run seed.

    Variant 0 is the fixed-topology bank under a seed-derived renaming of
    accounts and transfers; variant ``v > 0`` keeps the same transfers but
    deals the same multiset of amounts to them in another seeded order —
    the table replacements the service workload writes.
    """
    base = generate_iban_database(
        TransferWorkloadConfig(accounts=accounts, transfers=transfers, seed=BANK_TOPOLOGY_SEED)
    )
    rng = random.Random(f"bank-{seed}")
    ibans = sorted(row[0] for row in base.relation("Account").rows)
    renamed = dict(zip(ibans, rng.sample(ibans, len(ibans))))
    rows = sorted(base.relation("Transfer").rows)
    t_ids = rng.sample([row[0] for row in rows], len(rows))
    tables = []
    for variant in range(variants):
        amounts = [row[4] for row in rows]
        if variant:
            rng.shuffle(amounts)
        table = [
            (t_id, renamed[row[1]], renamed[row[2]], row[3], amount)
            for t_id, row, amount in zip(t_ids, rows, amounts)
        ]
        rng.shuffle(table)
        tables.append(table)
    account_rows = [(iban,) for iban in ibans]
    rng.shuffle(account_rows)
    return account_rows, tables


#: Size of the Theorem 5.2 instance: 24 values, 429 ``E4`` rows, 2 223
#: reachable pairs.
PAIR_VALUES = 24
PAIR_EDGE_PROBABILITY = 0.00125


def pair_rows(seed: int) -> List[Row]:
    """The ``E4`` relation of the Theorem 5.2 workload, values renamed and
    rows reordered by the run seed.

    The issue's 0.002 (703 rows, 46 402 pairs) makes an op that is mostly
    the decoding of 46 k 8-ary rows, not view construction, and whose 70 MB working set
    slows by 38 % beside a memory-bound neighbour on the host, which no
    bound the contract allows would have absorbed.  In between, at 0.0015,
    a full garbage collection strikes 9 % of the ops and p90 falls on
    either side of that cliff from run to run (22 % spread); here it
    strikes 3.5 % and p90 stays in the bulk."""
    base = pair_graph_database(
        PAIR_VALUES, seed=PAIRS_TOPOLOGY_SEED, edge_probability=PAIR_EDGE_PROBABILITY
    )
    rng = random.Random(f"pairs-{seed}")
    names = [f"a{i}" for i in range(PAIR_VALUES)]
    renamed = dict(zip(names, rng.sample(names, len(names))))
    rows = [tuple(renamed[value] for value in row) for row in sorted(base.relation("E4").rows)]
    rng.shuffle(rows)
    return rows


def shuffled(seed: int, label: str, values: Iterable) -> List:
    """``values`` in the order the run seed gives them (binding order)."""
    ordered = list(values)
    random.Random(f"{label}-{seed}").shuffle(ordered)
    return ordered


# --------------------------------------------------------------------------- #
# Reference: independent of every engine.  Filter Transfer rows by amount,
# breadth-first search per source.
# --------------------------------------------------------------------------- #
def hop_pairs(transfers: Sequence[Row], minimum: float) -> Set[Tuple[str, str]]:
    """Distinct ``(src, dst)`` of transfers with ``amount > minimum``."""
    return {(row[1], row[2]) for row in transfers if row[4] > minimum}


def reachable(transfers: Sequence[Row], minimum: float) -> Dict[str, Set[str]]:
    """``{x: {y}}`` for the accounts joined by a path of one or more
    transfers, each with ``amount > minimum`` (the ``->+`` statement)."""
    successors: Dict[str, Set[str]] = {}
    for src, dst in hop_pairs(transfers, minimum):
        successors.setdefault(src, set()).add(dst)
    reached = {}
    for source, first in successors.items():
        seen = set(first)
        frontier = list(first)
        while frontier:
            node = frontier.pop()
            for successor in successors.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        reached[source] = seen
    return reached


def reach_count(transfers: Sequence[Row], minimum: float) -> int:
    return sum(len(targets) for targets in reachable(transfers, minimum).values())


def reach_pairs(transfers: Sequence[Row], minimum: float) -> Set[Tuple[str, str]]:
    reached = reachable(transfers, minimum)
    return {(source, target) for source, targets in reached.items() for target in targets}
