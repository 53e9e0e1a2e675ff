"""Walk through the paper's expressiveness hierarchy with executable queries.

    PGQro  ⊊  PGQrw  ⊊  PGQext  =  FO[TC]  =  NL        (Theorems 4.1-6.8)

Each strict inclusion is witnessed by the separating query from the proof:

* Theorem 4.1 — alternating-colour paths need the read-write view
  construction (``RedNodes ∪ BlueNodes``); bounded read-only queries miss
  long paths.
* Theorem 4.2 — PGQrw only detects semilinear path-length sets, while NL
  can ask for perfect-square path lengths.
* Theorem 5.2 / Example 5.3 — pair reachability and increasing-amount paths
  need composite identifiers (PGQext).
* Theorems 6.1/6.2 — PGQext and FO[TC] translate into each other; the
  translations are checked on concrete data, on every engine.
"""

from __future__ import annotations

from repro.datasets import alternating_chain, chain, generate_transfer_chain, pair_graph_database
from repro.engine import available_engines, create_engine
from repro.logic import reachability_formula
from repro.pgq import evaluate, evaluate_boolean
from repro.separations import (
    alternating_path_query_ro,
    alternating_path_query_rw,
    approximation_gap,
    increasing_amount_pairs_query,
    pair_reachability_query,
    path_length_set,
    square_length_path_exists,
    squares_not_rw_detectable,
)
from repro.translations import check_formula_translation


def theorem_4_1() -> None:
    print("== Theorem 4.1: PGQro < PGQrw (alternating-colour paths) ==")
    print(f"{'chain length':>14} {'RO (k<=3)':>10} {'RW query':>10}")
    for length in (1, 2, 3, 6, 12, 24):
        database = alternating_chain(length)
        ro_answers = any(
            evaluate_boolean(alternating_path_query_ro(k), database) and k <= length
            for k in range(1, 4)
        )
        rw_answer = evaluate_boolean(alternating_path_query_rw(), database)
        print(f"{length:>14} {str(ro_answers):>10} {str(rw_answer):>10}")
    print("   every fixed read-only query has a bounded radius; the read-write")
    print("   query answers correctly for all lengths by building the union view.\n")


def theorem_4_2() -> None:
    print("== Theorem 4.2: PGQrw < NL (semilinear path lengths) ==")
    database = chain(16)
    lengths = path_length_set(database, "v0", None, bound=16)
    print(f"   path lengths from v0 on a 16-chain: {sorted(lengths)[:8]}...")
    print("   NL query 'is some path length a positive perfect square?':",
          square_length_path_exists(database, "v0", None, bound=16))
    print("   no PGQrw repetition query has exactly the square-length set:",
          squares_not_rw_detectable(bound=40), "\n")


def theorem_5_2_and_example_5_3() -> None:
    print("== Theorem 5.2 / Example 5.3: PGQrw < PGQext ==")
    pair_db = pair_graph_database(4, seed=11, edge_probability=0.15)
    pairs = evaluate(pair_reachability_query(), pair_db)
    gap = approximation_gap(pair_db)
    print(f"   pair reachability (PGQ_2): {len(pairs)} reachable pairs;")
    print(f"   unary component-wise approximation is wrong on {gap} pairs")

    transfer_db = generate_transfer_chain(6, increasing=True)
    increasing = evaluate(increasing_amount_pairs_query(), transfer_db)
    print(f"   increasing-amount paths via composite identifiers: {len(increasing)} pairs\n")


def theorems_6_1_and_6_2() -> None:
    print("== Theorems 6.1/6.2: PGQext = FO[TC] ==")
    from repro.relational import Database

    database = Database.from_dict({"E": [(i, i + 1) for i in range(8)] + [(8, 3)]})
    for name in available_engines():
        engine = create_engine(name, database)
        try:
            report = check_formula_translation(reachability_formula("E"), engine)
        finally:
            engine.close()
        print(f"   FO[TC] reachability formula -> PGQext query on {name}, "
              f"equivalent on data: {report.equivalent}")
    print("   (the constructive translations of Lemmas 9.3/9.4 are exercised in")
    print("    tests/test_translations.py on many more shapes)\n")


def main() -> None:
    theorem_4_1()
    theorem_4_2()
    theorem_5_2_and_example_5_3()
    theorems_6_1_and_6_2()


if __name__ == "__main__":
    main()
