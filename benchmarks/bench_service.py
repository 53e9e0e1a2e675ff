#!/usr/bin/env python3
"""Load-generate the query service and record sustained QPS + latency.

The service benchmark (ISSUE 9 / ROADMAP item 1): a real
:class:`repro.service.Server` on an ephemeral port, hammered by
``--clients`` concurrent :class:`ServiceClient` threads (default 100,
each on its own keep-alive socket) running the parameterized single-hop
transfer query against a warm snapshot.  Recorded per run:

* sustained QPS (completed requests / wall time) and the exact
  client-observed p50/p95/p99 latency percentiles of the **steady
  state** — every request but a socket's first;
* the first request on each socket apart (``first_request_p50_s``,
  ``first_request_max_s``): all clients connect at once, the kernel
  completes the handshakes from the listen backlog, and the single
  accept thread — sharing one GIL with the load generator's client
  threads and the handler threads — gets to the accepted sockets one at
  a time, so a first request waits to be *served at all* (most of 100
  take over half a second; later requests on the same socket almost
  never do).  Mixed into one distribution those 100 of 2 000 samples
  *are* the p99 — the 2.26 s against a p95 of 0.18 s the first
  ``BENCH_service.json`` recorded;
* the failure count — the smoke gate requires **zero** failed requests;
* the governance section: a 408 proven under an injected 50 ms
  deadline on the recursive chain query, and a 429 proven under
  ``max_concurrent_queries=2`` with a saturating burst — both with the
  partial-progress dict surviving to the HTTP body.

Gates (smoke and full, nonzero exit on miss):

* zero failed requests under the concurrent load;
* steady-state p95 *and p99* under ``P95_BOUND_S`` (generous: 100
  pure-python clients against one GIL share the interpreter; the bound
  catches pathological serialization — a lost keep-alive loop, a pool
  convoy — not micro regressions);
* at least one 408 and one 429 on the governance paths.

A run appends its load row to ``BENCH_service.json`` (the rows of
earlier runs stay: the file is a trajectory, not a snapshot)::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.database import Database  # noqa: E402
from repro.datasets import TransferWorkloadConfig, generate_iban_database  # noqa: E402
from repro.governance import FaultPlan, clear_fault_plan, install_fault_plan  # noqa: E402
from repro.observability.metrics import MetricsRegistry  # noqa: E402
from repro.service import Server, ServiceClient, ServiceError  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

#: Throughput query: one parameterized hop (statement-LRU hit after the
#: first request; the service benchmark measures the serving stack, not
#: fixpoint runtimes).
HOP_QUERY = (
    "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]-> (y) "
    "WHERE t.amount > :minimum COLUMNS (x.iban AS src, y.iban AS dst) )"
)

#: Governance probe: unbounded chains are superlinear in the transfer
#: count — long enough at the benchmark size for a 50 ms deadline to
#: land mid-flight.
CHAIN_QUERY = (
    "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]->+ (y) "
    "COLUMNS (x.iban AS src, y.iban AS dst) )"
)

#: Bank workload size (accounts, transfers) — matches the planner
#: benchmark's largest prepared workload.
WORKLOAD = (200, 800)

#: Injected per-request deadline of the 408 probe (the acceptance
#: criterion's 50 ms).
DEADLINE_MS = 50.0

#: p95 ceiling asserted by the CI smoke job.  Deliberately generous:
#: with 100 CPython client threads and the server sharing one GIL, a
#: request's latency is dominated by scheduling, not by the ~1 ms of
#: engine work — the gate exists to catch requests serializing behind a
#: convoy (seconds), not scheduler jitter.  Local runs sit around
#: 0.7 s; CI machines are slower.
P95_BOUND_S = 2.5


def _build_database(**kwargs) -> Database:
    accounts, transfers = WORKLOAD
    relational = generate_iban_database(
        TransferWorkloadConfig(accounts=accounts, transfers=transfers, seed=7)
    )
    kwargs.setdefault("metrics", MetricsRegistry())
    database = Database(**kwargs)
    database.create_table("Account", ["iban"], relational.relation("Account").rows)
    database.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        relational.relation("Transfer").rows,
    )
    database.execute(DDL)
    return database


def _percentiles(samples: List[float]) -> Dict[str, float]:
    """Exact p50/p95/p99 (nearest-rank) of client-observed latencies."""
    ordered = sorted(samples)
    if not ordered:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    def rank(q: float) -> float:
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]
    return {"p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99)}


def bench_sustained_load(clients: int, requests_per_client: int, pool_size: int) -> dict:
    """``clients`` concurrent keep-alive clients against a warm snapshot."""
    database = _build_database()
    thresholds = [10 * i for i in range(requests_per_client)]
    #: Per client: the first request on its socket, then the steady state.
    latencies: List[List[float]] = [[] for _ in range(clients)]
    failures: List[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)
    with Server(database, port=0, pool_size=pool_size) as server:
        # Warm the snapshot and the statement LRU before the clock starts.
        warm = ServiceClient("127.0.0.1", server.port)
        assert warm.query(HOP_QUERY, {"minimum": 0}).row_count > 0
        warm.close()

        def worker(slot: int) -> None:
            client = ServiceClient("127.0.0.1", server.port, timeout_s=30.0)
            mine = latencies[slot]
            try:
                barrier.wait()
                for threshold in thresholds:
                    begin = perf_counter()
                    client.query(HOP_QUERY, {"minimum": threshold})
                    mine.append(perf_counter() - begin)
            except (ServiceError, OSError) as error:
                with lock:
                    failures.append(repr(error))
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        begin = perf_counter()
        for thread in threads:
            thread.join()
        wall_s = perf_counter() - begin
        metrics_text = server.service.metrics_text()
        stats = server.service.pool.stats()
    database.close()

    completed = sum(len(bucket) for bucket in latencies)
    first = sorted(bucket[0] for bucket in latencies if bucket)
    quantiles = _percentiles([sample for bucket in latencies for sample in bucket[1:]])
    return {
        "workload": f"bank {WORKLOAD[0]}/{WORKLOAD[1]}",
        "clients": clients,
        "requests": completed,
        "failures": len(failures),
        "failure_detail": failures[:3],
        "wall_s": round(wall_s, 4),
        "qps": round(completed / wall_s, 1) if wall_s > 0 else 0.0,
        "first_request_p50_s": round(_percentiles(first)["p50"], 5),
        "first_request_max_s": round(first[-1], 5) if first else 0.0,
        "first_request_over_half_s": sum(sample > 0.5 for sample in first),
        "steady_requests": completed - len(first),
        "p50_s": round(quantiles["p50"], 5),
        "p95_s": round(quantiles["p95"], 5),
        "p99_s": round(quantiles["p99"], 5),
        "pool": {k: stats[k] for k in ("size", "opened_total", "handoffs")},
        "metrics_exposition_lines": len(metrics_text.splitlines()),
    }


def bench_deadline_408() -> dict:
    """Prove the 408 path: the chain query under a 50 ms deadline.

    A 5 ms checkpoint latency (the governance fault-injection hook)
    makes the probe deterministic — the bare chain query sits right at
    the 50 ms boundary on a fast machine.
    """
    database = _build_database()
    outcome: dict = {"probe": "chain_query", "timeout_ms": DEADLINE_MS}
    status = progress = None
    elapsed_s = 0.0
    install_fault_plan(FaultPlan(latency_s=0.005))
    try:
        with Server(database, port=0, pool_size=2) as server:
            client = ServiceClient("127.0.0.1", server.port)
            begin = perf_counter()
            try:
                client.query(CHAIN_QUERY, timeout_ms=DEADLINE_MS)
            except ServiceError as error:
                elapsed_s = perf_counter() - begin
                status, progress = error.status, error.progress
            client.close()
    finally:
        clear_fault_plan()
        database.close()
    outcome.update(
        {
            "status": status,
            "progress_keys": sorted(progress or {}),
            "stopped_after_s": round(elapsed_s, 4),
            "proven": status == 408 and bool(progress),
        }
    )
    return outcome


def bench_admission_429(burst: int = 12) -> dict:
    """Prove the 429 path: a burst against ``max_concurrent_queries=2``."""
    database = _build_database(
        max_concurrent_queries=2, max_admission_queue=0, admission_timeout_s=0.05
    )
    counts = {"ok": 0, "429": 0, "other": 0}
    progress_seen: List[str] = []
    lock = threading.Lock()
    # Checkpoint latency keeps every admitted query in its slot long
    # enough that the burst overlaps deterministically.
    install_fault_plan(FaultPlan(latency_s=0.002))
    try:
        with Server(database, port=0, pool_size=burst) as server:
            def worker() -> None:
                client = ServiceClient("127.0.0.1", server.port)
                try:
                    client.query(CHAIN_QUERY)
                    key = "ok"
                except ServiceError as error:
                    key = "429" if error.status == 429 else "other"
                    if error.status == 429 and error.progress:
                        with lock:
                            progress_seen.extend(error.progress)
                finally:
                    client.close()
                with lock:
                    counts[key] += 1

            threads = [threading.Thread(target=worker) for _ in range(burst)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        clear_fault_plan()
        database.close()
    return {
        "probe": "admission_burst",
        "max_concurrent_queries": 2,
        "burst": burst,
        "served": counts["ok"],
        "rejected_429": counts["429"],
        "other_errors": counts["other"],
        "progress_keys": sorted(set(progress_seen)),
        "proven": counts["429"] >= 1 and counts["other"] == 0,
    }


def _print_row(title: str, row: dict) -> None:
    print(f"\n# {title}")
    for key, value in row.items():
        print(f"  {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="fewer requests per client (CI)")
    parser.add_argument("--clients", type=int, default=100, help="concurrent clients")
    parser.add_argument("--pool-size", type=int, default=8)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    requests_per_client = 5 if args.smoke else 20
    load = bench_sustained_load(args.clients, requests_per_client, args.pool_size)
    deadline = bench_deadline_408()
    admission = bench_admission_429()

    _print_row("service_load", load)
    _print_row("service_deadline_408", deadline)
    _print_row("service_admission_429", admission)

    load["generated_by"] = "benchmarks/bench_service.py" + (" --smoke" if args.smoke else "")
    try:
        earlier = json.loads(args.output.read_text())["workloads"]["service_load"]
    except (OSError, ValueError, KeyError):
        earlier = []
    payload = {
        "generated_by": load["generated_by"],
        "transport": "http/1.1 keep-alive, ThreadingHTTPServer, one write per response, TCP_NODELAY",
        "workloads": {
            "service_load": earlier + [load],
            "service_governance": [deadline, admission],
        },
        "latency_percentiles": {
            "service_load": {
                "unit": "seconds",
                "scope": "steady state (every request but a socket's first)",
                "count": load["steady_requests"],
                "p50": load["p50_s"],
                "p95": load["p95_s"],
                "p99": load["p99_s"],
            }
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    missed = False
    zero_failures = load["failures"] == 0
    missed = missed or not zero_failures
    print(
        f"service_load: {load['failures']} failed requests of {load['requests']} "
        f"[{'ok' if zero_failures else 'FAILURES'}]"
    )
    under_bound = load["p99_s"] < P95_BOUND_S  # p95 <= p99 rides along
    missed = missed or not under_bound
    print(
        f"service_load: steady-state p95 {load['p95_s']}s / p99 {load['p99_s']}s under "
        f"{args.clients} clients (bound {P95_BOUND_S}s) "
        f"[{'ok' if under_bound else 'BELOW TARGET'}]; first request on a socket "
        f"p50 {load['first_request_p50_s']}s, max {load['first_request_max_s']}s"
    )
    print(
        f"service_deadline: {DEADLINE_MS:.0f}ms deadline answered "
        f"{deadline['status']} [{'ok' if deadline['proven'] else 'NOT PROVEN'}]"
    )
    missed = missed or not deadline["proven"]
    print(
        f"service_admission: {admission['rejected_429']}/{admission['burst']} "
        f"rejected 429 at max_concurrent=2 "
        f"[{'ok' if admission['proven'] else 'NOT PROVEN'}]"
    )
    missed = missed or not admission["proven"]
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
