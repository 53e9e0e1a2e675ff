"""``service_mix``: the serving stack under reads and writes, 2 clients.

A server child (``python -m repro.service``) is driven over real sockets
by two closed-loop keep-alive clients from this process.  The child is
started on a free port, polled on ``/healthz`` with a deadline, and
terminated and reaped in ``finally``; a run that leaves the child or its
listening socket behind is a failed run.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path
from statistics import mean, median
from time import perf_counter, process_time, sleep
from typing import Dict, List, Optional, Tuple

from repro.service import QueryService, ServiceClient, ServiceError
from repro.service.protocol import QueryRequest, encode, parse_json, query_response

from benchmarks.suite import data
from benchmarks.suite.inprocess import Workload, checked_bindings, load_bank
from benchmarks.suite.measure import TooFewSamples, Window, closed_loop, percentile
from benchmarks.suite.spans import SpanRecorder, layer_ms

SRC = Path(__file__).resolve().parents[2] / "src"

STATEMENTS = {
    "hop": data.HOP_SQL.format(minimum=":minimum"),
    "chain": data.REACH_SQL.format(minimum=":minimum"),
}
MINIMUMS = {"hop": range(0, 1000, 10), "chain": range(900, 951)}
REFERENCE = {"hop": data.hop_pairs, "chain": data.reach_pairs}
EXPECTED_ROWS = {"hop": lambda table, m: len(data.hop_pairs(table, m)), "chain": data.reach_count}

CLIENTS = 2
POOL_SIZE = 4
VARIANTS = 4
#: The mix, exact in every 50 ops of a client: 2 % writes, 8 % ->+, 90 % hops.
BLOCK = ("write",) * 1 + ("chain",) * 4 + ("hop",) * 45
SCHEDULE_BLOCKS = 400
READY_DEADLINE_S = 30.0


class ChildLeft(RuntimeError):
    """The server child or its listening socket outlived the run."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def port_is_listening(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(0.5)
        return probe.connect_ex(("127.0.0.1", port)) == 0


class ServerChild:
    """The service as a child process, from start to reap."""

    def __init__(self) -> None:
        self.port = free_port()
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [environment.get("PYTHONPATH")] if p]
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--dataset", "none",
                "--port", str(self.port), "--pool-size", str(POOL_SIZE),
            ],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def wait_ready(self) -> None:
        deadline = perf_counter() + READY_DEADLINE_S
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server child exited with {self.process.returncode}")
            try:
                with ServiceClient("127.0.0.1", self.port, timeout_s=1.0) as client:
                    if client.healthz()["status"] == "ok":
                        return
            except (OSError, ServiceError):
                sleep(0.02)
        raise RuntimeError(f"server child not healthy within {READY_DEADLINE_S:g} s")

    def cpu_s(self) -> float:
        """User + system CPU the child has used so far (Linux /proc)."""
        try:
            fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the child so far (``VmHWM``, Linux /proc)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        """Terminate, reap, and check nothing is left listening."""
        self.process.terminate()
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if port_is_listening(self.port):
            raise ChildLeft(f"port {self.port} still accepts connections after reap")


def prometheus_sum(text: str, name: str, keep) -> float:
    """Sum of the samples called ``name`` whose label dict satisfies ``keep``."""
    total = 0.0
    for line in text.splitlines():
        match = re.match(rf"{re.escape(name)}(?:\{{(.*)\}})? (\S+)$", line)
        if match and keep(dict(re.findall(r'(\w+)="([^"]*)"', match.group(1) or ""))):
            total += float(match.group(2))
    return total


def schedule(rng: random.Random) -> List[Tuple[str, int]]:
    """One client's ops: ``(kind, table variant or :minimum)``.

    The seed orders the ops inside each block and the arguments each kind
    cycles through; the mix itself is the same in every block.  Drawn op
    by op, the 450 ops of a window held 2 to 17 writes and 26 to 44 ``->+``
    reads over twenty seeds, and the CPU time per op followed those counts."""
    arguments = {
        kind: itertools.cycle(rng.sample(list(values), len(values)))
        for kind, values in {**MINIMUMS, "write": range(VARIANTS)}.items()
    }
    ops: List[Tuple[str, int]] = []
    for _ in range(SCHEDULE_BLOCKS):
        block = [(kind, next(arguments[kind])) for kind in BLOCK]
        rng.shuffle(block)
        ops.extend(block)
    return ops


class ServiceMix(Workload):
    name = "service_mix"
    clients = CLIENTS

    def setup(self) -> None:
        accounts, tables = data.bank_tables(self.seed, variants=VARIANTS)
        self.accounts, self.tables = accounts, tables
        self.expected = [
            {
                kind: {m: EXPECTED_ROWS[kind](table, m) for m in MINIMUMS[kind]}
                for kind in STATEMENTS
            }
            for table in tables
        ]
        rng = random.Random(f"service-{self.seed}")
        self.schedules = [schedule(rng) for _ in range(CLIENTS)]
        self.child = ServerChild()
        try:
            self.child.wait_ready()
            self.sessions = [
                ServiceClient("127.0.0.1", self.child.port) for _ in range(CLIENTS)
            ]
            admin = self.sessions[0]
            admin.create_table("Account", data.ACCOUNT_COLUMNS, accounts)
            admin.create_table("Transfer", data.TRANSFER_COLUMNS, tables[0])
            admin.ddl(data.TRANSFERS_DDL)
            # One write of every variant, ending on variant 0: the reply
            # names the content fingerprint the reads will report.
            self.variant_of: Dict[str, int] = {}
            for variant in list(range(1, VARIANTS)) + [0]:
                reply = admin.create_table(
                    "Transfer", data.TRANSFER_COLUMNS, tables[variant]
                )
                self.variant_of[reply["snapshot"]] = variant
        except BaseException:
            self.teardown()
            raise
        self.records: List[List[Tuple[str, float, bool]]] = [[] for _ in range(CLIENTS)]
        self.recorder: Optional[SpanRecorder] = None
        self.fresh_write = False
        self.flag_lock = threading.Lock()

    def verify(self) -> None:
        """The served rows against the reference and the naive engine."""
        client = self.sessions[0]
        # The window's last write left any of the variants: put 0 back.
        client.create_table("Transfer", data.TRANSFER_COLUMNS, self.tables[0])
        database = load_bank(self.accounts, self.tables[0])
        naive = database.connect("naive")
        for kind, statement in STATEMENTS.items():
            for minimum in checked_bindings(MINIMUMS[kind], self.smoke):
                reference = REFERENCE[kind](self.tables[0], minimum)
                served = client.query(statement, {"minimum": minimum})
                oracle = naive.execute(statement, {"minimum": minimum})
                self.oracle_ok &= set(served.rows) == reference == set(oracle.rows)
        database.close()

    def teardown(self) -> None:
        for session in getattr(self, "sessions", ()):
            session.close()
        self.child.stop()

    def child_peak_rss_mb(self) -> float:
        return self.child.peak_rss_mb()

    # ------------------------------------------------------------------ #
    def client_op(self, slot: int, index: int) -> bool:
        schedule = self.schedules[slot]
        kind, argument = schedule[index % len(schedule)]
        session = self.sessions[slot]
        first_after_write = False
        if kind != "write":
            with self.flag_lock:
                first_after_write, self.fresh_write = self.fresh_write, False
        begin = perf_counter()
        if self.recorder is not None:
            with self.recorder.span(f"client.{kind}", op_id=index * CLIENTS + slot):
                ok = self.request(session, kind, argument)
        else:
            ok = self.request(session, kind, argument)
        self.records[slot].append((kind, perf_counter() - begin, first_after_write))
        return ok

    def request(self, session: ServiceClient, kind: str, argument: int) -> bool:
        if kind == "write":
            reply = session.create_table(
                "Transfer", data.TRANSFER_COLUMNS, self.tables[argument]
            )
            with self.flag_lock:
                self.fresh_write = True
            return self.variant_of.get(reply["snapshot"]) is not None
        reply = session.query(STATEMENTS[kind], {"minimum": argument})
        variant = self.variant_of.get(reply.snapshot)
        return variant is not None and reply.row_count == self.expected[variant][kind][argument]

    def op(self, index: int) -> bool:
        return self.client_op(0, index)

    def run(self, seconds: float, first_index: int = 0, min_ops: int = 0) -> Window:
        """Both clients run their closed loop over the same wall window."""
        windows: List[Optional[Window]] = [None] * CLIENTS
        barrier = threading.Barrier(CLIENTS + 1)

        def client(slot: int) -> None:
            barrier.wait()
            windows[slot] = closed_loop(
                lambda index: self.client_op(slot, index),
                seconds,
                first_index=first_index,
                min_ops=-(-min_ops // CLIENTS),
            )

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(CLIENTS)]
        for thread in threads:
            thread.start()
        child_cpu = self.child.cpu_s()
        own_cpu = process_time()
        barrier.wait()
        start = perf_counter()
        for thread in threads:
            thread.join()
        total = Window(wall_s=perf_counter() - start)
        total.cpu_s = process_time() - own_cpu + self.child.cpu_s() - child_cpu
        for window in windows:
            total.merge(window)
        return total

    # ------------------------------------------------------------------ #
    def trace(
        self, recorder: SpanRecorder, ops: int, first_index: int
    ) -> Tuple[Dict[str, float], int, int]:
        """A traced window over the sockets, then the same request path
        called layer by layer on an in-process service."""
        admin = ServiceClient("127.0.0.1", self.child.port)
        before_text, before_pool = admin.metrics(), admin.healthz()["pool"]
        self.records = [[] for _ in range(CLIENTS)]
        self.recorder = recorder
        window = self.run(self.trace_seconds, first_index=first_index)
        self.recorder = None
        after_text, after_pool = admin.metrics(), admin.healthz()["pool"]
        admin.close()
        records = [record for slot in self.records for record in slot]
        reads = [latency for kind, latency, _ in records if kind != "write"]
        writes = [latency for kind, latency, _ in records if kind == "write"]
        post_write = [latency for kind, latency, first in records if first]

        def delta(sample: str, keep) -> float:
            return prometheus_sum(after_text, sample, keep) - prometheus_sum(
                before_text, sample, keep
            )

        def queries(labels: Dict[str, str]) -> bool:
            return labels.get("route") == "/query"

        handled = delta("repro_service_request_seconds_count", queries)
        handle_ms = (
            delta("repro_service_request_seconds_sum", queries) / handled * 1000.0
            if handled
            else 0.0
        )

        def tail(q: float) -> float:
            try:
                return percentile(window.latencies_s, q) * 1000.0
            except TooFewSamples:
                return 0.0  # the window does not hold enough ops for it

        metrics = {
            "service.handle_ms": handle_ms,
            "service.transport_wait_ms": mean(reads) * 1000.0 - handle_ms,
            "service.ddl_ms": median(writes) * 1000.0 if writes else 0.0,
            "service.post_write_read_ms": median(post_write) * 1000.0 if post_write else 0.0,
            "service.latency_p95_ms": tail(0.95),
            "service.latency_p99_ms": tail(0.99),
            "service.handoffs": after_pool["handoffs"] - before_pool["handoffs"],
            "service.pool_opened_total": after_pool["opened_total"] - before_pool["opened_total"],
            "service.status_non200": delta(
                "repro_service_requests_total", lambda labels: labels.get("status") != "200"
            ),
        }
        metrics.update(self.in_process_layers(recorder, ops))
        return metrics, window.attempted, window.failed

    def in_process_layers(self, recorder: SpanRecorder, ops: int) -> Dict[str, float]:
        database = load_bank(self.accounts, self.tables[0])
        minimums = data.shuffled(self.seed, "inproc", MINIMUMS["hop"])
        with QueryService(database, pool_size=POOL_SIZE) as service:
            for index in range(-1, ops):  # index -1 warms the snapshot, unrecorded
                params = {"minimum": minimums[index % len(minimums)]}
                body = json.dumps({"statement": STATEMENTS["hop"], "params": params}).encode(
                    "utf-8"
                )
                active = recorder if index >= 0 else SpanRecorder()
                with active.span("service.handle_inproc", op_id=index):
                    status, _, payload = service.handle("POST", "/query", body)
                if status != 200:
                    raise RuntimeError(f"in-process service answered {status}")
                with active.span("service.protocol_decode", op_id=index):
                    QueryRequest.from_payload(parse_json(body))
                reply = json.loads(payload)
                with active.span("service.protocol_encode", op_id=index):
                    encode(
                        query_response(
                            columns=reply["columns"],
                            rows=reply["rows"],
                            elapsed_ms=reply["elapsed_ms"],
                            engine=reply["engine"],
                            snapshot=reply["snapshot"],
                            streamed=reply["streamed"],
                        )
                    )
                with active.span("service.pool_acquire", op_id=index):
                    with service.pool.acquire():
                        pass
        database.close()
        layers = layer_ms(recorder.spans)
        return {
            f"{name}_ms": layers[name]
            for name in (
                "service.handle_inproc",
                "service.protocol_decode",
                "service.protocol_encode",
                "service.pool_acquire",
            )
        }
