"""Tests of the benchmark harness itself (collected by the tier-1 run)."""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.suite import compare, data, run, service_mix  # noqa: E402
from benchmarks.suite.inprocess import REACH_SQL, AdhocCompile, Workload, load_bank  # noqa: E402
from benchmarks.suite.measure import (  # noqa: E402
    TooFewSamples,
    Window,
    closed_loop,
    demoted,
    end_to_end,
    percentile,
)
from benchmarks.suite.spans import SpanRecorder, layer_ms, self_times  # noqa: E402

CONTRACT = run.CONTRACT


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(range(1, 101), 0.90) == 90
    assert percentile(range(1, 101), 0.50) == 50
    with pytest.raises(TooFewSamples):
        percentile(range(1, 100), 0.90)
    with pytest.raises(TooFewSamples):
        percentile(range(1, 101), 0.99)
    assert percentile(range(1, 21), 0.90, min_beyond=0) == 18


def test_the_end_to_end_timings_are_those_of_the_calmest_slice():
    # Two clients, 100 ops each; the host is busy except during the fourth fifth.
    client = [0.030] * 60 + [0.010] * 20 + [0.030] * 20
    window = Window(clients=[list(client), list(client)], failed=20, wall_s=5.2)
    metrics = end_to_end(window, [0.3, 0.2, 0.4], rss_mb=1.0)
    assert metrics["latency_p50_ms"] == pytest.approx(10.0)
    assert metrics["throughput_ops_s"] == pytest.approx(2 * 100.0 * 0.9)  # 10 % failed
    assert metrics["setup_s"] == 0.2
    whole = demoted(window)
    assert whole["bench.window_p50_ms"] == pytest.approx(30.0)
    assert whole["bench.window_throughput_ops_s"] == pytest.approx(180 / 5.2)


def test_self_time_is_duration_minus_direct_children():
    def span(ident, name, start, end, parent):
        return {"id": ident, "name": name, "start": start, "end": end,
                "parent": parent, "op_id": 0}

    spans = [
        span(0, "op", 0.0, 10.0, None),
        span(1, "parse", 1.0, 4.0, 0),
        span(2, "lex", 2.0, 3.0, 1),
        span(3, "execute", 5.0, 7.0, 0),
        span(4, "op", 20.0, 24.0, None),
    ]
    own = self_times(spans)
    assert own["op"] == [5.0, 4.0]  # 10 - (3 + 2); the grandchild is not subtracted twice
    assert own["parse"] == [2.0]
    assert own["lex"] == [1.0]
    assert layer_ms(spans)["op"] == 4500.0


def test_recorder_nests_spans_and_inherits_the_op_id():
    recorder = SpanRecorder()
    with recorder.span("op", op_id=7) as outer:
        with recorder.span("stage") as inner:
            pass
    assert inner["parent"] == outer["id"] and inner["op_id"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_reference_reachability_agrees_with_the_naive_engine():
    accounts, (transfers,) = data.bank_tables(seed=3, accounts=20, transfers=60)
    database = load_bank(accounts, transfers)
    naive = database.connect("naive")
    for minimum in (0, 300, 600, 990):
        rows = naive.execute(REACH_SQL, {"minimum": minimum}).rows
        assert set(rows) == data.reach_pairs(transfers, minimum)
        assert len(rows) == data.reach_count(transfers, minimum)
    database.close()


def test_the_seed_renames_and_reorders_but_keeps_the_work():
    first, second = data.bank_tables(1)[1][0], data.bank_tables(2)[1][0]
    assert first != second and first == data.bank_tables(1)[1][0]
    assert data.reach_count(first, 500) == data.reach_count(second, 500)


def test_a_wrong_expected_count_is_a_failed_op():
    workload = AdhocCompile(seed=1, smoke=True)
    workload.setup()
    try:
        assert closed_loop(workload.op, 0.0, min_ops=3).failed == 0
        workload.expected += 1
        window = closed_loop(workload.op, 0.0, first_index=3, min_ops=4)
    finally:
        workload.teardown()
    assert (window.attempted, window.failed) == (4, 4)
    line = json.loads(
        run.contract_line(
            {"correct": False, "attempted": 4, "failed": 4, "metrics": {"setup_s": 0.1}}, "0"
        )
    )
    assert line["failed"] == 4 and not line["correct"]


def test_memory_is_read_before_the_oracles_run(monkeypatch):
    events = []

    class Fake(Workload):
        name = "fake"

        def setup(self):
            events.append("setup")

        def op(self, index):
            return True

        def verify(self):
            events.append("verify")

    def read_rss():
        events.append("rss")
        return 1.0

    monkeypatch.setitem(run.WORKLOADS, "fake", Fake)
    monkeypatch.setattr(run, "peak_rss_mb", read_rss)
    result = run.run_workload("fake", seed=1, seconds=0.01, passes="0", smoke=True)
    assert events == ["setup", "rss", "verify"]
    assert result["correct"] and result["metrics"]["peak_rss_mb"] == 1.0


def test_the_service_mix_is_exact_in_every_block():
    ops = service_mix.schedule(random.Random(3))
    assert ops != service_mix.schedule(random.Random(4))
    block = len(service_mix.BLOCK)
    for start in range(0, len(ops), block):
        kinds = sorted(kind for kind, _ in ops[start:start + block])
        assert kinds == sorted(service_mix.BLOCK)


def test_an_op_that_raises_is_counted_and_the_loop_goes_on():
    def op(index):
        if index == 1:
            raise RuntimeError("boom")
        return True

    window = closed_loop(op, 0.0, min_ops=3)
    assert (window.attempted, window.failed) == (3, 1) and "boom" in window.errors[0]


# --------------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------------- #
def results(p50, smoke=False, window_s=10):
    metrics = {m["name"]: 1.0 for m in CONTRACT["end_to_end"]}
    runs = [
        {"workloads": {w["name"]: {"metrics": {**metrics, "latency_p50_ms": value},
                                   "attempted": 100, "failed": 0}
                       for w in CONTRACT["workloads"]}}
        for value in p50
    ]
    fingerprint = {"smoke": smoke, "definition": {"window_s": window_s}}
    return {"fingerprint": fingerprint, "runs": runs}


def test_compare_says_ok_regressed_and_unresolved(capsys):
    bound = CONTRACT["end_to_end"][0]["bound"]  # latency_p50_ms
    slower, much_slower = 10.0 * (1 + bound / 2), 10.0 * (1 + 2 * bound)
    assert compare.report(results([10.0, 10.1]), results([slower, slower]), CONTRACT) == 0
    assert compare.report(results([10.0, 10.1]), results([much_slower] * 2), CONTRACT) == 1
    assert "regressed" in capsys.readouterr().out
    wide = [10.0, 10.0 * (1 + 1.5 * bound)]  # spread wider than the bound
    assert compare.report(results(wide), results([much_slower] * 2), CONTRACT) == 0
    assert "unresolved" in capsys.readouterr().out
    worse, better = [100.0 * (1 + bound) + 1] * 2, [100.0 * (1 - bound) - 1] * 2
    assert compare.verdict([100.0] * 2, worse, "lower", bound)["state"] == "regressed"
    assert compare.verdict([100.0] * 2, better, "higher", bound)["state"] == "regressed"
    assert compare.verdict([100.0] * 2, better, "lower", bound)["state"] == "ok"
    # One run a side has no spread: a single slow run proves nothing.
    assert compare.verdict([100.0], worse[:1], "lower", bound)["state"] == "unresolved"


def test_compare_refuses_smoke_files_and_other_definitions(capsys):
    assert compare.report(results([1.0], smoke=True), results([1.0]), CONTRACT) == 2
    assert compare.report(results([1.0]), results([1.0], window_s=12), CONTRACT) == 2
    assert capsys.readouterr().out.count("refusing to compare") == 2


def test_any_new_failure_is_a_regression_whatever_the_spread():
    def with_failures(*failed):
        document = results([1.0] * len(failed))
        for run_, count in zip(document["runs"], failed):
            run_["workloads"]["reach_warm"]["failed"] = count
        return document

    assert compare.report(with_failures(0), with_failures(1), CONTRACT) == 1
    # Several runs a side: failures are pooled counts, so neither a median
    # of 0 nor run-to-run spread hides them.
    assert compare.report(with_failures(0, 0), with_failures(1, 2), CONTRACT) == 1
    assert compare.report(with_failures(0, 0, 0), with_failures(0, 0, 5), CONTRACT) == 1
    assert compare.report(with_failures(0, 0, 5), with_failures(0, 0, 0), CONTRACT) == 0
    assert compare.report(with_failures(1, 2), with_failures(2, 1), CONTRACT) == 0


# --------------------------------------------------------------------------- #
# One smoke pass of every workload; the six subprocesses run side by side.
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_results():
    children = {
        workload["name"]: subprocess.Popen(
            [sys.executable, str(ROOT / "benchmarks/suite/run.py"), "--workload",
             workload["name"], "--seed", "5", "--smoke", "--trace", "both"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload in CONTRACT["workloads"]
    }
    finished = {}
    try:
        for name, child in children.items():
            out, err = child.communicate(timeout=170)
            assert child.returncode == 0, f"{name}: {err[-2000:]}"
            finished[name] = json.loads(out.splitlines()[-1])
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    return finished


def test_contract_names_are_well_formed_and_used_once():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert set(run.WORKLOADS) == {w["name"] for w in CONTRACT["workloads"]}


def test_smoke_run_emits_exactly_the_contract_metrics(smoke_results):
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    measured = set()
    for name, result in smoke_results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == end_to_end, name
        assert set(result["layers"]) == per_layer, name
        assert all(value > 0 for value in result["metrics"].values()), name
        measured |= set(result["measured"])
    # Every per-layer name is measured by some workload, and none is invented.
    assert measured == per_layer


def test_opposite_workloads_sit_on_opposite_sides_of_the_caches(smoke_results):
    warm, cold, adhoc = (smoke_results[n]["layers"] for n in
                         ("reach_warm", "reach_cold", "adhoc_compile"))
    assert warm["planner.plan_cache_hit_ratio"] == 1.0
    assert warm["engine.stmt_cache_hit_ratio"] == 1.0
    assert cold["planner.plan_cache_hit_ratio"] == 0.0
    assert adhoc["planner.plan_cache_hit_ratio"] == 0.0
    assert adhoc["engine.stmt_cache_hit_ratio"] == 0.0
    assert smoke_results["reach_sqlite"]["layers"]["planner.execute_ms"] == 0.0
    assert smoke_results["reach_sqlite"]["layers"]["engine.sqlite_fetch_ms"] > 0.0


def test_bare_directory_without_the_program_fails_without_a_result(tmp_path):
    bare = tmp_path / "benchmarks" / "suite"
    bare.mkdir(parents=True)
    for source in (ROOT / "benchmarks" / "suite").glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    finished = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "reach_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert finished.returncode != 0 and finished.stdout == ""
