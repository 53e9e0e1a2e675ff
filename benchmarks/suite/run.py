#!/usr/bin/env python3
"""The benchmark suite's one command.

Three ways in::

    python -m benchmarks.suite.run --seed 7            # every workload, both passes
    python -m benchmarks.suite.run --compare A.json B.json
    python3 benchmarks/suite/run.py --workload reach_warm --seed 7 --seconds 10 --trace 0

The last form is the contract's: one workload, one pass, in this
process, with the result as one JSON object on the last line of standard
output.  The first form runs that same code once per workload, each in
its own fresh subprocess, and writes a results file ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.suite import compare  # noqa: E402
from benchmarks.suite.inprocess import IN_PROCESS, Workload  # noqa: E402
from benchmarks.suite.measure import (  # noqa: E402
    MIN_WINDOW_OPS,
    SLICES,
    demoted,
    end_to_end,
    peak_rss_mb,
)
from benchmarks.suite.service_mix import ServiceMix  # noqa: E402
from benchmarks.suite.spans import SpanRecorder  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {cls.name: cls for cls in IN_PROCESS + (ServiceMix,)}
UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
OUTPUT_DIR = ROOT / ".bench_out"

#: Shape of a pass, full and smoke.  ``setups`` complete set-ups are timed
#: before the warm-up (the last of them is the one measured on) and after
#: the window, and the fastest reported as ``setup_s``: the builder's
#: contract asks for several a run.  ``min_ops`` keeps ten samples beyond
#: p90 even on a much slower machine.
FULL = {"warmup_cap_s": 2.0, "setups": (3, 2), "traced_ops": 30, "min_ops": MIN_WINDOW_OPS}
SMOKE = {"warmup_cap_s": 0.2, "setups": (1, 0), "traced_ops": 5, "min_ops": 0}
WARMUP_SHARE = 0.2
SMOKE_SECONDS = 1


def pin_hash_seed() -> None:
    """Re-execute with string hashing pinned.  The engine iterates over
    sets of identifiers, whose order follows the per-process hash seed;
    left random it moves a run's p50 by about ±3 % on this box."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])


def run_workload(name: str, seed: int, seconds: float, passes: str, smoke: bool) -> Dict:
    """Set up ``name``, run the untraced window and, when asked for, the
    traced replay after it; verify against the oracles; tear down."""
    shape = SMOKE if smoke else FULL
    setup_samples: List[float] = []

    def set_up() -> Workload:
        fresh: Workload = WORKLOADS[name](seed, smoke)
        begin = perf_counter()
        fresh.setup()
        setup_samples.append(perf_counter() - begin)
        return fresh

    # Set-up is timed at both ends of the run, so that one burst of the host
    # cannot touch every sample.  A traced-only run does not report set-up
    # time and sets up once.
    before, after = (1, 0) if passes == "1" else shape["setups"]
    workload = set_up()
    for _ in range(before - 1):
        workload.teardown()
        workload = set_up()
    workload.trace_seconds = seconds
    recorder = SpanRecorder()
    layers: Dict[str, float] = {}
    try:
        warmup = workload.run(min(shape["warmup_cap_s"], WARMUP_SHARE * seconds))
        window = workload.run(seconds, first_index=warmup.attempted, min_ops=shape["min_ops"])
        # Memory is read here: what follows (the naive engine, the staged
        # replay and its oracle) is the benchmark's work, not the program's.
        rss_mb = peak_rss_mb() + workload.child_peak_rss_mb()
        for _ in range(after):
            set_up().teardown()
        for error in window.errors:
            print(f"{name}: op failed: {error}", file=sys.stderr)
        attempted, failed = window.attempted, window.failed
        workload.verify()
        if passes != "0":
            first_index = warmup.attempted + window.attempted
            layers, traced_ops, traced_failed = workload.trace(
                recorder, shape["traced_ops"], first_index
            )
            attempted += traced_ops
            failed += traced_failed
    finally:
        workload.teardown()
    min_beyond = shape["min_ops"] // 10
    result: Dict = {
        "workload": name, "seed": seed, "clients": workload.clients,
        "attempted": attempted, "failed": failed,
        "correct": workload.oracle_ok and failed == 0,
        "window_ops": window.attempted, "setup_samples": len(setup_samples),
        "metrics": end_to_end(window, setup_samples, rss_mb, min_beyond),
    }
    if passes != "0":
        recorder.write(OUTPUT_DIR / f"trace-{name}-seed{seed}.jsonl")
        layers.update(demoted(window, min_beyond))
        layers["bench.failed_ops_pct"] = 100.0 * failed / attempted
        zeros = {metric["name"]: 0.0 for metric in CONTRACT["per_layer"]}
        result["layers"] = {**zeros, **layers}
        result["measured"] = sorted(layers)  # the rest are layers this workload never crosses
    return result


def contract_line(result: Dict, passes: str) -> str:
    """The one JSON object the contract asks for on the last line."""
    values = result["layers"] if passes == "1" else result["metrics"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
            },
        }
    )


# --------------------------------------------------------------------------- #
# The whole suite: one fresh subprocess per workload, both passes.
# --------------------------------------------------------------------------- #
def environment_fingerprint(seed: int, seconds: float, smoke: bool) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    shape = SMOKE if smoke else FULL
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "loop": "closed",
        "smoke": smoke,
        # What two files must share to be comparable.
        "definition": {
            "window_s": seconds,
            "shape": shape,
            "slices": SLICES,
            "workloads": CONTRACT["workloads"],
            "clients": {name: cls.clients for name, cls in WORKLOADS.items()},
        },
    }


def run_suite(seed: int, runs: int, smoke: bool, output: Path) -> int:
    seconds = SMOKE_SECONDS if smoke else CONTRACT["run_seconds"]
    document = {"fingerprint": environment_fingerprint(seed, seconds, smoke), "runs": []}
    names = [workload["name"] for workload in CONTRACT["workloads"]]
    for run in range(runs):
        order = names if run % 2 == 0 else names[::-1]  # alternate the order
        results = {}
        for name in order:
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "both",
            ] + (["--smoke"] if smoke else [])
            finished = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if finished.returncode != 0:
                print(f"{name}: run failed with exit status {finished.returncode}")
                return 2
            results[name] = json.loads(finished.stdout.splitlines()[-1])
            print_workload(results[name])
        document["runs"].append({"order": order, "workloads": results})
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=1))
    print(f"\nresults: {output}   traces: {OUTPUT_DIR}/trace-<workload>-seed{seed}.jsonl")
    status = 0 if all(
        result["correct"] for run in document["runs"] for result in run["workloads"].values()
    ) else 1
    if runs >= 2 and not smoke:  # smoke numbers are not compared
        half = runs // 2
        first = {**document, "runs": document["runs"][:half]}
        second = {**document, "runs": document["runs"][half:]}
        print(f"\nrun sets 1..{half} against {half + 1}..{runs} of this commit:")
        status = max(status, compare.report(first, second, CONTRACT))
    return status


def print_workload(result: Dict) -> None:
    print(
        f"\n== {result['workload']}  (closed loop, {result['clients']} client(s), "
        f"{result['window_ops']} ops in the window, {result['failed']} failed, "
        f"correct={result['correct']})"
    )
    failed_pct = 100.0 * result["failed"] / result["attempted"]
    print(f"  {'failed_ops_pct':<40}{failed_pct:>14.4f} %")
    for name, value in result["metrics"].items():
        samples = result["setup_samples"] if name == "setup_s" else result["window_ops"]
        print(f"  {name:<40}{value:>14.4f} {UNITS[name]:<6} n={samples}")
    for name, value in result["layers"].items():
        print(f"    {name:<38}{value:>14.4f} {UNITS[name]}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return compare.report(first, second, CONTRACT)
    if args.workload is None:
        output = args.output or OUTPUT_DIR / f"results-seed{args.seed}.json"
        return run_suite(args.seed, args.runs, args.smoke, output)
    pin_hash_seed()
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else CONTRACT["run_seconds"]
    result = run_workload(args.workload, args.seed, seconds, args.trace, args.smoke)
    print(json.dumps(result) if args.trace == "both" else contract_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
