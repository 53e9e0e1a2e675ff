"""Compare two results files, metric by metric, against the fixed bounds."""

from __future__ import annotations

from statistics import median, quantiles
from typing import Dict, List


class NotComparable(ValueError):
    """The two files do not measure the same thing."""


def check_comparable(first: Dict, second: Dict) -> None:
    for label, document in (("first", first), ("second", second)):
        if document["fingerprint"]["smoke"]:
            raise NotComparable(f"the {label} file is a smoke run; its numbers mean nothing")
    if first["fingerprint"]["definition"] != second["fingerprint"]["definition"]:
        raise NotComparable("workload definitions or windows differ between the files")


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the quartiles with four runs or more, the full range with fewer."""
    middle = median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    low, _, high = quantiles(values, n=4)
    return (high - low) / abs(middle)


def verdict(first: List[float], second: List[float], better: str, bound: float) -> Dict:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    before, after = median(first), median(second)
    change = (after - before) / abs(before) if before else float(after != before)
    worse = change if better == "lower" else -change
    widest = max(spread(first), spread(second))
    if worse <= bound and widest <= bound:
        state = "ok"
    elif widest > bound or min(len(first), len(second)) < 2:
        # One run a side has no spread at all: on a noisy host a single
        # slow run is not evidence of a slower program.
        state = "unresolved"
    else:
        state = "regressed"
    return {"first": before, "second": after, "change": change, "spread": widest, "state": state}


def report(first: Dict, second: Dict, contract: Dict) -> int:
    """Print the comparison; 1 when any metric regressed, 2 when the files
    cannot be compared."""
    try:
        check_comparable(first, second)
    except NotComparable as error:
        print(f"refusing to compare: {error}")
        return 2
    status = 0
    print(
        f"{'workload':<15}{'metric':<18}{'first':>12}{'second':>12}{'change':>9}"
        f"{'bound':>7}{'spread':>8}  verdict"
    )
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            sides = [
                [run["workloads"][workload]["metrics"][metric["name"]] for run in document["runs"]]
                for document in (first, second)
            ]
            row = verdict(sides[0], sides[1], metric["better"], metric["bound"])
            status = max(status, int(row["state"] == "regressed"))
            print(
                f"{workload:<15}{metric['name']:<18}{row['first']:>12.4f}{row['second']:>12.4f}"
                f"{row['change']:>+9.1%}{metric['bound']:>7.0%}{row['spread']:>8.1%}"
                f"  {row['state']}  [{metric['unit']}]"
            )
        # Failures are counts, not timings: any increase is a regression,
        # and no spread between the runs excuses it.
        before, after = (failed_ops_pct(document, workload) for document in (first, second))
        state = "regressed" if after > before else "ok"
        status = max(status, int(state == "regressed"))
        print(
            f"{workload:<15}{'failed_ops_pct':<18}{before:>12.4f}{after:>12.4f}"
            f"{'':>9}{'any':>7}{'':>8}  {state}  [%]"
        )
    return status


def failed_ops_pct(document: Dict, workload: str) -> float:
    """Failed ops of all the runs of one side, pooled, as a share of the
    ops those runs attempted."""
    results = [run["workloads"][workload] for run in document["runs"]]
    attempted = sum(result["attempted"] for result in results)
    return 100.0 * sum(result["failed"] for result in results) / attempted
