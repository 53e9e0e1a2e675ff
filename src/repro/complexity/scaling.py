"""Empirical data-complexity measurements (Section 2.4, Corollary 6.4).

The data complexity of query evaluation is measured by fixing a query and
growing the database.  These helpers time a query on an execution engine
over a family of databases of increasing size and fit a power law
``cost ~ size^alpha``, so the observed exponent can be checked against the
theoretical NL (polynomial, small-degree) bound on every backend.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.pgq.queries import Query

if TYPE_CHECKING:
    from repro.engine.registry import Engine


@dataclass(frozen=True)
class ScalingPoint:
    """One measurement: database size vs. evaluation cost."""

    size: int
    seconds: float
    result_rows: int


@dataclass(frozen=True)
class ScalingCurve:
    """A series of measurements plus the fitted power-law exponent."""

    points: Tuple[ScalingPoint, ...]
    exponent: Optional[float]


def measure_query_scaling(
    query_factory: Callable[[], Query],
    engine_factory: Callable[[int], "Engine"],
    sizes: Sequence[int],
    *,
    repeats: int = 1,
) -> ScalingCurve:
    """Time ``engine.evaluate(query_factory())`` for each of ``sizes``.

    ``engine_factory(size)`` builds an engine over the instance of that
    size; every repeat gets a fresh one, so each run is cold (view
    materialization included), and each engine is closed after its run.
    The reported cost is the best of ``repeats`` runs, to damp scheduling
    noise.
    """
    points: List[ScalingPoint] = []
    for size in sizes:
        best_seconds = math.inf
        result_rows = 0
        for _ in range(max(repeats, 1)):
            query = query_factory()
            engine = engine_factory(size)
            try:
                started = time.perf_counter()
                result = engine.evaluate(query)
                elapsed = time.perf_counter() - started
            finally:
                engine.close()
            if elapsed < best_seconds:
                best_seconds, result_rows = elapsed, len(result)
        points.append(ScalingPoint(size, best_seconds, result_rows))
    return ScalingCurve(tuple(points), fit_power_law(points))


def fit_power_law(points: Sequence[ScalingPoint]) -> Optional[float]:
    """Least-squares exponent of ``seconds ~ size^alpha`` in log-log space.

    Returns ``None`` when there are fewer than two usable points (zero
    times are skipped because their logarithm is undefined).
    """
    xs, ys = [], []
    for point in points:
        if point.size > 0 and point.seconds > 0:
            xs.append(math.log(point.size))
            ys.append(math.log(point.seconds))
    if len(xs) < 2:
        return None
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return None
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denominator
