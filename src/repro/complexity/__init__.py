"""Complexity instrumentation: NL certificates and empirical scaling."""

from repro.complexity.nl import (
    GuessAndCheckResult,
    certificate_size_bits,
    guess_and_check,
    reachable,
    reachable_pairs,
)
from repro.complexity.scaling import (
    ScalingCurve,
    ScalingPoint,
    fit_power_law,
    measure_query_scaling,
)

__all__ = [
    "GuessAndCheckResult",
    "ScalingCurve",
    "ScalingPoint",
    "certificate_size_bits",
    "fit_power_law",
    "guess_and_check",
    "measure_query_scaling",
    "reachable",
    "reachable_pairs",
]
