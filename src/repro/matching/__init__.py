"""Pattern matching semantics: endpoint (Fig. 2) and path (Fig. 6) semantics."""

from repro.matching.endpoint import (
    EndpointEvaluator,
    MatchSet,
    MatchTriple,
    evaluate_output_pattern,
    evaluate_pattern,
)
from repro.matching.mappings import (
    EMPTY_MAPPING,
    Mapping,
    compatible,
    freeze,
    join,
    restrict,
    thaw,
    union,
)
from repro.matching.paths import (
    Path,
    PathEvaluator,
    PathMatch,
    PathMatchSet,
    endpoint_path_equivalent,
    project_endpoints,
)

__all__ = [
    "EMPTY_MAPPING",
    "EndpointEvaluator",
    "Mapping",
    "MatchSet",
    "MatchTriple",
    "Path",
    "PathEvaluator",
    "PathMatch",
    "PathMatchSet",
    "compatible",
    "endpoint_path_equivalent",
    "evaluate_output_pattern",
    "evaluate_pattern",
    "freeze",
    "join",
    "project_endpoints",
    "restrict",
    "thaw",
    "union",
]
