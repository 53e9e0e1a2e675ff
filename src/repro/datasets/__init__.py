"""Synthetic workload generators used by examples, tests and benchmarks."""

from repro.datasets.bank import (
    TransferWorkloadConfig,
    composite_view_relations,
    generate_composite_database,
    generate_iban_database,
    generate_transfer_chain,
    iban_view_relations,
)
from repro.datasets.colored import (
    COLORED_SCHEMA,
    alternating_chain,
    bipartite_random,
    non_alternating_pair,
)
from repro.datasets.random_graphs import (
    GRAPH_VIEW_SCHEMA,
    chain,
    cycle,
    disjoint_chains,
    erdos_renyi,
    grid,
    layered_dag,
    pair_graph_database,
    star_graph,
)
from repro.datasets.social import (
    SocialNetworkConfig,
    generate_social_database,
    social_view_relations,
)

__all__ = [
    "COLORED_SCHEMA",
    "GRAPH_VIEW_SCHEMA",
    "SocialNetworkConfig",
    "TransferWorkloadConfig",
    "alternating_chain",
    "bipartite_random",
    "chain",
    "composite_view_relations",
    "cycle",
    "disjoint_chains",
    "erdos_renyi",
    "generate_composite_database",
    "generate_iban_database",
    "generate_social_database",
    "generate_transfer_chain",
    "grid",
    "iban_view_relations",
    "layered_dag",
    "non_alternating_pair",
    "pair_graph_database",
    "social_view_relations",
    "star_graph",
]
