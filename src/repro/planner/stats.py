"""Per-graph statistics feeding the cost-based optimizer.

The rule-based rewrites of :mod:`repro.planner.rules` are graph-agnostic;
join *ordering* is not: which concatenation to evaluate first depends on
how selective each scan is on the concrete graph.  This module collects
the summary the cost model of :mod:`repro.planner.cost` consumes:

* node and edge counts,
* per-label element counts, split by node vs. edge carriers (label
  pushdown turns ``HasLabel`` conjuncts into scan label sets, so these
  are exactly the scan cardinalities),
* per-property-key carrier counts (an upper bound on the selectivity of
  any property comparison — elements without the key never satisfy one),
* the average out-degree (the expansion factor of one concatenation
  step, used for repetition estimates).

Collection reads the graph's compact encoding
(:meth:`~repro.graph.property_graph.PropertyGraph.compact`): label counts
are the popcounts of its label bitmasks and property-key counts the
defined slots of its property columns.  Both view builders — table scans
and the formal ``pgView`` — produce that encoding, so one implementation
serves both and equal views get equal statistics.  Engines collect
statistics once per materialized graph and reuse them for every query.

Costed plans are graph-dependent, which is why :class:`GraphStatistics`
exposes :meth:`~GraphStatistics.fingerprint`: a compact hashable summary
that :class:`~repro.planner.physical.PlanCache` mixes into its keys so
one cache can serve plans costed against different graphs without ever
returning a plan ordered for the wrong data distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.graph.compact import defined_count
from repro.graph.property_graph import PropertyGraph

#: Hashable summary of a statistics object, usable as a cache-key part.
StatsFingerprint = Tuple


@dataclass(frozen=True)
class GraphStatistics:
    """Cardinality summary of one property graph.

    ``node_labels``/``edge_labels`` map a label to the number of nodes /
    edges carrying it; ``property_keys`` maps a property key to the number
    of elements on which it is defined.
    """

    node_count: int
    edge_count: int
    node_labels: Dict[str, int] = field(default_factory=dict)
    edge_labels: Dict[str, int] = field(default_factory=dict)
    property_keys: Dict[str, int] = field(default_factory=dict)

    @property
    def average_out_degree(self) -> float:
        """Mean number of outgoing edges per node (0 for empty graphs)."""
        if self.node_count == 0:
            return 0.0
        return self.edge_count / self.node_count

    def labeled_node_count(self, label: str) -> int:
        """Nodes carrying ``label`` (0 when the label is absent)."""
        return self.node_labels.get(label, 0)

    def labeled_edge_count(self, label: str) -> int:
        """Edges carrying ``label`` (0 when the label is absent)."""
        return self.edge_labels.get(label, 0)

    def property_key_fraction(self, key: str) -> float:
        """Fraction of graph elements on which property ``key`` is defined.

        An upper bound on the selectivity of any comparison against the
        key: elements without it never satisfy a comparison (missing
        values are three-valued, Figure 1).
        """
        elements = self.node_count + self.edge_count
        if elements == 0:
            return 0.0
        return min(1.0, self.property_keys.get(key, 0) / elements)

    def fingerprint(self) -> StatsFingerprint:
        """Stable hashable summary, mixed into plan-cache keys.

        Two graphs with equal fingerprints get identical costed plans, so
        collisions are harmless (the plan is still correct, merely ordered
        for an identically-shaped graph).  Computed once and memoized — the
        dataclass is frozen and the dicts never mutate after collection —
        so the per-query plan-cache probe stays O(1).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = (
                self.node_count,
                self.edge_count,
                tuple(sorted(self.node_labels.items())),
                tuple(sorted(self.edge_labels.items())),
                tuple(sorted(self.property_keys.items())),
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def collect_graph_statistics(graph: PropertyGraph) -> GraphStatistics:
    """Statistics of a materialized graph view, read off its encoding
    (which carries a label or key in a space only where it occurs)."""
    encoded = graph.compact()
    property_keys: Dict[str, int] = {}
    for columns in (encoded.node_properties, encoded.edge_properties):
        for key, column in columns.items():
            property_keys[key] = property_keys.get(key, 0) + defined_count(column)
    return GraphStatistics(
        node_count=encoded.node_count,
        edge_count=encoded.edge_count,
        node_labels={label: mask.bit_count() for label, mask in encoded.node_labels.items()},
        edge_labels={label: mask.bit_count() for label, mask in encoded.edge_labels.items()},
        property_keys=property_keys,
    )
