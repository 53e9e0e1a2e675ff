"""NL-style reachability with certificate checking (Corollary 6.4).

NL is the class of problems decidable by a nondeterministic machine with a
logarithmic work tape; its complete problem is directed reachability.  The
paper places PGQext evaluation exactly at NL.  To make that bound tangible
we provide:

* :func:`reachable` — deterministic breadth-first reachability, the
  polynomial-time face of the NL algorithm;
* :func:`guess_and_check` — the literal NL procedure: a nondeterministic
  walk of at most ``|N|`` steps whose working memory is just the current
  node and a step counter (both logarithmic in the input size); the
  simulation tries random guess sequences and reports whether a certificate
  was found;
* :func:`certificate_size_bits` — the size of that working memory, which
  the complexity tests bound logarithmically in the input size to
  illustrate the log-space claim.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.graph.identifiers import Identifier, as_identifier
from repro.graph.property_graph import PropertyGraph


def _adjacency(graph: PropertyGraph) -> Dict[Identifier, Set[Identifier]]:
    adjacency: Dict[Identifier, Set[Identifier]] = {}
    for edge in graph.edge_tuples():
        adjacency.setdefault(edge.source, set()).add(edge.target)
    return adjacency


def reachable(graph: PropertyGraph, source, target) -> bool:
    """Deterministic BFS reachability between two nodes of a property graph."""
    source = as_identifier(source)
    target = as_identifier(target)
    if source == target:
        return graph.has_node(source)
    adjacency = _adjacency(graph)
    seen = {source}
    frontier = [source]
    while frontier:
        next_frontier = []
        for node in frontier:
            for successor in adjacency.get(node, ()):
                if successor == target:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
        frontier = next_frontier
    return False


@dataclass(frozen=True)
class GuessAndCheckResult:
    """Outcome of the nondeterministic-walk simulation."""

    found: bool
    attempts: int
    walk_length: Optional[int]
    workspace_bits: int


def certificate_size_bits(graph: PropertyGraph) -> int:
    """Bits needed for the NL workspace: current node index + step counter."""
    nodes = max(graph.node_count(), 1)
    return 2 * max(1, math.ceil(math.log2(nodes + 1)))


def guess_and_check(
    graph: PropertyGraph,
    source,
    target,
    *,
    attempts: int = 256,
    seed: int = 0,
) -> GuessAndCheckResult:
    """Simulate the NL guess-and-check procedure for reachability.

    Each attempt performs a nondeterministic walk of at most ``|N|`` steps,
    keeping only the current node and the step counter in memory.  The
    simulation is randomized (true nondeterminism would accept iff *some*
    branch accepts); completeness over all branches is what BFS provides,
    and tests cross-check the two.
    """
    source = as_identifier(source)
    target = as_identifier(target)
    rng = random.Random(seed)
    adjacency = _adjacency(graph)
    bound = graph.node_count()
    bits = certificate_size_bits(graph)
    if source == target and graph.has_node(source):
        return GuessAndCheckResult(True, 0, 0, bits)
    for attempt in range(1, attempts + 1):
        current = source
        for step in range(1, bound + 1):
            successors = sorted(adjacency.get(current, ()), key=repr)
            if not successors:
                break
            current = rng.choice(successors)
            if current == target:
                return GuessAndCheckResult(True, attempt, step, bits)
    return GuessAndCheckResult(False, attempts, None, bits)


def reachable_pairs(graph: PropertyGraph) -> FrozenSet[Tuple[Identifier, Identifier]]:
    """All (source, target) pairs with a directed path (including length 0)."""
    adjacency = _adjacency(graph)
    result = set()
    for start in graph.nodes:
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier = []
            for node in frontier:
                for successor in adjacency.get(node, ()):
                    if successor not in seen:
                        seen.add(successor)
                        next_frontier.append(successor)
            frontier = next_frontier
        result.update((start, end) for end in seen)
    return frozenset(result)
