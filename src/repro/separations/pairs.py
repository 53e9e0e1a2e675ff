"""The PGQrw vs PGQext separation: reachability over node pairs (Theorem 5.2).

The separating query is pair reachability: given a 4-ary relation
``E4(u1, u2, v1, v2)`` describing steps between *pairs* of values, decide
which pairs reach which.  It is definable with a binary transitive closure
(FO[TC_2]) and hence in PGQ_2 ⊆ PGQext, but not in FO[TC_1] = PGQrw
(Graedel-McColm / Immerman).

The PGQext query below materializes a property graph whose node identifiers
are the pairs themselves (padded to arity 4 as in Lemma 9.4 so nodes and
edges share one arity) and runs the plain reachability pattern.  The unary
"approximations" are the natural things a PGQrw query could try -- tracking
each component independently -- and the experiment shows they disagree with
the true answer on concrete instances.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.patterns.builder import reachability
from repro.pgq.queries import (
    BaseRelation,
    EmptyRelation,
    GraphPattern,
    Project,
    Query,
    Select,
    Union,
)
from repro.relational.conditions import And as RAAnd, ColumnEquals, Not as RANot
from repro.relational.database import Database


def pair_reachability_query(edge_relation: str = "E4") -> Query:
    """PGQext query returning all ``(x1, x2, y1, y2)`` with ``(x1,x2) ->* (y1,y2)``.

    Node identifiers are duplicated pairs ``(w1, w2, w1, w2)``; edge
    identifiers are the 4-tuples of ``E4`` (self-loops dropped to keep node
    and edge identifiers disjoint, condition (1) of Definition 5.1).  The
    result includes the reflexive pairs present in the graph.
    """
    edges_base = BaseRelation(edge_relation)
    not_loop = RANot(RAAnd(ColumnEquals(1, 3), ColumnEquals(2, 4)))
    proper = Select(edges_base, not_loop)
    edge_ids = proper
    node_ids = Union(Project(proper, (1, 2, 1, 2)), Project(proper, (3, 4, 3, 4)))
    source_map = Project(proper, (1, 2, 3, 4, 1, 2, 1, 2))
    target_map = Project(proper, (1, 2, 3, 4, 3, 4, 3, 4))
    view = (
        node_ids,
        edge_ids,
        source_map,
        target_map,
        EmptyRelation(5),
        EmptyRelation(6),
    )
    reach = GraphPattern(reachability("x", "y"), view)
    # Rows are (x1, x2, x1, x2, y1, y2, y1, y2); keep one copy of each pair.
    return Project(reach, (1, 2, 5, 6))


def pair_reachability_reference(database: Database, edge_relation: str = "E4") -> FrozenSet[Tuple]:
    """Ground-truth pair reachability via breadth-first search.

    Includes the reflexive pairs for every pair that occurs in the edge
    relation (matching the query above, which ranges over graph nodes).
    """
    rows = database.relation(edge_relation).rows
    adjacency = {}
    nodes = set()
    for (u1, u2, v1, v2) in rows:
        nodes.add((u1, u2))
        nodes.add((v1, v2))
        if (u1, u2) != (v1, v2):
            adjacency.setdefault((u1, u2), set()).add((v1, v2))
    result = set()
    for start in nodes:
        seen = {start}
        frontier = [start]
        while frontier:
            next_frontier = []
            for current in frontier:
                for successor in adjacency.get(current, ()):
                    if successor not in seen:
                        seen.add(successor)
                        next_frontier.append(successor)
            frontier = next_frontier
        for end in seen:
            result.add(start + end)
    return frozenset(result)


def componentwise_approximation(database: Database, edge_relation: str = "E4") -> FrozenSet[Tuple]:
    """A unary-identifier (PGQrw-style) approximation of pair reachability.

    Each component is tracked in its own unary graph: the first components
    of the pairs form one graph, the second components another, and a pair
    ``(x1, x2)`` is declared to reach ``(y1, y2)`` when ``x1`` reaches ``y1``
    in the first graph and ``x2`` reaches ``y2`` in the second.  This is the
    natural best effort with unary identifiers and over-approximates the
    true answer -- the separation tests exhibit instances with a gap, which
    is the executable face of Theorem 5.2.
    """
    rows = database.relation(edge_relation).rows
    first_adj, second_adj = {}, {}
    firsts, seconds, nodes = set(), set(), set()
    for (u1, u2, v1, v2) in rows:
        nodes.add((u1, u2))
        nodes.add((v1, v2))
        firsts.update((u1, v1))
        seconds.update((u2, v2))
        first_adj.setdefault(u1, set()).add(v1)
        second_adj.setdefault(u2, set()).add(v2)

    def closure(adjacency, starts):
        reach = {}
        for start in starts:
            seen = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for cur in frontier:
                    for suc in adjacency.get(cur, ()):
                        if suc not in seen:
                            seen.add(suc)
                            nxt.append(suc)
                frontier = nxt
            reach[start] = seen
        return reach

    first_reach = closure(first_adj, firsts)
    second_reach = closure(second_adj, seconds)
    result = set()
    for (x1, x2) in nodes:
        for (y1, y2) in nodes:
            if y1 in first_reach.get(x1, {x1}) and y2 in second_reach.get(x2, {x2}):
                result.add((x1, x2, y1, y2))
    return frozenset(result)


def approximation_gap(database: Database, edge_relation: str = "E4") -> int:
    """Number of pairs the unary approximation wrongly declares reachable."""
    truth = pair_reachability_reference(database, edge_relation)
    approx = componentwise_approximation(database, edge_relation)
    return len(approx - truth)
