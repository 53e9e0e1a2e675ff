"""Red/blue coloured graphs for the PGQro vs PGQrw separation (Theorem 4.1).

The database ``D_G`` of Appendix 9.2: node identifiers are partitioned into
``RedNodes`` and ``BlueNodes``, edges are stored in ``Edges`` with
``Source`` and ``Target`` relations, and every edge connects nodes of
opposite colours.
"""

from __future__ import annotations

import random

from repro.relational.database import Database

#: Relation names of the coloured-graph schema, in pgView order minus labels.
COLORED_SCHEMA = ("RedNodes", "BlueNodes", "Edges", "Source", "Target")


def alternating_chain(length: int) -> Database:
    """A simple red/blue alternating chain with ``length`` edges.

    Node ``n_i`` is red for even ``i`` and blue for odd ``i``; edge ``e_i``
    goes from ``n_i`` to ``n_{i+1}``.  The chain therefore contains an
    alternating-colour path of every length up to ``length``.
    """
    red, blue, edges, sources, targets = [], [], [], [], []
    for i in range(length + 1):
        name = f"n{i}"
        (red if i % 2 == 0 else blue).append((name,))
    for i in range(length):
        edge = f"e{i}"
        edges.append((edge,))
        sources.append((edge, f"n{i}"))
        targets.append((edge, f"n{i + 1}"))
    return Database.from_dict(
        {
            "RedNodes": red,
            "BlueNodes": blue,
            "Edges": edges,
            "Source": sources,
            "Target": targets,
        },
        arities={"RedNodes": 1, "BlueNodes": 1, "Edges": 1, "Source": 2, "Target": 2},
    )


def bipartite_random(red_count: int, blue_count: int, edge_count: int, *, seed: int = 11) -> Database:
    """A random bipartite red/blue graph (edges connect opposite colours)."""
    rng = random.Random(seed)
    red = [f"r{i}" for i in range(red_count)]
    blue = [f"b{i}" for i in range(blue_count)]
    edges, sources, targets = [], [], []
    for index in range(edge_count):
        if rng.random() < 0.5:
            source, target = rng.choice(red), rng.choice(blue)
        else:
            source, target = rng.choice(blue), rng.choice(red)
        edge = f"e{index}"
        edges.append((edge,))
        sources.append((edge, source))
        targets.append((edge, target))
    return Database.from_dict(
        {
            "RedNodes": [(r,) for r in red],
            "BlueNodes": [(b,) for b in blue],
            "Edges": edges,
            "Source": sources,
            "Target": targets,
        },
        arities={"RedNodes": 1, "BlueNodes": 1, "Edges": 1, "Source": 2, "Target": 2},
    )


def non_alternating_pair(length: int) -> Database:
    """A graph with edges but *no* red-blue-red alternating path of length 2.

    Consists of disjoint single edges red -> blue; useful as the negative
    instance in the Theorem 4.1 experiments.
    """
    red, blue, edges, sources, targets = [], [], [], [], []
    for i in range(length):
        red.append((f"r{i}",))
        blue.append((f"b{i}",))
        edge = f"e{i}"
        edges.append((edge,))
        sources.append((edge, f"r{i}"))
        targets.append((edge, f"b{i}"))
    return Database.from_dict(
        {
            "RedNodes": red,
            "BlueNodes": blue,
            "Edges": edges,
            "Source": sources,
            "Target": targets,
        },
        arities={"RedNodes": 1, "BlueNodes": 1, "Edges": 1, "Source": 2, "Target": 2},
    )

