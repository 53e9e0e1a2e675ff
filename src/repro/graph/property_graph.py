"""Property graphs (Definition 2.1 of the paper).

A property graph is a tuple ``G = <N, E, src, tgt, lab, prop>`` where

* ``N`` is a finite set of node identifiers,
* ``E`` is a finite set of directed edge identifiers (disjoint from ``N``),
* ``src, tgt : E -> N`` assign a source and target node to every edge,
* ``lab`` associates a finite set of labels with every node or edge,
* ``prop`` is a finite partial function from ``(N ∪ E) × K`` to values.

Identifiers are canonical tuples (see :mod:`repro.graph.identifiers`); the
extended fragment of the paper allows arities greater than one, and this
class supports that uniformly.

A graph is a value, never updated in place (in the paper every graph is
the output of ``pgView``).  It is built whole either from its components
(:meth:`PropertyGraph.of`, or ``pgView``'s trusted bulk constructor) and
encoded on demand (:meth:`PropertyGraph.compact`), or from its encoding
(the planned engine's table scans) with its components decoded on first
read — so a view that only runs on the encoding never pays for them.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.errors import GraphError
from repro.graph.compact import MISSING, CompactGraph, bitmask, split_spaces
from repro.graph.identifiers import Identifier, as_identifier

#: The components a graph built from its encoding decodes on first read.
_COMPONENTS = ("_nodes", "_edges", "_labels", "_properties")


class Edge(NamedTuple):
    """A directed edge together with its endpoints.

    ``ident``, ``source`` and ``target`` are canonical identifier tuples.
    A named tuple rather than a dataclass: bulk view materialization
    constructs one per edge, and tuple allocation is several times cheaper
    than a frozen dataclass ``__init__``.
    """

    ident: Identifier
    source: Identifier
    target: Identifier


class PropertyGraph:
    """Immutable property graph with n-ary identifiers.

    :meth:`of` builds one and checks the structural invariants of
    Definition 2.1: node and edge identifier sets are disjoint, every
    edge's endpoints are existing nodes, and properties/labels are attached
    only to existing elements.
    """

    def __init__(self) -> None:
        self._nodes: Set[Identifier] = set()
        self._edges: Dict[Identifier, Edge] = {}
        self._labels: Dict[Identifier, Set[str]] = {}
        self._properties: Dict[Tuple[Identifier, str], Any] = {}
        # Adjacency indexes, built on first navigation.
        self._outgoing: Optional[Dict[Identifier, Set[Identifier]]] = None
        self._incoming: Optional[Dict[Identifier, Set[Identifier]]] = None
        # The compact integer encoding, built on first use.
        self._compact: Optional["CompactGraph"] = None
        # Guards the lazy encode and decode, so executors sharing one
        # snapshot graph run each once (``_compact_builds`` counts encodes
        # for the snapshot-cache stats); reentrant, so neither deadlocks.
        self._compact_lock = threading.RLock()
        self._compact_builds: int = 0

    def _ensure_adjacency(self) -> None:
        if self._outgoing is None:
            outgoing = {node: set() for node in self._nodes}
            incoming = {node: set() for node in self._nodes}
            for edge in self._edges.values():
                outgoing[edge.source].add(edge.ident)
                incoming[edge.target].add(edge.ident)
            self._outgoing = outgoing
            self._incoming = incoming

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def of(
        cls,
        nodes: Iterable[Any],
        edges: Optional[Mapping[Any, Tuple[Any, Any]]] = None,
        *,
        labels: Optional[Mapping[Any, Iterable[str]]] = None,
        properties: Optional[Mapping[Any, Mapping[str, Any]]] = None,
    ) -> "PropertyGraph":
        """The graph with these components: ``edges`` maps each edge to its
        ``(source, target)``, ``labels`` each element to its labels and
        ``properties`` each element to a ``{key: value}`` dict.  Every
        identifier is canonicalised by :func:`as_identifier`; components
        that break Definition 2.1 raise :class:`GraphError` (:meth:`validate`).
        """
        graph = cls._from_validated(
            map(as_identifier, nodes),
            {
                as_identifier(edge): (as_identifier(source), as_identifier(target))
                for edge, (source, target) in (edges or {}).items()
            },
            {as_identifier(x): set(map(str, names)) for x, names in (labels or {}).items()},
            {
                (as_identifier(element), str(key)): value
                for element, values in (properties or {}).items()
                for key, value in values.items()
            },
        )
        graph.validate()
        return graph

    @classmethod
    def _from_validated(
        cls,
        nodes: Iterable[Identifier],
        edges: Mapping[Identifier, Tuple[Identifier, Identifier]],
        labels: Dict[Identifier, Set[str]],
        properties: Dict[Tuple[Identifier, str], Any],
    ) -> "PropertyGraph":
        """Trusted bulk constructor for pre-validated components.

        The caller guarantees the Definition 2.1 invariants (canonical
        identifier tuples, disjoint node/edge sets, endpoints in ``N``,
        labels/properties on existing elements) — ``pgView`` does, because
        it runs the conditions (1)-(4) first.  Skipping :meth:`validate`
        keeps view materialization linear with small constants.

        ``labels`` (a dict of label-string sets) and ``properties`` are
        **adopted**, not copied: the caller hands over ownership and must
        not mutate them afterwards.
        """
        graph = cls()
        graph._adopt(nodes, edges, labels, properties)
        return graph

    def _adopt(
        self,
        nodes: Iterable[Identifier],
        edges: Mapping[Identifier, Tuple[Identifier, Identifier]],
        labels: Dict[Identifier, Set[str]],
        properties: Dict[Tuple[Identifier, str], Any],
    ) -> None:
        self._nodes = set(nodes)
        self._edges = {
            ident: Edge(ident, source, target) for ident, (source, target) in edges.items()
        }
        self._labels = labels
        self._properties = properties

    @classmethod
    def _from_compact(cls, encoded: CompactGraph) -> "PropertyGraph":
        """A graph whose encoding is ``encoded`` — built by a caller that
        checked Definition 2.1 on the encoding itself (the table scans of
        :mod:`repro.pgq.scans`).  :meth:`compact` returns ``encoded``; the
        components are decoded from it on first read (``__getattr__``),
        and the graph keeps nothing else alive."""
        graph = cls()
        for name in _COMPONENTS:
            delattr(graph, name)
        graph._compact = encoded
        graph._compact_builds = 1
        return graph

    def __getattr__(self, name: str) -> Any:
        # Reached only when an attribute is not set: the components of a
        # graph built from its encoding, before anything has read them.
        # Decoding sets all four, so later reads never come back here.
        encoded = self.__dict__.get("_compact")
        if name not in _COMPONENTS or encoded is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with self._compact_lock:  # executors sharing the view decode it once
            if name not in self.__dict__:
                self._adopt(*encoded.decode())
        return self.__dict__[name]

    # ------------------------------------------------------------------ #
    # Accessors (the six components of Definition 2.1)
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> FrozenSet[Identifier]:
        """The node identifier set ``N``."""
        return frozenset(self._nodes)

    @property
    def edges(self) -> FrozenSet[Identifier]:
        """The edge identifier set ``E``."""
        return frozenset(self._edges)

    def _edge(self, edge: Any) -> Edge:
        ident = as_identifier(edge)
        if ident not in self._edges:
            raise GraphError(f"unknown edge {ident!r}")
        return self._edges[ident]

    def source(self, edge: Any) -> Identifier:
        """``src(e)`` — the source node of an edge."""
        return self._edge(edge).source

    def target(self, edge: Any) -> Identifier:
        """``tgt(e)`` — the target node of an edge."""
        return self._edge(edge).target

    def labels(self, element: Any) -> FrozenSet[str]:
        """``lab(x)`` — the (possibly empty) label set of a node or edge."""
        ident = as_identifier(element)
        if not self.has_element(ident):
            raise GraphError(f"unknown element {ident!r}")
        return frozenset(self._labels.get(ident, set()))

    def property(self, element: Any, key: str) -> Any:
        """``prop(x, k)`` — the property value, or ``None`` when undefined."""
        ident = as_identifier(element)
        return self._properties.get((ident, str(key)))

    def has_property(self, element: Any, key: str) -> bool:
        """Return True when ``prop`` is defined on ``(element, key)``."""
        return (as_identifier(element), str(key)) in self._properties

    def properties(self, element: Any) -> Dict[str, Any]:
        """All key/value properties of one element, as a plain dict."""
        ident = as_identifier(element)
        return {
            key: value
            for (owner, key), value in self._properties.items()
            if owner == ident
        }

    # ------------------------------------------------------------------ #
    # Membership / navigation
    # ------------------------------------------------------------------ #
    def has_node(self, ident: Any) -> bool:
        return as_identifier(ident) in self._nodes

    def has_element(self, ident: Any) -> bool:
        ident = as_identifier(ident)
        return ident in self._nodes or ident in self._edges

    def out_edges(self, node: Any) -> FrozenSet[Identifier]:
        """Edges whose source is ``node``."""
        self._ensure_adjacency()
        return frozenset(self._outgoing.get(as_identifier(node), set()))

    def in_edges(self, node: Any) -> FrozenSet[Identifier]:
        """Edges whose target is ``node``."""
        self._ensure_adjacency()
        return frozenset(self._incoming.get(as_identifier(node), set()))

    def successors(self, node: Any) -> FrozenSet[Identifier]:
        """Nodes reachable from ``node`` by a single forward edge."""
        return frozenset(self._edges[e].target for e in self.out_edges(node))

    def predecessors(self, node: Any) -> FrozenSet[Identifier]:
        """Nodes that reach ``node`` by a single forward edge."""
        return frozenset(self._edges[e].source for e in self.in_edges(node))

    def edge_tuples(self) -> Iterator[Edge]:
        """Iterate over all edges as :class:`Edge` records."""
        return iter(self._edges.values())

    def elements_with_label(self, label: str) -> FrozenSet[Identifier]:
        """All nodes and edges carrying ``label``."""
        return frozenset(ident for ident, labels in self._labels.items() if label in labels)

    def compact(self) -> "CompactGraph":
        """The dense integer-ID encoding of this graph
        (:class:`~repro.graph.compact.CompactGraph`), built once on first
        use: lock-guarded, so a graph shared across the connections of one
        database snapshot encodes once however many executors race for it."""
        if self._compact is None:
            with self._compact_lock:
                if self._compact is None:
                    self._compact = self._encode()
                    self._compact_builds += 1
        return self._compact

    def _encode(self) -> CompactGraph:
        """The columns of :class:`CompactGraph`, one pass over each
        component: IDs in iteration order, label positions grouped into one
        bitmask per label and values into one dense column per key, over
        the element space first and then split by space."""
        started = perf_counter()
        node_ids = list(self._nodes)
        edges = list(self._edges.values())
        edge_ids = [edge.ident for edge in edges]
        node_count, size = len(node_ids), len(node_ids) + len(edge_ids)
        node_index = dict(zip(node_ids, range(node_count)))
        edge_index = dict(zip(edge_ids, range(len(edge_ids))))
        # Label- and property-free views (the pair graphs of Theorem 5.2) skip it.
        element_index = (
            dict(zip(node_ids + edge_ids, range(size))) if self._labels or self._properties else {}
        )
        positions: Dict[str, List[int]] = {}
        for element, labels in self._labels.items():
            position = element_index[element]
            for label in labels:
                positions.setdefault(label, []).append(position)
        columns: Dict[str, List[Any]] = {}
        for (element, key), value in self._properties.items():
            column = columns.get(key)
            if column is None:
                column = columns[key] = [MISSING] * size
            column[element_index[element]] = value
        masks = {label: bitmask(found, size) for label, found in positions.items()}
        return CompactGraph(
            node_ids,
            node_index,
            edge_ids,
            edge_index,
            array("q", [node_index[edge.source] for edge in edges]),
            array("q", [node_index[edge.target] for edge in edges]),
            *split_spaces(masks, columns, node_count),
            started=started,
        )

    def compact_build_count(self) -> int:
        """How many compact encodings this graph has paid for (stats)."""
        return self._compact_builds

    # ------------------------------------------------------------------ #
    # Metrics & invariants
    # ------------------------------------------------------------------ #
    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return len(self._edges)

    def out_degree(self, node: Any) -> int:
        return len(self.out_edges(node))

    def in_degree(self, node: Any) -> int:
        return len(self.in_edges(node))

    def node_arity(self) -> Optional[int]:
        """Common arity of node identifiers, or None for an empty node set.

        Raises :class:`GraphError` when nodes mix arities; mixed arities do
        not arise from ``pgView_=n`` but may be built with :meth:`of`.
        """
        return _arity(self._nodes, "nodes")

    def edge_arity(self) -> Optional[int]:
        """Common arity of edge identifiers, or None for an empty edge set."""
        return _arity(self._edges, "edges")

    def validate(self) -> None:
        """Re-check all structural invariants; raises :class:`GraphError`."""
        overlap = self._nodes & set(self._edges)
        if overlap:
            raise GraphError(f"node and edge identifier sets overlap: {sorted(overlap)[:3]}")
        for edge in self._edges.values():
            if edge.source not in self._nodes:
                raise GraphError(f"edge {edge.ident!r} has dangling source {edge.source!r}")
            if edge.target not in self._nodes:
                raise GraphError(f"edge {edge.ident!r} has dangling target {edge.target!r}")
        for element in self._labels:
            if not self.has_element(element):
                raise GraphError(f"label attached to unknown element {element!r}")
        for element, _key in self._properties:
            if not self.has_element(element):
                raise GraphError(f"property attached to unknown element {element!r}")

    # ------------------------------------------------------------------ #
    # Equality / representation
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._edges == other._edges
            and {k: set(v) for k, v in self._labels.items() if v}
            == {k: set(v) for k, v in other._labels.items() if v}
            and self._properties == other._properties
        )

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(nodes={len(self._nodes)}, edges={len(self._edges)}, "
            f"labels={sum(len(v) for v in self._labels.values())}, "
            f"properties={len(self._properties)})"
        )


def _arity(idents: Iterable[Identifier], what: str) -> Optional[int]:
    arities = {len(ident) for ident in idents}
    if len(arities) > 1:
        raise GraphError(f"{what} mix identifier arities: {sorted(arities)}")
    return arities.pop() if arities else None
