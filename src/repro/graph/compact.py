"""Compact integer encoding of a property graph (the columnar core).

This module interns a :class:`~repro.graph.property_graph.PropertyGraph`
into dense integer IDs once, so the operators of
:mod:`repro.planner.physical` run over plain ``int`` columns instead of
hashing and comparing :class:`~repro.graph.identifiers.Identifier` tuples,
and decode back to identifiers only at output projection:

* **ID interning** — nodes are numbered ``0..n-1`` and edges ``0..m-1``;
  ``node_ids``/``edge_ids`` decode an ID back to its identifier tuple and
  ``node_index``/``edge_index`` intern the other way.  A variable that
  ranges over both (``N`` and ``E`` are disjoint) lives in the **element**
  space — nodes first, then edges, so node ``i`` is element ``i`` and edge
  ``e`` is element ``n + e`` — decoded through :meth:`CompactGraph.ids`;
* **CSR adjacency** — forward and backward neighbor lists in compressed
  sparse row form (``array``-backed offsets/targets/edge columns), plus
  flat per-edge ``edge_src``/``edge_tgt`` columns for edge scans;
* **label bitsets** — one big-int bitmask per label over node IDs and one
  over edge IDs, so a labeled scan is bit iteration instead of frozenset
  intersection;
* **property columns** — per-key dense value columns (one list per ID
  space, built lazily; the element column is the node column followed by
  the edge column), replacing per-row dictionary probes at projection
  time.

Instances are immutable snapshots: :meth:`PropertyGraph.compact` caches
one per graph and rebuilds it when the graph's mutation version moves, so
executors never observe a stale encoding.  The build is lock-guarded and
counted (``PropertyGraph.compact_build_count``): view graphs shared
across connections of one database snapshot (the engine-level
``SnapshotCache``) encode exactly once no matter how many executors race
for the first use, and the snapshot cache's stats surface the encode
count so sharing is testable.

The module also hosts the **reachability closure** kernel of the planner's
repetition fixpoint (:func:`closure_masks`): worklist-driven OR
propagation over per-node successor bitmasks.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.graph.identifiers import Identifier
from repro.observability.tracing import active_tracer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.graph.property_graph import PropertyGraph

#: Sentinel for "property undefined on this element" inside dense columns
#: (``None`` is a legal property value).
MISSING = object()

#: Bit offsets set within each possible byte value: decoding a bitmask is
#: one table lookup per non-zero byte instead of per-bit big-int twiddling.
BYTE_POSITIONS = tuple(
    tuple(offset for offset in range(8) if (byte >> offset) & 1) for byte in range(256)
)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def bit_positions(mask: int) -> List[int]:
    """The set bit positions of ``mask``, increasing, as a list.

    Decoded a byte at a time through :data:`BYTE_POSITIONS`; a mask with
    under one bit in 32 set (a sparse reach set over many nodes) is
    cheaper to peel bit by bit than to scan for its empty bytes.
    """
    if mask.bit_count() * 32 < mask.bit_length():
        return list(iter_bits(mask))
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [
        base + offset
        for base, byte in zip(range(0, 8 * len(data), 8), data)
        if byte
        for offset in BYTE_POSITIONS[byte]
    ]


class CompactGraph:
    """Immutable integer-ID snapshot of one property graph.

    Built through :meth:`PropertyGraph.compact`, which caches the snapshot
    and invalidates it on graph mutation; ``version`` records the graph
    version the snapshot encodes and ``encode_seconds`` what building it
    cost (surfaced as the ``compact_encode_s`` counter).
    """

    __slots__ = (
        "graph",
        "version",
        "encode_seconds",
        "node_ids",
        "node_index",
        "edge_ids",
        "_edge_index",
        "edge_src",
        "edge_tgt",
        "_element_ids",
        "_fwd_csr",
        "_bwd_csr",
        "_node_label_masks",
        "_edge_label_masks",
        "_property_columns",
        "_decode_tables",
    )

    def __init__(self, graph: "PropertyGraph", *, version: int = 0):
        start = perf_counter()
        self.graph = graph
        self.version = version

        self.node_ids: List[Identifier] = list(graph.nodes)
        self.node_index: Dict[Identifier, int] = {
            ident: i for i, ident in enumerate(self.node_ids)
        }
        edges = list(graph.edge_tuples())
        self.edge_ids: List[Identifier] = [edge.ident for edge in edges]
        # The edge interning map is only consulted by label bitsets and
        # edge property columns; built on first use.
        self._edge_index: Optional[Dict[Identifier, int]] = None
        self._element_ids: Optional[List[Identifier]] = None
        node_index = self.node_index
        self.edge_src = array("q", (node_index[edge.source] for edge in edges))
        self.edge_tgt = array("q", (node_index[edge.target] for edge in edges))

        # CSR adjacency is derived from the flat edge columns on first
        # navigation; scans and the fixpoint run off the columns directly,
        # so eager construction would tax every encode.
        self._fwd_csr = None
        self._bwd_csr = None

        # Label bitsets and per-key property columns are built on first
        # use: unlabeled scans and property-free queries never pay for
        # them, and queries that do touch a label/key pay exactly once.
        self._node_label_masks: Optional[Dict[str, int]] = None
        self._edge_label_masks: Optional[Dict[str, int]] = None
        self._property_columns: Dict[Tuple[str, str], List[Any]] = {}
        self._decode_tables: Dict[Tuple, Any] = {}
        self.encode_seconds = perf_counter() - start
        tracer = active_tracer()
        if tracer.enabled:
            tracer.event(
                "compact.encode",
                seconds=self.encode_seconds,
                nodes=len(self.node_ids),
                edges=len(self.edge_ids),
            )

    def _build_label_masks(self) -> None:
        node_masks: Dict[str, int] = {}
        edge_masks: Dict[str, int] = {}
        node_index, edge_index = self.node_index, self.edge_index
        for label, elements in self.graph.label_index().items():
            node_mask = 0
            edge_mask = 0
            for element in elements:
                position = node_index.get(element)
                if position is not None:
                    node_mask |= 1 << position
                else:
                    position = edge_index.get(element)
                    if position is not None:
                        edge_mask |= 1 << position
            node_masks[label] = node_mask
            edge_masks[label] = edge_mask
        self._node_label_masks = node_masks
        self._edge_label_masks = edge_masks

    # ------------------------------------------------------------------ #
    # Sizes
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return len(self.edge_ids)

    @property
    def edge_index(self) -> Dict[Identifier, int]:
        """Edge identifier -> dense ID interning map, built on first use."""
        if self._edge_index is None:
            self._edge_index = {ident: i for i, ident in enumerate(self.edge_ids)}
        return self._edge_index

    def ids(self, kind: str) -> List[Identifier]:
        """Interning table of one ID space: ``"node"``, ``"edge"``, or
        ``"element"`` (the nodes followed by the edges, built on first use)."""
        if kind == "node":
            return self.node_ids
        if kind == "edge":
            return self.edge_ids
        if self._element_ids is None:
            self._element_ids = self.node_ids + self.edge_ids
        return self._element_ids

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #
    def node_label_mask(self, label: str) -> int:
        """Bitmask over node IDs carrying ``label`` (0 when absent)."""
        if self._node_label_masks is None:
            self._build_label_masks()
        return self._node_label_masks.get(label, 0)

    def edge_label_mask(self, label: str) -> int:
        """Bitmask over edge IDs carrying ``label`` (0 when absent)."""
        if self._edge_label_masks is None:
            self._build_label_masks()
        return self._edge_label_masks.get(label, 0)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    def property_column(self, key: str, kind: str) -> List[Any]:
        """Dense value column of property ``key`` over one ID space.

        ``kind`` is ``"node"``, ``"edge"`` or ``"element"`` (the node
        column followed by the edge column); absent values hold the
        :data:`MISSING` sentinel.  Columns are built once per (key, kind)
        and shared by every projection afterwards.
        """
        cached = self._property_columns.get((key, kind))
        if cached is not None:
            return cached
        column: List[Any]
        if kind == "element":
            column = self.property_column(key, "node") + self.property_column(key, "edge")
        else:
            if kind == "node":
                index, size = self.node_index, len(self.node_ids)
            else:
                index, size = self.edge_index, len(self.edge_ids)
            column = [MISSING] * size
            for ident, value in self.graph.property_index(key).items():
                position = index.get(ident)
                if position is not None:
                    column[position] = value
        self._property_columns[(key, kind)] = column
        return column

    def fragments(self, key: Optional[str], kind: str) -> Sequence[Optional[Tuple]]:
        """One ID space as output-row fragments, by ID: its identifier
        tuples (``key`` None), or the 1-tuples of property ``key``'s values
        with ``None`` where the property is undefined."""
        if key is None:
            return self.ids(kind)
        column = self._decode_tables.get((key, kind))
        if column is None:
            column = self._decode_tables[(key, kind)] = [
                None if value is MISSING else (value,)
                for value in self.property_column(key, kind)
            ]
        return column

    def rank_table(
        self, key: Optional[str], kind: str, terminator: str
    ) -> Tuple[List[int], List[Tuple], bool]:
        """``(rank by ID, fragment by rank, prefix_free)`` of one fragment
        column under the order of its sort keys.

        A fragment's key is the text it contributes to the ``repr`` of a
        row it is part of — its values' reprs joined by ``", "`` — plus
        ``terminator``, the text that follows it there.  Equal fragments
        share a rank (``-1`` = undefined).  ``prefix_free`` says no key
        is a prefix of another: then comparing two rows' reprs is decided
        inside the first fragment whenever those differ.  Built once per
        ``(column, terminator)`` and kept with the column.
        """
        cached = self._decode_tables.get((key, kind, terminator))
        if cached is None:
            column = self.fragments(key, kind)
            keys = {
                fragment: ", ".join(map(repr, fragment)) + terminator
                for fragment in column
                if fragment is not None
            }
            by_rank = sorted(keys, key=keys.__getitem__)
            texts = [keys[fragment] for fragment in by_rank]
            prefix_free = not any(map(str.startswith, texts[1:], texts))
            rank_of = {fragment: rank for rank, fragment in enumerate(by_rank)}
            ranks = [-1 if fragment is None else rank_of[fragment] for fragment in column]
            cached = self._decode_tables[(key, kind, terminator)] = (
                ranks, by_rank, prefix_free
            )
        return cached

    # ------------------------------------------------------------------ #
    # CSR navigation
    # ------------------------------------------------------------------ #
    @property
    def forward_csr(self) -> Tuple[array, array, array]:
        """``(offsets, targets, edge IDs)`` of the forward adjacency."""
        if self._fwd_csr is None:
            self._fwd_csr = _build_csr(
                len(self.node_ids), len(self.edge_ids), self.edge_src, self.edge_tgt
            )
        return self._fwd_csr

    @property
    def backward_csr(self) -> Tuple[array, array, array]:
        """``(offsets, sources, edge IDs)`` of the reversed adjacency."""
        if self._bwd_csr is None:
            self._bwd_csr = _build_csr(
                len(self.node_ids), len(self.edge_ids), self.edge_tgt, self.edge_src
            )
        return self._bwd_csr

    def successors(self, node: int) -> Sequence[int]:
        """Target node IDs of the forward edges leaving ``node``."""
        offsets, targets, _edges = self.forward_csr
        return targets[offsets[node] : offsets[node + 1]]

    def predecessors(self, node: int) -> Sequence[int]:
        """Source node IDs of the edges entering ``node``."""
        offsets, sources, _edges = self.backward_csr
        return sources[offsets[node] : offsets[node + 1]]

    def out_edges(self, node: int) -> Sequence[int]:
        """Edge IDs leaving ``node`` (parallel to :meth:`successors`)."""
        offsets, _targets, edges = self.forward_csr
        return edges[offsets[node] : offsets[node + 1]]

    def in_edges(self, node: int) -> Sequence[int]:
        """Edge IDs entering ``node`` (parallel to :meth:`predecessors`)."""
        offsets, _sources, edges = self.backward_csr
        return edges[offsets[node] : offsets[node + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactGraph(nodes={len(self.node_ids)}, edges={len(self.edge_ids)}, "
            f"version={self.version})"
        )


def _build_csr(
    node_count: int, edge_count: int, sources: Sequence[int], targets: Sequence[int]
) -> Tuple[array, array, array]:
    """Compressed sparse rows: ``(offsets, neighbor column, edge column)``.

    ``offsets`` has ``node_count + 1`` entries; node ``i``'s neighbors live
    at ``neighbors[offsets[i]:offsets[i + 1]]`` with the edge that carries
    each neighbor at the same slot of the edge column.
    """
    counts = [0] * (node_count + 1)
    for source in sources:
        counts[source + 1] += 1
    for i in range(1, node_count + 1):
        counts[i] += counts[i - 1]
    offsets = array("q", counts)
    neighbors = array("q", bytes(8 * edge_count))
    edge_column = array("q", bytes(8 * edge_count))
    cursor = list(offsets[:node_count]) if node_count else []
    for edge_id in range(edge_count):
        source = sources[edge_id]
        slot = cursor[source]
        neighbors[slot] = targets[edge_id]
        edge_column[slot] = edge_id
        cursor[source] = slot + 1
    return offsets, neighbors, edge_column


# --------------------------------------------------------------------------- #
# Reachability closure over successor bitmasks
# --------------------------------------------------------------------------- #
def closure_masks(
    successor_masks: Sequence[int], *, on_round=None
) -> Tuple[List[int], int]:
    """Reachability masks for every node (``>= 0`` steps, so a node's own
    bit is always set), by worklist-driven OR propagation.

    Every node's reach mask absorbs its successors' masks until nothing
    changes; rounds merge whole masks, so each step is a word-parallel
    big-int OR.  A predecessor worklist keeps later rounds incremental:
    only nodes with a successor whose reach just grew are recomputed,
    instead of sweeping every edge until global convergence.  Returns
    ``(masks, rounds)``.  ``on_round`` (when given) is invoked once per
    propagation round — the governance layer's cooperative checkpoint
    hook; it may raise to abort the closure.
    """
    node_count = len(successor_masks)
    reach = [(1 << i) | successor_masks[i] for i in range(node_count)]
    predecessors: Dict[int, List[int]] = {}
    setdefault = predecessors.setdefault
    changed = set()
    seeded = changed.add
    for i, mask in enumerate(successor_masks):
        if mask:
            seeded(i)  # the seeding pass above grew these
            for j in iter_bits(mask):
                setdefault(j, []).append(i)
    rounds = 1
    if on_round is not None:
        on_round()
    while changed:
        rounds += 1
        if on_round is not None:
            on_round()
        next_changed = set()
        grew = next_changed.add
        for j in changed:
            parents = predecessors.get(j)
            if not parents:
                continue
            reach_j = reach[j]
            for i in parents:
                reach_i = reach[i]
                merged = reach_i | reach_j
                if merged != reach_i:
                    reach[i] = merged
                    grew(i)
        changed = next_changed
    return reach, rounds


def compose_frontier(
    successor_masks: Sequence[int], frontier: int, steps: int
) -> int:
    """Advance a frontier bitmask ``steps`` composition rounds forward."""
    for _ in range(steps):
        if not frontier:
            break
        step = 0
        remaining = frontier
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            step |= successor_masks[low.bit_length() - 1]
        frontier = step
    return frontier
