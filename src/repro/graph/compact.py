"""Compact integer encoding of a property graph (the columnar core).

A :class:`CompactGraph` holds one graph as dense integer IDs and columns
over them, so the operators of :mod:`repro.planner.physical` run over
plain ``int`` columns instead of hashing and comparing
:class:`~repro.graph.identifiers.Identifier` tuples, and decode back to
identifiers only at output projection:

* **ID interning** — nodes are numbered ``0..n-1`` and edges ``0..m-1``;
  ``node_ids``/``edge_ids`` decode an ID back to its identifier tuple and
  ``node_index``/``edge_index`` intern the other way.  A variable that
  ranges over both (``N`` and ``E`` are disjoint) lives in the **element**
  space — nodes first, then edges, so node ``i`` is element ``i`` and edge
  ``e`` is element ``n + e`` — decoded through :meth:`CompactGraph.ids`;
* **CSR adjacency** — forward and backward neighbor lists in compressed
  sparse row form (``array``-backed offsets/targets/edge columns), derived
  on first navigation from the flat per-edge ``edge_src``/``edge_tgt``
  columns that edge scans read;
* **label bitsets** — one big-int bitmask per label over node IDs and one
  over edge IDs, so a labeled scan is bit iteration instead of frozenset
  intersection;
* **property columns** — per-key dense value columns, one per ID space
  (the element column is the node column followed by the edge column),
  replacing per-row dictionary probes at projection time.

The one constructor takes those columns.  Two builders produce them: the
planned engine's table scans (:mod:`repro.pgq.scans`) emit them straight
from the base tables, and :meth:`PropertyGraph.compact` computes them
from a materialized graph — the formal ``pgView`` path and hand-built
graphs.  :meth:`CompactGraph.decode` is the way back: the graph
components a row-at-a-time consumer of a scans-built view reads.

Instances are immutable, like the graphs they encode:
:meth:`PropertyGraph.compact` builds one per graph on first use.  The
build is lock-guarded and counted (``PropertyGraph.compact_build_count``):
view graphs shared across connections of one database snapshot (the
engine-level ``SnapshotCache``) encode exactly once no matter how many
executors race for the first use, and the snapshot cache's stats surface
the encode count so sharing is testable.

The module also hosts the **reachability closure** kernel of the planner's
repetition fixpoint (:func:`closure_masks`): worklist-driven OR
propagation over per-node successor bitmasks.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import is_not
from time import perf_counter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.identifiers import Identifier
from repro.observability.tracing import active_tracer

#: Sentinel for "property undefined on this element" inside dense columns
#: (``None`` is a legal property value).
MISSING = object()


def defined_count(column: Sequence[Any]) -> int:
    """How many slots of a property column hold a value (identity test
    against :data:`MISSING`, so no value's ``__eq__`` runs)."""
    return sum(map(is_not, column, repeat(MISSING)))


def bitmask(positions: Iterable[int], size: int) -> int:
    """The bitmask with exactly ``positions`` set (each ``< size``): a run
    of consecutive IDs is one shift, anything else is set in a byte buffer
    instead of one big-int OR per position."""
    if type(positions) is range and positions.step == 1:
        return ((1 << len(positions)) - 1) << positions.start
    bits = bytearray((size + 7) // 8)
    for position in positions:
        bits[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(bits, "little")


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


def is_sparse(mask: int) -> bool:
    """Whether ``mask`` has under one bit in 32 set (a sparse reach set
    over many nodes): cheaper to peel bit by bit than to scan a byte at a
    time for its few non-empty bytes."""
    return mask.bit_count() * 32 < mask.bit_length()


def bit_positions(mask: int) -> List[int]:
    """The set bit positions of ``mask``, increasing, as a list.

    Decoded a byte at a time through :data:`BYTE_POSITIONS`, or peeled bit
    by bit when :func:`is_sparse`.
    """
    if is_sparse(mask):
        return list(iter_bits(mask))
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [
        base + offset
        for base, byte in zip(range(0, 8 * len(data), 8), data)
        if byte
        for offset in BYTE_POSITIONS[byte]
    ]


def split_spaces(
    masks: Dict[str, int], columns: Dict[str, List[Any]], node_count: int
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, List[Any]], Dict[str, List[Any]]]:
    """Label bitmasks and property columns over the element space (the
    ``node_count`` nodes, then the edges), split into ``(node_labels,
    edge_labels, node_properties, edge_properties)`` — the per-space
    arguments of :class:`CompactGraph`, each without the labels and keys
    its space does not carry."""
    node_bits = (1 << node_count) - 1
    node_labels = {label: mask & node_bits for label, mask in masks.items() if mask & node_bits}
    edge_labels = {
        label: mask >> node_count for label, mask in masks.items() if mask >> node_count
    }
    node_properties: Dict[str, List[Any]] = {}
    edge_properties: Dict[str, List[Any]] = {}
    for key, column in columns.items():
        for found, part in (
            (node_properties, column[:node_count]),
            (edge_properties, column[node_count:]),
        ):
            if any(map(is_not, part, repeat(MISSING))):
                found[key] = part
    return node_labels, edge_labels, node_properties, edge_properties


class CompactGraph:
    """Immutable integer-ID snapshot of one property graph.

    ``node_labels``/``edge_labels`` map a label to its bitmask over one ID
    space; ``node_properties``/``edge_properties`` map a property key to
    its dense column over one ID space (:data:`MISSING` where undefined).
    The constructor adopts every argument as-is.  ``encode_seconds``
    records what building it cost since ``started`` (a ``perf_counter``
    reading), surfaced as the ``compact_encode_s`` counter.
    """

    __slots__ = (
        "encode_seconds",
        "node_ids",
        "node_index",
        "edge_ids",
        "edge_index",
        "edge_src",
        "edge_tgt",
        "node_labels",
        "edge_labels",
        "node_properties",
        "edge_properties",
        "_element_ids",
        "_fwd_csr",
        "_bwd_csr",
        "_property_columns",
        "_decode_tables",
    )

    def __init__(
        self,
        node_ids: List[Identifier],
        node_index: Dict[Identifier, int],
        edge_ids: List[Identifier],
        edge_index: Dict[Identifier, int],
        edge_src: array,
        edge_tgt: array,
        node_labels: Dict[str, int],
        edge_labels: Dict[str, int],
        node_properties: Dict[str, List[Any]],
        edge_properties: Dict[str, List[Any]],
        *,
        started: float,
    ):
        self.node_ids = node_ids
        self.node_index = node_index
        self.edge_ids = edge_ids
        self.edge_index = edge_index
        self.edge_src = edge_src
        self.edge_tgt = edge_tgt
        self.node_labels = node_labels
        self.edge_labels = edge_labels
        self.node_properties = node_properties
        self.edge_properties = edge_properties
        self._element_ids: Optional[List[Identifier]] = None
        # CSR adjacency is derived from the flat edge columns on first
        # navigation; scans and the fixpoint run off the columns directly,
        # so eager construction would tax every encode.
        self._fwd_csr = None
        self._bwd_csr = None
        self._property_columns: Dict[Tuple[str, str], List[Any]] = {}
        self._decode_tables: Dict[Tuple, Any] = {}
        self.encode_seconds = perf_counter() - started
        tracer = active_tracer()
        if tracer.enabled:
            tracer.event(
                "compact.encode",
                seconds=self.encode_seconds,
                nodes=len(node_ids),
                edges=len(edge_ids),
            )

    def decode(
        self,
    ) -> Tuple[
        List[Identifier],
        Dict[Identifier, Tuple[Identifier, Identifier]],
        Dict[Identifier, Set[str]],
        Dict[Tuple[Identifier, str], Any],
    ]:
        """The graph this encodes, as ``(nodes, edge -> (source, target),
        labels, properties)`` — the components of Definition 2.1, with
        every element spelled as its ``node_ids`` / ``edge_ids`` entry."""
        node_ids = self.node_ids
        endpoints = {
            ident: (node_ids[source], node_ids[target])
            for ident, source, target in zip(self.edge_ids, self.edge_src, self.edge_tgt)
        }
        labels: Dict[Identifier, Set[str]] = {}
        properties: Dict[Tuple[Identifier, str], Any] = {}
        for ids, masks, columns in (
            (node_ids, self.node_labels, self.node_properties),
            (self.edge_ids, self.edge_labels, self.edge_properties),
        ):
            for label, mask in masks.items():
                for position in bit_positions(mask):
                    labels.setdefault(ids[position], set()).add(label)
            for key, column in columns.items():
                properties.update(
                    ((ident, key), value)
                    for ident, value in zip(ids, column)
                    if value is not MISSING
                )
        return node_ids, endpoints, labels, properties

    # ------------------------------------------------------------------ #
    # Sizes
    # ------------------------------------------------------------------ #
    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return len(self.edge_ids)

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
        return self.node_labels.get(label, 0)

    def edge_label_mask(self, label: str) -> int:
        """Bitmask over edge IDs carrying ``label`` (0 when absent)."""
        return self.edge_labels.get(label, 0)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    def property_column(self, key: str, kind: str) -> List[Any]:
        """Dense value column of property ``key`` over one ID space.

        ``kind`` is ``"node"``, ``"edge"`` or ``"element"`` (the node
        column followed by the edge column); absent values hold the
        :data:`MISSING` sentinel.  The element column, and the all-missing
        column of a key one space does not carry, are built once per
        (key, kind) and shared by every projection afterwards.
        """
        if kind != "element":
            column = (self.node_properties if kind == "node" else self.edge_properties).get(key)
            if column is not None:
                return column
        column = self._property_columns.get((key, kind))
        if column is None:
            if kind == "element":
                column = self.property_column(key, "node") + self.property_column(key, "edge")
            else:
                column = [MISSING] * len(self.ids(kind))
            self._property_columns[(key, kind)] = column
        return column

    def fragments(
        self, key: Optional[str], kind: str, run: Optional[Tuple[int, int]] = None
    ) -> Sequence[Optional[Tuple]]:
        """One ID space as output-row fragments, by ID: its identifier
        tuples (``key`` None), or the 1-tuples of property ``key``'s values
        with ``None`` where the property is undefined.  ``run`` keeps the
        slice ``[start:stop]`` of each fragment (a projection decoded in
        place).  Built once per ``(column, run)``."""
        if key is None and run is None:
            return self.ids(kind)
        column = self._decode_tables.get((key, kind, run))
        if column is None:
            if run is None:
                values = self.property_column(key, kind)
                column = [None if value is MISSING else (value,) for value in values]
            else:
                start, stop = run
                parts = self.fragments(key, kind)
                column = [None if part is None else part[start:stop] for part in parts]
            self._decode_tables[(key, kind, run)] = column
        return column

    def rank_table(
        self, key: Optional[str], kind: str, terminator: Optional[str]
    ) -> Optional[Tuple[List[int], List[Tuple], bool]]:
        """``(rank by ID, fragment by rank, prefix_free)`` of one fragment
        column under the order of its sort keys, or None when the column
        does not rank.

        A fragment's key is the text it contributes to the ``repr`` of a
        row it is part of — its values' reprs joined by ``", "`` — plus
        ``terminator``, the text that follows it there; with no
        terminator the fragment is the whole row and its key is its own
        ``repr`` (a 1-tuple's trailing comma included).  Fragments with
        one key share a rank (``-1`` = undefined), which stands for them
        in the order and in the row set alike, so the column ranks only
        when its fragments are equal exactly where their keys are:
        ``(1,)``, ``(1.0,)`` and ``(True,)`` are equal but print
        differently, two ``nan`` objects print alike but differ.
        ``prefix_free`` says no key is a prefix of another: then
        comparing two rows' reprs is decided inside the first fragment
        whenever those differ.  Built once per ``(column, terminator)``
        and kept with the column.
        """
        slot = ("rank", key, kind, terminator)
        if slot not in self._decode_tables:
            column = self.fragments(key, kind)
            spell = repr if terminator is None else lambda f: ", ".join(map(repr, f)) + terminator
            texts = [None if fragment is None else spell(fragment) for fragment in column]
            by_text = dict(zip(texts, column))
            cached = None
            if len(set(column)) == len(by_text) == len(set(zip(texts, column))):
                by_text.pop(None, None)
                ordered = sorted(by_text)
                rank_of = {text: rank for rank, text in enumerate(ordered)}
                cached = (
                    [-1 if text is None else rank_of[text] for text in texts],
                    [by_text[text] for text in ordered],
                    not any(map(str.startswith, ordered[1:], ordered)),
                )
            self._decode_tables[slot] = cached
        return self._decode_tables[slot]

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
        return f"CompactGraph(nodes={len(self.node_ids)}, edges={len(self.edge_ids)})"


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
