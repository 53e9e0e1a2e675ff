"""Property graph views: ``pgView``, ``pgView_n`` and ``pgView_ext``.

Definitions 3.1/3.2 (unary identifiers) and 5.1-5.3 (n-ary identifiers) of
the paper.  Given six relations ``(R1, ..., R6)`` satisfying the structural
conditions, the view functions build the property graph

    N := R1,  E := R2,  src := R3,  tgt := R4,  lab := R5,  prop := R6.

The conditions checked are exactly (1)-(4) of the definitions:

1. ``R1`` and ``R2`` are disjoint (node vs. edge identifiers);
2. ``R3`` and ``R4`` encode total functions ``R2 -> R1`` (source/target);
3. ``R5 ⊆ (R1 ∪ R2) × C`` (labels of graph elements);
4. ``R6`` encodes a partial function ``(R1 ∪ R2) × C ⇀ C`` (properties).

``pgView`` is partial: when a condition fails, :class:`ViewError` is raised
with a message naming the violated condition.

Who builds from what: the naive engine, and every direct caller of this
module, build a view **from relations** — the six relations are evaluated
and handed to :func:`materialize_graph`.  The planned and sqlite engines
build views **from scans** of the base tables and of the evaluated sources
that scan none (:func:`repro.pgq.scans.view_graph`), a builder that can
only accept; whatever it cannot vouch for comes here, so this module stays
the one place a view is rejected and the one place a :class:`ViewError` is
worded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ViewError
from repro.graph.identifiers import Identifier
from repro.graph.property_graph import PropertyGraph
from repro.relational.relation import Relation, Row


@dataclass(frozen=True)
class ViewRelations:
    """The canonical six-relation encoding of a tabular property graph."""

    nodes: Relation      # R1
    edges: Relation      # R2
    sources: Relation    # R3
    targets: Relation    # R4
    labels: Relation     # R5
    properties: Relation  # R6

    def as_tuple(self) -> Tuple[Relation, ...]:
        return (self.nodes, self.edges, self.sources, self.targets, self.labels, self.properties)


def infer_identifier_arity(relations: Sequence[Relation]) -> int:
    """Infer the identifier arity ``n`` of a 6-relation view candidate.

    Definition 5.1 fixes the arities as ``n, n, 2n, 2n, n+1, n+2``.  The
    arity is inferred from the first non-degenerate constraint and all six
    declared arities are then cross-checked.  For fully degenerate input
    (all relations empty with default arities) the arity defaults to 1,
    matching ``pgView_1 = pgView``.
    """
    if len(relations) != 6:
        raise ViewError(f"a property graph view needs exactly 6 relations, got {len(relations)}")
    r1, r2, r3, r4, r5, r6 = relations
    transforms = (
        (r1, lambda a: a),
        (r2, lambda a: a),
        (r3, lambda a: a // 2 if a % 2 == 0 else None),
        (r4, lambda a: a // 2 if a % 2 == 0 else None),
        (r5, lambda a: a - 1),
        (r6, lambda a: a - 2),
    )
    candidates = []
    for relation, transform in transforms:
        if len(relation) > 0:
            inferred = transform(relation.arity)
            if inferred is None or inferred < 1:
                raise ViewError(
                    f"relation arity {relation.arity} is incompatible with any identifier arity"
                )
            candidates.append(inferred)
    if candidates:
        arity = candidates[0]
        if any(candidate != arity for candidate in candidates):
            raise ViewError(
                f"inconsistent identifier arities inferred from the six relations: {candidates}"
            )
        return arity
    # All six relations are empty: fall back to their declared arities so
    # that downstream result arities stay consistent (relevant for the
    # Lemma 9.4 construction when the TC body is unsatisfiable).  When the
    # declared arities are not mutually consistent the graph is empty
    # anyway, so identifier arity 1 is a safe default.
    declared = [transform(relation.arity) for relation, transform in transforms]
    valid = [value for value in declared if value is not None and value >= 1]
    if valid and all(value == valid[0] for value in valid) and len(valid) == 6:
        return valid[0]
    return 1


def _split_pair(row: Row, arity: int) -> Tuple[Identifier, Identifier]:
    """Split a 2n-ary row into its (edge, node) identifier halves."""
    # relation rows are tuples, so the slices already are identifiers
    return row[:arity], row[arity:]


def check_view_conditions(
    relations: Sequence[Relation], arity: int
) -> Tuple[
    Dict[Identifier, Identifier],
    Dict[Identifier, Identifier],
    Dict[Identifier, Set[str]],
    Dict[Tuple[Identifier, str], object],
]:
    """Check conditions (1)-(4) of Definition 3.1 / 5.1 for the given arity.

    Returns the source/target maps (edge -> node), the per-element label
    sets, and the property assignment map — the exact structures the graph
    builder needs, so the R3-R6 rows are split exactly once for both the
    check and the build.  Every engine constructs its view through this one
    check (the SQLite backend encodes the returned maps into its view
    tables), so an ill-formed view is the same :class:`ViewError` everywhere.
    """
    r1, r2, r3, r4, r5, r6 = relations

    expected = {
        "R1 (nodes)": (r1, arity),
        "R2 (edges)": (r2, arity),
        "R3 (source)": (r3, 2 * arity),
        "R4 (target)": (r4, 2 * arity),
        "R5 (labels)": (r5, arity + 1),
        "R6 (properties)": (r6, arity + 2),
    }
    for name, (relation, wanted) in expected.items():
        if len(relation) > 0 and relation.arity != wanted:
            raise ViewError(
                f"{name} has arity {relation.arity}, expected {wanted} for identifier arity {arity}"
            )

    nodes: Set[Identifier] = set(r1.rows)
    edges: Set[Identifier] = set(r2.rows)

    # Condition (1): node and edge identifiers are disjoint.
    overlap = nodes & edges
    if overlap:
        raise ViewError(
            f"condition (1) violated: identifiers occur both as nodes and edges, "
            f"e.g. {sorted(overlap, key=repr)[:3]}"
        )

    # The node/edge union is only consulted by conditions (3) and (4);
    # label- and property-free views (common for derived pair graphs)
    # never build it.
    elements: Optional[Set[Identifier]] = None

    # Conditions (2)-(4) run as bulk comprehensions plus whole-set algebra;
    # the per-row diagnostics below re-scan only on failure, so the passing
    # path (every query) does no per-row Python-level branching.

    # Condition (2): R3, R4 encode total functions R2 -> R1.
    maps: List[Dict[Identifier, Identifier]] = []
    for name, relation in (("R3 (source)", r3), ("R4 (target)", r4)):
        mapping: Dict[Identifier, Identifier] = {
            row[:arity]: row[arity:] for row in relation.rows
        }
        mentioned = set(mapping)
        bad_edges = mentioned - edges
        if bad_edges:
            raise ViewError(
                f"condition (2) violated: {name} mentions "
                f"{sorted(bad_edges, key=repr)[0]!r}, which is not an edge"
            )
        bad_nodes = set(mapping.values()) - nodes
        if bad_nodes:
            witness = next((e, n) for e, n in mapping.items() if n in bad_nodes)
            raise ViewError(
                f"condition (2) violated: {name} maps edge {witness[0]!r} to "
                f"{witness[1]!r}, which is not a node"
            )
        if len(mapping) != len(relation.rows):  # some edge mapped to two nodes
            seen: Dict[Identifier, Identifier] = {}
            for row in relation.rows:
                edge, node = _split_pair(row, arity)
                if edge in seen and seen[edge] != node:
                    raise ViewError(
                        f"condition (2) violated: {name} maps edge {edge!r} to both "
                        f"{seen[edge]!r} and {node!r}"
                    )
                seen[edge] = node
        missing = edges - mentioned
        if missing:
            raise ViewError(
                f"condition (2) violated: {name} is not total, edges without image: "
                f"{sorted(missing, key=repr)[:3]}"
            )
        maps.append(mapping)

    # Condition (3): labels attach to graph elements only.  The grouping
    # built for the check doubles as the graph's label map.
    labels: Dict[Identifier, Set[str]] = {}
    if r5.rows:
        elements = nodes | edges
        for row in r5.rows:
            element = row[:arity]
            label_set = labels.get(element)
            if label_set is None:
                if element not in elements:
                    raise ViewError(
                        f"condition (3) violated: label row {row!r} refers to "
                        f"{element!r}, which is neither a node nor an edge"
                    )
                labels[element] = label_set = set()
            label_set.add(str(row[arity]))

    # Condition (4): properties encode a partial function (element, key) -> value.
    assignments: Dict[Tuple[Identifier, str], object] = {
        (row[:arity], row[arity]): row[arity + 1] for row in r6.rows
    }
    if assignments:
        if elements is None:
            elements = nodes | edges
        unknown = {element for element, _key in assignments} - elements
        if unknown:
            witness = next(row for row in r6.rows if row[:arity] in unknown)
            raise ViewError(
                f"condition (4) violated: property row {witness!r} refers to "
                f"{witness[:arity]!r}, which is neither a node nor an edge"
            )
        if len(assignments) != len(r6.rows):  # some (element, key) has two values
            seen_values: Dict[Tuple[Identifier, object], object] = {}
            for row in r6.rows:
                element, key, value = row[:arity], row[arity], row[arity + 1]
                if (element, key) in seen_values and seen_values[(element, key)] != value:
                    raise ViewError(
                        f"condition (4) violated: property {key!r} of {element!r} has two "
                        f"values ({seen_values[(element, key)]!r} and {value!r})"
                    )
                seen_values[(element, key)] = value

    return maps[0], maps[1], labels, assignments


def _build_graph(
    relations: Sequence[Relation],
    arity: int,
    source_of: Dict[Identifier, Identifier],
    target_of: Dict[Identifier, Identifier],
    labels: Dict[Identifier, Set[str]],
    assignments: Dict[Tuple[Identifier, str], object],
) -> PropertyGraph:
    # The six relations passed conditions (1)-(4), so the graph can be
    # assembled through the trusted bulk constructor: relation rows are
    # already canonical identifier tuples and the maps come straight from
    # the condition check (split exactly once there).
    r1 = relations[0]
    # ``source_of`` is keyed by exactly R2 (condition (2) totality), so one
    # probe into ``target_of`` per edge suffices.
    edges = {edge: (source, target_of[edge]) for edge, source in source_of.items()}
    # Property keys are strings in the graph model (``prop``'s domain);
    # adopt the checked assignment map as-is when the keys already are.
    if all(type(key) is str for _element, key in assignments):
        properties = assignments
    else:
        properties = {
            (element, str(key)): value
            for (element, key), value in assignments.items()
        }
    return PropertyGraph._from_validated(r1.rows, edges, labels, properties)


def pg_view_exact(relations: Sequence[Relation], arity: int) -> PropertyGraph:
    """``pgView_=n``: build the graph for one fixed identifier arity ``n``."""
    if arity < 1:
        raise ViewError(f"identifier arity must be >= 1, got {arity}")
    if len(relations) != 6:
        raise ViewError(f"a property graph view needs exactly 6 relations, got {len(relations)}")
    source_of, target_of, labels, assignments = check_view_conditions(relations, arity)
    return _build_graph(relations, arity, source_of, target_of, labels, assignments)


def pg_view(relations: Sequence[Relation]) -> PropertyGraph:
    """``pgView``: the unary-identifier view of Definition 3.2."""
    return pg_view_exact(relations, 1)


def pg_view_n(relations: Sequence[Relation], max_arity: int) -> PropertyGraph:
    """``pgView_n``: the union of ``pgView_=i`` for ``1 <= i <= max_arity``.

    The applicable ``i`` is determined by the relations' arities; it must
    not exceed ``max_arity``.
    """
    graph, _arity = materialize_graph(relations, max_arity)
    return graph


def pg_view_ext(relations: Sequence[Relation]) -> PropertyGraph:
    """``pgView_ext``: the union of ``pgView_=n`` over all ``n >= 1``."""
    arity = infer_identifier_arity(relations)
    return pg_view_exact(relations, arity)


def view_identifier_arity(
    relations: Sequence[Relation], max_arity: Optional[int] = None
) -> int:
    """The identifier arity of a view candidate under a fragment bound.

    ``max_arity`` selects ``pgView_n`` semantics (the inferred arity must
    not exceed the fragment bound); ``None`` selects ``pgView_ext``.
    """
    if max_arity is not None and max_arity < 1:
        raise ViewError(f"max identifier arity must be >= 1, got {max_arity}")
    arity = infer_identifier_arity(relations)
    if max_arity is not None and arity > max_arity:
        raise ViewError(
            f"relations require identifier arity {arity}, but the fragment allows at most {max_arity}"
        )
    return arity


def materialize_graph(
    relations: Sequence[Relation], max_arity: Optional[int] = None
) -> Tuple[PropertyGraph, int]:
    """Build the graph of the appropriate ``pgView`` member in one step.

    Returns ``(graph, identifier arity)`` so callers that need the arity
    (output-row validation, view caching) infer it exactly once instead of
    re-deriving it alongside ``pg_view_n``/``pg_view_ext``; ``max_arity`` is
    the fragment bound of :func:`view_identifier_arity`.
    """
    arity = view_identifier_arity(relations, max_arity)
    return pg_view_exact(relations, arity), arity


def graph_to_view(graph: PropertyGraph) -> ViewRelations:
    """Encode a property graph back into its canonical six relations.

    This is the inverse direction of ``pgView`` and underpins the
    compositionality discussion in the conclusion of the paper (views can be
    re-queried); round-tripping is checked by property-based tests.
    """
    node_arity = graph.node_arity() or 1
    edge_arity = graph.edge_arity() or node_arity
    if graph.edge_count() and node_arity != edge_arity:
        raise ViewError(
            f"cannot encode a graph whose node arity {node_arity} differs from edge arity {edge_arity}"
        )
    arity = node_arity

    nodes = Relation(arity, graph.nodes, name="R1")
    edges = Relation(arity, graph.edges, name="R2")
    sources = Relation(
        2 * arity,
        (edge + graph.source(edge) for edge in graph.edges),
        name="R3",
    )
    targets = Relation(
        2 * arity,
        (edge + graph.target(edge) for edge in graph.edges),
        name="R4",
    )
    label_rows = []
    property_rows = []
    for element in list(graph.nodes) + list(graph.edges):
        for label in graph.labels(element):
            label_rows.append(element + (label,))
        for key, value in graph.properties(element).items():
            property_rows.append(element + (key, value))
    labels = Relation(arity + 1, label_rows, name="R5")
    properties = Relation(arity + 2, property_rows, name="R6")
    return ViewRelations(nodes, edges, sources, targets, labels, properties)
