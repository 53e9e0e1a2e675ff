"""Endpoint semantics of patterns (Figure 2 of the paper).

The semantics ``[[psi]]_G`` of a pattern on a property graph ``G`` is a set
of triples ``(s, t, mu)`` where ``s`` and ``t`` are the source and target
nodes of a path matching ``psi`` and ``mu`` is a variable mapping for the
free variables.  The paper's key simplification (footnote 1) is that paths
are *not* stored: only endpoints and bindings are, which suffices for
composing patterns and drives the complexity results.

Unbounded repetition ``psi^{n..inf}`` is evaluated by a reachability
fixpoint over the endpoint-pair relation of the body, which terminates in
at most ``|N|`` rounds and keeps evaluation within NL data complexity
(Corollary 6.4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import PatternError
from repro.governance import CHECK_INTERVAL, current_governor
from repro.graph.identifiers import Identifier
from repro.graph.property_graph import PropertyGraph
from repro.matching import fixpoint
from repro.matching.mappings import EMPTY_MAPPING, compatible, freeze, thaw, union
from repro.patterns.ast import (
    Concatenation,
    Disjunction,
    EdgePattern,
    Filter,
    NodePattern,
    OutputPattern,
    Pattern,
    PropertyRef,
    Repetition,
)

#: A single match triple ``(source, target, frozen mapping)``.
MatchTriple = Tuple[Identifier, Identifier, Tuple[Tuple[str, Identifier], ...]]

#: The full semantics of a pattern: a frozenset of match triples.
MatchSet = FrozenSet[MatchTriple]


class _OracleMeter:
    """Watermark checkpointing for the oracle's enumeration loops.

    Counts iterations and polls the governor every :data:`CHECK_INTERVAL`
    ticks at the ``"oracle.enumerate"`` site; :meth:`flush` reports the
    remainder so small graphs still exercise the checkpoint (which is what
    the fault-injection harness asserts).  The oracle trades speed for
    obviousness, so a bound-method call per iteration is acceptable; with
    governance off the evaluator hands out the shared null meter instead.
    """

    __slots__ = ("_governor", "_count", "_checked")

    def __init__(self, governor):
        self._governor = governor
        self._count = 0
        self._checked = 0

    def tick(self) -> None:
        self._count += 1
        if self._count - self._checked >= CHECK_INTERVAL:
            self._governor.checkpoint("oracle.enumerate", self._count - self._checked)
            self._checked = self._count

    def flush(self) -> None:
        if self._count > self._checked:
            self._governor.checkpoint("oracle.enumerate", self._count - self._checked)


class _NullMeter:
    """No-governor stand-in so enumeration loops stay branch-free."""

    __slots__ = ()

    def tick(self) -> None:
        pass

    def flush(self) -> None:
        pass


_NULL_METER = _NullMeter()


class EndpointEvaluator:
    """Evaluates patterns under the endpoint semantics of Figure 2."""

    def __init__(
        self,
        graph: PropertyGraph,
        *,
        max_repetitions: Optional[int] = None,
    ):
        self.graph = graph
        #: Resource guard: when set, a repetition whose matches need more
        #: than this many body iterations raises :class:`PatternError`.
        #: ``None`` keeps the paper's semantics (saturation always
        #: terminates within ``|N|`` rounds, Corollary 6.4).  The guarded
        #: kernels are shared with the planner (:mod:`repro.matching.fixpoint`).
        self.max_repetitions = max_repetitions

    @staticmethod
    def _round_checkpoint() -> None:
        governor = current_governor()
        if governor is not None:
            governor.checkpoint("fixpoint.round")

    @staticmethod
    def _meter():
        governor = current_governor()
        return _OracleMeter(governor) if governor is not None else _NULL_METER

    # ------------------------------------------------------------------ #
    # Pattern semantics
    # ------------------------------------------------------------------ #
    def evaluate(self, pattern: Pattern) -> MatchSet:
        """Compute ``[[pattern]]_G`` as a set of (s, t, frozen mapping) triples."""
        pattern.validate()
        return self._eval(pattern)

    def _eval(self, pattern: Pattern) -> MatchSet:
        if isinstance(pattern, NodePattern):
            return self._eval_node(pattern)
        if isinstance(pattern, EdgePattern):
            return self._eval_edge(pattern)
        if isinstance(pattern, Concatenation):
            return self._eval_concatenation(pattern)
        if isinstance(pattern, Disjunction):
            return self._eval_disjunction(pattern)
        if isinstance(pattern, Filter):
            return self._eval_filter(pattern)
        if isinstance(pattern, Repetition):
            return self._eval_repetition(pattern)
        raise PatternError(f"unknown pattern node {pattern!r}")

    def _eval_node(self, pattern: NodePattern) -> MatchSet:
        triples = set()
        meter = self._meter()
        for node in self.graph.nodes:
            mapping = {pattern.variable: node} if pattern.variable else {}
            triples.add((node, node, freeze(mapping)))
            meter.tick()
        meter.flush()
        return frozenset(triples)

    def _eval_edge(self, pattern: EdgePattern) -> MatchSet:
        triples = set()
        meter = self._meter()
        for edge in self.graph.edge_tuples():
            mapping = {pattern.variable: edge.ident} if pattern.variable else {}
            if pattern.forward:
                triples.add((edge.source, edge.target, freeze(mapping)))
            else:
                triples.add((edge.target, edge.source, freeze(mapping)))
            meter.tick()
        meter.flush()
        return frozenset(triples)

    def _eval_concatenation(self, pattern: Concatenation) -> MatchSet:
        left = self._eval(pattern.left)
        right = self._eval(pattern.right)
        # Index the right matches by their source node so composition is a
        # hash join on the shared midpoint rather than a nested loop.
        by_source: Dict[Identifier, List[MatchTriple]] = {}
        for triple in right:
            by_source.setdefault(triple[0], []).append(triple)
        triples = set()
        meter = self._meter()
        for (source, midpoint, left_frozen) in left:
            left_mapping = thaw(left_frozen)
            for (_mid, target, right_frozen) in by_source.get(midpoint, ()):
                meter.tick()
                right_mapping = thaw(right_frozen)
                if compatible(left_mapping, right_mapping):
                    merged = union(left_mapping, right_mapping)
                    triples.add((source, target, freeze(merged)))
        meter.flush()
        return frozenset(triples)

    def _eval_disjunction(self, pattern: Disjunction) -> MatchSet:
        return self._eval(pattern.left) | self._eval(pattern.right)

    def _eval_filter(self, pattern: Filter) -> MatchSet:
        matches = self._eval(pattern.body)
        triples = set()
        meter = self._meter()
        for (source, target, frozen) in matches:
            meter.tick()
            if pattern.condition.satisfied(self.graph, thaw(frozen)):
                triples.add((source, target, frozen))
        meter.flush()
        return frozenset(triples)

    def _eval_repetition(self, pattern: Repetition) -> MatchSet:
        body = self._eval(pattern.body)
        # The repetition semantics forgets bindings (mu_emptyset), so only
        # the endpoint-pair relation of the body matters.
        base_pairs: Set[Tuple[Identifier, Identifier]] = {(s, t) for (s, t, _mu) in body}
        empty = freeze(EMPTY_MAPPING)

        identity_pairs = {(node, node) for node in self.graph.nodes}

        if pattern.is_unbounded:
            pairs = self._pairs_unbounded(base_pairs, pattern.lower, identity_pairs)
        else:
            pairs = self._pairs_bounded(
                base_pairs, pattern.lower, int(pattern.upper), identity_pairs
            )
        return frozenset((source, target, empty) for (source, target) in pairs)

    # ------------------------------------------------------------------ #
    # Pair-relation helpers for repetition
    # ------------------------------------------------------------------ #
    def _pairs_bounded(
        self,
        base: Set[Tuple[Identifier, Identifier]],
        lower: int,
        upper: int,
        identity: Set[Tuple[Identifier, Identifier]],
    ) -> Set[Tuple[Identifier, Identifier]]:
        """Endpoint pairs of ``psi^{lower..upper}`` for finite bounds."""
        return fixpoint.bounded_pairs(
            fixpoint.adjacency_of(base),
            lower,
            upper,
            identity,
            max_repetitions=self.max_repetitions,
            on_round=self._round_checkpoint,
        )

    def _pairs_unbounded(
        self,
        base: Set[Tuple[Identifier, Identifier]],
        lower: int,
        identity: Set[Tuple[Identifier, Identifier]],
    ) -> Set[Tuple[Identifier, Identifier]]:
        """Endpoint pairs of ``psi^{lower..inf}``.

        Computed as (pairs for exactly ``lower`` repetitions) composed with
        the reflexive-transitive closure of the base pair relation.  When a
        ``max_repetitions`` bound is configured, the shared delta-iteration
        kernel runs instead so the depth at which each pair is first
        derivable is known and the bound check is exact (and agrees with
        the planner's fixpoint operator by construction).
        """
        if self.max_repetitions is not None:
            return fixpoint.unbounded_pairs_delta(
                fixpoint.adjacency_of(base),
                lower,
                identity,
                max_repetitions=self.max_repetitions,
                on_round=self._round_checkpoint,
            )
        adjacency = fixpoint.adjacency_of(base)
        exact_lower = set(identity)
        for _ in range(lower):
            exact_lower = fixpoint.compose(exact_lower, adjacency)
            self._round_checkpoint()
            if not exact_lower:
                return set()
        closure = self._reflexive_transitive_closure(adjacency)
        return self._compose_with_closure(exact_lower, closure)

    def _reflexive_transitive_closure(
        self, adjacency: Dict[Identifier, List[Identifier]]
    ) -> Dict[Identifier, Set[Identifier]]:
        """Reachability map of the base pair relation, including 0 steps.

        Semi-naive iteration: each round only extends from newly discovered
        targets, so the work is proportional to the closure size.
        """
        reachable: Dict[Identifier, Set[Identifier]] = {}
        nodes = set(self.graph.nodes) | set(adjacency)
        for start in nodes:
            seen: Set[Identifier] = {start}
            frontier = [start]
            while frontier:
                self._round_checkpoint()
                next_frontier = []
                for node in frontier:
                    for successor in adjacency.get(node, ()):
                        if successor not in seen:
                            seen.add(successor)
                            next_frontier.append(successor)
                frontier = next_frontier
            reachable[start] = seen
        return reachable

    @staticmethod
    def _compose_with_closure(
        pairs: Set[Tuple[Identifier, Identifier]],
        closure: Dict[Identifier, Set[Identifier]],
    ) -> Set[Tuple[Identifier, Identifier]]:
        result = set()
        for (source, midpoint) in pairs:
            for target in closure.get(midpoint, {midpoint}):
                result.add((source, target))
        return result

    # ------------------------------------------------------------------ #
    # Output patterns
    # ------------------------------------------------------------------ #
    def evaluate_output(self, output: OutputPattern) -> FrozenSet[Tuple]:
        """``[[psi_Omega]]_G``: tuples of identifiers / property values.

        Unary identifiers are unwrapped to plain values so results line up
        with the relational layer; n-ary identifiers are flattened into the
        output tuple (the extended semantics of Section 5, where outputs are
        k-tuples per identifier component group).
        """
        output.validate()
        matches = self._eval(output.pattern)
        rows: Set[Tuple] = set()
        meter = self._meter()
        for (_source, _target, frozen) in matches:
            meter.tick()
            mapping = thaw(frozen)
            row: List = []
            defined = True
            for item in output.items:
                if isinstance(item, PropertyRef):
                    element = mapping.get(item.variable)
                    if element is None or not self.graph.has_property(element, item.key):
                        defined = False
                        break
                    row.append(self.graph.property(element, item.key))
                else:
                    element = mapping.get(item)
                    if element is None:
                        defined = False
                        break
                    row.extend(element)
            if defined:
                rows.add(tuple(row))
        meter.flush()
        return frozenset(rows)


def evaluate_pattern(graph: PropertyGraph, pattern: Pattern) -> MatchSet:
    """Convenience wrapper: ``[[pattern]]_G`` with a fresh evaluator."""
    return EndpointEvaluator(graph).evaluate(pattern)


def evaluate_output_pattern(graph: PropertyGraph, output: OutputPattern) -> FrozenSet[Tuple]:
    """Convenience wrapper: ``[[psi_Omega]]_G`` with a fresh evaluator."""
    return EndpointEvaluator(graph).evaluate_output(output)
