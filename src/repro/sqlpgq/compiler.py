"""Compilation of GRAPH_TABLE queries onto the formal PGQ fragments.

A parsed :class:`~repro.sqlpgq.ast.GraphTableQuery` is lowered to a
:class:`~repro.pgq.queries.GraphPattern` whose six view subqueries come
from the catalog entry named in the query.  The MATCH pattern becomes a
pattern of Figure 1; inline labels and WHERE conjuncts become filter
conditions.

Quantified edges (``-[t]->+`` etc.) compile to a repetition whose body is
``edge node`` -- exactly the shape of Example 2.1's formal pattern
``((x) -t->)^{1..inf} (y)``.  Because repetition erases bindings
(``fv(psi^{n..m}) = {}``), a WHERE conjunct that mentions only variables
bound *inside* a quantified edge is pushed into that repetition's body,
which matches the intended per-step reading of the paper's example (every
transfer on the path has amount > 100); conjuncts over top-level variables
stay at the top level.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import QueryError
from repro.patterns.ast import (
    INFINITY,
    Concatenation,
    Filter,
    NodePattern,
    EdgePattern,
    OutputPattern,
    Pattern,
    PropertyRef,
    Repetition,
)
from repro.patterns.conditions import (
    AndCondition,
    HasLabel,
    NotCondition,
    OrCondition,
    PatternCondition,
    PropertyCompare,
    PropertyComparesProperty,
    PropertyEquals,
)
from repro.parameters import Parameter
from repro.pgq.queries import GraphPattern, Query
from repro.sqlpgq.ast import (
    BooleanExpression,
    Comparison,
    ConditionExpr,
    EdgeElement,
    GraphTableQuery,
    LabelTest,
    LiteralOperand,
    NodeElement,
    OutputColumn,
    ParameterOperand,
    PropertyOperand,
)
from repro.observability.tracing import trace_span
from repro.sqlpgq.catalog import GraphCatalog


def compile_query(query: GraphTableQuery, catalog: GraphCatalog) -> Query:
    """Compile a parsed GRAPH_TABLE query to a PGQ query."""
    with trace_span("compile", graph=query.graph_name):
        definition = catalog.get(query.graph_name)
        compiler = _QueryCompiler(query)
        output = compiler.build_output_pattern()
        return GraphPattern(output, definition.view_subqueries())


class _QueryCompiler:
    """Stateful lowering of one GRAPH_TABLE query."""

    def __init__(self, query: GraphTableQuery):
        self.query = query
        self.top_level_variables: Set[str] = set()
        self.quantified_variables: Dict[str, int] = {}  # variable -> segment index
        self._anonymous_counter = 0

    def _fresh(self, prefix: str) -> str:
        """Deterministic name for an anonymous pattern element.

        A SQL identifier cannot start with a digit, so the leading ``0``
        makes collision with a user variable impossible (while keeping the
        name a valid suffix for the SQLite backend's ``v_<name>`` column
        aliases); numbering restarts per query so re-parsing the same
        statement yields a *structurally identical* pattern.  That
        determinism is what lets the plan cache and the executor's memoized
        tables serve repeated SQL text — a process-wide gensym (the old
        behavior) made every parse a cache miss.
        """
        name = f"0{prefix}{self._anonymous_counter}"
        self._anonymous_counter += 1
        return name

    # ------------------------------------------------------------------ #
    def build_output_pattern(self) -> OutputPattern:
        segments = self._segment_elements()
        where_parts = _split_conjuncts(self.query.condition)
        top_conditions, per_segment = self._assign_conditions(where_parts, segments)
        pattern = self._compile_segments(segments, per_segment)
        if top_conditions:
            pattern = Filter(pattern, _conjoin(top_conditions))
        items = tuple(self._output_item(column) for column in self.query.columns)
        return OutputPattern(pattern, items)

    # -- segmentation ------------------------------------------------------
    def _segment_elements(self) -> List[Tuple[str, object]]:
        """Split the element list into plain elements and quantified segments.

        Returns a list of ("node", NodeElement), ("edge", EdgeElement) and
        ("quantified", EdgeElement) entries.  A quantified edge becomes a
        repetition whose body is ``edge node`` (the shape of Example 2.1's
        formal pattern); the node element *after* the quantified edge stays a
        top-level element, so it remains free and can be output.
        """
        elements = list(self.query.elements)
        if not elements or not isinstance(elements[0], NodeElement):
            raise QueryError("a MATCH pattern must start with a node element")
        segments: List[Tuple[str, object]] = [("node", elements[0])]
        self._note_node(elements[0], quantified=False, segment=None)
        index = 1
        segment_counter = 0
        while index < len(elements):
            edge = elements[index]
            node = elements[index + 1] if index + 1 < len(elements) else None
            if not isinstance(edge, EdgeElement) or not isinstance(node, NodeElement):
                raise QueryError("MATCH elements must alternate nodes and edges")
            if edge.quantifier is not None:
                segment_counter += 1
                segments.append(("quantified", edge))
                self._note_edge(edge, quantified=True, segment=segment_counter)
                segments.append(("node", node))
                self._note_node(node, quantified=False, segment=None)
            else:
                segments.append(("edge", edge))
                segments.append(("node", node))
                self._note_edge(edge, quantified=False, segment=None)
                self._note_node(node, quantified=False, segment=None)
            index += 2
        return segments

    def _note_node(self, element: NodeElement, *, quantified: bool, segment: Optional[int]) -> None:
        if element.variable is None:
            return
        if quantified:
            self.quantified_variables[element.variable] = segment or 0
        else:
            self.top_level_variables.add(element.variable)

    def _note_edge(self, element: EdgeElement, *, quantified: bool, segment: Optional[int]) -> None:
        if element.variable is None:
            return
        if quantified:
            self.quantified_variables[element.variable] = segment or 0
        else:
            self.top_level_variables.add(element.variable)

    # -- condition placement -------------------------------------------------
    def _assign_conditions(
        self, conjuncts: Sequence[ConditionExpr], segments: Sequence[Tuple[str, object]]
    ) -> Tuple[List[PatternCondition], Dict[int, List[PatternCondition]]]:
        top: List[PatternCondition] = []
        per_segment: Dict[int, List[PatternCondition]] = {}
        for conjunct in conjuncts:
            condition = _compile_condition(conjunct)
            variables = condition.variables()
            segment_ids = {
                self.quantified_variables[v] for v in variables if v in self.quantified_variables
            }
            unknown = {
                v
                for v in variables
                if v not in self.quantified_variables and v not in self.top_level_variables
            }
            if unknown:
                raise QueryError(f"WHERE clause mentions unbound variables {sorted(unknown)}")
            if not segment_ids:
                top.append(condition)
            elif len(segment_ids) == 1 and all(v in self.quantified_variables for v in variables):
                per_segment.setdefault(segment_ids.pop(), []).append(condition)
            else:
                raise QueryError(
                    "a WHERE conjunct may not mix variables bound inside a quantified path "
                    "segment with other variables (repetition erases its bindings, Figure 1)"
                )
        return top, per_segment

    # -- pattern assembly ------------------------------------------------------
    def _compile_segments(
        self,
        segments: Sequence[Tuple[str, object]],
        per_segment: Dict[int, List[PatternCondition]],
    ) -> Pattern:
        pattern: Optional[Pattern] = None
        inline_conditions: List[PatternCondition] = []
        segment_counter = 0

        def extend(next_pattern: Pattern) -> None:
            nonlocal pattern
            pattern = next_pattern if pattern is None else Concatenation(pattern, next_pattern)

        for kind, payload in segments:
            if kind == "node":
                element = payload
                variable = element.variable or self._fresh("n")
                extend(NodePattern(variable))
                for label in element.labels:
                    inline_conditions.append(HasLabel(variable, label))
            elif kind == "edge":
                element = payload
                variable = element.variable or self._fresh("e")
                extend(EdgePattern(variable, forward=element.forward))
                for label in element.labels:
                    inline_conditions.append(HasLabel(variable, label))
            else:  # quantified segment
                segment_counter += 1
                edge_element = payload
                edge_variable = edge_element.variable or self._fresh("e")
                inner_node = self._fresh("n")
                body: Pattern = Concatenation(
                    EdgePattern(edge_variable, forward=edge_element.forward),
                    NodePattern(inner_node),
                )
                conditions = [HasLabel(edge_variable, label) for label in edge_element.labels]
                conditions.extend(per_segment.get(segment_counter, []))
                if conditions:
                    body = Filter(body, _conjoin(conditions))
                quantifier = edge_element.quantifier
                upper = INFINITY if quantifier.upper is None else quantifier.upper
                extend(Repetition(body, quantifier.lower, upper))
        assert pattern is not None
        if inline_conditions:
            pattern = Filter(pattern, _conjoin(inline_conditions))
        return pattern

    def _output_item(self, column: OutputColumn) -> Union[str, PropertyRef]:
        if column.variable in self.quantified_variables:
            raise QueryError(
                f"output column {column.name!r} refers to {column.variable!r}, which is bound "
                "inside a quantified path segment and therefore not free (Figure 1)"
            )
        if column.variable not in self.top_level_variables:
            raise QueryError(f"output column refers to unknown variable {column.variable!r}")
        if column.key is None:
            return column.variable
        return PropertyRef(column.variable, column.key)


# --------------------------------------------------------------------------- #
# Condition lowering
# --------------------------------------------------------------------------- #
def _split_conjuncts(condition: Optional[ConditionExpr]) -> List[ConditionExpr]:
    if condition is None:
        return []
    if isinstance(condition, BooleanExpression) and condition.operator == "AND":
        parts: List[ConditionExpr] = []
        for operand in condition.operands:
            parts.extend(_split_conjuncts(operand))
        return parts
    return [condition]


def _conjoin(conditions: Sequence[PatternCondition]) -> PatternCondition:
    result = conditions[0]
    for condition in conditions[1:]:
        result = AndCondition(result, condition)
    return result


def _compile_condition(condition: ConditionExpr) -> PatternCondition:
    if isinstance(condition, Comparison):
        return _compile_comparison(condition)
    if isinstance(condition, LabelTest):
        return HasLabel(condition.variable, condition.label)
    if isinstance(condition, BooleanExpression):
        operands = [_compile_condition(operand) for operand in condition.operands]
        if condition.operator == "NOT":
            return NotCondition(operands[0])
        result = operands[0]
        for operand in operands[1:]:
            result = (
                AndCondition(result, operand)
                if condition.operator == "AND"
                else OrCondition(result, operand)
            )
        return result
    raise QueryError(f"unsupported WHERE condition {condition!r}")


def _operand_value(operand: Union[LiteralOperand, ParameterOperand]):
    """A comparison constant: the literal's value, or a parameter slot
    bound at execution time (prepared statements)."""
    if isinstance(operand, ParameterOperand):
        return Parameter(operand.name)
    return operand.value


def _compile_comparison(comparison: Comparison) -> PatternCondition:
    left, right = comparison.left, comparison.right
    operator = comparison.operator
    if isinstance(left, PropertyOperand) and isinstance(right, PropertyOperand):
        if operator == "=":
            return PropertyEquals(left.variable, left.key, right.variable, right.key)
        return PropertyComparesProperty(left.variable, left.key, operator, right.variable, right.key)
    if isinstance(left, PropertyOperand) and isinstance(right, (LiteralOperand, ParameterOperand)):
        return PropertyCompare(left.variable, left.key, operator, _operand_value(right))
    if isinstance(left, (LiteralOperand, ParameterOperand)) and isinstance(right, PropertyOperand):
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}[operator]
        return PropertyCompare(right.variable, right.key, flipped, _operand_value(left))
    raise QueryError(
        "comparisons between two literals (or two parameters) are not supported in WHERE"
    )
