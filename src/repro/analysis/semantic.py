"""Semantic analyzer for SQL/PGQ statements (parse -> analyze -> compile).

The analyzer sits between the parser and the compiler: it resolves every
graph name, label, property key and view column against the catalog's
schema, checks pattern variables and projection arities, and infers types
for ``:name`` parameters from the properties and literals they are
compared with — rejecting ill-formed statements with position-carrying
:class:`~repro.analysis.diagnostics.Diagnostic` collections *before* any
plan is built, instead of today's mid-execution failures.

What a graph definition exposes is its summary, built once with the
definition; the data-sampled type of each property comes from
:mod:`repro.analysis.schema`, or from the caller's per-snapshot store
when it has one: the per-statement cost is one small AST walk, and a
statement analyzed before costs a structural hash.
"""

from __future__ import annotations

import operator
import threading
import weakref
from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, QueryAnalysis
from repro.analysis.schema import (
    ANY,
    PropertySources,
    PropertyTypes,
    classify_value,
    known_hint,
    sample_property_type,
    source_position,
)
from repro.sqlpgq.ast import (
    BooleanExpression,
    Comparison,
    ConditionExpr,
    GraphTableQuery,
    LabelTest,
    LiteralOperand,
    NodeElement,
    ParameterOperand,
    PropertyOperand,
)
from repro.sqlpgq.catalog import GraphCatalog, GraphSchemaSummary

# --------------------------------------------------------------------------- #
# Query analysis
# --------------------------------------------------------------------------- #
def _conjuncts(condition: Optional[ConditionExpr]) -> List[ConditionExpr]:
    """Top-level positive conjuncts of a WHERE clause (nothing under OR/NOT)."""
    if condition is None:
        return []
    if isinstance(condition, BooleanExpression) and condition.operator == "AND":
        result: List[ConditionExpr] = []
        for operand in condition.operands:
            result.extend(_conjuncts(operand))
        return result
    return [condition]


def _walk_condition(condition: ConditionExpr):
    """Every Comparison / LabelTest in a condition tree (any polarity)."""
    if isinstance(condition, BooleanExpression):
        for operand in condition.operands:
            yield from _walk_condition(operand)
    else:
        yield condition


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _statically_false(left: object, op: str, right: object) -> bool:
    try:
        return op in _COMPARE and not _COMPARE[op](left, right)
    except TypeError:
        # Cross-type ordered comparisons never hold at runtime either
        # (PropertyCompare.satisfied treats TypeError as False).
        return True


class _QueryAnalyzer:
    def __init__(
        self,
        query: GraphTableQuery,
        catalog: GraphCatalog,
        property_types: Optional[Callable[[PropertySources], str]] = None,
    ) -> None:
        self.query = query
        self.catalog = catalog
        #: ``(table, column)`` pairs -> sampled type; None types nothing.
        self._property_types = property_types
        self.diagnostics: List[Diagnostic] = []
        self.summary: Optional[GraphSchemaSummary] = None
        #: variable -> "node" | "edge"
        self.kinds: Dict[str, str] = {}
        self.parameter_types: Dict[str, str] = {}
        #: parameter name -> (type, line, column) of the first inference.
        self._first_inference: Dict[str, Tuple[str, Optional[int], Optional[int]]] = {}

    def _property_type(self, key: str) -> str:
        """Type of a property key, from the data of its backing columns."""
        if self.summary is None or self._property_types is None:
            return ANY
        return self._property_types(self.summary.property_sources.get(key, ()))

    def diag(self, code: str, message: str, node, hint: Optional[str] = None) -> None:
        line, column = source_position(node)
        self.diagnostics.append(Diagnostic(code, message, line, column, hint))

    # ------------------------------------------------------------------ #
    def run(self) -> QueryAnalysis:
        self._resolve_graph()
        self._collect_variables()
        self._check_elements()
        self._check_condition()
        self._check_columns()
        self._check_select_list()
        self._check_satisfiability()
        return QueryAnalysis(
            tuple(self.diagnostics),
            dict(self.parameter_types),
            self._infer_result_schema(),
        )

    def _infer_result_schema(self) -> Tuple[Tuple[str, str], ...]:
        """``(name, type)`` per output column, honoring the outer SELECT list."""
        columns = list(self.query.columns)
        if self.query.select_items and not self.query.select_star:
            by_name = {column.name: column for column in columns}
            columns = [by_name[item] for item in self.query.select_items if item in by_name]
        schema: List[Tuple[str, str]] = []
        for column in columns:
            if column.key is None:
                kind = self.kinds.get(column.variable)
                inferred = f"{kind} id" if kind in ("node", "edge") else "id"
            else:
                inferred = self._property_type(column.key)
            schema.append((column.name, inferred))
        return tuple(schema)

    # ------------------------------------------------------------------ #
    def _resolve_graph(self) -> None:
        name = self.query.graph_name
        if name in self.catalog:
            self.summary = self.catalog.get(name).summary
            return
        self.diag(
            "A001",
            f"no property graph named {name!r} has been created",
            self.query,
            hint=known_hint("graphs", frozenset(self.catalog.names())),
        )

    def _collect_variables(self) -> None:
        for element in self.query.elements:
            if element.variable is None:
                continue
            kind = "node" if isinstance(element, NodeElement) else "edge"
            self.kinds.setdefault(element.variable, kind)

    # ------------------------------------------------------------------ #
    def _check_label(self, label: str, kind: Optional[str], node) -> None:
        if self.summary is None:
            return
        known = self.summary.labels_of(kind)
        if label not in known:
            what = f"{kind} " if kind in ("node", "edge") else ""
            self.diag(
                "A002",
                f"graph {self.query.graph_name!r} defines no {what}label {label!r}",
                node,
                hint=known_hint(f"{what}labels", known),
            )

    def _check_property(self, variable: str, key: str, node) -> None:
        if self.summary is None:
            return
        kind = self.kinds.get(variable)
        known = self.summary.properties_of(kind)
        if key not in known:
            what = f"{kind} elements of " if kind in ("node", "edge") else ""
            self.diag(
                "A003",
                f"{what}graph {self.query.graph_name!r} expose no property {key!r}",
                node,
                hint=known_hint("properties", known),
            )

    def _check_variable(self, variable: str, node) -> None:
        if variable not in self.kinds:
            self.diag(
                "A004",
                f"variable {variable!r} is not bound by the MATCH pattern",
                node,
                hint=known_hint("pattern variables", frozenset(self.kinds)),
            )

    # ------------------------------------------------------------------ #
    def _check_elements(self) -> None:
        for element in self.query.elements:
            kind = "node" if isinstance(element, NodeElement) else "edge"
            for label in element.labels:
                self._check_label(label, kind, element)

    def _check_condition(self) -> None:
        if self.query.condition is None:
            return
        for atom in _walk_condition(self.query.condition):
            if isinstance(atom, LabelTest):
                self._check_variable(atom.variable, atom)
                if atom.variable in self.kinds:
                    self._check_label(atom.label, self.kinds.get(atom.variable), atom)
                continue
            if not isinstance(atom, Comparison):
                continue
            for operand in (atom.left, atom.right):
                if isinstance(operand, PropertyOperand):
                    self._check_variable(operand.variable, operand)
                    if operand.variable in self.kinds:
                        self._check_property(operand.variable, operand.key, operand)
            self._infer_parameter_types(atom)

    def _check_columns(self) -> None:
        for column in self.query.columns:
            self._check_variable(column.variable, column)
            if column.key is not None and column.variable in self.kinds:
                self._check_property(column.variable, column.key, column)

    def _check_select_list(self) -> None:
        query = self.query
        if query.select_star or not query.select_items:
            return
        output_names = {column.name for column in query.columns}
        if len(query.select_items) != len(query.columns):
            self.diag(
                "A005",
                f"outer SELECT projects {len(query.select_items)} column(s) but the "
                f"COLUMNS clause produces {len(query.columns)}",
                query,
                hint="project * or list exactly the COLUMNS outputs",
            )
        for item in query.select_items:
            if item not in output_names:
                self.diag(
                    "A005",
                    f"outer SELECT references {item!r}, which the COLUMNS clause "
                    "does not produce",
                    query,
                    hint=known_hint("output columns", frozenset(output_names)),
                )

    # ------------------------------------------------------------------ #
    def _infer_parameter_types(self, comparison: Comparison) -> None:
        left, right = comparison.left, comparison.right
        for operand, other in ((left, right), (right, left)):
            if not isinstance(operand, ParameterOperand):
                continue
            if isinstance(other, PropertyOperand):
                inferred = self._property_type(other.key)
            elif isinstance(other, LiteralOperand):
                inferred = classify_value(other.value)
            else:
                inferred = ANY
            self._record_parameter(operand, inferred)

    def _record_parameter(self, operand: ParameterOperand, inferred: str) -> None:
        name = operand.name
        current = self.parameter_types.get(name, ANY)
        if name not in self._first_inference or (
            self._first_inference[name][0] == ANY and inferred != ANY
        ):
            line, column = source_position(operand)
            self._first_inference[name] = (inferred, line, column)
        if current == ANY:
            self.parameter_types[name] = inferred
            return
        if inferred == ANY or inferred == current:
            return
        first_type, first_line, first_column = self._first_inference[name]
        where = ""
        if first_line is not None:
            where = f" (first inferred {first_type} at line {first_line}, column {first_column})"
        self.diag(
            "A006",
            f"parameter :{name} is compared as {inferred} here but as {current} "
            f"elsewhere{where}",
            operand,
            hint="bind the parameter against operands of one type",
        )

    # ------------------------------------------------------------------ #
    def _check_satisfiability(self) -> None:
        equalities: Dict[Tuple[str, str], Tuple[object, object]] = {}
        for atom in _conjuncts(self.query.condition):
            if not isinstance(atom, Comparison):
                continue
            left, right = atom.left, atom.right
            operator = atom.operator
            if isinstance(left, LiteralOperand) and isinstance(right, LiteralOperand):
                if _statically_false(left.value, operator, right.value):
                    self.diag(
                        "A007",
                        f"comparison {left.value!r} {operator} {right.value!r} "
                        "is never satisfied",
                        atom,
                        hint="remove the contradiction or fix the literal",
                    )
                continue
            # Normalize to property-on-the-left for the remaining checks.
            if isinstance(right, PropertyOperand) and isinstance(left, LiteralOperand):
                left, right = right, left
                operator = _FLIPPED.get(operator, operator)
            if not (isinstance(left, PropertyOperand) and isinstance(right, LiteralOperand)):
                continue
            self._check_property_literal(atom, left, operator, right)

            if operator == "=":
                key = (left.variable, left.key)
                if key in equalities:
                    previous, _ = equalities[key]
                    if type(previous) is type(right.value) and previous != right.value:
                        self.diag(
                            "A007",
                            f"{left.variable}.{left.key} cannot equal both "
                            f"{previous!r} and {right.value!r}",
                            atom,
                            hint="use OR for alternative values",
                        )
                else:
                    equalities[key] = (right.value, atom)

    def _check_property_literal(
        self, atom: Comparison, prop: PropertyOperand, operator: str, literal: LiteralOperand
    ) -> None:
        if operator == "!=" or self.summary is None:
            # ``!=`` holds for any defined value of a different type.
            return
        property_type = self._property_type(prop.key)
        literal_type = classify_value(literal.value)
        if ANY in (property_type, literal_type) or property_type == literal_type:
            return
        self.diag(
            "A007",
            f"{prop.variable}.{prop.key} holds {property_type} values; comparing "
            f"with {literal.value!r} ({literal_type}) is never satisfied",
            atom,
            hint="compare the property against a value of its own type",
        )


_ANALYSIS_MEMO: "OrderedDict[Tuple[GraphTableQuery, int, int], Tuple[weakref.ref, Optional[weakref.ref], QueryAnalysis]]" = OrderedDict()
_ANALYSIS_MEMO_LIMIT = 256
_ANALYSIS_MEMO_LOCK = threading.Lock()


def analyze_query(
    query: GraphTableQuery,
    catalog: GraphCatalog,
    database=None,
    *,
    property_types: Optional[PropertyTypes] = None,
) -> QueryAnalysis:
    """Analyze one query against a catalog (and optionally its data).

    Collects *every* diagnostic rather than stopping at the first; callers
    reject via :meth:`QueryAnalysis.raise_if_failed`.  Successful analyses
    are memoized per (statement, catalog, data), so re-analyzing a
    statement costs a structural hash instead of a full re-analysis.

    The data is ``database``, whose property types are sampled per
    statement, or ``property_types`` (a
    :class:`~repro.engine.database.Snapshot`), whose ``property_type``
    answers what :func:`~repro.analysis.schema.sample_property_type` would
    on its data, sampling each key once.
    """
    data = database if property_types is None else property_types
    key = (query, id(catalog), id(data))
    with _ANALYSIS_MEMO_LOCK:
        cached = _ANALYSIS_MEMO.get(key)
        if cached is not None:
            catalog_ref, data_ref, analysis = cached
            live = catalog_ref() is catalog and (
                data is None if data_ref is None else data_ref() is data
            )
            if live:
                _ANALYSIS_MEMO.move_to_end(key)
                return analysis
            del _ANALYSIS_MEMO[key]
    lookup: Optional[Callable[[PropertySources], str]] = None
    if property_types is not None:
        lookup = property_types.property_type
    elif database is not None:
        lookup = partial(sample_property_type, database)
    analysis = _QueryAnalyzer(query, catalog, lookup).run()
    if not analysis.diagnostics:
        with _ANALYSIS_MEMO_LOCK:
            _ANALYSIS_MEMO[key] = (
                weakref.ref(catalog),
                None if data is None else weakref.ref(data),
                analysis,
            )
            while len(_ANALYSIS_MEMO) > _ANALYSIS_MEMO_LIMIT:
                _ANALYSIS_MEMO.popitem(last=False)
    return analysis


__all__ = [
    "QueryAnalysis",
    "analyze_query",
]
