"""Recursive-descent parser for the SQL/PGQ surface subset.

Grammar (informal)::

    create_graph  := CREATE PROPERTY GRAPH name "(" table_clause ("," table_clause)* ")" [";"]
    table_clause  := (NODES|VERTEX) TABLE[S] node_table
                   | (EDGES|EDGE) TABLE[S] edge_table
    node_table    := name KEY "(" columns ")" [LABEL|LABELS names] [PROPERTIES "(" columns ")"]
    edge_table    := name KEY "(" columns ")"
                     SOURCE KEY [ "(" ] columns [ ")" ] REFERENCES name
                     TARGET KEY [ "(" ] columns [ ")" ] REFERENCES name
                     [LABEL|LABELS names] [PROPERTIES "(" columns ")"]

    query         := SELECT [DISTINCT] ("*" | columns) FROM GRAPH_TABLE "("
                        name MATCH path [WHERE condition] (COLUMNS|RETURN) "(" output ")"
                     ")" [";"]
    path          := node_elem (edge_elem node_elem)*
    node_elem     := "(" [var] [":" label] ")"
    edge_elem     := "-" "[" [var] [":" label] "]" "->" [quant]
                   | "<-" "[" [var] [":" label] "]" "-" [quant]
                   | "->" [quant]
    quant         := "*" | "+" | "{" n "," m "}"
    condition     := disjunction of conjunctions of (comparison | NOT ...)
    comparison    := operand (= | <> | != | < | <= | > | >=) operand
    operand       := var "." key | number | string | ":" name

``:name`` is a parameter placeholder: it stands where a literal may and
is bound at execution time (``session.prepare(...).execute(name=...)``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.sqlpgq.ast import (
    BooleanExpression,
    Comparison,
    ConditionExpr,
    CreatePropertyGraph,
    EdgeElement,
    EdgeTableSpec,
    GraphTableQuery,
    LiteralOperand,
    NodeElement,
    NodeTableSpec,
    Operand,
    OutputColumn,
    ParameterOperand,
    PathElement,
    PropertyOperand,
    Quantifier,
)
from repro.observability.tracing import trace_span
from repro.sqlpgq.lexer import TokenStream


def parse_statement(text: str) -> Union[CreatePropertyGraph, GraphTableQuery]:
    """Parse one SQL/PGQ statement (DDL or query)."""
    with trace_span("parse", chars=len(text)):
        stream = TokenStream(text)
        if stream.at("CREATE"):
            statement = _parse_create_graph(stream)
        elif stream.at("SELECT"):
            statement = _parse_query(stream)
        else:
            raise stream.error("expected CREATE PROPERTY GRAPH or SELECT")
        stream.accept(";")
        if stream.peek().kind != "EOF":
            raise stream.error("unexpected trailing input")
    return statement


def parse_create_property_graph(text: str) -> CreatePropertyGraph:
    """Parse a ``CREATE PROPERTY GRAPH`` statement."""
    statement = parse_statement(text)
    if not isinstance(statement, CreatePropertyGraph):
        line, column = statement.position or (1, 1)
        raise ParseError(
            "expected a CREATE PROPERTY GRAPH statement, got a query",
            line=line,
            column=column,
        )
    return statement


def parse_graph_query(text: str) -> GraphTableQuery:
    """Parse a ``SELECT ... FROM GRAPH_TABLE(...)`` statement."""
    statement = parse_statement(text)
    if not isinstance(statement, GraphTableQuery):
        line, column = statement.position or (1, 1)
        raise ParseError(
            "expected a SELECT ... FROM GRAPH_TABLE(...) statement, got DDL",
            line=line,
            column=column,
        )
    return statement


# --------------------------------------------------------------------------- #
# DDL
# --------------------------------------------------------------------------- #
def _parse_create_graph(stream: TokenStream) -> CreatePropertyGraph:
    create = stream.expect_keyword("CREATE")
    stream.expect_keyword("PROPERTY")
    stream.expect_keyword("GRAPH")
    name_token = stream.expect_identifier()
    name = name_token.value
    stream.expect_symbol("(")
    node_tables: List[NodeTableSpec] = []
    edge_tables: List[EdgeTableSpec] = []
    while True:
        if stream.accept("NODES", "VERTEX"):
            tables, parse_table = node_tables, _parse_node_table
        elif stream.accept("EDGES", "EDGE"):
            tables, parse_table = edge_tables, _parse_edge_table
        else:
            break
        stream.expect_keyword("TABLE", "TABLES")
        # More tables may follow, separated by commas, without repeating
        # the NODES / EDGES TABLE keyword.
        tables.extend(_comma_list(stream, parse_table))
        stream.accept(",")  # the one before the next table clause
        if stream.at(")"):
            break
    stream.expect_symbol(")")
    if not node_tables:
        raise ParseError(
            f"property graph {name!r} declares no node tables",
            line=name_token.line,
            column=name_token.column,
        )
    return CreatePropertyGraph(
        name,
        tuple(node_tables),
        tuple(edge_tables),
        position=(create.line, create.column),
    )


_CLAUSES = ("NODES", "VERTEX", "EDGES", "EDGE")


def _comma_list(stream: TokenStream, parse_item) -> list:
    """``item ("," item)*``.  A comma followed by a clause keyword
    (NODES / EDGES / ...) separates table clauses of the surrounding
    CREATE statement: it ends the list, unconsumed."""
    items = [parse_item(stream)]
    while stream.at(",") and not stream.peek(1).is_keyword(*_CLAUSES):
        stream.advance()
        items.append(parse_item(stream))
    return items


def _identifier(stream: TokenStream) -> str:
    return stream.expect_identifier().value


def _parse_name_list(stream: TokenStream) -> Tuple[str, ...]:
    return tuple(_comma_list(stream, _identifier))


def _parse_column_list(stream: TokenStream) -> Tuple[str, ...]:
    stream.expect_symbol("(")
    columns = _parse_name_list(stream)
    stream.expect_symbol(")")
    return columns


def _parse_optional_key_columns(stream: TokenStream) -> Tuple[str, ...]:
    if stream.at("("):
        return _parse_column_list(stream)
    return (stream.expect_identifier().value,)


def _parse_labels_and_properties(stream: TokenStream) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    labels: Tuple[str, ...] = ()
    properties: Tuple[str, ...] = ()
    while True:
        if stream.accept("LABEL", "LABELS"):
            labels = labels + _parse_name_list(stream)
        elif stream.accept("PROPERTIES"):
            properties = properties + _parse_column_list(stream)
        else:
            break
    return labels, properties


def _parse_node_table(stream: TokenStream) -> NodeTableSpec:
    table_token = stream.expect_identifier()
    stream.expect_keyword("KEY")
    key_columns = _parse_column_list(stream)
    labels, properties = _parse_labels_and_properties(stream)
    return NodeTableSpec(
        table_token.value, key_columns, labels, properties,
        position=(table_token.line, table_token.column),
    )


def _parse_edge_table(stream: TokenStream) -> EdgeTableSpec:
    table_token = stream.expect_identifier()
    stream.expect_keyword("KEY")
    key_columns = _parse_column_list(stream)
    stream.expect_keyword("SOURCE")
    stream.expect_keyword("KEY")
    source_columns = _parse_optional_key_columns(stream)
    stream.expect_keyword("REFERENCES")
    source_table = stream.expect_identifier().value
    stream.expect_keyword("TARGET")
    stream.expect_keyword("KEY")
    target_columns = _parse_optional_key_columns(stream)
    stream.expect_keyword("REFERENCES")
    target_table = stream.expect_identifier().value
    labels, properties = _parse_labels_and_properties(stream)
    return EdgeTableSpec(
        table_token.value, key_columns, source_columns, source_table,
        target_columns, target_table, labels, properties,
        position=(table_token.line, table_token.column),
    )


# --------------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------------- #
def _parse_query(stream: TokenStream) -> GraphTableQuery:
    select = stream.expect_keyword("SELECT")
    distinct = stream.accept("DISTINCT") is not None
    select_star = True
    select_items: Tuple[str, ...] = ()
    if not stream.accept("*"):
        # A projection list in the outer SELECT is recorded for the semantic
        # analyzer (which checks it against the COLUMNS clause) but does not
        # affect compilation: the inner COLUMNS clause fixes the output.
        select_star = False
        select_items = _parse_select_list(stream)
    stream.expect_keyword("FROM")
    stream.expect_keyword("GRAPH_TABLE")
    stream.expect_symbol("(")
    graph_token = stream.expect_identifier()
    stream.expect_keyword("MATCH")
    elements = _parse_path(stream)
    condition: Optional[ConditionExpr] = None
    if stream.accept("WHERE"):
        condition = _parse_condition(stream)
    stream.expect_keyword("COLUMNS", "RETURN")
    stream.expect_symbol("(")
    columns = _parse_output_columns(stream)
    stream.expect_symbol(")")
    stream.expect_symbol(")")
    return GraphTableQuery(
        graph_token.value,
        tuple(elements),
        condition,
        tuple(columns),
        distinct,
        select_items=select_items,
        select_star=select_star,
        position=(select.line, select.column),
    )


def _parse_select_list(stream: TokenStream) -> Tuple[str, ...]:
    """The outer SELECT projection: ``name`` or ``var.key``, no aliases."""
    return tuple(_comma_list(stream, _parse_select_item))


def _parse_select_item(stream: TokenStream) -> str:
    name = stream.expect_identifier().value
    if stream.accept("."):
        name = f"{name}.{stream.expect_identifier().value}"
    return name


def _parse_path(stream: TokenStream) -> List[PathElement]:
    elements: List[PathElement] = [_parse_node_element(stream)]
    while stream.at("-", "-[", "<-", "->"):
        elements.append(_parse_edge_element(stream))
        elements.append(_parse_node_element(stream))
    return elements


def _parse_node_element(stream: TokenStream) -> NodeElement:
    opening = stream.expect_symbol("(")
    variable, labels = _parse_element_body(stream)
    stream.expect_symbol(")")
    return NodeElement(variable, labels, position=(opening.line, opening.column))


def _parse_quantifier(stream: TokenStream) -> Optional[Quantifier]:
    if stream.accept("*"):
        return Quantifier(0, None)
    if stream.accept("+"):
        return Quantifier(1, None)
    if stream.accept("{"):
        lower = _quantifier_bound(stream)
        upper: Optional[int] = lower
        if stream.accept(","):
            upper = _quantifier_bound(stream) if stream.peek().kind == "NUMBER" else None
        stream.expect_symbol("}")
        return Quantifier(lower, upper)
    return None


def _quantifier_bound(stream: TokenStream) -> int:
    token = stream.peek()
    if token.kind != "NUMBER" or not token.value.isdigit():
        raise stream.error("expected an integer quantifier bound")
    stream.advance()
    return int(token.value)


def _parse_element_body(stream: TokenStream) -> Tuple[Optional[str], Tuple[str, ...]]:
    """``[var] (":" label)*``: the inside of ``(x:Account)`` / ``[t:Label]``."""
    variable = stream.advance().value if stream.peek().kind == "IDENT" else None
    labels: List[str] = []
    while stream.accept(":"):
        labels.append(_identifier(stream))
    return variable, tuple(labels)


def _parse_edge_element(stream: TokenStream) -> EdgeElement:
    start = stream.peek()
    position = (start.line, start.column)
    # Backward edge: <-[t]- or <- ...
    if stream.accept("<-"):
        variable: Optional[str] = None
        labels: Tuple[str, ...] = ()
        if stream.accept("["):
            variable, labels = _parse_element_body(stream)
            if not stream.accept("]-"):
                stream.expect_symbol("]")
                stream.expect_symbol("-")
        else:
            stream.accept("-")
        quantifier = _parse_quantifier(stream)
        return EdgeElement(
            variable, labels, forward=False, quantifier=quantifier, position=position
        )
    # Forward edge: -[t]-> , -> , or - [t] - > spelled with separate symbols.
    if stream.accept("->"):
        quantifier = _parse_quantifier(stream)
        return EdgeElement(None, (), forward=True, quantifier=quantifier, position=position)
    stream.expect_symbol("-", "-[")
    variable = None
    labels = ()
    if stream.at("["):
        stream.advance()
        variable, labels = _parse_element_body(stream)
        stream.expect_symbol("]")
    elif not stream.at("-", "->", ">"):
        variable, labels = _parse_element_body(stream)
    # Closing arrow: "->", or "-" then ">", or "]-" then ">".
    if not stream.accept("->"):
        stream.expect_symbol("-", "]-")
        stream.expect_symbol(">")
    quantifier = _parse_quantifier(stream)
    return EdgeElement(
        variable, labels, forward=True, quantifier=quantifier, position=position
    )


def _parse_output_columns(stream: TokenStream) -> List[OutputColumn]:
    columns = [_parse_output_column(stream)]
    while stream.accept(","):
        columns.append(_parse_output_column(stream))
    return columns


def _parse_output_column(stream: TokenStream) -> OutputColumn:
    variable_token = stream.expect_identifier()
    key: Optional[str] = None
    alias: Optional[str] = None
    if stream.accept("."):
        key = stream.expect_identifier().value
    if stream.accept("AS"):
        alias = stream.expect_identifier().value
    return OutputColumn(
        variable_token.value, key, alias,
        position=(variable_token.line, variable_token.column),
    )


# --------------------------------------------------------------------------- #
# Conditions
# --------------------------------------------------------------------------- #
def _parse_condition(stream: TokenStream) -> ConditionExpr:
    return _parse_chain(stream, "OR", _parse_and)


def _parse_and(stream: TokenStream) -> ConditionExpr:
    return _parse_chain(stream, "AND", _parse_not)


def _parse_chain(stream: TokenStream, operator: str, parse_operand) -> ConditionExpr:
    operands = [parse_operand(stream)]
    while stream.accept(operator):
        operands.append(parse_operand(stream))
    if len(operands) == 1:
        return operands[0]
    return BooleanExpression(operator, tuple(operands))


def _parse_not(stream: TokenStream) -> ConditionExpr:
    if stream.accept("NOT"):
        return BooleanExpression("NOT", (_parse_not(stream),))
    if stream.accept("("):
        inner = _parse_condition(stream)
        stream.expect_symbol(")")
        return inner
    return _parse_comparison(stream)


def _number(text: str) -> object:
    return int(text) if text.isdigit() else float(text)


def _parse_operand(stream: TokenStream) -> Operand:
    token = stream.peek()
    position = (token.line, token.column)
    if token.kind == "NUMBER":
        stream.advance()
        return LiteralOperand(_number(token.value), position=position)
    if stream.at("-") and stream.peek(1).kind == "NUMBER":
        # The sign is the parser's, not the lexer's: "-" also opens "-[".
        stream.advance()
        return LiteralOperand(-_number(stream.advance().value), position=position)
    if token.kind == "STRING":
        stream.advance()
        return LiteralOperand(token.value, position=position)
    if stream.at(":"):
        # A parameter placeholder ``:name`` stands wherever a literal may.
        stream.advance()
        return ParameterOperand(stream.expect_identifier().value, position=position)
    variable = stream.expect_identifier().value
    stream.expect_symbol(".")
    key = stream.expect_identifier().value
    return PropertyOperand(variable, key, position=position)


def _parse_comparison(stream: TokenStream) -> ConditionExpr:
    start = stream.peek()
    left = _parse_operand(stream)
    token = stream.accept("=", "<", ">", "<=", ">=", "<>", "!=")
    if token is None:
        raise stream.error("expected a comparison operator")
    operator = token.value
    # Allow ">=" / "<=" spelled as two tokens.
    if operator in ("<", ">") and stream.accept("="):
        operator += "="
    if operator == "<>":
        operator = "!="
    right = _parse_operand(stream)
    return Comparison(left, operator, right, position=(start.line, start.column))
