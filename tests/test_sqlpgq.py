"""Tests for the SQL/PGQ surface syntax: lexer, parser, catalog, compiler."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ParseError, QueryError, SchemaError
from repro.relational import Schema
from repro.sqlpgq import (
    CreatePropertyGraph,
    GraphCatalog,
    GraphTableQuery,
    compile_graph_definition,
    parse_create_property_graph,
    parse_graph_query,
    parse_statement,
    tokenize,
)
from repro.sqlpgq.ast import Comparison, EdgeElement, NodeElement

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY ( iban ) LABEL Account,
  EDGES TABLE Transfer KEY ( t_id )
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES ( ts , amount ) );
"""

QUERY = """
SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x:Account) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  COLUMNS (x.iban, y.iban AS target) );
"""

SCHEMA = Schema.from_columns(
    {
        "Account": ["iban"],
        "Transfer": ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
    }
)


# --------------------------------------------------------------------------- #
# Lexer
# --------------------------------------------------------------------------- #
class TestLexer:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert all(token.is_keyword("SELECT") for token in tokens[:3])

    def test_strings_numbers_and_symbols(self):
        tokens = tokenize("WHERE t.amount >= 100 AND x.name = 'Ada'")
        kinds = [token.kind for token in tokens]
        assert "STRING" in kinds and "NUMBER" in kinds

    def test_arrow_symbols(self):
        tokens = tokenize("-[t]-> <-[s]-")
        values = [token.value for token in tokens if token.kind == "SYMBOL"]
        assert "-[" in values and "]-" in values and "<-" in values

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT -- a comment\n *")
        assert tokens[0].is_keyword("SELECT") and tokens[1].is_symbol("*")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("WHERE x.name = 'oops")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @")

    def test_positions_recorded(self):
        tokens = tokenize("SELECT\n  *")
        assert tokens[1].line == 2

    def test_a_string_spanning_lines_moves_the_line_count(self):
        tokens = tokenize("x = 'a\nb' AND\n  y")
        assert [(t.kind, t.line, t.column) for t in tokens[3:]] == [
            ("KEYWORD", 2, 4), ("IDENT", 3, 3), ("EOF", 3, 4)
        ]

    def test_eof_sits_at_a_trailing_comment(self):
        # The end-of-input position names where the comment starts.
        assert tokenize("SELECT * -- tail")[-1][2:] == (1, 10)

    @pytest.mark.parametrize(
        "text, column",
        [("1.2.3", 3), ("1..", 3), ("1.", 3), ("\u00b2", 3), ("\u0661\u0662", 3), ("7\u00b2", 4)],
        ids=repr,
    )
    def test_malformed_numbers_raise_with_their_position(self, text, column):
        with pytest.raises(ParseError, match="malformed number") as info:
            tokenize(f"> {text}")
        assert (info.value.line, info.value.column) == (1, column)


#: Every lexical building block: ASCII and non-ASCII letters and digits,
#: every symbol, both quote kinds, comments, and each kind of line space.
_PIECES = st.sampled_from(
    list("aZ_9") + ["select", "Match", "\u00e9", "\u017fELECT", "\u0661", "\u00b2", "\u00bd"]
    + list("()[]{},.;:*+=<>-/!") + ["<>", "!=", ">=", "<=", "->", "<-", "]-", "-["]
    + ["'", '"', "'x y'", "--", "-- note\n", " ", "\t", "\r", "\n", "1.5", "12", "e3", "E"]
)
#: What may separate two tokens: whitespace and ``--`` comments.
_GAP = re.compile(r"(?:\s|--[^\n]*)*")
#: Whitespace and comments outside string literals (group 1: a literal,
#: or an arrow whose "-" cannot open a comment).
_SKIPPED = re.compile(r"('[^']*(?:''[^']*)*'|\"[^\"]*\"|<-|\]-)|\s+|--[^\n]*")


def _offset(text: str, line: int, column: int) -> int:
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    return starts[line - 1] + column - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=24).map("".join))
@example("SELECT -- c\n x.\u00e9 >= 1.5 'a\nb' \"q\"")
def test_every_token_is_found_at_its_position(text):
    """``tokenize`` either raises a ParseError positioned inside the text
    or returns tokens that each sit at their (line, column), separated by
    nothing but whitespace and comments."""
    try:
        tokens = tokenize(text)
    except ParseError as error:
        lines = text.split("\n")
        assert 1 <= error.line <= len(lines)
        assert 1 <= error.column <= len(lines[error.line - 1])
        return
    assert tokens[-1].kind == "EOF"
    texts, end = [], 0
    for token in tokens[:-1]:
        start = _offset(text, token.line, token.column)
        source = token.value
        if token.kind == "STRING":
            quote = text[start]
            body = token.value.replace("'", "''") if quote == "'" else token.value
            source = quote + body + quote
        assert text.startswith(source, start)
        assert _GAP.fullmatch(text[end:start])
        texts.append(source)
        end = start + len(source)
    assert _GAP.fullmatch(text[end:])
    # The token texts are the input with its whitespace and comments cut out.
    assert "".join(texts) == _SKIPPED.sub(lambda m: m.group(1) or "", text)


# --------------------------------------------------------------------------- #
# Parser: DDL
# --------------------------------------------------------------------------- #
class TestParseDDL:
    def test_paper_example_1_1(self):
        statement = parse_create_property_graph(DDL)
        assert statement.name == "Transfers"
        assert statement.node_tables[0].table == "Account"
        assert statement.node_tables[0].key_columns == ("iban",)
        assert statement.node_tables[0].labels == ("Account",)
        edge = statement.edge_tables[0]
        assert edge.source_columns == ("src_iban",) and edge.source_table == "Account"
        assert edge.target_columns == ("tgt_iban",) and edge.target_table == "Account"
        assert edge.properties == ("ts", "amount")

    def test_multiple_tables_and_composite_keys(self):
        text = """
        CREATE PROPERTY GRAPH Social (
          VERTEX TABLES Person KEY (person_id) LABEL Person PROPERTIES (name, city),
                        Post KEY (post_id) LABEL Post,
          EDGE TABLES Knows KEY (knows_id)
            SOURCE KEY src_id REFERENCES Person
            TARGET KEY tgt_id REFERENCES Person
            LABEL Knows )
        """
        statement = parse_create_property_graph(text)
        assert len(statement.node_tables) == 2
        assert statement.node_tables[1].table == "Post"

    def test_missing_node_tables_rejected(self):
        with pytest.raises(ParseError):
            parse_create_property_graph(
                "CREATE PROPERTY GRAPH G ( EDGES TABLE T KEY (a) "
                "SOURCE KEY b REFERENCES N TARGET KEY c REFERENCES N )"
            )

    def test_wrong_statement_kind(self):
        with pytest.raises(ParseError):
            parse_create_property_graph("SELECT * FROM GRAPH_TABLE ( G MATCH (x) COLUMNS (x.a) )")


# --------------------------------------------------------------------------- #
# Parser: queries
# --------------------------------------------------------------------------- #
class TestParseQuery:
    def test_paper_example_2_1(self):
        statement = parse_graph_query(QUERY)
        assert statement.graph_name == "Transfers"
        assert isinstance(statement.elements[0], NodeElement)
        assert statement.elements[0].labels == ("Account",)
        edge = statement.elements[1]
        assert isinstance(edge, EdgeElement) and edge.variable == "t"
        assert edge.quantifier.lower == 1 and edge.quantifier.upper is None
        assert isinstance(statement.condition, Comparison)
        assert statement.columns[1].alias == "target"

    def test_backward_edge_and_bounded_quantifier(self):
        statement = parse_graph_query(
            "SELECT * FROM GRAPH_TABLE ( G MATCH (a) <-[e:Rel]-{2,4} (b) COLUMNS (a.k) )"
        )
        edge = statement.elements[1]
        assert not edge.forward
        assert edge.quantifier.lower == 2 and edge.quantifier.upper == 4

    def test_anonymous_edge_and_star(self):
        statement = parse_graph_query(
            "SELECT * FROM GRAPH_TABLE ( G MATCH (a) ->* (b) COLUMNS (a.k, b.k) )"
        )
        edge = statement.elements[1]
        assert edge.variable is None and edge.quantifier.lower == 0

    def test_where_boolean_combination(self):
        statement = parse_graph_query(
            "SELECT * FROM GRAPH_TABLE ( G MATCH (a) -[e]-> (b) "
            "WHERE a.k = b.k AND NOT e.w < 3 COLUMNS (a.k) )"
        )
        assert statement.condition.operator == "AND"

    def test_return_keyword_accepted(self):
        statement = parse_graph_query(
            "SELECT * FROM GRAPH_TABLE ( G MATCH (x) -[t]-> (y) RETURN (x.iban, y.iban) )"
        )
        assert isinstance(statement, GraphTableQuery)

    def test_parse_statement_dispatch(self):
        assert isinstance(parse_statement(DDL), CreatePropertyGraph)
        assert isinstance(parse_statement(QUERY), GraphTableQuery)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement(QUERY.strip().rstrip(";") + ") extra")

    @pytest.mark.parametrize(
        "literal", ["1.2.3", "1..", "\u00b2", "\u0661\u0662"], ids=repr
    )
    def test_malformed_number_literals_are_parse_errors(self, literal):
        # They used to escape as a ValueError from float() / int().
        text = QUERY.replace("100", literal)
        with pytest.raises(ParseError, match="malformed number") as info:
            parse_statement(text)
        line = text.split("\n")[3]
        assert (info.value.line, info.value.column) == (4, line.index(literal) + 1)

    @pytest.mark.parametrize(
        "quantifier, bad", [("{1.5,2}", "1.5"), ("{1,2.0}", "2.0"), ("{,2}", ",")], ids=repr
    )
    def test_quantifier_bounds_must_be_integers(self, quantifier, bad):
        text = QUERY.replace("->+", "->" + quantifier)
        with pytest.raises(ParseError, match="integer quantifier bound") as info:
            parse_statement(text)
        line = text.split("\n")[2]
        assert (info.value.line, info.value.column) == (3, line.index(bad) + 1)


# --------------------------------------------------------------------------- #
# Catalog lowering
# --------------------------------------------------------------------------- #
class TestCatalog:
    def test_definition_identifier_arity(self):
        definition = compile_graph_definition(parse_create_property_graph(DDL), SCHEMA)
        assert definition.identifier_arity == 1
        assert len(definition.view_subqueries()) == 6

    def test_catalog_register_and_lookup(self):
        catalog = GraphCatalog(SCHEMA)
        catalog.register(parse_create_property_graph(DDL))
        assert "Transfers" in catalog
        assert catalog.names() == ("Transfers",)
        with pytest.raises(QueryError):
            catalog.get("Missing")

    def test_unknown_column_rejected(self):
        bad = DDL.replace("src_iban", "no_such_column")
        with pytest.raises(SchemaError):
            compile_graph_definition(parse_create_property_graph(bad), SCHEMA)

    def test_mixed_key_arities_rejected(self):
        text = """
        CREATE PROPERTY GRAPH G (
          NODES TABLE Account KEY (iban),
          EDGES TABLE Transfer KEY (t_id, ts)
            SOURCE KEY src_iban REFERENCES Account
            TARGET KEY tgt_iban REFERENCES Account )
        """
        with pytest.raises(SchemaError):
            compile_graph_definition(parse_create_property_graph(text), SCHEMA)


# --------------------------------------------------------------------------- #
# Deterministic compilation (plan-cache friendliness)
# --------------------------------------------------------------------------- #
class TestDeterministicCompilation:
    def _catalog(self):
        catalog = GraphCatalog(SCHEMA)
        catalog.register(parse_create_property_graph(DDL))
        return catalog

    def test_recompiling_the_same_statement_yields_equal_queries(self):
        # Anonymous pattern elements get deterministic per-query names, so
        # re-parsed statements hash to the same plan-cache key.  A
        # process-global gensym here made every parse a cache miss.
        from repro.sqlpgq.compiler import compile_query

        catalog = self._catalog()
        first = compile_query(parse_graph_query(QUERY), catalog)
        second = compile_query(parse_graph_query(QUERY), catalog)
        assert first == second
        assert hash(first) == hash(second)

    def test_anonymous_names_cannot_collide_with_user_variables(self):
        # SQL identifiers cannot start with a digit; anonymous names do.
        from repro.sqlpgq.compiler import compile_query

        query = parse_graph_query(
            "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[]-> () "
            "COLUMNS (x.iban) )"
        )
        compiled = compile_query(query, self._catalog())
        anonymous = compiled.output.pattern.free_variables() - {"x"}
        assert anonymous and all(name[0].isdigit() for name in anonymous)

    def test_repeated_sql_text_hits_the_plan_cache(self):
        from repro.engine import Database

        db = Database()
        db.create_table("Account", ["iban"], [("A1",), ("A2",)])
        db.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [("T1", "A1", "A2", 1, 250)],
        )
        db.execute(DDL.strip().rstrip(";"))
        session = db.connect(engine="planned")
        statement = QUERY.strip().rstrip(";")
        first = session.execute(statement)
        second = session.execute(statement)
        assert first.equals_unordered(second)
        info = session._get_engine().plan_cache.info()
        assert info["hits"] >= 1 and info["size"] == 1
