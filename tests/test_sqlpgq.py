"""Tests for the SQL/PGQ surface syntax: lexer, parser, catalog, compiler."""

import pytest

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
from repro.sqlpgq.ast import Comparison, EdgeElement, NodeElement, PropertyOperand

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
