"""The static-analysis subsystem: semantic analyzer and plan verifier.

Covers the analyzer's seven error classes (A001..A007) with position
diagnostics on all three engines, the golden rendering of each class,
``:name`` parameter type inference surfaced through PreparedStatement and
EXPLAIN, the DDL analysis path (``AnalysisSchemaError`` keeps the
``SchemaError`` contract), the ``analyze=False`` opt-out, the analysis
memo, and the plan-invariant verifier — including that a deliberately
broken optimizer rule *is* caught.
"""

import os

import pytest

from repro.analysis import analyze_query, verification_enabled
from repro.analysis.diagnostics import (
    ERROR_CODES,
    WARNING_CODES,
    Diagnostic,
    default_severity,
)
from repro.engine.database import Database
from repro.errors import (
    AnalysisError,
    AnalysisSchemaError,
    PlanVerificationError,
    QueryError,
    SchemaError,
)
from repro.sqlpgq import source_excerpt
from repro.sqlpgq.parser import parse_statement

ENGINES = ["naive", "planned", "sqlite"]

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

CHAIN_QUERY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > :minimum
  COLUMNS (x.iban, y.iban) )"""

#: One statement per analyzer error class, each rejected with exactly
#: that code.  The texts are multi-line so position assertions bite.
BAD_QUERIES = {
    "A001": (
        "SELECT * FROM GRAPH_TABLE ( Nope\n"
        "  MATCH (x) -[t:Transfer]-> (y)\n"
        "  COLUMNS (x.iban) )"
    ),
    "A002": (
        "SELECT * FROM GRAPH_TABLE ( Transfers\n"
        "  MATCH (x:Nosuch) -[t:Transfer]-> (y)\n"
        "  COLUMNS (x.iban) )"
    ),
    "A003": (
        "SELECT * FROM GRAPH_TABLE ( Transfers\n"
        "  MATCH (x) -[t:Transfer]-> (y)\n"
        "  WHERE t.weight > 10\n"
        "  COLUMNS (x.iban) )"
    ),
    "A004": (
        "SELECT * FROM GRAPH_TABLE ( Transfers\n"
        "  MATCH (x) -[t:Transfer]-> (y)\n"
        "  COLUMNS (z.iban) )"
    ),
    "A005": (
        "SELECT nope FROM GRAPH_TABLE ( Transfers\n"
        "  MATCH (x) -[t:Transfer]-> (y)\n"
        "  COLUMNS (x.iban) )"
    ),
    "A006": (
        "SELECT * FROM GRAPH_TABLE ( Transfers\n"
        "  MATCH (x) -[t:Transfer]-> (y)\n"
        "  WHERE t.amount > :p AND x.iban = :p\n"
        "  COLUMNS (x.iban) )"
    ),
    "A007": (
        "SELECT * FROM GRAPH_TABLE ( Transfers\n"
        "  MATCH (x) -[t:Transfer]-> (y)\n"
        "  WHERE t.amount = 1 AND t.amount = 2\n"
        "  COLUMNS (x.iban) )"
    ),
}

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analysis_diagnostics.txt")


def make_db() -> Database:
    db = Database()
    db.create_table("Account", ["iban"], [("A0",), ("A1",)])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [("T0", "A0", "A1", 1, 100), ("T1", "A1", "A0", 2, 250)],
    )
    db.execute(DDL)
    return db


# --------------------------------------------------------------------------- #
# Error classes, on every engine
# --------------------------------------------------------------------------- #
class TestAnalyzerRejections:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("code", sorted(BAD_QUERIES))
    def test_error_class_rejected_with_position(self, engine, code):
        with make_db() as db:
            connection = db.connect(engine=engine)
            with pytest.raises(AnalysisError) as info:
                connection.execute(BAD_QUERIES[code])
        codes = {diagnostic.code for diagnostic in info.value.diagnostics}
        assert codes == {code}
        for diagnostic in info.value.diagnostics:
            assert diagnostic.span is not None
            line, column = diagnostic.span
            assert line >= 1 and column >= 1
            # The span must point inside the statement text.
            assert source_excerpt(BAD_QUERIES[code], line, column) is not None

    def test_rejection_happens_at_prepare_time(self):
        # The analyzer runs at compile time: ``prepare`` alone (no data
        # touched, nothing executed) already rejects.
        with make_db() as db:
            with pytest.raises(AnalysisError, match="A003"):
                db.connect(engine="planned").prepare(BAD_QUERIES["A003"])

    def test_all_diagnostics_are_collected_not_just_the_first(self):
        text = (
            "SELECT * FROM GRAPH_TABLE ( Transfers\n"
            "  MATCH (x:Nosuch) -[t:Transfer]-> (y)\n"
            "  WHERE t.weight > 10\n"
            "  COLUMNS (z.iban) )"
        )
        with make_db() as db:
            with pytest.raises(AnalysisError) as info:
                db.connect(engine="planned").execute(text)
        codes = [diagnostic.code for diagnostic in info.value.diagnostics]
        assert set(codes) == {"A002", "A003", "A004"}

    def test_hints_name_the_known_alternatives(self):
        with make_db() as db:
            with pytest.raises(AnalysisError) as info:
                db.connect(engine="planned").execute(BAD_QUERIES["A001"])
        (diagnostic,) = info.value.diagnostics
        assert "Transfers" in (diagnostic.hint or "")

    def test_diagnostics_match_golden_file(self):
        lines = []
        with make_db() as db:
            connection = db.connect(engine="planned")
            for code in sorted(BAD_QUERIES):
                text = BAD_QUERIES[code]
                lines.append(f"== {code}: {text.splitlines()[0]} ... ==")
                with pytest.raises(AnalysisError) as info:
                    connection.execute(text)
                lines.extend(d.render() for d in info.value.diagnostics)
                lines.append("")
        with open(GOLDEN) as handle:
            assert "\n".join(lines) == handle.read()

    def test_diagnostic_codes_are_a_closed_set(self):
        # A001..A007 are error-severity rejections, exercised above one
        # statement each; A008+ are the warning-severity dataflow codes
        # (tests/test_dataflow.py covers one trigger per code).
        errors = sorted(set(ERROR_CODES) - WARNING_CODES)
        assert errors == sorted(BAD_QUERIES)
        assert all(code in ERROR_CODES for code in WARNING_CODES)
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic("A999", "nope")
        with pytest.raises(ValueError, match="unknown diagnostic severity"):
            Diagnostic("A001", "nope", severity="fatal")

    def test_default_severities(self):
        assert default_severity("A001") == "error"
        assert default_severity("A008") == "warning"
        assert Diagnostic("A008", "w").severity == "warning"
        assert Diagnostic("A008", "w").render().startswith("warning A008")


# --------------------------------------------------------------------------- #
# Parameter type inference
# --------------------------------------------------------------------------- #
class TestParameterTypes:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_prepared_statement_exposes_inferred_types(self, engine):
        with make_db() as db:
            statement = db.connect(engine=engine).prepare(CHAIN_QUERY)
            statement.execute(minimum=0)
            assert statement.parameter_types == {"minimum": "number"}

    def test_explain_carries_inference_notes(self):
        with make_db() as db:
            explain = db.connect(engine="planned").explain(CHAIN_QUERY)
        assert "parameter :minimum inferred number" in explain.diagnostics
        assert "parameter :minimum inferred number" in str(explain)

    def test_string_property_infers_string(self):
        text = """SELECT * FROM GRAPH_TABLE ( Transfers
          MATCH (x) -[t:Transfer]-> (y) WHERE x.iban = :who
          COLUMNS (y.iban) )"""
        with make_db() as db:
            statement = db.connect(engine="planned").prepare(text)
            statement.execute(who="A0")
            assert statement.parameter_types == {"who": "string"}


class TestConstantComparisons:
    """A ``WHERE`` comparing two literals is decided by the analyzer
    (``semantic._statically_false``) before any engine reads a row."""

    TEXT = (
        "SELECT * FROM GRAPH_TABLE ( Transfers\n"
        "  MATCH (x) -[t:Transfer]-> (y)\n"
        "  WHERE {}\n"
        "  COLUMNS (x.iban) )"
    )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "condition",
        ["1 = 2", "'a' != 'a'", "2 < 1", "2 <= 1", "1 > 2", "1 >= 2", "1 < 'a'"],
    )
    def test_a_false_comparison_is_statically_empty_on_every_engine(self, engine, condition):
        # ``1 < 'a'`` raises TypeError, and mixed types never order at run time.
        with make_db() as db:
            with pytest.raises(AnalysisError) as info:
                db.connect(engine=engine).execute(self.TEXT.format(condition))
        (diagnostic,) = info.value.diagnostics
        assert diagnostic.code == "A007"
        assert diagnostic.message == f"comparison {condition} is never satisfied"

    @pytest.mark.parametrize("condition", ["1 = 1", "'a' != 'b'", "1 < 2", "2 <= 2", "2 > 1"])
    def test_a_true_comparison_is_not_flagged(self, condition):
        # Not flagged, and still not run: the compiler takes no literal pair.
        text = self.TEXT.format(condition)
        with make_db() as db:
            analysis = analyze_query(parse_statement(text), db.snapshot().catalog)
            assert analysis.ok and not analysis.diagnostics
            for engine in ENGINES:
                with pytest.raises(QueryError, match="between two literals"):
                    db.connect(engine=engine).execute(text)


# --------------------------------------------------------------------------- #
# Opt-out and memoization
# --------------------------------------------------------------------------- #
class TestAnalyzerWiring:
    def test_analyze_false_opts_out(self):
        # The A007 contradiction compiles and runs fine (empty result);
        # only the analyzer objects to it.
        with make_db() as db:
            with pytest.raises(AnalysisError):
                db.connect(engine="planned").execute(BAD_QUERIES["A007"])
            relaxed = db.connect(engine="planned", analyze=False)
            assert relaxed.execute(BAD_QUERIES["A007"]).rows == ()

    def test_successful_analyses_are_memoized_structurally(self):
        # Re-parsing the same text yields a new AST object; the memo keys
        # on structural equality, so the same QueryAnalysis comes back.
        with make_db() as db:
            catalog = db.snapshot().catalog
            first = analyze_query(parse_statement(CHAIN_QUERY), catalog)
            second = analyze_query(parse_statement(CHAIN_QUERY), catalog)
            assert first.ok and first is second

    def test_failed_analyses_are_not_memoized(self):
        with make_db() as db:
            catalog = db.snapshot().catalog
            first = analyze_query(parse_statement(BAD_QUERIES["A004"]), catalog)
            second = analyze_query(parse_statement(BAD_QUERIES["A004"]), catalog)
            assert not first.ok and first is not second


# --------------------------------------------------------------------------- #
# DDL analysis
# --------------------------------------------------------------------------- #
class TestDDLAnalysis:
    BROKEN_DDL = """
    CREATE PROPERTY GRAPH Broken (
      NODES TABLE Missing KEY (id) LABEL M )
    """

    def test_unknown_source_table_rejected_with_diagnostics(self):
        with make_db() as db:
            with pytest.raises(AnalysisSchemaError) as info:
                db.execute(self.BROKEN_DDL)
        codes = {diagnostic.code for diagnostic in info.value.diagnostics}
        assert codes == {"A001"}

    def test_schema_error_contract_is_preserved(self):
        # Callers catching the historical SchemaError keep working.
        with make_db() as db:
            with pytest.raises(SchemaError):
                db.execute(self.BROKEN_DDL)
            assert "Broken" not in db.graph_names()


# --------------------------------------------------------------------------- #
# Plan-invariant verifier
# --------------------------------------------------------------------------- #
def _strip_filters(plan):
    """A deliberately broken 'pushdown' that silently drops every filter."""
    from repro.planner import logical as L

    if isinstance(plan, L.FilterStep):
        return _strip_filters(plan.operand)
    if isinstance(plan, (L.JoinStep, L.UnionStep)):
        return type(plan)(_strip_filters(plan.left), _strip_filters(plan.right))
    if isinstance(plan, L.BindEndpoint):
        return L.BindEndpoint(_strip_filters(plan.operand), plan.variable, plan.use_source)
    if isinstance(plan, L.FixpointStep):
        return L.FixpointStep(_strip_filters(plan.body), plan.lower, plan.upper)
    return plan


class TestPlanVerifier:
    def test_database_flag_verifies_and_results_are_unchanged(self):
        with make_db() as plain_db, Database(verify_plans=True) as verified_db:
            verified_db.create_table("Account", ["iban"], [("A0",), ("A1",)])
            verified_db.create_table(
                "Transfer",
                ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
                [("T0", "A0", "A1", 1, 100), ("T1", "A1", "A0", 2, 250)],
            )
            verified_db.execute(DDL)
            expected = plain_db.connect(engine="planned").execute(
                CHAIN_QUERY, params={"minimum": 0}
            )
            verified = verified_db.connect(engine="planned").execute(
                CHAIN_QUERY, params={"minimum": 0}
            )
            assert sorted(verified.rows) == sorted(expected.rows)

    def test_env_var_toggles_verification(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        assert verification_enabled() is True
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        assert verification_enabled() is False
        monkeypatch.delenv("REPRO_VERIFY_PLANS")
        assert verification_enabled() is False
        # An explicit flag always wins over the environment.
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        assert verification_enabled(False) is False

    def test_broken_optimizer_rule_is_caught(self, monkeypatch):
        import repro.planner.rules as rules

        monkeypatch.setattr(rules, "push_down_filters", _strip_filters)
        with make_db() as db:
            connection = db.connect(engine="planned", verify_plans=True)
            with pytest.raises(PlanVerificationError) as info:
                connection.execute(CHAIN_QUERY, params={"minimum": 0})
        assert info.value.rule == "push_down_filters"

    def test_broken_rule_passes_silently_without_verification(self, monkeypatch):
        # The control for the test above: without the verifier the broken
        # rewrite produces a silently wrong (unfiltered) result.
        import repro.planner.rules as rules

        monkeypatch.setattr(rules, "push_down_filters", _strip_filters)
        with make_db() as db:
            connection = db.connect(engine="planned", verify_plans=False)
            rows = connection.execute(CHAIN_QUERY, params={"minimum": 10_000}).rows
        assert rows  # the dropped filter would have removed every row
