"""The one statement pipeline: entry-point parity, stage counts, closed handles.

Every entry point — ``prepare``, ``execute``, ``compile``, ``explain``,
``PreparedStatement.explain``, ``explain_analyze`` and the service's
``dry_run`` — consumes the front-half record built by
``Connection.front_half``.  These tests pin the consequences: the same
verdicts and the same errors whichever door a statement comes through,
each front-half stage run once per text, and one closed-connection rule.
"""

import json

import pytest

import repro.engine.connection as connection_module
import repro.analysis.semantic as semantic_module
import repro.engine.database as database_module
import repro.pgq.queries as queries_module
import repro.sqlpgq.lexer as lexer_module
from repro.engine import Database, FrontHalf
from repro.errors import AnalysisError, ConnectionClosedError, EngineError
from repro.pgq.queries import Product, Project, Union
from repro.service.app import QueryService

ENGINES = ("naive", "planned", "sqlite")

DDL = """
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount))
"""

CLEAN = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 50
  COLUMNS (x.iban, y.iban) )"""

PARAMETERIZED = CLEAN.replace("> 50", "> :minimum")

STATICALLY_EMPTY = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]-> (y) WHERE t.amount > 100 AND t.amount < 50
  COLUMNS (x.iban, y.iban) )"""

UNBOUND_COLUMN = """SELECT * FROM GRAPH_TABLE ( Transfers
  MATCH (x) -[t:Transfer]-> (y) COLUMNS (z.iban) )"""

UNKNOWN_GRAPH = "SELECT * FROM GRAPH_TABLE ( Nope MATCH (x) COLUMNS (x.iban) )"


def make_db() -> Database:
    db = Database()
    db.create_table("Account", ["iban"], [("A0",), ("A1",), ("A2",)])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [("T0", "A0", "A1", 1, 100), ("T1", "A1", "A2", 2, 250), ("T2", "A2", "A0", 3, 40)],
    )
    db.execute(DDL)
    return db


# --------------------------------------------------------------------------- #
# (a) Entry-point parity
# --------------------------------------------------------------------------- #
def _verdict(front_or_prepared, diagnostics):
    return (
        [diagnostic.code for diagnostic in diagnostics],
        tuple(front_or_prepared.result_schema),
        dict(front_or_prepared.parameter_types),
    )


def _entry_point_verdicts(connection, service, text, params):
    """``name -> (diagnostic codes, result schema, parameter types)`` as
    each entry point reports them."""
    verdicts = {}
    prepared = connection.prepare(text)
    verdicts["prepare"] = _verdict(prepared, prepared.analysis_diagnostics)
    prepared.close()
    connection.execute(text, params)
    owned = connection._statements[text].prepared
    verdicts["execute"] = _verdict(owned, owned.analysis_diagnostics)
    front = connection.front_half(text)
    assert connection.compile(text) is front.query
    verdicts["compile"] = _verdict(front, front.diagnostics)
    for name, explain in (
        ("explain", connection.explain(text)),
        ("explain_analyze", connection.explain_analyze(text, params)),
    ):
        types = {
            note.split()[1].lstrip(":"): note.split()[-1] for note in explain.diagnostics
        }
        verdicts[name] = ([d.code for d in explain.analysis], explain.schema, types)
    status, _, body = service.handle(
        "POST", "/query", json.dumps({"statement": text, "dry_run": True}).encode()
    )
    assert status == 200
    payload = json.loads(body)
    verdicts["dry_run"] = (
        [d["code"] for d in payload["diagnostics"]],
        tuple(tuple(entry) for entry in payload["schema"]),
        payload["parameters"],
    )
    return verdicts


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "text, params, codes, parameter_types",
    [
        (CLEAN, None, [], {}),
        (PARAMETERIZED, {"minimum": 50}, [], {"minimum": "number"}),
        (STATICALLY_EMPTY, None, ["A009", "A008"], {}),
    ],
)
def test_entry_points_report_the_same_verdicts(engine, text, params, codes, parameter_types):
    with make_db() as db, QueryService(db, engine=engine, pool_size=1) as service:
        connection = db.connect(engine=engine)
        verdicts = _entry_point_verdicts(connection, service, text, params)
    expected = (codes, (("x.iban", "string"), ("y.iban", "string")), parameter_types)
    assert verdicts == dict.fromkeys(verdicts, expected)
    assert len(verdicts) == 6


def _entry_point_errors(connection, service, text):
    """``name -> exception type name`` for a statement no door accepts."""
    raised = {}
    for name in ("prepare", "execute", "compile", "explain", "explain_analyze"):
        with pytest.raises(Exception) as info:
            getattr(connection, name)(text)
        raised[name] = type(info.value).__name__
    status, _, body = service.handle(
        "POST", "/query", json.dumps({"statement": text, "dry_run": True}).encode()
    )
    assert status == 400
    raised["dry_run"] = json.loads(body)["error"]["type"]
    return raised


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "text, codes", [(UNBOUND_COLUMN, {"A004"}), (UNKNOWN_GRAPH, {"A001"})]
)
def test_entry_points_raise_the_same_analysis_error(engine, text, codes):
    with make_db() as db, QueryService(db, engine=engine, pool_size=1) as service:
        connection = db.connect(engine=engine)
        raised = _entry_point_errors(connection, service, text)
        assert raised == dict.fromkeys(raised, "AnalysisError")
        with pytest.raises(AnalysisError) as info:
            connection.front_half(text)
        assert {diagnostic.code for diagnostic in info.value.diagnostics} == codes
        assert text not in connection._statements  # failures are not stored


@pytest.mark.parametrize("engine", ENGINES)
def test_query_only_entry_points_reject_ddl_alike(engine):
    with make_db() as db, QueryService(db, engine=engine, pool_size=1) as service:
        connection = db.connect(engine=engine)
        for name in ("prepare", "compile", "explain", "explain_analyze", "front_half"):
            with pytest.raises(EngineError, match="only execute"):
                getattr(connection, name)(DDL)
        # The service refuses DDL on /query before any connection sees it.
        status, _, _ = service.handle(
            "POST", "/query", json.dumps({"statement": DDL, "dry_run": True}).encode()
        )
        assert status == 400
        assert db.version == connection.snapshot.version  # nothing was applied
        assert connection.execute(DDL).rows == (("Transfers",),)


# --------------------------------------------------------------------------- #
# (b) Stage counts
# --------------------------------------------------------------------------- #
@pytest.fixture
def stage_counts(monkeypatch):
    counts = {"parse": 0, "analyze": 0}

    def counting(stage, function):
        def wrapper(*args, **kwargs):
            counts[stage] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        connection_module,
        "parse_statement",
        counting("parse", connection_module.parse_statement),
    )
    monkeypatch.setattr(
        connection_module,
        "analyze_query",
        counting("analyze", connection_module.analyze_query),
    )
    return counts


def test_each_front_half_stage_runs_once_per_text(stage_counts):
    with make_db() as db, db.connect(engine="planned") as connection:
        connection.explain_analyze(CLEAN)  # cold
        assert stage_counts == {"parse": 1, "analyze": 1}
        connection.explain(CLEAN)
        connection.explain(CLEAN)
        connection.compile(CLEAN)
        connection.prepare(CLEAN).explain()
        connection.execute(CLEAN)
        assert stage_counts == {"parse": 1, "analyze": 1}
        # DDL through this connection moves it to a new snapshot: the
        # record is stale, and the next use rebuilds it — once.
        connection.execute(DDL)
        assert stage_counts == {"parse": 2, "analyze": 1}  # the DDL text itself
        connection.execute(CLEAN)
        connection.explain(CLEAN)
        assert stage_counts == {"parse": 3, "analyze": 2}


@pytest.fixture
def front_half_work(monkeypatch):
    """Calls of the front half's per-text work: lexing, walks over a view
    source tree (the catalog's sources are unions and projections of
    products; slots are bound by ``bind_query``), data samples of a
    property's columns, and analyzer runs."""
    counts = {"lex": 0, "source_walks": 0, "samples": 0, "analyses": 0}

    def counting(work, function):
        def wrapper(*args, **kwargs):
            counts[work] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(lexer_module, "_lex", counting("lex", lexer_module._lex))
    monkeypatch.setattr(
        database_module,
        "sample_property_type",
        counting("samples", database_module.sample_property_type),
    )
    monkeypatch.setattr(
        semantic_module._QueryAnalyzer,
        "run",
        counting("analyses", semantic_module._QueryAnalyzer.run),
    )
    for node in (Union, Project, Product):
        monkeypatch.setattr(node, "children", counting("source_walks", node.children))
    monkeypatch.setattr(
        queries_module, "bind_query", counting("source_walks", queries_module.bind_query)
    )
    return counts


def hop(minimum: int) -> str:
    return (
        "SELECT * FROM GRAPH_TABLE ( Transfers MATCH (x) -[t:Transfer]-> (y) "
        f"WHERE t.amount > {minimum} COLUMNS (x.iban AS src, t.amount, y.iban AS dst) )"
    )


@pytest.mark.parametrize("engine", ["planned", "sqlite"])
def test_a_new_text_pays_only_for_its_own_front_half(front_half_work, engine):
    with make_db() as db:
        with db.connect(engine=engine) as connection:
            connection.execute(hop(10)).rows  # builds the view, types the keys
            front_half_work.update(lex=0, source_walks=0, samples=0, analyses=0)
            rows = connection.execute(hop(60)).rows
            assert len(rows) == 2
            # Lexed and analyzed once; parameter names and view keys come
            # with the graph definition, property types with the snapshot.
            assert front_half_work == {"lex": 1, "source_walks": 0, "samples": 0, "analyses": 1}
        # Another connection on the same snapshot reuses that analysis.
        with db.connect(engine=engine) as other:
            front_half_work.update(analyses=0)
            assert other.execute(hop(60)).rows == rows
            assert front_half_work["analyses"] == 0
        # A table write is a new snapshot: its data is typed afresh, once
        # per property key (iban, amount).
        db.create_table(
            "Transfer",
            ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
            [("T0", "A0", "A1", 1, 100)],
        )
        with db.connect(engine=engine) as connection:
            front_half_work.update(samples=0)
            connection.execute(hop(70)).rows
            connection.execute(hop(80)).rows
            assert front_half_work["samples"] == 2


def test_front_half_is_one_immutable_record_per_text():
    with make_db() as db, db.connect(engine="planned") as connection:
        front = connection.front_half(PARAMETERIZED)
        assert isinstance(front, FrontHalf)
        assert connection.front_half(PARAMETERIZED) is front
        assert connection.prepare(PARAMETERIZED).statement is front.statement
        with pytest.raises(AttributeError):
            front.statically_empty = True
        assert len(connection._statements) == 1


# --------------------------------------------------------------------------- #
# One closed-connection rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "entry_point",
    [
        lambda connection, held: connection.prepare(CLEAN),
        lambda connection, held: connection.execute(CLEAN),
        lambda connection, held: connection.compile(CLEAN),
        lambda connection, held: connection.explain(CLEAN),
        lambda connection, held: held.explain(),
        lambda connection, held: connection.explain_analyze(CLEAN),
        lambda connection, held: connection.evaluate(held._front.query),
    ],
    ids=[
        "prepare",
        "execute",
        "compile",
        "explain",
        "PreparedStatement.explain",
        "explain_analyze",
        "evaluate",
    ],
)
def test_every_entry_point_raises_on_a_closed_connection(entry_point):
    with make_db() as db:
        connection = db.connect(engine="planned")
        held = connection.prepare(CLEAN)  # the text is cached: no door may serve it
        connection.close(reason="maintenance window")
        with pytest.raises(ConnectionClosedError) as info:
            entry_point(connection, held)
        assert info.value.reason == "maintenance window"
