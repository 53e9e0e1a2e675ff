"""repro — executable reproduction of *On the Expressiveness of Languages for
Querying Property Graphs in Relational Databases* (PODS 2025).

The package implements, from scratch:

* the property graph data model with n-ary identifiers (Def. 2.1, Sec. 5);
* a relational substrate (relations, schemas, databases, selection conditions);
* the pattern language and its endpoint / path semantics (Figs. 1, 2, 6);
* the ``pgView`` family and the three PGQ fragments ``PGQro`` / ``PGQrw`` /
  ``PGQext`` with their evaluator (Figs. 3, 4, Defs. 3.1-5.3);
* first-order logic with transitive closure and its bottom-up finite-model
  evaluator;
* the constructive translations PGQext <-> FO[TC] (Thms. 6.1/6.2);
* a SQL/PGQ surface parser, a Database/Connection catalog API, and a
  SQLite-backed engine;
* the separating queries of Theorems 4.1, 4.2, 5.2 and Example 5.3;
* workload generators and complexity instrumentation.

Quickstart::

    from repro import GraphDatabase

    db = GraphDatabase()
    db.create_table("Account", ["iban"], [("A1",), ("A2",)])
    db.create_table(
        "Transfer",
        ["t_id", "src_iban", "tgt_iban", "ts", "amount"],
        [("T1", "A1", "A2", 1, 250)],
    )
    db.execute('''
        CREATE PROPERTY GRAPH Transfers (
          NODES TABLE Account KEY (iban) LABEL Account,
          EDGES TABLE Transfer KEY (t_id)
            SOURCE KEY src_iban REFERENCES Account
            TARGET KEY tgt_iban REFERENCES Account
            LABELS Transfer PROPERTIES (ts, amount))
    ''')
    with db.connect(engine="planned") as connection:
        result = connection.execute('''
            SELECT * FROM GRAPH_TABLE ( Transfers
              MATCH (x) -[t:Transfer]->+ (y)
              WHERE t.amount > 100
              COLUMNS (x.iban, y.iban) )
        ''')
"""

from repro.engine import (
    Connection,
    Explain,
    NaiveEngine,
    PlannedEngine,
    PreparedStatement,
    QueryResult,
    SQLiteEngine,
    Snapshot,
    SnapshotCache,
    available_engines,
    create_engine,
    register_engine,
)
from repro.engine.database import Database as GraphDatabase
from repro.errors import (
    ArityError,
    BindingError,
    EngineError,
    FragmentError,
    GraphError,
    LogicError,
    ParseError,
    PatternError,
    QueryError,
    ReproError,
    SchemaError,
    TranslationError,
    ViewError,
)
from repro.graph import PropertyGraph
from repro.parameters import Parameter
from repro.pgq import (
    Fragment,
    PGQEvaluator,
    classify,
    evaluate,
    evaluate_boolean,
    graph_pattern_on_relations,
    pg_view,
    pg_view_ext,
    pg_view_n,
)
from repro.relational import Database, Relation, Schema
from repro.translations import translate_formula, translate_query

__version__ = "1.0.0"

__all__ = [
    "ArityError",
    "BindingError",
    "Connection",
    "Database",
    "Explain",
    "EngineError",
    "Fragment",
    "FragmentError",
    "GraphDatabase",
    "GraphError",
    "LogicError",
    "NaiveEngine",
    "PGQEvaluator",
    "Parameter",
    "PlannedEngine",
    "PreparedStatement",
    "ParseError",
    "PatternError",
    "PropertyGraph",
    "QueryError",
    "QueryResult",
    "Relation",
    "ReproError",
    "SQLiteEngine",
    "Schema",
    "SchemaError",
    "Snapshot",
    "SnapshotCache",
    "TranslationError",
    "ViewError",
    "available_engines",
    "classify",
    "create_engine",
    "evaluate",
    "evaluate_boolean",
    "graph_pattern_on_relations",
    "pg_view",
    "pg_view_ext",
    "pg_view_n",
    "register_engine",
    "translate_formula",
    "translate_query",
    "__version__",
]
