"""Execution engines: catalog API, backend registry, three backends.

The top-level surface is the :class:`~repro.engine.database.Database`
catalog — ``db.snapshot()`` captures immutable versions, ``db.connect()``
hands out :class:`~repro.engine.connection.Connection` objects over them,
and every connection of one snapshot shares derived state through the
database's :class:`~repro.engine.snapshot_cache.SnapshotCache`.  Every
statement reaches its backend through one pipeline
(:meth:`Connection.front_half <repro.engine.connection.Connection.front_half>`).

The module registers the built-in backends (``naive``, ``planned``,
``sqlite``) with :mod:`repro.engine.registry` at import time; connections
select one by name via ``db.connect(engine=...)``.
"""

from repro.engine.connection import Connection
from repro.engine.database import Database, Snapshot
from repro.engine.explain import Explain
from repro.engine.naive import NaiveEngine, make_naive_engine
from repro.engine.planned import PlannedEngine, make_planned_engine
from repro.engine.registry import (
    Engine,
    available_engines,
    create_engine,
    engine_factory,
    register_engine,
    unregister_engine,
)
from repro.engine.result import QueryResult
from repro.engine.snapshot_cache import SnapshotCache, SnapshotScope
from repro.engine.sqlite import SQLiteEngine, make_sqlite_engine
from repro.engine.statement import FrontHalf, PreparedStatement

register_engine("naive", make_naive_engine, replace=True)
register_engine("planned", make_planned_engine, replace=True)
register_engine("sqlite", make_sqlite_engine, replace=True)

__all__ = [
    "Connection",
    "Database",
    "Engine",
    "Explain",
    "FrontHalf",
    "NaiveEngine",
    "PreparedStatement",
    "PlannedEngine",
    "QueryResult",
    "SQLiteEngine",
    "Snapshot",
    "SnapshotCache",
    "SnapshotScope",
    "available_engines",
    "create_engine",
    "engine_factory",
    "register_engine",
    "unregister_engine",
]
