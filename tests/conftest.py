"""Shared fixtures: small canonical databases and property graphs, the
``engine`` fixture that runs a test on every served backend, and a tracer
that counts view materializations."""

from __future__ import annotations

import pytest

from repro.engine import create_engine
from repro.graph import PropertyGraph
from repro.observability import RingBufferSink, Tracer
from repro.observability.tracing import activate, deactivate, iter_spans
from repro.relational import Database


@pytest.fixture(params=("naive", "planned", "sqlite"))
def engine(request):
    """``engine(database)`` builds the parametrized backend over
    ``database``; every engine built is closed at teardown."""
    built = []

    def make(database: Database):
        built.append(create_engine(request.param, database))
        return built[-1]

    yield make
    for backend in built:
        backend.close()


@pytest.fixture
def materialized_views():
    """Trace the test; ``materialized_views()`` returns the tags of every
    ``view.materialize`` span so far: one per view built, none for a view
    served from a cache."""
    sink = RingBufferSink()
    token = activate(Tracer([sink]))
    yield lambda: [
        span["tags"]
        for record in sink.records()
        for span in iter_spans(record)
        if span["name"] == "view.materialize"
    ]
    deactivate(token)


@pytest.fixture
def triangle_graph() -> PropertyGraph:
    """A labelled 3-cycle a -> b -> c -> a with an amount on each edge."""
    edges = {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a")}
    return PropertyGraph.of(
        "abc",
        edges,
        labels={"a": ["Red"], "b": ["Blue"], "c": ["Red"], **{e: ["Edge"] for e in edges}},
        properties={
            **{name: {"name": name} for name in "abc"},
            **{e: {"amount": amount} for e, amount in zip(edges, (10, 20, 30))},
        },
    )


@pytest.fixture
def chain_view_db() -> Database:
    """Graph-view database for the chain v0 -> v1 -> v2 -> v3."""
    return Database.from_dict(
        {
            "N": [("v0",), ("v1",), ("v2",), ("v3",)],
            "E": [("e0",), ("e1",), ("e2",)],
            "S": [("e0", "v0"), ("e1", "v1"), ("e2", "v2")],
            "T": [("e0", "v1"), ("e1", "v2"), ("e2", "v3")],
            "L": [("v0", "Start"), ("v3", "End"), ("e0", "Hop"), ("e1", "Hop"), ("e2", "Hop")],
            "P": [("e0", "w", 1), ("e1", "w", 2), ("e2", "w", 3)],
        }
    )


@pytest.fixture
def bank_db() -> Database:
    """A tiny Example 1.1 style bank database."""
    return Database.from_dict(
        {
            "Account": [("A1",), ("A2",), ("A3",), ("A4",)],
            "Transfer": [
                ("T1", "A1", "A2", 100, 250),
                ("T2", "A2", "A3", 200, 500),
                ("T3", "A3", "A4", 300, 50),
                ("T4", "A4", "A1", 400, 700),
            ],
        }
    )


@pytest.fixture
def edge_relation_db() -> Database:
    """A plain edge relation E over integers, for FO[TC] tests."""
    return Database.from_dict({"E": [(1, 2), (2, 3), (3, 4), (5, 1)]})
