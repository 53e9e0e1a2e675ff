"""The pluggable ``Engine`` protocol and the backend registry.

Every execution backend implements one small protocol — a ``name``, the
two-phase ``prepare(query) -> CompiledQuery`` / ``evaluate(query,
bindings=None)`` pair, and ``close()`` — and registers a factory under a
short name.  Connections (and anything else that wants to run a PGQ
query) pick a backend by name:

>>> from repro.engine.registry import available_engines, create_engine
>>> sorted(available_engines())
['naive', 'planned', 'sqlite']
>>> engine = create_engine("planned", database)
>>> compiled = engine.prepare(query)          # parse/plan once ...
>>> compiled.execute({"minimum": 100})        # ... execute many times
>>> engine.evaluate(query)                    # one-shot convenience

Adding a backend is registration, not modification::

    from repro.engine.registry import register_engine

    def _make_my_engine(database, *, max_repetitions=None):
        return MyEngine(database, max_repetitions=max_repetitions)

    register_engine("mine", _make_my_engine)

Factories receive the database plus keyword options: ``max_repetitions``
always, ``verify_plans`` when the owning ``Database`` sets it, and
whatever the caller passed to ``connect``.  :func:`create_engine` checks
the options against the factory's signature first and raises
:class:`~repro.errors.EngineError` naming an unknown one (and the ones the
backend accepts), so a typo never silently does nothing; a factory that
declares a ``**`` catch-all opts out of the check.  An engine whose
factory returns an object without ``prepare`` fails the same loud way.

Two protocol surfaces are **optional**.  ``use_snapshot_cache(scope)``
lets an engine join the cross-connection shared materialization of
:mod:`repro.engine.database`: connections call it right after the
factory with a ``SnapshotScope`` keyed on the snapshot's content
fingerprint and the engine kind; engines without the hook simply keep
private caches.  A compiled query's ``execute_stream(bindings)`` lets a
result stream — returning ``(arity, batches, ordered)`` with the
statement executed eagerly and only the projection deferred: an
iterator of row lists, and whether they arrive in result order — or
``None``, and the statement pipeline then calls the materializing
``execute``.  The three built-in backends are registered by
:mod:`repro.engine`:

* ``naive`` — the formal evaluator, kept as the semantics oracle;
* ``planned`` — the query planner (logical IR, rule-based optimizer,
  hash joins, semi-naive repetition fixpoint);
* ``sqlite`` — compilation to SQL with recursive CTEs over a checked,
  integer-encoded view; what SQL cannot run raises ``EngineError``.
"""

from __future__ import annotations

import inspect
import threading
from typing import Callable, Dict, Mapping, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import EngineError
from repro.parameters import Bindings
from repro.pgq.evaluator import CompiledQuery
from repro.pgq.queries import Query
from repro.relational.database import Database
from repro.relational.relation import Relation


@runtime_checkable
class Engine(Protocol):
    """Protocol every execution backend satisfies."""

    name: str
    #: The database instance the engine was built over.
    database: Database

    def prepare(self, query: Query) -> CompiledQuery:
        """Compile a PGQ query once for repeated parameterized execution."""
        ...

    def evaluate(self, query: Query, bindings: Optional[Bindings] = None) -> Relation:
        """One-shot evaluation: prepare and execute with ``bindings``."""
        ...

    def close(self) -> None:
        """Release any resources held by the backend."""
        ...


#: A factory builds an engine bound to one database instance.
EngineFactory = Callable[..., Engine]

_REGISTRY: Dict[str, EngineFactory] = {}
_REGISTRY_LOCK = threading.Lock()


def register_engine(name: str, factory: EngineFactory, *, replace: bool = False) -> None:
    """Register an engine factory under ``name``.

    Re-registering an existing name requires ``replace=True`` so typos do
    not silently shadow a built-in backend.
    """
    with _REGISTRY_LOCK:
        if not replace and name in _REGISTRY:
            raise EngineError(f"engine {name!r} is already registered")
        _REGISTRY[name] = factory


def unregister_engine(name: str) -> None:
    """Remove a registered engine (tests of the registry itself)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


def available_engines() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def engine_factory(name: str) -> EngineFactory:
    """Look up a factory; raises :class:`EngineError` naming alternatives."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; available engines: {', '.join(available_engines())}"
        ) from None


def check_engine_options(name: str, options: Mapping[str, object]) -> None:
    """Raise :class:`EngineError` when backend ``name`` is unknown or its
    factory accepts no keyword named like one of ``options``."""
    factory = engine_factory(name)
    if not options:
        return
    parameters = list(inspect.signature(factory).parameters.values())
    if any(parameter.kind is parameter.VAR_KEYWORD for parameter in parameters):
        return
    # The first parameter receives the database; the rest are options.
    accepted = sorted(
        parameter.name
        for parameter in parameters[1:]
        if parameter.kind in (parameter.KEYWORD_ONLY, parameter.POSITIONAL_OR_KEYWORD)
    )
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise EngineError(
            f"engine {name!r} does not accept option(s) {', '.join(unknown)}; "
            f"accepted options: {', '.join(accepted)}"
        )


def create_engine(
    name: str,
    database: Database,
    *,
    max_repetitions: Optional[int] = None,
    **options,
) -> Engine:
    """Instantiate the backend ``name`` for one database instance.

    Unknown ``options`` raise :class:`EngineError` (see
    :func:`check_engine_options`), and so does a backend that does not
    implement the two-phase protocol's ``prepare``.
    """
    check_engine_options(name, options)
    factory = engine_factory(name)
    engine = factory(database, max_repetitions=max_repetitions, **options)
    if not hasattr(engine, "prepare"):
        raise EngineError(
            f"engine {name!r} does not implement prepare(query) -> CompiledQuery; "
            "connections compile every statement through it"
        )
    return engine
