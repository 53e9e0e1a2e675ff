"""A sized pool of per-snapshot connections with graceful DDL handoff.

The pool is the service's concurrency substrate.  Every pooled
:class:`~repro.engine.connection.Connection` is pinned to one immutable
:class:`~repro.engine.database.Snapshot`, so all connections of a
*generation* share the snapshot-scoped caches (materialized views,
compact encodings, plan caches) through the database's exactly-once
:class:`~repro.engine.database.SnapshotCache`.

DDL moves the catalog to a new version.  The pool reacts with a
**graceful handoff**: the current generation is retired — its idle
connections close immediately, its leased connections finish their
in-flight queries on the pinned snapshot and close on release — while a
fresh generation serves every new acquire from the new snapshot.  No
request is interrupted and no request observes a half-updated catalog.

Retired connections close with ``drain=False``: any streamed result a
consumer abandoned mid-read is closed right away (subsequent fetches
raise :class:`~repro.errors.ConnectionClosedError`) instead of being
silently materialized into a buffer nobody reads.

Pool exhaustion raises :class:`~repro.errors.AdmissionTimeoutError` —
the same governance error the database's admission controller uses — so
the service maps both to HTTP 429.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import monotonic
from typing import Any, Dict, Iterator, List, Optional

from repro.engine.database import Database, Snapshot
from repro.engine.connection import Connection
from repro.errors import AdmissionTimeoutError, ConnectionClosedError

__all__ = ["ConnectionPool"]


class _Generation:
    """Connections pinned to one snapshot, with lease accounting."""

    __slots__ = ("snapshot", "free", "opened", "leases", "retired")

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot
        #: Idle connections ready to lease.
        self.free: List[Connection] = []
        #: Connections in existence (idle + leased).
        self.opened = 0
        #: Connections currently leased out.
        self.leases = 0
        #: True once a handoff (or pool close) superseded this generation.
        self.retired = False


class ConnectionPool:
    """A bounded pool of :class:`Connection` handles over one database.

    ``size`` caps the connections per generation; connections open
    lazily on demand and are reused in LIFO order (the most recently
    used connection has the warmest statement LRU).  ``acquire`` blocks
    up to ``acquire_timeout_s`` when every connection is leased, then
    raises :class:`AdmissionTimeoutError`.

    The pool notices catalog version drift on every acquire (covering
    DDL applied directly to the ``Database``, not just through the
    service) and can be told explicitly via :meth:`refresh`.
    """

    def __init__(
        self,
        database: Database,
        *,
        engine: str = "planned",
        size: int = 8,
        acquire_timeout_s: float = 5.0,
        max_repetitions: Optional[int] = None,
        **engine_options: Any,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._database = database
        self._engine = engine
        self._size = size
        self._acquire_timeout_s = acquire_timeout_s
        self._max_repetitions = max_repetitions
        self._engine_options = dict(engine_options)
        self._cond = threading.Condition()
        self._closed = False
        self._generation = _Generation(database.snapshot())
        #: Retired generations still holding leased connections.
        self._retired: List[_Generation] = []
        self._handoffs = 0
        self._opened_total = 0
        self._closed_total = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Maximum connections per generation."""
        return self._size

    @property
    def engine(self) -> str:
        """Backend name pooled connections dispatch to."""
        return self._engine

    @property
    def snapshot(self) -> Snapshot:
        """The snapshot new acquires are served from."""
        with self._cond:
            return self._generation.snapshot

    def stats(self) -> Dict[str, Any]:
        """Point-in-time pool counters (exported as service gauges)."""
        with self._cond:
            generation = self._generation
            return {
                "size": self._size,
                "available": len(generation.free),
                "in_flight": generation.leases,
                "version": generation.snapshot.version,
                "snapshot": generation.snapshot.fingerprint,
                "handoffs": self._handoffs,
                "opened_total": self._opened_total,
                "closed_total": self._closed_total,
                "retired_open": sum(g.opened for g in self._retired),
            }

    # ------------------------------------------------------------------ #
    # Leasing
    # ------------------------------------------------------------------ #
    @contextmanager
    def acquire(self, timeout_s: Optional[float] = None) -> Iterator[Connection]:
        """Lease a connection pinned to the current snapshot.

        The lease lasts for the ``with`` block; consume any streamed
        result before release (a retired connection's pending streams
        close when it is recycled).
        """
        generation, connection = self._lease(timeout_s)
        try:
            yield connection
        finally:
            self._release(generation, connection)

    def _lease(self, timeout_s: Optional[float]):
        budget = self._acquire_timeout_s if timeout_s is None else timeout_s
        deadline = monotonic() + budget
        with self._cond:
            while True:
                self._check_open()
                self._refresh_locked()
                generation = self._generation
                if generation.free:
                    connection = generation.free.pop()
                    generation.leases += 1
                    return generation, connection
                if generation.opened < self._size:
                    generation.opened += 1
                    generation.leases += 1
                    break  # open a fresh connection outside the lock
                remaining = deadline - monotonic()
                if remaining <= 0.0:
                    raise AdmissionTimeoutError(
                        f"connection pool exhausted: all {self._size} "
                        f"connections stayed leased past {budget:.3f}s",
                        progress={
                            "pool_size": self._size,
                            "in_flight": generation.leases,
                            "waited_s": round(budget, 6),
                        },
                    )
                self._cond.wait(remaining)
        try:
            connection = self._connect(generation.snapshot)
        except BaseException:
            with self._cond:
                generation.opened -= 1
                generation.leases -= 1
                self._cond.notify()
            raise
        with self._cond:
            self._opened_total += 1
        return generation, connection

    def _release(self, generation: _Generation, connection: Connection) -> None:
        close = False
        with self._cond:
            generation.leases -= 1
            if generation.retired or self._closed:
                generation.opened -= 1
                self._closed_total += 1
                close = True
                if generation.opened == 0 and generation in self._retired:
                    self._retired.remove(generation)
            else:
                generation.free.append(connection)
            self._cond.notify()
        if close:
            connection.close(reason="snapshot retired", drain=False)

    def _connect(self, snapshot: Snapshot) -> Connection:
        return self._database.connect(
            engine=self._engine,
            snapshot=snapshot,
            max_repetitions=self._max_repetitions,
            **self._engine_options,
        )

    # ------------------------------------------------------------------ #
    # Handoff / lifecycle
    # ------------------------------------------------------------------ #
    def refresh(self) -> bool:
        """Hand off to the database's current snapshot if it moved.

        Returns True when a handoff happened.  Idle connections of the
        superseded generation close immediately; leased ones finish
        their in-flight work on the old snapshot and close on release.
        """
        with self._cond:
            self._check_open()
            return self._refresh_locked()

    def _refresh_locked(self) -> bool:
        generation = self._generation
        if self._database.version == generation.snapshot.version:
            return False
        snapshot = self._database.snapshot()
        generation.retired = True
        stale, generation.free = generation.free, []
        generation.opened -= len(stale)
        self._closed_total += len(stale)
        if generation.opened > 0:
            self._retired.append(generation)
        self._generation = _Generation(snapshot)
        self._handoffs += 1
        self._cond.notify_all()
        # Handoffs are rare (one per DDL): closing the handful of idle
        # connections under the condition keeps the accounting atomic.
        for connection in stale:
            connection.close(reason="snapshot retired", drain=False)
        return True

    def close(self) -> None:
        """Retire every generation and close all idle connections.

        Leased connections close as their leases release; further
        acquires raise :class:`ConnectionClosedError`.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            generations = [self._generation] + self._retired
            stale: List[Connection] = []
            for generation in generations:
                generation.retired = True
                stale.extend(generation.free)
                generation.opened -= len(generation.free)
                self._closed_total += len(generation.free)
                generation.free = []
            self._retired = [g for g in generations if g.opened > 0]
            self._cond.notify_all()
        for connection in stale:
            connection.close(reason="pool closed", drain=False)

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("connection pool is closed", reason="pool closed")

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
