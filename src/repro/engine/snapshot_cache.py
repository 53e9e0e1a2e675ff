"""The shared store of snapshot-scoped derived state.

Owns :class:`SnapshotCache` — the lock-guarded, bounded LRU every
connection of a database materializes views, relational CSE results and
plan caches into, with exactly-once cold builds and entries that live
while their snapshot is pinned — and :class:`SnapshotScope`, one engine's
pre-keyed handle onto it.  See :mod:`repro.engine.database` for how
snapshots and connections use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Tuple

from repro.planner.physical import PlanCache


class SnapshotCache:
    """Lock-guarded store of snapshot-scoped derived state.

    Entries are keyed by ``(family, snapshot fingerprint, engine kind,
    ...)`` tuples built by :class:`SnapshotScope`.  Cold builds are
    coordinated per key: the thread that registers first builds with no
    lock held (nested lookups from inside a build — view sources
    consulting the relational CSE — proceed freely, and unrelated keys
    build in parallel), while racers for the *same* key wait on the
    build's event, so every materialization still happens exactly once.
    The store is a bounded LRU: evicting an entry another engine still
    holds is harmless, it only means a future cold lookup rebuilds it.

    **Liveness is counted pins.**  Whoever reads a snapshot holds one
    :meth:`pin` on its data fingerprint — an open connection until its
    ``close()``, the database for its head snapshot — and the
    :meth:`unpin` that takes the count to zero drops that fingerprint's
    entries synchronously (``gc_evicted``): the cache holds the head plus
    whatever an open connection still reads, and no garbage collection is
    involved.  Fingerprints nobody pinned (direct :class:`SnapshotScope`
    users) and those of a connection dropped without ``close()``, whose
    pin is never released, are left to the LRU.

    :meth:`stats` reports build/hit counters per family, the number of
    compact encodings paid across all cached view graphs — the figures
    the sharing tests (and ``Explain.shared``) assert — and
    ``pinned_snapshots``, the fingerprints currently held live.
    """

    def __init__(self, *, max_entries: int = 512):
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        #: In-flight cold builds: key -> Event set when the build settles
        #: (successfully or not), so same-key racers wait instead of
        #: rebuilding and disjoint keys never serialize on each other.
        self._building: Dict[Tuple, threading.Event] = {}
        #: Pin count per snapshot fingerprint (see :meth:`pin`), never zero.
        self._pins: Dict[str, int] = {}
        self._stats: Dict[str, int] = {
            "views_built": 0,
            "views_shared_hits": 0,
            "relations_built": 0,
            "relations_shared_hits": 0,
            "plan_caches_built": 0,
            "plan_caches_shared_hits": 0,
            "evictions": 0,
            "gc_evicted": 0,
        }

    def _get_or_build(
        self, key: Tuple, build: Callable[[], Any], family: str
    ) -> Tuple[Any, bool]:
        """``(value, built_cold)`` for ``key``.  Every key hashes: queries
        hold only atomic constants (:func:`~repro.parameters.is_atomic`)."""
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._stats[family + "_shared_hits"] += 1
                    return entry, False
                pending = self._building.get(key)
                if pending is None:
                    settled = threading.Event()
                    self._building[key] = settled
                    pinned = key[1] in self._pins
                    break  # this thread builds
            # Another thread is building this exact key: wait for it to
            # settle, then re-check (a hit on success; a retry when the
            # builder raised and registered nothing).
            pending.wait()
        try:
            value = build()
        except BaseException:
            with self._lock:
                del self._building[key]
            settled.set()
            raise
        with self._lock:
            # A build that outlived its snapshot's last pin goes to its
            # caller only: nobody is left whose unpin would drop it.
            if not pinned or key[1] in self._pins:
                self._entries[key] = value
            self._stats[family + "_built"] += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._stats["evictions"] += 1
            del self._building[key]
        settled.set()
        return value, True

    # -- snapshot liveness ----------------------------------------------- #
    def pin(self, fingerprint: str) -> None:
        """Count one more live user of the snapshot ``fingerprint``."""
        with self._lock:
            self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1

    def unpin(self, fingerprint: str) -> None:
        """Release one :meth:`pin`; the last one drops every entry keyed
        under ``fingerprint``, now (``gc_evicted``).  A no-op without a
        pin to release: an unknown fingerprint, or one :meth:`clear` forgot."""
        with self._lock:
            count = self._pins.pop(fingerprint, 0)
            if count > 1:
                self._pins[fingerprint] = count - 1
            elif count:
                stale = [key for key in self._entries if key[1] == fingerprint]
                for key in stale:
                    del self._entries[key]
                self._stats["gc_evicted"] += len(stale)

    def stats(self) -> Dict[str, int]:
        """Copy of the build/hit counters plus derived materialization
        figures (``views_cached``, ``compact_encodings``, ``entries``,
        ``pinned_snapshots``)."""
        with self._lock:
            info = dict(self._stats)
            views = 0
            encodings = 0
            for key, value in self._entries.items():
                if key[0] == "view":
                    views += 1
                    encodings += value[0].compact_build_count()
            info["views_cached"] = views
            info["compact_encodings"] = encodings
            info["entries"] = len(self._entries)
            info["pinned_snapshots"] = len(self._pins)
            return info

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._pins.clear()
            for key in self._stats:
                self._stats[key] = 0


class SnapshotScope:
    """One engine's handle onto the shared cache.

    The scope carries the snapshot's content fingerprint and an
    *engine-kind* discriminator (backend name plus every option that
    changes matcher semantics — ``max_repetitions`` and the caller's
    engine options), so two engines share an entry exactly when they
    would compute the same value.  Relational CSE entries deliberately
    omit the kind: every backend must produce identical relations for a
    concrete relational subquery, so those results are shared
    cross-engine as well.
    """

    __slots__ = ("cache", "fingerprint", "kind")

    def __init__(self, cache: SnapshotCache, fingerprint: str, kind: Tuple):
        self.cache = cache
        self.fingerprint = fingerprint
        self.kind = kind

    def view(self, key: Tuple, build: Callable[[], Any]) -> Tuple[Any, bool]:
        """Materialized-view entry ``(graph, identifier arity, matcher)``."""
        return self.cache._get_or_build(
            ("view", self.fingerprint, self.kind, key), build, "views"
        )

    def relation(self, query: Any, build: Callable[[], Any]) -> Tuple[Any, bool]:
        """Cross-engine CSE entry for one concrete relational subquery."""
        return self.cache._get_or_build(("rel", self.fingerprint, query), build, "relations")

    def plan_cache(self) -> PlanCache:
        """The shared compiled-plan cache of this (snapshot, kind) pair."""
        return self.cache._get_or_build(
            ("plans", self.fingerprint, self.kind),
            lambda: PlanCache(shared=True),
            "plan_caches",
        )[0]

    def stats(self) -> Dict[str, int]:
        return self.cache.stats()
