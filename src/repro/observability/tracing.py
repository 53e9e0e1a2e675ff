"""Query-lifecycle tracing: nested spans, pluggable sinks, no-op default.

A :class:`Tracer` produces nested :class:`Span` records for the stages of
statement execution — ``parse -> compile -> plan -> optimize -> execute ->
decode`` — timed on the monotonic clock (``time.perf_counter``) and tagged
with stage-specific detail.  Spans nest per thread: each thread of a
shared tracer maintains its own span stack, so concurrent connections
never interleave their trees.  When a **root** span (one with no open
parent on its thread) finishes, the whole tree is rendered to a plain
dict and written to every configured sink.

The default tracer is :data:`NULL_TRACER`, a shared no-op whose spans do
nothing; callers on the hot path check ``tracer.enabled`` once at
statement setup and skip instrumentation entirely when tracing is off.
Deep layers (the parser, the plan cache, the fixpoint loop) use
:func:`trace_span`, which consults the ambient tracer installed by
:func:`activate` — a :mod:`contextvars` variable, so activation follows
the executing thread/task and costs one lookup when disabled.

Sinks implement a single method, ``write(record: dict)``:

* :class:`RingBufferSink` — bounded in-memory deque (tests, debugging);
* :class:`JsonLinesSink` — one JSON object per line, appended to a file;
* :class:`LoggingSink` — forwards records to stdlib :mod:`logging`.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import deque
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Dict, Iterable, List, Sequence, Tuple


class Span:
    """One timed stage of the query lifecycle, usable as a context manager.

    Spans are created through :meth:`Tracer.span` and nest automatically:
    a span opened while another is active on the same thread becomes its
    child.  ``duration_s`` is filled at exit from the monotonic clock;
    :meth:`tag` attaches key/value detail at any point while open.
    """

    __slots__ = ("name", "tags", "children", "start_s", "duration_s", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.tags = tags
        self.children: List["Span"] = []
        self.start_s = 0.0
        self.duration_s = 0.0

    def tag(self, **tags: Any) -> "Span":
        """Attach (or overwrite) tag values on the open span."""
        self.tags.update(tags)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The span tree as plain data (what sinks receive for roots)."""
        record: Dict[str, Any] = {"name": self.name, "duration_s": self.duration_s}
        if self.tags:
            record["tags"] = dict(self.tags)
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_s = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration_s = perf_counter() - self.start_s
        self._tracer._pop(self)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, duration_s={self.duration_s:.6f}, children={len(self.children)})"


class _NoopSpan:
    """The span :data:`NULL_TRACER` hands out: every operation is free."""

    __slots__ = ()

    def tag(self, **tags: Any) -> "_NoopSpan":
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces nested spans and writes finished root spans to sinks.

    One tracer may serve many threads: span stacks are thread-local, so
    each thread builds an independent tree and only the sink writes
    synchronize (each sink guards its own state).  ``enabled`` is True
    for real tracers — the single flag hot paths check before opening
    spans.
    """

    enabled = True

    def __init__(self, sinks: Sequence[Any] = ()):
        self._sinks: Tuple[Any, ...] = tuple(sinks)
        self._local = threading.local()

    @property
    def sinks(self) -> Tuple[Any, ...]:
        return self._sinks

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags: Any) -> Span:
        """Open a new span (nested under the thread's current span)."""
        return Span(self, name, tags)

    def event(self, name: str, **tags: Any) -> None:
        """Record a zero-duration marker.

        Attached as a child of the thread's open span when there is one;
        otherwise emitted directly to the sinks as its own record.
        """
        marker = Span(self, name, tags)
        stack = self._stack()
        if stack:
            stack[-1].children.append(marker)
        else:
            self.emit(marker.to_dict())

    def emit(self, record: Dict[str, Any]) -> None:
        """Write one record dict to every sink (used for root spans and
        out-of-band records such as slow-query entries)."""
        for sink in self._sinks:
            sink.write(record)

    # -- span stack maintenance (called by Span.__enter__/__exit__) ------ #
    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate exits out of order (a leaked span from an error path):
        # unwind to the span being closed instead of corrupting the stack.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if not stack:
            self.emit(span.to_dict())


class _NullTracer(Tracer):
    """Shared disabled tracer: spans are no-ops, nothing is recorded."""

    enabled = False

    def __init__(self):
        super().__init__(())

    def span(self, name: str, **tags: Any) -> _NoopSpan:  # type: ignore[override]
        return NOOP_SPAN

    def event(self, name: str, **tags: Any) -> None:
        return None

    def emit(self, record: Dict[str, Any]) -> None:
        return None


NULL_TRACER = _NullTracer()

#: The ambient tracer deep layers consult via :func:`active_tracer`.
_ACTIVE: "ContextVar[Tracer]" = ContextVar("repro_active_tracer", default=NULL_TRACER)


def active_tracer() -> Tracer:
    """The tracer installed for the current context (NULL_TRACER when off)."""
    return _ACTIVE.get()


def activate(tracer: Tracer):
    """Install ``tracer`` as the ambient tracer; returns a reset token."""
    return _ACTIVE.set(tracer)


def deactivate(token) -> None:
    """Restore the ambient tracer saved in ``token``."""
    _ACTIVE.reset(token)


def trace_span(name: str, **tags: Any):
    """A span on the ambient tracer (a free no-op when tracing is off).

    The instrumentation idiom for deep layers::

        with trace_span("optimize", nodes=plan_size(plan)):
            ...
    """
    return _ACTIVE.get().span(name, **tags)


def tracer_from_env() -> Tracer:
    """The tracer implied by the environment: a JSON-lines tracer when
    ``REPRO_TRACE`` names a file, else :data:`NULL_TRACER`.

    This is what :class:`~repro.engine.database.Database` installs by
    default, so ``REPRO_TRACE=trace.jsonl python script.py`` traces any
    unmodified program.
    """
    path = os.environ.get("REPRO_TRACE")
    if not path:
        return NULL_TRACER
    return Tracer(sinks=(JsonLinesSink(path),))


class RingBufferSink:
    """Keeps the last ``capacity`` records in memory (tests, debugging)."""

    def __init__(self, capacity: int = 256):
        self._lock = threading.Lock()
        self._records: "deque[Dict[str, Any]]" = deque(maxlen=capacity)

    def write(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)

    def records(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the buffered records, oldest first."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class JsonLinesSink:
    """Appends one JSON object per record to a file (opened lazily).

    Values that are not JSON-native are rendered with ``str`` so a span
    tag can safely carry arbitrary objects.
    """

    def __init__(self, path: Any, *, append: bool = True):
        self._path = os.fspath(path)
        self._append = append
        self._lock = threading.Lock()
        self._file = None

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, default=str)
        with self._lock:
            if self._file is None:
                self._file = open(self._path, "a" if self._append else "w", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class LoggingSink:
    """Forwards records to stdlib :mod:`logging` as single-line JSON."""

    def __init__(self, logger: Any = "repro.trace", level: int = logging.INFO):
        self._logger = logging.getLogger(logger) if isinstance(logger, str) else logger
        self._level = level

    def write(self, record: Dict[str, Any]) -> None:
        self._logger.log(self._level, "%s", json.dumps(record, default=str))


def iter_spans(record: Dict[str, Any]) -> Iterable[Dict[str, Any]]:
    """Depth-first iteration over one emitted span record and its children."""
    yield record
    for child in record.get("children", ()):
        yield from iter_spans(child)
