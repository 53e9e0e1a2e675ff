"""The result cursor: ``QueryResult`` and the batch sources feeding it.

Owns how rows leave an execution — buffered or streamed — and the
**result order**: ascending ``repr(row)``.  A row source is an iterator
of row *lists* (batches) plus one fact, whether concatenating them
already gives that order.  Every pattern result decoded by
:mod:`repro.planner.decode` — the planned engine's, and a root pattern's
on sqlite — arrives in it, unless its keys are not prefix-free or its
values do not rank (equal values that print differently); that source
and every other one (the naive oracle's relations, a relational
query's cursor rows) is sorted here, in :func:`result_order`, on first
ordered access.  Also
owns the cancel/close contract of a pending source, its batch-level
decode clock, and the wrapper that meters it against a governor.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter
from itertools import chain
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConnectionClosedError, GovernanceError, QueryCancelledError
from repro.governance import CancellationToken
from repro.relational.relation import Relation
from repro.sqlpgq.ast import GraphTableQuery


def result_order(rows: Iterable[Tuple]) -> List[Tuple]:
    """``rows`` in the result order, ascending ``repr(row)`` — the one
    sort behind every source that does not arrive in that order."""
    return sorted(rows, key=repr)


def governed_batches(
    governor,
    batches: Iterator[List[Tuple]],
    on_abort: Callable[[GovernanceError], None],
) -> Iterator[List[Tuple]]:
    """Meter a streamed projection against the execution's governor.

    Counts each decoded batch against ``max_output_rows`` and polls the
    governor once per batch — which covers sources with no in-engine
    checkpoints (rows SQLite fetched inside its governed window) and lets
    a cross-thread :meth:`QueryResult.cancel` land between batches.  A
    governance abort raised while the rows decode — here or at a
    checkpoint inside the engine's stream — is reported to ``on_abort``
    once, on its way to the consumer.
    """
    try:
        for batch in batches:
            governor.count_output(len(batch))
            governor.checkpoint("stream.decode")
            yield batch
    except GovernanceError as error:
        on_abort(error)
        raise
    finally:
        # Propagate close() through the wrapper so abandoning a streamed
        # result releases the underlying source (not just this generator).
        close = getattr(batches, "close", None)
        if close is not None:
            close()


class QueryResult:
    """Result of executing a statement: column names plus rows.

    Results are **cursor-backed** and may be **streamed**: the row source
    can be lazy, and for the planned engine it is a true server-side
    cursor — rows arrive a batch at a time from the executor's projection
    before the full result materializes (``streamed`` records that
    provenance).  Two access styles coexist:

    * *cursor semantics* — :meth:`fetchone` / :meth:`fetchmany` /
      :meth:`fetchall` consume rows forward in the result order
      (ascending ``repr(row)``), each row delivered once.  A source that
      arrives in that order is pulled only as far as asked; any other
      materializes and is sorted once, on first ordered access;
    * *whole-result semantics* — ``rows``, ``len()``, :meth:`to_list`,
      :meth:`to_set`, :meth:`to_dicts` and ``repr`` view the complete
      result (materializing whatever has not yet been pulled) without
      advancing the cursor.

    Plain iteration is the streaming surface: it yields buffered rows in
    *arrival* order, pulling one batch from the source on demand, so
    consumers can start processing before the engine finishes
    projecting.  Iteration is repeatable (rows are buffered); once an
    ordered accessor has materialized the result, iteration follows the
    result order.
    """

    #: Rows shown by ``__repr__`` before truncating with a ``(+N more
    #: rows)`` footer.
    _REPR_LIMIT = 20

    def __init__(
        self,
        columns: Sequence[str],
        rows: Union[Iterable[Tuple], Iterator[Tuple]] = (),
        *,
        batches: Optional[Iterator[List[Tuple]]] = None,
        ordered: bool = True,
        streamed: bool = False,
    ):
        self.columns = tuple(columns)
        #: True when rows arrive incrementally from the engine's streaming
        #: projection (server-side cursor provenance).
        self.streamed = streamed
        #: Whether the source order is already the result order; when not,
        #: the ordered accessors sort (lazily, once).
        self._ordered = ordered
        self._fetched: List[Tuple] = []
        #: The pending batch source (``None`` once drained or closed).
        self._source: Optional[Iterator[List[Tuple]]] = batches
        if isinstance(rows, (tuple, list)):
            self._fetched = list(rows)
        elif batches is None:
            # A plain row iterator stays exactly as lazy as it was.
            self._source = ([row] for row in rows)
        #: Forward position of the fetchone/fetchmany cursor (an index
        #: into the result order).
        self._cursor = 0
        #: Cached full-row tuple in result order, built once on first
        #: ordered access.
        self._rows_cache: Optional[Tuple[Tuple, ...]] = None
        #: Cancellation token of the producing execution, set by the
        #: session when the run was governed (None otherwise); lets
        #: :meth:`cancel` interrupt in-engine loops from another thread.
        self._cancel_token: Optional[CancellationToken] = None
        #: Set by :meth:`cancel` / :meth:`close`: pulling more rows from
        #: a pending source raises instead of decoding further.
        self._cancel_reason: Optional[str] = None
        self._close_reason: Optional[str] = None
        #: Seconds spent inside the source so far — one clock pair per
        #: pulled batch, or one around a whole drain.
        self._decode_s = 0.0
        #: Called once as ``(rows, decode seconds)`` when the source
        #: drains or is closed (the statement's decode telemetry).
        self._on_settled: Optional[Callable[[int, float], None]] = None

    # -- cooperative cancellation / lifecycle ---------------------------- #
    def cancel(self, reason: str = "cancelled by consumer") -> bool:
        """Cooperatively cancel the producing query (thread-safe).

        Cancels the execution's :class:`CancellationToken` when the run
        was governed — interrupting engine loops still decoding on
        another thread at their next checkpoint — and marks any pending
        row source so further pulls on *this* result raise
        :class:`~repro.errors.QueryCancelledError`.  Returns True when
        there was anything left to cancel; rows already buffered stay
        readable.
        """
        cancelled = False
        token = self._cancel_token
        if token is not None:
            cancelled = token.cancel(reason)
        if self._source is not None and self._cancel_reason is None:
            self._cancel_reason = reason
            cancelled = True
        return cancelled

    def close(self, *, reason: str = "result closed") -> None:
        """Release the pending row source (idempotent).

        A closed result keeps already-buffered rows out of reach too:
        any access that would need the source raises
        :class:`~repro.errors.ConnectionClosedError` carrying ``reason``.
        Closing a fully materialized result is a no-op.
        """
        if self._source is not None and self._close_reason is None:
            self._close_reason = reason
            close = getattr(self._source, "close", None)
            if close is not None:
                close()  # run the generator's finally blocks now
            self._settled(drained=False)

    def _check_abandoned(self) -> None:
        if self._close_reason is not None:
            raise ConnectionClosedError("result is closed", reason=self._close_reason)
        if self._cancel_reason is not None:
            raise QueryCancelledError(
                f"result cancelled: {self._cancel_reason}", reason=self._cancel_reason
            )

    # -- materialization ------------------------------------------------- #
    def _settled(self, *, drained: bool = True) -> None:
        """The source is done with — drained, or closed with rows left —
        so the decode clock reports."""
        if drained:
            self._source = None
        hook, self._on_settled = self._on_settled, None
        if hook is not None:
            hook(len(self._fetched), self._decode_s)

    def _pull(self) -> bool:
        """Buffer one more batch from the source; False when exhausted."""
        if self._source is None:
            return False
        self._check_abandoned()
        mark = perf_counter()
        batch = next(self._source, None)
        self._decode_s += perf_counter() - mark
        if batch is None:
            self._settled()
            return False
        self._fetched.extend(batch)
        return True

    def _materialize(self) -> List[Tuple]:
        if self._source is not None:
            self._check_abandoned()
            mark = perf_counter()
            self._fetched.extend(chain.from_iterable(self._source))
            self._decode_s += perf_counter() - mark
            self._settled()
        return self._fetched

    @property
    def rows(self) -> Tuple[Tuple, ...]:
        """Every row of the result in result order (materializes; cursor
        position kept).

        The tuple is built (and, for a source that did not arrive in
        order, sorted) once and cached, so repeated access keeps the
        stored-attribute cost profile of the pre-cursor representation.
        """
        if self._rows_cache is None:
            rows = self._materialize()
            self._rows_cache = tuple(rows if self._ordered else result_order(rows))
        return self._rows_cache

    # -- cursor API ------------------------------------------------------ #
    def fetchone(self) -> Optional[Tuple]:
        """Next unconsumed row, or None at the end of the result."""
        batch = self.fetchmany(1)
        return batch[0] if batch else None

    def fetchmany(self, size: int = 1) -> List[Tuple]:
        """Up to ``size`` unconsumed rows (an empty list when exhausted)."""
        if self._ordered:
            while len(self._fetched) - self._cursor < size and self._pull():
                pass
            ordered: Sequence[Tuple] = self._fetched
        else:
            ordered = self.rows
        batch = list(ordered[self._cursor : self._cursor + size])
        self._cursor += len(batch)
        return batch

    def fetchall(self) -> List[Tuple]:
        """All remaining unconsumed rows."""
        ordered = self._materialize() if self._ordered else self.rows
        batch = list(ordered[self._cursor :])
        self._cursor = len(ordered)
        return batch

    # -- whole-result API ------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._materialize())

    def __iter__(self) -> Iterator[Tuple]:
        cached = self._rows_cache
        if cached is not None:
            # Already materialized in deterministic order; iterate that.
            return iter(cached)
        return self._iter_arrival()

    def _iter_arrival(self) -> Iterator[Tuple]:
        index = 0
        while True:
            if index < len(self._fetched):
                yield self._fetched[index]
                index += 1
            elif not self._pull():
                return

    def to_set(self):
        return set(self.rows)

    def to_list(self) -> List[Tuple]:
        """Rows as a plain list, in result order."""
        return list(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as ``{column: value}`` dictionaries, in result order."""
        columns = self.columns
        return [dict(zip(columns, row)) for row in self.rows]

    def equals_unordered(self, other: Union["QueryResult", Iterable[Tuple]]) -> bool:
        """Multiset row equality, ignoring order (cross-engine checks).

        Accepts another :class:`QueryResult` or any iterable of row tuples;
        column names are not compared (backends may fall back to positional
        names).
        """
        other_rows = other.rows if isinstance(other, QueryResult) else tuple(other)
        return Counter(self.rows) == Counter(tuple(row) for row in other_rows)

    # Value semantics on (columns, rows), as the pre-cursor frozen
    # dataclass had — comparing or hashing materializes the rows.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.columns, self.rows))

    def __repr__(self) -> str:
        rows = self.rows
        header = [str(column) for column in self.columns]
        body = [[repr(value) for value in row] for row in rows[: self._REPR_LIMIT]]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(cell.ljust(width) for cell, width in zip(header, widths)),
            "-+-".join("-" * width for width in widths),
        ]
        lines += [
            " | ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in body
        ]
        if len(rows) > self._REPR_LIMIT:
            lines.append(f"... (+{len(rows) - self._REPR_LIMIT} more rows)")
        lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
        return "\n".join(lines)



def _result_columns(statement: GraphTableQuery, arity: int) -> Tuple[str, ...]:
    columns = tuple(column.name for column in statement.columns)
    if arity != len(columns):
        # n-ary identifiers flatten into several columns; fall back to
        # positional names in that case.
        columns = tuple(f"col{i + 1}" for i in range(arity))
    return columns


def ordered_result(statement: GraphTableQuery, relation: Relation) -> QueryResult:
    """Wrap a result relation as a lazily ordered :class:`QueryResult`."""
    rows = relation.rows

    def ordered() -> Iterator[List[Tuple]]:
        # One batch, put in result order when rows are first consumed.
        yield result_order(rows)

    return QueryResult(_result_columns(statement, relation.arity), batches=ordered())


def streamed_result(
    statement: GraphTableQuery, arity: int, batches: Iterator[List[Tuple]], ordered: bool
) -> QueryResult:
    """Wrap a streaming projection as a server-side-cursor result.

    Iteration yields rows as the engine decodes them, a batch at a time.
    ``ordered`` is the source's word that its batches concatenate to the
    result order; the ordered accessors (``fetch*``, ``rows``) then read
    it as it comes, and otherwise materialize and sort lazily — the
    order is the same either way.
    """
    return QueryResult(
        _result_columns(statement, arity), batches=batches, ordered=ordered, streamed=True
    )


class LiveStreams:
    """Weak handles on a connection's streamed results.

    A streamed result decodes its rows lazily from what its execution
    fetched, so the connection settles every pending one — drains it, or
    closes it on a recycle — before its engine goes away.  A plain list of
    refs, not a WeakSet: hashing a QueryResult would materialize it,
    defeating the stream.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._refs: List["weakref.ref[QueryResult]"] = []
        #: Results served through the streaming projection path.
        self.served = 0

    def track(self, result: QueryResult) -> None:
        with self._lock:
            self.served += 1
            self._refs.append(weakref.ref(result))
            if len(self._refs) > 64:  # prune collected results
                self._refs = [ref for ref in self._refs if ref() is not None]

    def settle(self, *, close_reason: Optional[str] = None) -> None:
        """Materialize every pending result, or close it.

        Streamed results are valid after ``close()`` (the historical
        contract, and what the cross-engine tests rely on): the remaining
        rows are pulled into the result buffer.  With a ``close_reason``
        (the ``close(drain=False)`` path used by connection pools
        recycling a handle) pending results are closed instead: their
        undecoded rows are dropped and subsequent fetches raise
        :class:`~repro.errors.ConnectionClosedError` carrying the reason.
        """
        with self._lock:
            refs, self._refs = self._refs, []
        for ref in refs:
            result = ref()
            if result is None:
                continue
            if close_reason is not None:
                result.close(reason=close_reason)
                continue
            try:
                result._materialize()
            except (ConnectionClosedError, GovernanceError):
                pass  # the consumer abandoned the result; nothing to keep
