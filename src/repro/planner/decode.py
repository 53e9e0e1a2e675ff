"""Output decode and projection: binding tables to output rows.

The last step of physical execution turns a
:class:`~repro.planner.physical.CompactTable` over integer IDs into the
output pattern's distinct rows, through the **fragment columns** of the
compact encoding (:meth:`~repro.graph.compact.CompactGraph.fragments`):
per output item, the identifier tuple or the 1-tuple of a property value
each ID contributes to a row, ``None`` where the property is undefined
(such rows drop).  Two consumers share the kernels here:

* :func:`project` materializes the row set (the matcher oracle
  interface, ``evaluate_output``), or its projection onto some
  positions, through projected fragment columns;
* :func:`stream_project` hands a cursor **batches** — lists of rows —
  plus one fact: whether concatenating them gives the result order.

A pair relation held as reach masks has one kernel each: unordered, one
pass over the heads (:func:`project`); ordered, a batch per head.  Every
other table streams through one ordered kernel over ranks.

The result order is ascending ``repr(row)``, produced structurally.  A
row is a concatenation of fragments, so ``repr(row)`` is ``"("`` followed
by each fragment's key — ``key(f) = ", ".join(map(repr, f))`` then
``", "``, or ``")"`` after the last one — and a fragment column's rank
table (:meth:`~repro.graph.compact.CompactGraph.rank_table`) ranks its
fragments by that key.  While no key of an item but the last is a
prefix of another (checked once per column), two rows' reprs compare as
their items' ranks do, left to right: the first differing key decides
inside itself.  So the mask-form (closure) table projected onto both
endpoints walks heads in rank order and, per head, tails in rank order;
any other table sorts one int per row, mixed radix over its items'
ranks, and decodes in that order (a one-item row is ranked by its own
``repr``).  A table whose keys are not prefix-free where they must be,
or that reads a column which does not rank (equal values that print
differently, such as ``1`` and ``True``), is handed over unordered,
deduplicated, and sorted by the cursor.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import itemgetter, or_
from typing import TYPE_CHECKING, Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.governance import CHECK_INTERVAL, current_governor
from repro.graph.compact import CompactGraph, bit_positions, is_sparse
from repro.patterns.ast import OutputPattern, PropertyRef

if TYPE_CHECKING:  # pragma: no cover - type hints only (import cycle guard)
    from repro.planner.physical import CompactTable

#: Rows per batch of the rank kernel's stream.
_CHUNK = 256

#: One resolved output item: ``(row index, property key or None, ID space,
#: run)`` — ``run`` the ``(start, stop)`` of its fragment a projection
#: keeps, or None; ``item[1:]`` names its fragment column.
Item = Tuple[int, Optional[str], str, Optional[Tuple[int, int]]]


def _resolve_items(table: "CompactTable", output: OutputPattern) -> Optional[List[Item]]:
    """Output items resolved against a table's column layout, or None when
    one names a variable the table does not bind (every row then drops)."""
    items: List[Item] = []
    for item in output.items:
        variable, key = (
            (item.variable, item.key) if isinstance(item, PropertyRef) else (item, None)
        )
        index = table.columns.get(variable)
        if index is None:
            return None
        items.append((index, key, table.kinds.get(variable, "node"), None))
    return items


def _projected_items(
    encoded: CompactGraph, items: List[Item], positions: Tuple[int, ...]
) -> Tuple[List[Item], Optional[Callable[[Tuple], Tuple]]]:
    """``(items, reorder)`` for projecting the output rows onto the 1-based
    ``positions`` (each within the row, on a graph with nodes).

    When the positions pick one run of each item's fragment, items in
    order — ``(1, 2, 5, 6)`` over two 4-ary identifiers, or the identity —
    every item decodes through its projected fragment column and
    ``reorder`` is None.  Any other shape leaves the items whole and
    ``reorder`` picks the positions from each decoded row.
    """
    arity = len(encoded.node_ids[0])
    slots = [
        (number, offset)
        for number, item in enumerate(items)
        for offset in range(arity if item[1] is None else 1)
    ]
    picked = [slots[position - 1] for position in positions]
    projected = []
    for number, item in enumerate(items):
        offsets = [offset for owner, offset in picked if owner == number]
        start = offsets[0] if offsets else 0
        projected.append(item[:3] + ((start, start + len(offsets)),))
    runs = [(number, offset) for number, item in enumerate(projected) for offset in range(*item[3])]
    if picked == runs:
        return projected, None
    return items, itemgetter(*(position - 1 for position in positions))


def _pair_layout(encoded: CompactGraph, table: "CompactTable", items: List[Item]):
    """``(masks, head item, tail item)`` when ``items`` project a mask-form
    table onto both endpoints, else None.  Rows are ``head + tail``; when
    the output names the target first, the masks are transposed so that it
    heads them."""
    if table.masks is None or sorted(item[0] for item in items) != [0, 1]:
        return None
    head, tail = items
    if head[0] == 0:
        return table.masks, head, tail
    # Sources sharing a reach mask scatter into the transpose together.
    sources_of: dict = {}
    for i, mask in enumerate(table.masks):
        if mask:
            sources_of[mask] = sources_of.get(mask, 0) | (1 << i)
    transposed = [0] * encoded.node_count
    for mask, sources in sources_of.items():
        for j in bit_positions(mask):
            transposed[j] |= sources
    return transposed, head, tail


def _pair_batches(encoded: CompactGraph, masks, head: Item, tail: Item):
    """The ordered mask-decode kernel: ``head + tail`` rows of a pair
    relation held as per-head bitmasks over the tail IDs, one batch per
    head, in the result order (module docstring).

    Heads walk their rank table, equal heads merging their masks, and a
    mask's tails are its bits -> ranks -> sorted -> fragments, so merged
    masks and rank sets also do the deduplication.  Sources inside one
    strongly connected component share identical reach masks, so each
    *distinct* mask's tail fragments are decoded once and every batch is
    one list comprehension over them.  Returns None when a column does
    not rank or the head keys are not prefix-free.
    """
    _, head_key, head_kind, _ = head
    _, tail_key, tail_kind, _ = tail
    heads = encoded.rank_table(head_key, head_kind, ", ")
    tails = encoded.rank_table(tail_key, tail_kind, ")")
    if heads is None or tails is None or not heads[2]:
        return None
    (head_ranks, by_rank, _), (tail_ranks, tails_by_rank, _) = heads, tails
    merged: dict = {}
    for rank, mask in zip(head_ranks, masks):
        if mask and rank >= 0:
            merged[rank] = merged.get(rank, 0) | mask
    sources = [(by_rank[rank], merged[rank]) for rank in sorted(merged)]

    def decode(mask: int) -> List[Tuple]:
        ranks = {tail_ranks[j] for j in bit_positions(mask)}
        ranks.discard(-1)
        return [tails_by_rank[rank] for rank in sorted(ranks)]

    def batches() -> Iterator[List[Tuple]]:
        decoded: dict = {}
        for fragment, mask in sources:
            row_tails = decoded.get(mask)
            if row_tails is None:
                row_tails = decoded[mask] = decode(mask)
            if row_tails:
                yield [fragment + row_tail for row_tail in row_tails]

    return batches()


def _pair_rows(encoded: CompactGraph, masks, head: Item, tail: Item) -> List[Tuple]:
    """The unordered mask-decode kernel: every ``head + tail`` row of a pair
    relation held as per-head bitmasks over the tail IDs, in one pass.

    Rows may repeat (equal fragments of distinct IDs).  A sparse mask is
    peeled bit by bit inline; a dense one is decoded through the byte
    table once per distinct mask (one strongly connected component's
    sources share it).
    """
    tails = encoded.fragments(*tail[1:])
    rows: List[Tuple] = []
    append = rows.append
    decoded: dict = {}
    governor = current_governor()
    for count, (fragment, mask) in enumerate(zip(encoded.fragments(*head[1:]), masks)):
        if governor is not None and not count & 63:
            governor.checkpoint("stream.decode")
        if not mask or fragment is None:
            continue
        if is_sparse(mask):
            while mask:  # highest bit first: one shift and one xor a bit
                j = mask.bit_length() - 1
                mask ^= 1 << j
                row_tail = tails[j]
                if row_tail is not None:
                    append(fragment + row_tail)
        else:
            row_tails = decoded.get(mask)
            if row_tails is None:
                row_tails = decoded[mask] = [
                    row_tail
                    for row_tail in map(tails.__getitem__, bit_positions(mask))
                    if row_tail is not None
                ]
            rows += [fragment + row_tail for row_tail in row_tails]
    return rows


def _decode_rows(encoded: CompactGraph, rows: Iterable[Tuple], items: List[Item]) -> List[Tuple]:
    """Int rows decoded through their items' fragment columns."""
    columns = [(item[0], encoded.fragments(*item[1:])) for item in items]
    decoded: List[Tuple] = []
    for row in rows:
        projected: Tuple = ()
        for index, column in columns:
            fragment = column[row[index]]
            if fragment is None:
                break
            projected += fragment
        else:
            decoded.append(projected)
    return decoded


def project(
    encoded: CompactGraph,
    table: "CompactTable",
    output: OutputPattern,
    positions: Optional[Tuple[int, ...]] = None,
) -> FrozenSet[Tuple]:
    """Decode a table into the output pattern's distinct row set, or into
    its projection onto the 1-based ``positions`` of each row (every one
    within the row), decoded in place: no row of the full width is kept.
    """
    items = _resolve_items(table, output)
    if items is None or (positions is not None and not encoded.node_count):
        return frozenset()
    reorder = None
    if positions is not None:
        items, reorder = _projected_items(encoded, items, positions)
    layout = _pair_layout(encoded, table, items)
    rows: Iterable[Tuple]
    if layout is not None:
        # A list (appends don't hash), hashed once in the final frozenset.
        rows = _pair_rows(encoded, *layout)
    elif table.masks is not None and len(items) == 1:
        masks = table.masks
        if items[0][0] == 0:
            ids = [i for i, mask in enumerate(masks) if mask]
        else:
            ids = bit_positions(reduce(or_, masks, 0))
        fragments = map(encoded.fragments(*items[0][1:]).__getitem__, ids)
        rows = [fragment for fragment in fragments if fragment is not None]
    else:
        rows = _decode_rows(encoded, table.unpacked().rows, items)
    return frozenset(rows if reorder is None else map(reorder, rows))


def _id_rows(table: "CompactTable", items: List[Item]) -> Iterable[Tuple]:
    """The int rows the items read: a row table's own, or, for a mask-form
    table whose items all read one endpoint, its heads or tails as
    ``(i, i)`` rows (at most one per node, no pair expanded)."""
    masks = table.masks
    if masks is None:
        return table.rows
    endpoints = {item[0] for item in items}
    if endpoints == {0}:
        ids = [i for i, mask in enumerate(masks) if mask]
    elif endpoints == {1}:
        ids = bit_positions(reduce(or_, masks, 0))
    else:
        return table.unpacked().rows
    return zip(ids, ids)


def _rank_batches(
    encoded: CompactGraph, rows: Iterable[Tuple], items: List[Item]
) -> Optional[Iterator[List[Tuple]]]:
    """The ordered row-decode kernel: the distinct output rows of int
    ``rows`` in the result order, :data:`_CHUNK` at a time, or None when
    an item's column does not rank or an item other than the last has
    keys that are not prefix-free.

    Rows with an undefined fragment drop; each other row becomes one int,
    mixed radix over its items' ranks (module docstring), so sorting the
    set of those ints sorts and deduplicates the rows, which then decode
    from the ints through the ranks' fragments.  The keys are built
    :data:`~repro.governance.CHECK_INTERVAL` rows between two polls of
    the governor.
    """
    spans = []
    last = len(items) - 1
    for position, (index, key, kind, _run) in enumerate(items):
        terminator = None if not last else ")" if position == last else ", "
        ranked = encoded.rank_table(key, kind, terminator)
        if ranked is None or (not ranked[2] and position < last):
            return None
        ranks, by_rank, _ = ranked
        spans.append((index, ranks, by_rank, len(by_rank)))

    def batches() -> Iterator[List[Tuple]]:
        governor = current_governor()
        keys = set()
        pending = iter(rows)
        while chunk := list(islice(pending, CHECK_INTERVAL)):
            if governor is not None:
                governor.checkpoint("stream.decode")
            for row in chunk:
                key = 0
                for index, ranks, _by_rank, radix in spans:
                    rank = ranks[row[index]]
                    if rank < 0:
                        break
                    key = key * radix + rank
                else:
                    keys.add(key)
        ordered = sorted(keys)
        for start in range(0, len(ordered), _CHUNK):
            batch = []
            for key in ordered[start : start + _CHUNK]:
                row: Tuple = ()
                for _index, _ranks, by_rank, radix in reversed(spans):
                    key, rank = divmod(key, radix)
                    row = by_rank[rank] + row
                batch.append(row)
            yield batch

    return batches()


def stream_project(
    encoded: CompactGraph, table: "CompactTable", output: OutputPattern
) -> Tuple[Iterator[List[Tuple]], bool]:
    """``(batches, ordered)``: the decoded projection as distinct rows in
    lists, and whether the lists concatenate to the result order.

    Both endpoints of a mask-form table stream one batch per head, in
    result order, straight from the reachability bitmasks — the first
    rows of a large closure are available right after the fixpoint.
    Every other table — int rows, or the heads or tails of a mask-form
    table — goes through the rank kernel: one sort of one int per row,
    then :data:`_CHUNK` decoded rows a batch, in result order.  What is
    left, a table whose keys are not prefix-free where they must be or
    whose columns do not rank, is the materialized set as a single
    unordered batch.
    """
    items = _resolve_items(table, output)
    if items is None:
        return iter(()), True
    layout = _pair_layout(encoded, table, items)
    if layout is not None:
        batches = _pair_batches(encoded, *layout)
    else:
        batches = _rank_batches(encoded, _id_rows(table, items), items)
    if batches is not None:
        return batches, True
    return iter([list(project(encoded, table, output))]), False
