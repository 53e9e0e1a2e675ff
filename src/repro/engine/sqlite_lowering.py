"""Lowering of a PGQ query to the text of one SQLite statement.

:func:`lower` turns a :class:`~repro.pgq.queries.Query` — and every
pattern in it, through the optimized :class:`~repro.planner.logical.LogicalPlan`
:func:`~repro.planner.compile_plan` gives — into SQL text, the numbering of
its parameter slots, its depth probes and, when the root is a pattern, the
layout of the ids its rows carry.  It opens no connection: what it needs of
the database comes through a :class:`Catalog` (the arity of a base table,
the tables of a graph view), so its output can be read and tested as text.

A statement is **one flat** ``WITH [RECURSIVE]`` list and one final
``SELECT``.  Every node the lowering visits — relational operator or plan
node — appends one ``qN AS (…)`` entry over its children's names and
returns its own name, never nested text: SQLite's LALR parser stack is
fixed at compile time and overflows on a few dozen nested ``FROM (…)``
subqueries, while a list of named entries grows without nesting.  A
repetition adds its body's pair relation, ``pairN AS MATERIALIZED``
(evaluated once per execution), and unbounded repetition closes it with a
recursive ``reachN`` entry — the linear recursion the paper cites as SQL's
NL-complete core — in the same list.  A depth probe is the list built so
far, a recursive ``walkN`` entry and a ``SELECT`` of its own.

Structurally equal subtrees are *not* shared: SQLite expands every
reference to an entry when it resolves names, so sharing would save only
text, and an entry read twice per level fails past a few dozen levels with
``too many references``.  Each entry is read once (a pair relation by its
steps), which SQLite flattens into its reader like the subquery it was.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Protocol, Sequence, Tuple

from repro.errors import EngineError
from repro.graph.compact import CompactGraph
from repro.parameters import Bindings, Parameter
from repro.patterns.ast import EdgePattern, OutputPattern, PropertyRef, iter_subpatterns
from repro.patterns.conditions import (
    AndCondition,
    HasLabel,
    NotCondition,
    OrCondition,
    PatternCondition,
    PropertyCompare,
    PropertyComparesProperty,
    PropertyEquals,
)
from repro.pgq.evaluator import check_selection
from repro.pgq.queries import (
    ActiveDomainQuery,
    BaseRelation,
    Constant,
    ConstantRelation,
    Difference,
    EmptyRelation,
    GraphPattern,
    Product,
    Project,
    Query,
    Select,
    Union,
    bind_sources,
    output_arity,
)
from repro.planner import compile_plan
from repro.planner.logical import (
    BindEndpoint,
    EdgeScan,
    EmptyPlan,
    FilterStep,
    FixpointStep,
    JoinStep,
    LogicalPlan,
    NodeScan,
    UnionStep,
)
from repro.planner.physical import CompactTable
from repro.relational.conditions import (
    And as RAAnd,
    ColumnCompare,
    ColumnCompareConstant,
    ColumnEquals,
    ColumnEqualsConstant,
    Condition,
    Not as RANot,
    Or as RAOr,
    TrueCondition,
)
from repro.relational.relation import Relation

#: The integers SQLite stores as themselves (a wider one overflows its
#: 64-bit INTEGER; as a literal it would silently become a REAL).
_INT64 = range(-(2**63), 2**63)
_SURROGATE = re.compile("[\ud800-\udfff]")  # the code points with no UTF-8 form


class ViewTables:
    """One graph view as tables: the names of ``R1``..``R6`` over the
    encoding's element ids and of the id -> identifier-columns table, plus
    the identifier arity ``n`` a bare-variable output item decodes to and
    the encoding itself, which decodes a root pattern's ids (and whose node
    count bounds a depth probe)."""

    def __init__(self, prefix: str, identifier_arity: int, encoded: CompactGraph):
        self.names = [f"{prefix}_{index}" for index in range(6)] + [f"{prefix}_ids"]
        (
            self.nodes,
            self.edges,
            self.sources,
            self.targets,
            self.labels,
            self.properties,
            self.ids,
        ) = self.names
        self.identifier_arity = identifier_arity
        self.encoded = encoded


class Catalog(Protocol):
    """What the lowering asks of the database, by name."""

    def table(self, name: str) -> int:
        """The arity of base table ``name`` (``__adom``: the active domain)."""

    def view(self, sources: Tuple[Query, ...], max_arity: Optional[int]) -> ViewTables:
        """The tables of the graph view over six concrete ``sources``."""


class LoweredStatement(NamedTuple):
    """One query as SQL text and what running it needs."""

    sql: str
    arity: int
    #: Slot name -> ``?N`` placeholder number, in numbering order.
    slots: Dict[str, int]
    #: ``(SQL, argument count, depth)`` of every depth probe.
    probes: List[Tuple[str, int, int]]
    #: Values (or slots) of the constants that must be in the active
    #: domain, which the oracle checks per execution.
    active_constants: List
    #: ``(encoding, output, id-table layout)`` when the root is a pattern,
    #: whose statement selects ids for the decoder; else None.
    root: Optional[Tuple[CompactGraph, OutputPattern, CompactTable]]


def lower(
    query: Query,
    catalog: Catalog,
    bindings: Optional[Bindings] = None,
    *,
    max_repetitions: Optional[int] = None,
    verify_plans: Optional[bool] = None,
) -> LoweredStatement:
    """Lower ``query`` to one statement; ``bindings`` are substituted into
    view sources only (every other slot is a ``?N`` placeholder), and a
    repetition that could run past ``max_repetitions`` gets a depth probe.

    Every statement is set-valued — a loaded relation, ``UNION`` /
    ``EXCEPT``, a ``DISTINCT`` projection or pattern output, or a selection
    / product of such — which is the one dedup a result gets: cursors hand
    rows on as they arrive.  A malformed operator raises what the oracle
    raises, worded by the oracle."""
    lowering = _Lowering(catalog, bindings or {}, max_repetitions, verify_plans)
    root = None
    if isinstance(query, GraphPattern):
        patterns, plan, output = lowering.pattern(query)
        select, layout = patterns.ids(plan, output)
        root = (patterns.view.encoded, output, layout)
        arity = output_arity(output, patterns.view.identifier_arity)
    else:
        name, arity = lowering.relational(query)
        select = f"SELECT * FROM {name}"
    return LoweredStatement(
        lowering.statement(select),
        arity,
        lowering.slots,
        lowering.probes,
        lowering.active_constants,
        root,
    )


def check_storable(values: Iterable, where: str) -> None:
    """Raise :class:`EngineError` for the first of ``values`` SQLite cannot
    hold as itself: NaN (it binds as NULL, which compares as ``None``), an
    int outside 64 bits and a string with no UTF-8 form (a lone surrogate);
    ``where`` says where the values were headed."""
    for value in values:
        if (
            value != value
            or type(value) is int and value not in _INT64
            or isinstance(value, str) and not value.isascii() and _SURROGATE.search(value)
        ):
            raise EngineError(f"SQLite cannot hold {value!r} ({where})")


def _select_list(items: Sequence[str]) -> str:
    """A ``SELECT`` list; a 0-ary relation selects one constant instead,
    so its statement has a row exactly when the relation holds ``()``."""
    return ", ".join(items) or "1"


def _comparison(left: str, operator: str, right: str) -> str:
    """``left operator right`` with the oracle's semantics, so no
    comparison is ever NULL and ``NOT`` never drops a row: ``=`` / ``!=``
    are ``IS`` / ``IS NOT`` (``None`` is an ordinary value), and an ordered
    comparison holds only between two numbers, two strings or two byte
    strings (Python raises ``TypeError`` on any other pair, which the
    oracle reads as false; SQLite would order them by storage class)."""
    if operator == "=":
        return f"{left} IS {right}"
    if operator == "!=":
        return f"{left} IS NOT {right}"
    return (
        f"(typeof({left}) IN ('integer', 'real') AND typeof({right}) IN ('integer', 'real')"
        f" OR typeof({left}) = 'text' AND typeof({right}) = 'text'"
        f" OR typeof({left}) = 'blob' AND typeof({right}) = 'blob')"
        f" AND {left} {operator} {right}"
    )


def _sql_literal(value) -> str:
    if isinstance(value, Parameter):
        raise EngineError(f"parameter slot {value!r} where SQL takes no placeholder")
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    check_storable((value,), "a constant of the query")
    if isinstance(value, (int, float)):
        if math.isinf(value):  # past every double: SQLite reads it as ±Inf
            return "9e999" if value > 0 else "-9e999"
        return repr(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def _compile_ra_condition(condition: Condition, alias: str, emit) -> str:
    if isinstance(condition, TrueCondition):
        return "1 = 1"
    operator = getattr(condition, "operator", "=")
    if isinstance(condition, (ColumnEquals, ColumnCompare)):
        return _comparison(f"{alias}.c{condition.left}", operator, f"{alias}.c{condition.right}")
    if isinstance(condition, (ColumnEqualsConstant, ColumnCompareConstant)):
        return _comparison(f"{alias}.c{condition.position}", operator, emit(condition.constant))
    if isinstance(condition, (RAAnd, RAOr)):
        connective = "AND" if isinstance(condition, RAAnd) else "OR"
        left, right = (
            _compile_ra_condition(c, alias, emit) for c in (condition.left, condition.right)
        )
        return f"({left} {connective} {right})"
    if isinstance(condition, RANot):
        return f"NOT ({_compile_ra_condition(condition.operand, alias, emit)})"
    raise EngineError(
        f"the sqlite backend cannot compile selection condition {type(condition).__name__}"
    )


class _Lowering:
    """One statement being lowered: the ``WITH`` list every node appends
    its entry to, the statement-wide name supply, the placeholder
    numbering, the depth probes and the active-domain constants; and the
    relational operators' lowering."""

    def __init__(
        self,
        catalog: Catalog,
        bindings: Bindings,
        max_repetitions: Optional[int],
        verify_plans: Optional[bool],
    ):
        self._catalog = catalog
        self._bindings = bindings
        self.max_repetitions = max_repetitions
        self._verify_plans = verify_plans
        self.entries: List[str] = []
        self.recursive = False
        self.numbers = itertools.count()
        #: A repetition's own number (``pairN``, ``reachN``, ``walkN``).
        self.repetitions = itertools.count()
        self.slots: Dict[str, int] = {}
        self.probes: List[Tuple[str, int, int]] = []
        self.active_constants: List = []

    def entry(
        self, body: str, name: str = "", columns: str = "", materialized: bool = False
    ) -> str:
        """Append ``name AS (body)`` to the list and return the name, a
        fresh ``qN`` unless given."""
        name = name or f"q{next(self.numbers)}"
        keyword = "MATERIALIZED " if materialized else "NOT MATERIALIZED "
        self.entries.append(f"{name}{columns} AS {keyword}({body})")
        return name

    def statement(self, select: str, *entries: str) -> str:
        """The list built so far, then ``entries`` (a probe's recursive
        walk), then ``select``."""
        keyword = "WITH RECURSIVE" if self.recursive or entries else "WITH"
        return f"{keyword} {', '.join([*self.entries, *entries])} {select}"

    def emit(self, value) -> str:
        """The literal sink of both lowerings: constants inline, a
        :class:`Parameter` becomes ``?N`` — one number per slot *name*
        wherever it recurs, so placeholder order is nobody's invariant and
        no caller-chosen name ever reaches the SQL text."""
        if not isinstance(value, Parameter):
            return _sql_literal(value)
        return f"?{self.slots.setdefault(value.name, len(self.slots) + 1)}"

    def pattern(self, query: GraphPattern) -> Tuple["_PlanLowering", LogicalPlan, OutputPattern]:
        """The plan lowering over ``query``'s view, its optimized plan and
        its output."""
        view = self._catalog.view(bind_sources(query.sources, self._bindings), query.max_arity)
        output = query.output
        output.validate()
        plan = compile_plan(output.pattern, output.output_variables(), None, self._verify_plans)
        return _PlanLowering(view, self), plan, output

    def relational(self, query: Query) -> Tuple[str, int]:
        """``(name, arity)`` of a query's entry.  A malformed operator is
        checked by the oracle's relation operators, applied to empty
        relations of the operand arities."""
        entry = self.entry
        if isinstance(query, BaseRelation):
            arity = self._catalog.table(query.name)
            # Qualified: SQLite looks an unqualified name up among the
            # statement's entries first, so a table named ``q0`` would
            # read an entry; a ``main.`` name is never an entry.
            return entry(f'SELECT * FROM main."{query.name}"'), arity
        if isinstance(query, Constant):
            if query.require_active:
                self.active_constants.append(query.value)
            return entry(f"SELECT {self.emit(query.value)} AS c1"), 1
        if isinstance(query, ConstantRelation) and query.rows:
            # One VALUES list (a compound SELECT would stop at 500 rows);
            # slots bound to equal values make equal rows, so DISTINCT.
            rows = (_select_list([self.emit(value) for value in row]) for row in query.rows)
            values = entry("VALUES " + ", ".join(f"({row})" for row in rows))
            columns = [f"column{i} AS c{i}" for i in range(1, query.arity + 1)]
            return entry(f"SELECT DISTINCT {_select_list(columns)} FROM {values}"), query.arity
        if isinstance(query, (ConstantRelation, EmptyRelation)):  # no rows
            columns = [f"NULL AS c{i}" for i in range(1, query.arity + 1)]
            return entry(f"SELECT {_select_list(columns)} WHERE 1 = 0"), query.arity
        if isinstance(query, ActiveDomainQuery):
            self._catalog.table("__adom")
            return entry("SELECT c1 FROM main.__adom"), 1
        if isinstance(query, Project):
            operand, arity = self.relational(query.operand)
            Relation.empty(arity).project(query.positions)
            columns = [f"{operand}.c{p} AS c{i}" for i, p in enumerate(query.positions, 1)]
            return entry(f"SELECT DISTINCT {', '.join(columns)} FROM {operand}"), len(columns)
        if isinstance(query, Select):
            operand, arity = self.relational(query.operand)
            check_selection(query.condition, arity)
            predicate = _compile_ra_condition(query.condition, operand, self.emit)
            return entry(f"SELECT * FROM {operand} WHERE {predicate}"), arity
        if isinstance(query, Product):
            left, left_arity = self.relational(query.left)
            right, right_arity = self.relational(query.right)
            columns = [f"{left}.c{i} AS c{i}" for i in range(1, left_arity + 1)]
            columns += [f"{right}.c{i} AS c{left_arity + i}" for i in range(1, right_arity + 1)]
            sql = f"SELECT {_select_list(columns)} FROM {left}, {right}"
            return entry(sql), left_arity + right_arity
        if isinstance(query, (Union, Difference)):
            left, arity = self.relational(query.left)
            right, right_arity = self.relational(query.right)
            if isinstance(query, Union):
                operator, check = "UNION", Relation.union
            else:
                operator, check = "EXCEPT", Relation.difference
            check(Relation.empty(arity), Relation.empty(right_arity))
            return entry(f"SELECT * FROM {left} {operator} SELECT * FROM {right}"), arity
        if isinstance(query, GraphPattern):  # nested: the enclosing SQL reads its values
            patterns, plan, output = self.pattern(query)
            return patterns.output(plan, output)
        raise EngineError(f"the sqlite backend cannot compile query node {type(query).__name__}")


def _selects_both_ends_of_a_repetition(plan: LogicalPlan, variables: Sequence[str]) -> bool:
    """Whether ``plan``'s rows are distinct on ``variables`` without a
    ``DISTINCT``: ``plan`` is a repetition, whose lowered pairs are a set
    (every branch of :meth:`_PlanLowering._fixpoint` ends in ``UNION`` or
    ``DISTINCT``), under endpoint bindings of which ``variables`` take
    one bound to its source and one bound to its target.  A ``DISTINCT``
    there would only sort the closure's rows once more."""
    ends = set()
    while isinstance(plan, BindEndpoint):
        if plan.variable in variables:
            ends.add(plan.use_source)
        plan = plan.operand
    return isinstance(plan, FixpointStep) and ends == {True, False}


class _PlanLowering:
    """Lowers an optimized :class:`LogicalPlan` to entries over one view's
    encoded tables.

    Every plan node's entry has columns ``src``, ``tgt`` and one column
    ``v_<name>`` per variable it binds, all of them integer element ids (so
    the identifier arity matters only where :meth:`output` decodes a
    variable in SQL).  The view was checked when it was built, so ``src``
    and ``tgt`` of every row are nodes — which is what lets
    ``BindEndpoint`` name an endpoint instead of probing the node table.
    """

    def __init__(self, view: ViewTables, statement: _Lowering):
        self.view = view
        #: The statement being lowered: its list, literal sink and probes.
        self._statement = statement
        self._entry = statement.entry
        self._emit = statement.emit

    # -- plan nodes ----------------------------------------------------------
    def lower(self, plan: LogicalPlan) -> Tuple[str, Tuple[str, ...]]:
        """``(name, variables)``: the ``v_<name>`` columns the entry carries
        besides ``src`` and ``tgt`` (:func:`~repro.analysis.verifier.physical_variables`)."""
        if isinstance(plan, (NodeScan, EdgeScan)):
            return self._scan(plan)
        if isinstance(plan, JoinStep):
            left, left_vars = self.lower(plan.left)
            right, right_vars = self.lower(plan.right)
            added = tuple(v for v in right_vars if v not in left_vars)
            keys = [f"{left}.tgt = {right}.src"]
            keys += [f"{left}.v_{v} = {right}.v_{v}" for v in right_vars if v in left_vars]
            columns = [f"{left}.src AS src", f"{right}.tgt AS tgt"]
            columns += [f"{left}.v_{v} AS v_{v}" for v in left_vars]
            columns += [f"{right}.v_{v} AS v_{v}" for v in added]
            sql = f"SELECT {', '.join(columns)} FROM {left} JOIN {right} ON {' AND '.join(keys)}"
            return self._entry(sql), left_vars + added
        if isinstance(plan, BindEndpoint):
            operand, variables = self.lower(plan.operand)
            endpoint = "src" if plan.use_source else "tgt"
            sql = f"SELECT *, {endpoint} AS v_{plan.variable} FROM {operand}"
            return self._entry(sql), (*variables, plan.variable)
        if isinstance(plan, UnionStep):
            left, left_vars = self.lower(plan.left)
            right, right_vars = self.lower(plan.right)
            # An arm may bind residue its own filters needed; like the
            # planned executor's union, keep what both arms bind.
            variables = tuple(v for v in left_vars if v in right_vars)
            columns = ", ".join(["src", "tgt"] + [f"v_{v}" for v in variables])
            sql = f"SELECT {columns} FROM {left} UNION SELECT {columns} FROM {right}"
            return self._entry(sql), variables
        if isinstance(plan, FilterStep):
            operand, variables = self.lower(plan.operand)
            predicate = self._condition(plan.condition, lambda name: f"{operand}.v_{name}")
            return self._entry(f"SELECT * FROM {operand} WHERE {predicate}"), variables
        if isinstance(plan, FixpointStep):
            return self._fixpoint(plan), ()
        if isinstance(plan, EmptyPlan):
            variables = tuple(sorted(plan.schema))
            columns = ["src", "tgt"] + [f"v_{v}" for v in variables]
            sql = f"SELECT {', '.join(f'NULL AS {c}' for c in columns)} WHERE 1 = 0"
            return self._entry(sql), variables
        raise EngineError(f"the sqlite backend cannot compile plan node {type(plan).__name__}")

    def _scan(self, plan) -> Tuple[str, Tuple[str, ...]]:
        """A node or edge scan, its pushed labels and condition one
        ``WHERE`` over the scanned element."""
        if isinstance(plan, NodeScan):
            element, src, tgt = "n.c1", "n.c1", "n.c1"
            tables = f"{self.view.nodes} AS n"
        else:
            element = "e.c1"
            src, tgt = ("s.c2", "t.c2") if plan.forward else ("t.c2", "s.c2")
            tables = (
                f"{self.view.edges} AS e "
                f"JOIN {self.view.sources} AS s ON s.c1 = e.c1 "
                f"JOIN {self.view.targets} AS t ON t.c1 = e.c1"
            )
        variables = tuple(plan.variables())
        columns = [f"{src} AS src", f"{tgt} AS tgt"] + [f"{element} AS v_{v}" for v in variables]
        sql = f"SELECT {', '.join(columns)} FROM {tables}"
        conjuncts: List[PatternCondition] = [
            HasLabel(plan.variable, label) for label in sorted(plan.labels)
        ]
        if plan.condition is not None:
            conjuncts.append(plan.condition)
        if conjuncts:
            predicates = [self._condition(c, lambda _name: element) for c in conjuncts]
            sql += " WHERE " + " AND ".join(predicates)
        return self._entry(sql), variables

    def _fixpoint(self, plan: FixpointStep) -> str:
        body, _variables = self.lower(plan.body)
        # The repetition erases bindings; only (src, tgt) pairs matter.
        # As a MATERIALIZED entry the body — label and property probes,
        # placeholders and all — is evaluated exactly once per execution,
        # and the steps and closure below read it by name as often as they
        # like (SQLite gives the transient table an automatic index on the
        # join column), instead of re-deriving the conditions on every
        # extension.  The number is unique per repetition, so nested
        # bodies keep their own names.
        number = next(self._statement.repetitions)
        pair = self._entry(
            f"SELECT DISTINCT src, tgt FROM {body}", f"pair{number}", "(src, tgt)", True
        )
        self._probe(plan, pair, number)
        if not plan.is_unbounded:
            steps = [self._steps(pair, n) for n in range(plan.lower, int(plan.upper) + 1)]
            if len(steps) == 1:
                return steps[0]
            return self._entry(" UNION ".join(f"SELECT src, tgt FROM {s}" for s in steps))
        # psi^{lower..inf} = (exactly `lower` steps) composed with psi^*:
        # seeding the recursion with the exact-`lower` prefix keeps the
        # entry's working set at (src, tgt) pairs closed by saturation — no
        # step counter, so a pair is derived once instead of once per
        # depth (the walk(src, tgt, steps) formulation was quadratic in
        # practice: every pair re-entered the queue at up to
        # lower + |N| depths).
        seed = self._steps(pair, plan.lower)
        self._statement.recursive = True
        reach = f"reach{number}"
        return self._entry(
            f"SELECT src, tgt FROM {seed}"
            f" UNION SELECT {reach}.src, pair.tgt"
            f" FROM {reach} JOIN {pair} AS pair ON {reach}.tgt = pair.src",
            reach,
            "(src, tgt)",
        )

    def _probe(self, plan: FixpointStep, pair: str, number: int) -> None:
        """Add the depth probe of a repetition that could run past the
        ``max_repetitions`` bound ``b`` to the statement.

        The kernels of :mod:`repro.matching.fixpoint` raise at the first
        depth ``d > b``, ``d >= lower``, reaching a pair no depth in
        ``[lower, d)`` reached.  Only ``d* = max(b + 1, lower)`` can be it:
        a pair at ``d* + 1`` extends one at ``d*``, so if ``d*`` adds none,
        no deeper depth does.  And none can past ``lower + |N| - 1``: a
        longer walk repeats a node after its first ``lower`` steps, and
        cutting that cycle leaves a shorter walk of at least ``lower``
        steps; so with ``b >= lower + |N| - 1`` there is nothing to probe.
        Otherwise the probe walks the body pairs depth-tagged up to ``d*``
        (at most |pairs| x ``d*`` rows) for a pair reached at ``d*`` but at
        no depth in ``[lower, b]``.  It reads the statement's list up to
        ``pair`` and runs before the statement, bound to the slots that list
        numbered: SQLite may skip an entry whose join partner is empty,
        while the other engines check every repetition.
        """
        bound = self._statement.max_repetitions
        if bound is None or (not plan.is_unbounded and plan.upper <= bound):
            return
        if bound + 1 >= plan.lower + self.view.encoded.node_count:
            return
        depth = max(bound + 1, plan.lower)
        walk = f"walk{number}"
        sql = self._statement.statement(
            f"SELECT 1 FROM {walk} AS deep WHERE deep.depth = {depth} AND NOT EXISTS ("
            f"SELECT 1 FROM {walk} AS early WHERE early.src = deep.src AND early.tgt = deep.tgt"
            f" AND early.depth BETWEEN {plan.lower} AND {bound}) LIMIT 1",
            f"{walk}(src, tgt, depth) AS (SELECT c1, c1, 0 FROM {self.view.nodes}"
            f" UNION SELECT {walk}.src, pair.tgt, {walk}.depth + 1"
            f" FROM {walk} JOIN {pair} AS pair ON {walk}.tgt = pair.src"
            f" WHERE {walk}.depth < {depth})",
        )
        self._statement.probes.append((sql, len(self._statement.slots), depth))

    def _steps(self, pair: str, count: int) -> str:
        """The entry of the pairs exactly ``count`` body steps apart."""
        if count == 0:
            return self._entry(f"SELECT c1 AS src, c1 AS tgt FROM {self.view.nodes}")
        current = pair
        for _ in range(count - 1):
            current = self._entry(
                f"SELECT {current}.src AS src, pair.tgt AS tgt "
                f"FROM {current} JOIN {pair} AS pair ON {current}.tgt = pair.src"
            )
        return pair if count == 1 else self._entry(f"SELECT DISTINCT src, tgt FROM {current}")

    # -- conditions --------------------------------------------------------
    def _condition(self, condition: PatternCondition, column: Callable[[str], str]) -> str:
        """``condition`` as a SQL predicate; ``column`` maps a variable to
        the expression holding its element id."""
        if isinstance(condition, HasLabel):
            return (
                f"EXISTS (SELECT 1 FROM {self.view.labels} AS lab "
                f"WHERE lab.c1 = {column(condition.var)} AND lab.c2 = {_sql_literal(condition.label)})"
            )
        if isinstance(condition, PropertyCompare):
            compare = _comparison("prop.c3", condition.operator, self._emit(condition.constant))
            return (
                f"EXISTS (SELECT 1 FROM {self.view.properties} AS prop "
                f"WHERE prop.c1 = {column(condition.var)} AND prop.c2 = {_sql_literal(condition.key)} "
                f"AND {compare})"
            )
        if isinstance(condition, (PropertyEquals, PropertyComparesProperty)):
            compare = _comparison("p1.c3", getattr(condition, "operator", "="), "p2.c3")
            return (
                f"EXISTS (SELECT 1 FROM {self.view.properties} AS p1, {self.view.properties} AS p2 "
                f"WHERE p1.c1 = {column(condition.left_var)} AND p1.c2 = {_sql_literal(condition.left_key)} "
                f"AND p2.c1 = {column(condition.right_var)} AND p2.c2 = {_sql_literal(condition.right_key)} "
                f"AND {compare})"
            )
        if isinstance(condition, (AndCondition, OrCondition)):
            connective = "AND" if isinstance(condition, AndCondition) else "OR"
            left = self._condition(condition.left, column)
            right = self._condition(condition.right, column)
            return f"({left} {connective} {right})"
        if isinstance(condition, NotCondition):
            return f"NOT ({self._condition(condition.operand, column)})"
        raise EngineError(
            f"the sqlite backend cannot compile pattern condition {type(condition).__name__}"
        )

    # -- output patterns ----------------------------------------------------
    def ids(self, plan: LogicalPlan, output: OutputPattern) -> Tuple[str, CompactTable]:
        """``(SELECT, layout)`` of a root ``output`` over ``plan``: the
        statement's final ``SELECT`` of the distinct element ids of the
        variables the output reads, one column each in order of first use,
        undecoded — deduplicated in SQL unless the plan makes them distinct
        already; the layout is the empty table of those ids.  An id is a
        node ID unless an edge pattern binds its variable: then it is an
        element ID."""
        body, _variables = self.lower(plan)
        variables = list(
            dict.fromkeys(i.variable if isinstance(i, PropertyRef) else i for i in output.items)
        )
        edges = {p.variable for p in iter_subpatterns(output.pattern) if isinstance(p, EdgePattern)}
        kinds = {v: "element" if v in edges else "node" for v in variables}
        layout = CompactTable({v: index for index, v in enumerate(variables)}, kinds, set())
        columns = _select_list([f"{body}.v_{v}" for v in variables])
        distinct = "" if _selects_both_ends_of_a_repetition(plan, variables) else "DISTINCT "
        return f"SELECT {distinct}{columns} FROM {body}", layout

    def output(self, plan: LogicalPlan, output: OutputPattern) -> Tuple[str, int]:
        """``(name, arity)`` of a nested ``output`` over ``plan`` (its
        optimized pattern), decoded in SQL: a property reference is one
        column, a bare variable its ``n`` identifier columns."""
        body, _variables = self.lower(plan)
        items = []
        joins = []
        for index, item in enumerate(output.items):
            if isinstance(item, PropertyRef):
                prop_alias = f"out_prop{index}"
                joins.append(
                    f"JOIN {self.view.properties} AS {prop_alias} "
                    f"ON {prop_alias}.c1 = {body}.v_{item.variable} "
                    f"AND {prop_alias}.c2 = {_sql_literal(item.key)}"
                )
                items.append(f"{prop_alias}.c3")
            else:
                id_alias = f"out_id{index}"
                joins.append(
                    f"JOIN {self.view.ids} AS {id_alias} ON {id_alias}.id = {body}.v_{item}"
                )
                items += [f"{id_alias}.c{i}" for i in range(1, self.view.identifier_arity + 1)]
        select_items = [f"{item} AS c{position}" for position, item in enumerate(items, start=1)]
        join_sql = (" " + " ".join(joins)) if joins else ""
        sql = f"SELECT DISTINCT {_select_list(select_items)} FROM {body}{join_sql}"
        return self._entry(sql), len(items)
