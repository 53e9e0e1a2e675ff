"""Translation from FO[TC] formulas to PGQ queries (Theorem 6.2, Lemma 9.4).

First-order connectives and quantifiers map to relational algebra over the
active domain (negation and universal quantification are relativized to
``adom(D)``, realized by the :class:`ActiveDomainQuery` primitive, which the
paper spells out as ``Q_A = union over R in S, i of pi_i(R)``).

The key case is a transitive-closure subformula

    TC_{u-bar, v-bar}[ phi(u-bar, v-bar, p-bar) ](x-bar, y-bar).

Lemma 9.4 builds, per parameter tuple ``c-bar``, a property graph ``G_c``
whose edges are the satisfying ``(u-bar, v-bar)`` pairs, applies the
reachability pattern ``(x) ->* (y)``, and joins the parameters back.  Our
executable rendering performs that join *inside the view*: parameters are
appended to the node and edge identifiers, so one uniform ``PGQext`` query
works for every database (this realizes the "union is realized by an
ordinary join" remark of the Lemma).  Edge identifiers are the concatenated
``(u-bar, v-bar, p-bar)`` tuples and node identifiers the duplicated
``(w-bar, w-bar, p-bar)`` tuples, mirroring the arity padding used in the
Lemma so all six view relations share one identifier arity.

Conventions
-----------
* A translated subformula is carried as a query plus the ordered list of
  variables its columns stand for.
* A subformula without free variables ("Boolean") is carried as a *unary*
  query that is non-empty iff the subformula holds; the top-level
  :func:`translate_formula` documents the same convention for sentences.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TranslationError
from repro.logic.formulas import (
    And,
    ConstantTerm,
    Equals,
    Exists,
    ForAll,
    Formula,
    Not,
    Or,
    RelationAtom,
    Term,
    TransitiveClosure,
    Variable,
)
from repro.patterns.builder import reachability
from repro.pgq.queries import (
    ActiveDomainQuery,
    BaseRelation,
    Difference,
    EmptyRelation,
    GraphPattern,
    Product,
    Project,
    Query,
    Select,
    Union,
)
from repro.relational.conditions import (
    And as RAAnd,
    ColumnEquals,
    ColumnEqualsConstant,
    Condition,
    Not as RANot,
    conjoin,
)


def _adom_power(arity: int) -> Query:
    """``A^(k)``: the k-fold product of the active-domain query."""
    if arity < 1:
        raise TranslationError("the active-domain power needs arity >= 1")
    query: Query = ActiveDomainQuery()
    for _ in range(arity - 1):
        query = Product(query, ActiveDomainQuery())
    return query


class _Translated:
    """A query plus the variable name of each output column.

    ``columns == ()`` marks a Boolean result carried as a unary query
    (non-empty iff true).
    """

    def __init__(self, query: Query, columns: Tuple[str, ...]):
        self.query = query
        self.columns = columns

    @property
    def is_boolean(self) -> bool:
        return not self.columns


class FOTCToPGQ:
    """Translator from FO[TC] formulas to PGQ queries."""

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def translate(
        self, formula: Formula, free_variables: Optional[Tuple[str, ...]] = None
    ) -> Tuple[Query, Tuple[str, ...]]:
        """Translate ``formula``; returns ``(query, output column variables)``.

        The column order defaults to the sorted free variables, matching
        :meth:`repro.logic.algebraic.AlgebraicFOTCEvaluator.result`.  For a
        sentence the returned query is unary and non-empty iff the sentence
        holds.
        """
        if free_variables is None:
            free_variables = tuple(sorted(formula.free_variables()))
        missing = formula.free_variables() - set(free_variables)
        if missing:
            raise TranslationError(
                f"free variables {sorted(missing)} of the formula are not listed in the output order"
            )
        translated = self._formula(formula)
        if not free_variables:
            return translated.query, ()
        return self._align(translated, tuple(free_variables)).query, tuple(free_variables)

    # ------------------------------------------------------------------ #
    # Column alignment helpers
    # ------------------------------------------------------------------ #
    def _align(self, translated: _Translated, target: Tuple[str, ...]) -> _Translated:
        """Extend/reorder a translated query so its columns are ``target``.

        Variables not already present are unconstrained and range over the
        active domain; a Boolean operand becomes a filter on ``adom^|target|``.
        """
        if translated.columns == target:
            return translated
        if translated.is_boolean:
            universe = _adom_power(len(target))
            product = Product(universe, translated.query)
            projected = Project(product, tuple(range(1, len(target) + 1)))
            return _Translated(projected, target)
        query = translated.query
        columns = translated.columns
        for name in target:
            if name not in columns:
                query = Product(query, ActiveDomainQuery())
                columns = columns + (name,)
        extra = tuple(name for name in columns if name not in target)
        if extra:
            raise TranslationError(
                f"cannot drop columns {extra} while aligning to {target}; project them out first"
            )
        positions = tuple(columns.index(name) + 1 for name in target)
        return _Translated(Project(query, positions), target)

    @staticmethod
    def _as_boolean(translated: _Translated) -> _Translated:
        """Collapse a translated query to the unary Boolean convention."""
        if translated.is_boolean:
            return translated
        return _Translated(Project(translated.query, (1,)), ())

    # ------------------------------------------------------------------ #
    # Formula cases
    # ------------------------------------------------------------------ #
    def _formula(self, formula: Formula) -> _Translated:
        if isinstance(formula, RelationAtom):
            return self._constrain_terms(BaseRelation(formula.relation), formula.terms)
        if isinstance(formula, Equals):
            return self._equality(formula)
        if isinstance(formula, Not):
            return self._negation(formula)
        if isinstance(formula, And):
            return self._conjunction(formula)
        if isinstance(formula, Or):
            return self._disjunction(formula)
        if isinstance(formula, Exists):
            return self._exists(formula)
        if isinstance(formula, ForAll):
            # forall x . phi  ==  not exists x . not phi, relativized to adom.
            return self._formula(Not(Exists(formula.variables, Not(formula.body))))
        if isinstance(formula, TransitiveClosure):
            return self._transitive_closure(formula)
        raise TranslationError(f"cannot translate formula node {formula!r}")

    def _constrain_terms(self, query: Query, terms: Sequence[Term]) -> _Translated:
        """Select/project a query with one column per term down to its variables.

        Constants become constant selections, repeated variables become
        column equalities, and the result keeps one column per distinct
        variable ordered by first occurrence.  With no variables at all the
        result follows the unary Boolean convention.
        """
        conditions: List[Condition] = []
        first_position: Dict[str, int] = {}
        for index, term_obj in enumerate(terms, start=1):
            if isinstance(term_obj, ConstantTerm):
                conditions.append(ColumnEqualsConstant(index, term_obj.value))
            elif isinstance(term_obj, Variable):
                if term_obj.name in first_position:
                    conditions.append(ColumnEquals(first_position[term_obj.name], index))
                else:
                    first_position[term_obj.name] = index
            else:
                raise TranslationError(f"unknown term {term_obj!r}")
        if conditions:
            query = Select(query, conjoin(tuple(conditions)))
        if not first_position:
            return self._as_boolean(_Translated(Project(query, (1,)), ()))
        columns = tuple(sorted(first_position, key=lambda name: first_position[name]))
        projected = Project(query, tuple(first_position[name] for name in columns))
        return _Translated(projected, columns)

    def _equality(self, formula: Equals) -> _Translated:
        left, right = formula.left, formula.right
        if isinstance(left, ConstantTerm) and isinstance(right, ConstantTerm):
            if left.value == right.value:
                return _Translated(ActiveDomainQuery(), ())
            return _Translated(EmptyRelation(1), ())
        if isinstance(left, Variable) and isinstance(right, Variable):
            if left.name == right.name:
                return _Translated(ActiveDomainQuery(), (left.name,))
            equal_pairs = Select(
                Product(ActiveDomainQuery(), ActiveDomainQuery()), ColumnEquals(1, 2)
            )
            return _Translated(equal_pairs, (left.name, right.name))
        variable, constant = (left, right) if isinstance(left, Variable) else (right, left)
        assert isinstance(variable, Variable) and isinstance(constant, ConstantTerm)
        constrained = Select(ActiveDomainQuery(), ColumnEqualsConstant(1, constant.value))
        return _Translated(constrained, (variable.name,))

    def _conjunction(self, formula: And) -> _Translated:
        left = self._formula(formula.left)
        right = self._formula(formula.right)
        if left.is_boolean and right.is_boolean:
            combined = Project(Product(left.query, right.query), (1,))
            return _Translated(combined, ())
        if left.is_boolean or right.is_boolean:
            boolean, other = (left, right) if left.is_boolean else (right, left)
            product = Product(other.query, boolean.query)
            projected = Project(product, tuple(range(1, len(other.columns) + 1)))
            return _Translated(projected, other.columns)
        product = Product(left.query, right.query)
        offset = len(left.columns)
        conditions: List[Condition] = []
        for index, name in enumerate(right.columns, start=1):
            if name in left.columns:
                conditions.append(ColumnEquals(left.columns.index(name) + 1, offset + index))
        query: Query = Select(product, conjoin(tuple(conditions))) if conditions else product
        all_columns = left.columns + right.columns
        target = tuple(sorted(set(left.columns) | set(right.columns)))
        positions = tuple(all_columns.index(name) + 1 for name in target)
        return _Translated(Project(query, positions), target)

    def _disjunction(self, formula: Or) -> _Translated:
        left = self._formula(formula.left)
        right = self._formula(formula.right)
        target = tuple(sorted(set(left.columns) | set(right.columns)))
        if not target:
            return _Translated(Union(left.query, right.query), ())
        left_aligned = self._align(left, target)
        right_aligned = self._align(right, target)
        return _Translated(Union(left_aligned.query, right_aligned.query), target)

    def _negation(self, formula: Not) -> _Translated:
        inner = self._formula(formula.operand)
        columns = tuple(sorted(formula.operand.free_variables()))
        if not columns:
            # A Boolean operand is non-empty iff it holds, whatever its
            # rows: subtract all of adom when it does, nothing otherwise.
            universe = ActiveDomainQuery()
            holds = Project(Product(universe, inner.query), (1,))
            return _Translated(Difference(universe, holds), ())
        aligned = self._align(inner, columns)
        universe = _adom_power(len(columns))
        return _Translated(Difference(universe, aligned.query), columns)

    def _exists(self, formula: Exists) -> _Translated:
        inner = self._formula(formula.body)
        if inner.is_boolean:
            return inner
        remaining = tuple(name for name in inner.columns if name not in set(formula.variables))
        if remaining == inner.columns:
            # Vacuous quantification: the bound variables do not occur freely.
            return inner
        if not remaining:
            return self._as_boolean(inner)
        positions = tuple(inner.columns.index(name) + 1 for name in remaining)
        return _Translated(Project(inner.query, positions), remaining)

    # ------------------------------------------------------------------ #
    # Transitive closure (Lemma 9.4)
    # ------------------------------------------------------------------ #
    def _transitive_closure(self, formula: TransitiveClosure) -> _Translated:
        k = formula.arity
        parameters = tuple(sorted(formula.parameter_variables()))
        p = len(parameters)
        ident_arity = 2 * k + p

        body = self._formula(formula.body)
        edge_columns = formula.source_vars + formula.target_vars + parameters
        edge_query = self._align(body, edge_columns).query  # columns: u-bar, v-bar, p-bar

        u_positions = tuple(range(1, k + 1))
        v_positions = tuple(range(k + 1, 2 * k + 1))
        p_positions = tuple(range(2 * k + 1, 2 * k + p + 1))

        # Drop self-loop pairs (u-bar = v-bar): they add nothing beyond
        # reflexivity and would make an edge identifier collide with a node
        # identifier (condition (1) of Definition 5.1).
        loop_condition: Condition = ColumnEquals(u_positions[0], v_positions[0])
        for i in range(1, k):
            loop_condition = RAAnd(loop_condition, ColumnEquals(u_positions[i], v_positions[i]))
        proper_edges = Select(edge_query, RANot(loop_condition))

        edge_ids = Project(proper_edges, u_positions + v_positions + p_positions)
        node_from_sources = Project(proper_edges, u_positions + u_positions + p_positions)
        node_from_targets = Project(proper_edges, v_positions + v_positions + p_positions)
        node_ids = Union(node_from_sources, node_from_targets)
        source_map = Project(
            proper_edges,
            u_positions + v_positions + p_positions + u_positions + u_positions + p_positions,
        )
        target_map = Project(
            proper_edges,
            u_positions + v_positions + p_positions + v_positions + v_positions + p_positions,
        )
        view = (
            node_ids,
            edge_ids,
            source_map,
            target_map,
            EmptyRelation(ident_arity + 1),
            EmptyRelation(ident_arity + 2),
        )
        reach = GraphPattern(reachability("x", "y"), view)

        # Reachability rows are (x-bar, x-bar, p-bar, y-bar, y-bar, p-bar).
        start_positions = tuple(range(1, k + 1))
        end_positions = tuple(range(ident_arity + 1, ident_arity + k + 1))
        param_positions = tuple(range(2 * k + 1, 2 * k + p + 1))
        same_params = tuple(
            ColumnEquals(2 * k + i, ident_arity + 2 * k + i) for i in range(1, p + 1)
        )
        reach_query: Query = Select(reach, conjoin(same_params)) if same_params else reach
        positive_part = Project(reach_query, start_positions + end_positions + param_positions)

        # Reflexive part: TC holds on (w-bar, w-bar) for every tuple over adom,
        # for every parameter assignment.
        adom_k = _adom_power(k)
        duplicated = Project(adom_k, tuple(range(1, k + 1)) + tuple(range(1, k + 1)))
        reflexive: Query = Product(duplicated, _adom_power(p)) if p else duplicated
        closure_core = Union(positive_part, reflexive)

        # Apply the start/end terms (constants, repeated variables) like an atom.
        terms = (
            tuple(formula.start_terms)
            + tuple(formula.end_terms)
            + tuple(Variable(name) for name in parameters)
        )
        return self._constrain_terms(closure_core, terms)


def translate_formula(
    formula: Formula, free_variables: Optional[Tuple[str, ...]] = None
) -> Tuple[Query, Tuple[str, ...]]:
    """Translate an FO[TC] formula to a PGQ query (Theorem 6.2).

    Returns the query and the ordered tuple of variables its columns stand
    for.  For a sentence the query is unary and non-empty iff the sentence
    holds on the database.
    """
    return FOTCToPGQ().translate(formula, free_variables)
