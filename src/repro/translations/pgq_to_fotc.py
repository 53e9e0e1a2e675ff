"""Translation from PGQ queries to FO[TC] formulas (Theorem 6.1, Lemma 9.3).

The translation is syntax-directed:

* the relational operators map to first-order connectives and quantifiers
  (step (i) in the paper's proof sketch);
* a ``GraphPattern`` node maps to a formula ``exists x_src x_tgt .
  phi_psi(z-bar, x_src, x_tgt)`` where ``phi_psi`` is the pattern
  translation of Lemma 9.3, with the six view relations replaced by the
  translations of the six view subqueries (step (ii));
* unbounded repetition becomes a transitive-closure operator over
  identifier tuples, so a view of identifier arity ``n`` yields TC
  operators of arity ``n`` — this is what makes the translation land in
  ``FO[TC_n]`` for ``PGQ_n`` queries (Theorem 6.5).

Every pattern variable of identifier arity ``n`` is represented by ``n``
first-order variables; property values are single variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import TranslationError
from repro.logic.formulas import (
    And,
    ConstantTerm,
    Equals,
    Exists,
    Formula,
    Not,
    Or,
    RelationAtom,
    TransitiveClosure,
    Variable,
    eq,
)
from repro.patterns.ast import (
    Concatenation,
    Disjunction,
    EdgePattern,
    Filter,
    NodePattern,
    Pattern,
    PropertyRef,
    Repetition,
)
from repro.patterns.conditions import (
    AndCondition,
    HasLabel,
    NotCondition,
    OrCondition,
    PatternCondition,
    PropertyCompare,
    PropertyEquals,
)
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
    static_query_arity,
)
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
from repro.relational.schema import Schema


def _conjoin(formulas: Sequence[Formula]) -> Formula:
    if not formulas:
        raise TranslationError("cannot conjoin an empty list of formulas")
    result = formulas[0]
    for formula in formulas[1:]:
        result = And(result, formula)
    return result


def _disjoin(formulas: Sequence[Formula]) -> Formula:
    if not formulas:
        raise TranslationError("cannot disjoin an empty list of formulas")
    result = formulas[0]
    for formula in formulas[1:]:
        result = Or(result, formula)
    return result


def _always_false(variables: Sequence[str]) -> Formula:
    """A contradiction whose free variables are exactly ``variables``; with
    none it is a sentence."""
    if not variables:
        return Exists(("__false",), Not(eq("__false", "__false")))
    return _conjoin([Not(eq(name, name)) for name in variables])


@dataclass
class _NameGenerator:
    """Generates fresh first-order variable names."""

    counter: int = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"

    def fresh_tuple(self, prefix: str, arity: int) -> Tuple[str, ...]:
        return tuple(self.fresh(prefix) for _ in range(arity))


class PGQToFOTC:
    """Translator from PGQ queries over a schema to FO[TC] formulas."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.names = _NameGenerator()

    # ------------------------------------------------------------------ #
    # Query translation (Theorem 6.1)
    # ------------------------------------------------------------------ #
    def translate(self, query: Query) -> Tuple[Formula, Tuple[str, ...]]:
        """Translate a query; returns ``(formula, output variable names)``.

        The i-th output variable corresponds to the i-th column of the
        query result, so ``[[Q]]_D = [[formula(vars)]]_D`` column-wise.
        """
        arity = static_query_arity(query, self.schema)
        variables = tuple(self.names.fresh("o") for _ in range(arity))
        formula = self._query(query, variables)
        return formula, variables

    def _query(self, query: Query, variables: Tuple[str, ...]) -> Formula:
        """Formula asserting that ``variables`` is a row of ``query``'s result."""
        if isinstance(query, BaseRelation):
            return RelationAtom(query.name, tuple(Variable(v) for v in variables))
        if isinstance(query, Constant):
            return Equals(Variable(variables[0]), ConstantTerm(query.value))
        if isinstance(query, ConstantRelation):
            if not query.rows:
                return _always_false(variables)
            if not variables:  # the 0-ary unit relation {()}
                return Not(_always_false(()))
            return _disjoin([
                _conjoin([Equals(Variable(v), ConstantTerm(value))
                          for v, value in zip(variables, row)])
                for row in query.rows
            ])
        if isinstance(query, ActiveDomainQuery):
            return self._active_domain(variables[0])
        if isinstance(query, EmptyRelation):
            return _always_false(variables)
        if isinstance(query, Project):
            return self._project(query, variables)
        if isinstance(query, Select):
            inner = self._query(query.operand, variables)
            condition = self._ra_condition(query.condition, variables)
            return And(inner, condition)
        if isinstance(query, Product):
            left_arity = static_query_arity(query.left, self.schema)
            left = self._query(query.left, variables[:left_arity])
            right = self._query(query.right, variables[left_arity:])
            return And(left, right)
        if isinstance(query, Union):
            return Or(self._query(query.left, variables), self._query(query.right, variables))
        if isinstance(query, Difference):
            return And(self._query(query.left, variables),
                       Not(self._query(query.right, variables)))
        if isinstance(query, GraphPattern):
            return self._graph_pattern(query, variables)
        raise TranslationError(f"cannot translate query node {query!r}")

    def _active_domain(self, variable: str) -> Formula:
        """``adom(x)`` as the union over all relation positions (Theorem 6.2)."""
        disjuncts: List[Formula] = []
        for relation in self.schema:
            for position in range(relation.arity):
                others = self.names.fresh_tuple("a", relation.arity)
                terms = [Variable(name) for name in others]
                terms[position] = Variable(variable)
                atom_formula: Formula = RelationAtom(relation.name, tuple(terms))
                bound = tuple(name for i, name in enumerate(others) if i != position)
                if bound:
                    atom_formula = Exists(bound, atom_formula)
                disjuncts.append(atom_formula)
        if not disjuncts:
            return _always_false((variable,))
        return _disjoin(disjuncts)

    def _project(self, query: Project, variables: Tuple[str, ...]) -> Formula:
        operand_arity = static_query_arity(query.operand, self.schema)
        inner_vars = self.names.fresh_tuple("p", operand_arity)
        inner = self._query(query.operand, inner_vars)
        constraints: List[Formula] = [inner]
        for out_var, position in zip(variables, query.positions):
            constraints.append(eq(out_var, inner_vars[position - 1]))
        return Exists(inner_vars, _conjoin(constraints))

    def _ra_condition(self, condition: Condition, variables: Tuple[str, ...]) -> Formula:
        """Translate a positional selection condition against the output vars."""
        if isinstance(condition, TrueCondition):
            if not variables:
                return Not(_always_false(()))
            return Equals(Variable(variables[0]), Variable(variables[0]))
        if isinstance(condition, ColumnEquals):
            return eq(variables[condition.left - 1], variables[condition.right - 1])
        if isinstance(condition, ColumnEqualsConstant):
            return Equals(Variable(variables[condition.position - 1]),
                          ConstantTerm(condition.constant))
        if isinstance(condition, ColumnCompare) and condition.operator in ("=", "!="):
            base = eq(variables[condition.left - 1], variables[condition.right - 1])
            return base if condition.operator == "=" else Not(base)
        if isinstance(condition, ColumnCompareConstant) and condition.operator in ("=", "!="):
            base = Equals(Variable(variables[condition.position - 1]),
                          ConstantTerm(condition.constant))
            return base if condition.operator == "=" else Not(base)
        if isinstance(condition, RAAnd):
            return And(self._ra_condition(condition.left, variables),
                       self._ra_condition(condition.right, variables))
        if isinstance(condition, RAOr):
            return Or(self._ra_condition(condition.left, variables),
                      self._ra_condition(condition.right, variables))
        if isinstance(condition, RANot):
            return Not(self._ra_condition(condition.operand, variables))
        raise TranslationError(
            f"selection condition {condition!r} uses an ordered comparison, which is outside "
            "the equality-based condition grammar of Figure 3"
        )

    # ------------------------------------------------------------------ #
    # Pattern translation (Lemma 9.3)
    # ------------------------------------------------------------------ #
    def _graph_pattern(self, query: GraphPattern, variables: Tuple[str, ...]) -> Formula:
        arity = static_query_arity(query.sources[0], self.schema)
        if query.max_arity is not None and arity > query.max_arity:
            raise TranslationError(
                f"graph pattern declares max identifier arity {query.max_arity} "
                f"but its node subquery has arity {arity}"
            )
        view = _ViewFormulas(self, query.sources, arity)
        context = _PatternContext(self, view, arity)

        output = query.output
        source_vars = self.names.fresh_tuple("src", arity)
        target_vars = self.names.fresh_tuple("tgt", arity)
        body = context.translate(output.pattern, source_vars, target_vars)

        # Bind the output columns: a plain variable item exposes the n
        # identifier components, a property reference exposes one value.
        constraints: List[Formula] = [body]
        position = 0
        exposed: List[str] = []
        for item in output.items:
            if isinstance(item, PropertyRef):
                value_var = variables[position]
                position += 1
                element_vars = context.variable_tuple(item.variable)
                constraints.append(view.prop(element_vars, ConstantTerm(item.key),
                                             Variable(value_var)))
                exposed.extend(element_vars)
            else:
                element_vars = context.variable_tuple(item)
                for component in element_vars:
                    constraints.append(eq(variables[position], component))
                    position += 1
        if position != len(variables):
            raise TranslationError(
                f"output pattern produces {position} columns but {len(variables)} were expected"
            )

        formula = _conjoin(constraints)
        bound = tuple(source_vars) + tuple(target_vars) + tuple(
            component
            for variable in sorted(context.bound_variables())
            for component in context.variable_tuple(variable)
        )
        # Deduplicate while preserving order.
        seen = set()
        quantified = []
        for name in bound:
            if name not in seen:
                seen.add(name)
                quantified.append(name)
        return Exists(tuple(quantified), formula) if quantified else formula


class _ViewFormulas:
    """The six view subqueries as formula templates (R1..R6 of the view)."""

    def __init__(self, translator: PGQToFOTC, sources: Sequence[Query], arity: int):
        self.translator = translator
        self.sources = tuple(sources)
        self.arity = arity

    def _apply(self, index: int, variables: Sequence[str | Variable | ConstantTerm]) -> Formula:
        terms = [v if isinstance(v, (Variable, ConstantTerm)) else Variable(v) for v in variables]
        names = []
        constraints: List[Formula] = []
        for term_obj in terms:
            if isinstance(term_obj, Variable):
                names.append(term_obj.name)
            else:
                fresh = self.translator.names.fresh("c")
                names.append(fresh)
                constraints.append(Equals(Variable(fresh), term_obj))
        inner = self.translator._query(self.sources[index], tuple(names))
        if constraints:
            bound = tuple(
                name for name, term_obj in zip(names, terms) if isinstance(term_obj, ConstantTerm)
            )
            return Exists(bound, _conjoin([inner] + constraints))
        return inner

    def node(self, variables: Sequence[str]) -> Formula:
        return self._apply(0, variables)

    def edge(self, variables: Sequence[str]) -> Formula:
        return self._apply(1, variables)

    def source(self, edge_vars: Sequence[str], node_vars: Sequence[str]) -> Formula:
        return self._apply(2, tuple(edge_vars) + tuple(node_vars))

    def target(self, edge_vars: Sequence[str], node_vars: Sequence[str]) -> Formula:
        return self._apply(3, tuple(edge_vars) + tuple(node_vars))

    def label(self, element_vars: Sequence[str], label: ConstantTerm) -> Formula:
        return self._apply(4, tuple(element_vars) + (label,))

    def prop(self, element_vars: Sequence[str], key: ConstantTerm, value: Variable) -> Formula:
        return self._apply(5, tuple(element_vars) + (key, value))


class _PatternContext:
    """Per-graph-pattern translation state: variable tuples and recursion."""

    def __init__(self, translator: PGQToFOTC, view: _ViewFormulas, arity: int):
        self.translator = translator
        self.view = view
        self.arity = arity
        self._tuples: Dict[str, Tuple[str, ...]] = {}

    def variable_tuple(self, pattern_variable: str) -> Tuple[str, ...]:
        """The FO variable tuple representing one pattern variable."""
        if pattern_variable not in self._tuples:
            self._tuples[pattern_variable] = self.translator.names.fresh_tuple(
                f"v_{pattern_variable}_", self.arity
            )
        return self._tuples[pattern_variable]

    def bound_variables(self) -> Tuple[str, ...]:
        return tuple(self._tuples)

    # -- pattern cases ---------------------------------------------------
    def translate(
        self, pattern: Pattern, source: Tuple[str, ...], target: Tuple[str, ...]
    ) -> Formula:
        if isinstance(pattern, NodePattern):
            return self._node(pattern, source, target)
        if isinstance(pattern, EdgePattern):
            return self._edge(pattern, source, target)
        if isinstance(pattern, Concatenation):
            midpoint = self.translator.names.fresh_tuple("m", self.arity)
            left = self.translate(pattern.left, source, midpoint)
            right = self.translate(pattern.right, midpoint, target)
            return Exists(midpoint, And(left, right))
        if isinstance(pattern, Disjunction):
            return Or(self.translate(pattern.left, source, target),
                      self.translate(pattern.right, source, target))
        if isinstance(pattern, Filter):
            body = self.translate(pattern.body, source, target)
            condition = self._condition(pattern.condition)
            return And(body, condition)
        if isinstance(pattern, Repetition):
            return self._repetition(pattern, source, target)
        raise TranslationError(f"cannot translate pattern node {pattern!r}")

    def _equal_tuples(self, left: Sequence[str], right: Sequence[str]) -> Formula:
        return _conjoin([eq(l, r) for l, r in zip(left, right)])

    def _node(
        self, pattern: NodePattern, source: Tuple[str, ...], target: Tuple[str, ...]
    ) -> Formula:
        if pattern.variable is not None:
            node_vars = self.variable_tuple(pattern.variable)
            return _conjoin([
                self.view.node(node_vars),
                self._equal_tuples(node_vars, source),
                self._equal_tuples(source, target),
            ])
        fresh = self.translator.names.fresh_tuple("n", self.arity)
        body = _conjoin([
            self.view.node(fresh),
            self._equal_tuples(fresh, source),
            self._equal_tuples(source, target),
        ])
        return Exists(fresh, body)

    def _edge(
        self, pattern: EdgePattern, source: Tuple[str, ...], target: Tuple[str, ...]
    ) -> Formula:
        if pattern.variable is not None:
            edge_vars = self.variable_tuple(pattern.variable)
            quantify: Tuple[str, ...] = ()
        else:
            edge_vars = self.translator.names.fresh_tuple("e", self.arity)
            quantify = edge_vars
        if pattern.forward:
            body = _conjoin([
                self.view.edge(edge_vars),
                self.view.source(edge_vars, source),
                self.view.target(edge_vars, target),
            ])
        else:
            body = _conjoin([
                self.view.edge(edge_vars),
                self.view.source(edge_vars, target),
                self.view.target(edge_vars, source),
            ])
        return Exists(quantify, body) if quantify else body

    def _condition(self, condition: PatternCondition) -> Formula:
        if isinstance(condition, HasLabel):
            element = self.variable_tuple(condition.var)
            return self.view.label(element, ConstantTerm(condition.label))
        if isinstance(condition, PropertyEquals):
            left = self.variable_tuple(condition.left_var)
            right = self.variable_tuple(condition.right_var)
            value_left = self.translator.names.fresh("w")
            value_right = self.translator.names.fresh("w")
            return Exists(
                (value_left, value_right),
                _conjoin([
                    self.view.prop(left, ConstantTerm(condition.left_key), Variable(value_left)),
                    self.view.prop(right, ConstantTerm(condition.right_key), Variable(value_right)),
                    eq(value_left, value_right),
                ]),
            )
        if isinstance(condition, PropertyCompare) and condition.operator in ("=", "!="):
            element = self.variable_tuple(condition.var)
            value = self.translator.names.fresh("w")
            base = Exists(
                (value,),
                And(
                    self.view.prop(element, ConstantTerm(condition.key), Variable(value)),
                    Equals(Variable(value), ConstantTerm(condition.constant)),
                ),
            )
            if condition.operator == "=":
                return base
            defined = Exists(
                (value,),
                self.view.prop(element, ConstantTerm(condition.key), Variable(value)),
            )
            return And(defined, Not(base))
        if isinstance(condition, AndCondition):
            return And(self._condition(condition.left), self._condition(condition.right))
        if isinstance(condition, OrCondition):
            return Or(self._condition(condition.left), self._condition(condition.right))
        if isinstance(condition, NotCondition):
            return Not(self._condition(condition.operand))
        raise TranslationError(
            f"pattern condition {condition!r} uses an ordered comparison, which is outside the "
            "condition grammar of Figure 1 and therefore outside the Lemma 9.3 translation"
        )

    def _repetition(
        self, pattern: Repetition, source: Tuple[str, ...], target: Tuple[str, ...]
    ) -> Formula:
        body_pattern = pattern.body
        body_vars = sorted(body_pattern.free_variables())

        def body_formula(src: Tuple[str, ...], tgt: Tuple[str, ...]) -> Formula:
            """One copy of the body with all its bindings hidden (fv = {})."""
            inner_context = _PatternContext(self.translator, self.view, self.arity)
            inner = inner_context.translate(body_pattern, src, tgt)
            bound = tuple(
                component
                for variable in sorted(inner_context.bound_variables())
                for component in inner_context.variable_tuple(variable)
            )
            return Exists(bound, inner) if bound else inner

        def exactly(count: int, src: Tuple[str, ...], tgt: Tuple[str, ...]) -> Formula:
            if count == 0:
                # [[psi]]^0_G = {(n, n, mu_empty) | n in N}: the endpoints
                # coincide and must be a node of the view.
                return And(self._equal_tuples(src, tgt), self.view.node(src))
            if count == 1:
                return body_formula(src, tgt)
            midpoint = self.translator.names.fresh_tuple("r", self.arity)
            return Exists(
                midpoint, And(body_formula(src, midpoint), exactly(count - 1, midpoint, tgt))
            )

        if not pattern.is_unbounded:
            upper = int(pattern.upper)
            return _disjoin([exactly(r, source, target) for r in range(pattern.lower, upper + 1)])

        # psi^{n..inf}: exactly max(n, 1) repetitions, then the reflexive-
        # transitive closure of the body's endpoint relation (T8 of Lemma
        # 9.3).  The closure operator is reflexive on arbitrary tuples, so
        # the 0-repetition case (which requires the endpoints to be a node
        # of the view) is handled separately.
        closure_source = self.translator.names.fresh_tuple("u", self.arity)
        closure_target = self.translator.names.fresh_tuple("v", self.arity)
        midpoint = self.translator.names.fresh_tuple("r", self.arity)
        prefix_count = max(pattern.lower, 1)
        prefix = exactly(prefix_count, source, midpoint)
        closure_from_mid = TransitiveClosure(
            closure_source,
            closure_target,
            body_formula(closure_source, closure_target),
            tuple(Variable(v) for v in midpoint),
            tuple(Variable(v) for v in target),
        )
        at_least_prefix = Exists(midpoint, And(prefix, closure_from_mid))
        if pattern.lower == 0:
            return Or(exactly(0, source, target), at_least_prefix)
        return at_least_prefix


def translate_query(query: Query, schema: Schema) -> Tuple[Formula, Tuple[str, ...]]:
    """Translate a PGQ query to an FO[TC] formula (Theorem 6.1).

    Returns the formula and the ordered tuple of its output variables; the
    i-th variable corresponds to the i-th result column.
    """
    return PGQToFOTC(schema).translate(query)
