"""Unit tests for relations, schemas, databases and selection conditions,
and for the relational algebra core of PGQ (``pgq.queries``) on every
engine."""

import pytest

from repro.errors import ArityError, QueryError, SchemaError
from repro.pgq import (
    ActiveDomainQuery,
    BaseRelation,
    ConstantRelation,
    Difference,
    Product,
    Project,
    Select,
    Union,
)
from repro.relational import (
    ColumnCompare,
    ColumnCompareConstant,
    ColumnEquals,
    ColumnEqualsConstant,
    Database,
    Relation,
    RelationSchema,
    Schema,
    TrueCondition,
    conjoin,
)
from repro.relational.conditions import And, Not, Or


# --------------------------------------------------------------------------- #
# Relation
# --------------------------------------------------------------------------- #
class TestRelation:
    def test_rows_are_normalized_and_deduplicated(self):
        relation = Relation(1, ["a", "a", ("b",)])
        assert len(relation) == 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(ArityError):
            Relation(2, [("a",)])

    def test_zero_arity_boolean_relation(self):
        true_relation = Relation(0, [()])
        false_relation = Relation(0, [])
        assert bool(true_relation) and not bool(false_relation)

    def test_from_rows_infers_arity(self):
        relation = Relation.from_rows([("a", 1), ("b", 2)])
        assert relation.arity == 2

    def test_from_rows_empty_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_rows([])

    def test_union_difference_intersection(self):
        left = Relation.unary(["a", "b"])
        right = Relation.unary(["b", "c"])
        assert set(left.union(right).rows) == {("a",), ("b",), ("c",)}
        assert set(left.difference(right).rows) == {("a",)}
        assert set(left.intersection(right).rows) == {("b",)}

    def test_union_arity_mismatch(self):
        with pytest.raises(ArityError):
            Relation.unary(["a"]).union(Relation(2, [("a", "b")]))

    def test_product(self):
        left = Relation.unary(["a"])
        right = Relation.unary(["b", "c"])
        assert set(left.product(right).rows) == {("a", "b"), ("a", "c")}

    def test_project_with_duplicates_and_reorder(self):
        relation = Relation(2, [("a", "b")])
        assert set(relation.project((2, 1, 1)).rows) == {("b", "a", "a")}

    def test_project_out_of_range(self):
        with pytest.raises(ArityError):
            Relation(2, [("a", "b")]).project((3,))

    def test_select(self):
        relation = Relation(2, [("a", "a"), ("a", "b")])
        assert len(relation.select(lambda row: row[0] == row[1])) == 1

    def test_membership_and_values(self):
        relation = Relation(2, [("a", 1)])
        assert ("a", 1) in relation
        assert relation.values() == frozenset({"a", 1})

    def test_hash_and_equality(self):
        assert Relation(1, ["a"]) == Relation(1, [("a",)])
        assert hash(Relation(1, ["a"])) == hash(Relation(1, [("a",)]))


# --------------------------------------------------------------------------- #
# Schema and Database
# --------------------------------------------------------------------------- #
class TestSchemaDatabase:
    def test_schema_from_columns_and_lookup(self):
        schema = Schema.from_columns({"R": ["x", "y"]})
        assert schema.arity("R") == 2
        assert schema.relation("R").column_index("y") == 2

    def test_schema_conflicting_declaration(self):
        schema = Schema([RelationSchema("R", 2)])
        with pytest.raises(SchemaError):
            schema.add(RelationSchema("R", 3))

    def test_database_from_dict_and_access(self):
        database = Database.from_dict({"R": [(1, 2)]})
        assert database["R"].arity == 2
        assert "R" in database
        with pytest.raises(SchemaError):
            database.relation("missing")

    def test_empty_relation_requires_declared_arity(self):
        with pytest.raises(SchemaError):
            Database.from_dict({"R": []})
        database = Database.from_dict({"R": []}, arities={"R": 3})
        assert database["R"].arity == 3

    def test_active_domain_is_sorted_and_complete(self, edge_relation_db):
        assert set(edge_relation_db.active_domain()) == {1, 2, 3, 4, 5}

    def test_successor_and_order_relations(self):
        database = Database.from_dict({"R": [(1,), (2,), (3,)]})
        assert len(database.successor_relation()) == 2
        assert len(database.order_relation()) == 3
        assert database.domain_less_than(1, 3)

    def test_with_and_without_relation(self):
        database = Database.from_dict({"R": [(1,)]})
        extended = database.with_relation("S", Relation.unary(["a"]))
        assert "S" in extended and "S" not in database
        assert "R" not in extended.without_relation("R")

    def test_total_rows(self, bank_db):
        assert bank_db.total_rows() == 8

    def test_schema_validation_on_construction(self):
        schema = Schema([RelationSchema("R", 2)])
        with pytest.raises(SchemaError):
            Database({"R": Relation(3, [(1, 2, 3)])}, schema=schema)


# --------------------------------------------------------------------------- #
# Conditions
# --------------------------------------------------------------------------- #
class TestConditions:
    def test_column_equals(self):
        assert ColumnEquals(1, 2).evaluate(("a", "a"))
        assert not ColumnEquals(1, 2).evaluate(("a", "b"))

    def test_column_equals_constant(self):
        assert ColumnEqualsConstant(1, "a").evaluate(("a",))

    def test_column_compare(self):
        assert ColumnCompare(1, "<", 2).evaluate((1, 2))
        assert not ColumnCompare(1, ">", 2).evaluate((1, 2))
        assert ColumnCompareConstant(1, ">=", 5).evaluate((5,))

    def test_incomparable_types_are_false(self):
        assert not ColumnCompare(1, "<", 2).evaluate(("a", 1))

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            ColumnCompare(1, "~", 2)

    def test_boolean_combinators(self):
        condition = And(ColumnEquals(1, 2), Not(ColumnEqualsConstant(1, "x")))
        assert condition.evaluate(("a", "a"))
        assert not condition.evaluate(("x", "x"))
        assert Or(ColumnEqualsConstant(1, "q"), TrueCondition()).evaluate(("a",))

    def test_positions_and_conjoin(self):
        condition = conjoin((ColumnEquals(1, 3), ColumnEqualsConstant(2, 5)))
        assert condition.positions() == frozenset({1, 2, 3})
        assert condition.max_position() == 3
        assert conjoin(()).evaluate(("anything",))

    def test_out_of_range_column_raises(self):
        with pytest.raises(QueryError):
            ColumnEquals(1, 3).evaluate(("a", "b"))


# --------------------------------------------------------------------------- #
# Relational algebra: the PGQro core, run by every engine
# --------------------------------------------------------------------------- #
class TestAlgebra:
    @pytest.fixture
    def run(self, engine):
        backend = engine(Database.from_dict({"R": [(1, 2), (2, 3)], "S": [(2,), (3,)]}))
        return lambda query: set(backend.evaluate(query).rows)

    R, S = BaseRelation("R"), BaseRelation("S")

    def test_base_constant_and_active_domain_relations(self, run):
        assert len(run(self.R)) == 2
        assert run(ConstantRelation((("x",),), 1)) == {("x",)}
        assert run(ConstantRelation(((7, 8),), 2)) == {(7, 8)}
        assert run(ActiveDomainQuery()) == {(1,), (2,), (3,)}

    def test_projection_selection(self, run):
        assert run(self.R.project(2).select(ColumnEqualsConstant(1, 3))) == {(3,)}

    def test_product_union_difference(self, run):
        assert len(run(Product(self.S, self.S))) == 4
        assert len(run(Union(self.S, self.S))) == 2
        assert run(Difference(self.S, ConstantRelation(((2,),), 1))) == {(3,)}

    def test_natural_join(self, run):
        join = Project(Select(Product(self.R, self.S), ColumnEquals(2, 3)), (1, 2, 3))
        assert run(join) == {(1, 2, 2), (2, 3, 3)}
