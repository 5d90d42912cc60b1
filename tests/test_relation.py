"""Unit tests for term relations (repro.evaluation.relation), atom scans,
and the tuple oracle's relational operators (tests/helpers/tuple_engine.py)
— the ground truth the engine's operators are checked against."""

import pytest

from repro.datamodel import Atom, Constant, Database, Null, Predicate, Variable
from repro.evaluation import Relation, ScanCache, SchemaError

from helpers.tuple_engine import distinct, join, scan_atom, select, semijoin


E = Predicate("E", 2)
T = Predicate("T", 3)
x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def from_atom(atom, database):
    """The atom's scan through the engine's scan cache, checked against
    the oracle's one-pass fact scan."""
    relation = ScanCache(database).scan(atom).to_relation()
    expected = scan_atom(atom, database)
    assert relation.schema == expected.schema and relation == expected
    return relation


def edge_db(*edges):
    database = Database()
    for source, target in edges:
        database.add(Atom(E, (Constant(source), Constant(target))))
    return database


class TestConstruction:
    def test_schema_must_be_duplicate_free(self):
        with pytest.raises(SchemaError):
            Relation((x, x), [])

    def test_unit_is_the_join_identity(self):
        unit = Relation.unit()
        other = Relation((x,), [(a,), (b,)])
        assert join(unit, other) == other
        assert join(other, unit) == other

    def test_empty_relation_is_falsy(self):
        assert not Relation.empty((x,))
        assert Relation.empty((x,)).is_empty()
        assert Relation((x,), [(a,)])

    def test_from_atom_materialises_matching_facts(self):
        relation = from_atom(Atom(E, (x, y)), edge_db(("a", "b"), ("c", "d")))
        assert relation.schema == (x, y)
        assert set(relation.rows) == {(a, b), (c, d)}

    def test_from_atom_applies_constant_selections(self):
        relation = from_atom(Atom(E, (x, b)), edge_db(("a", "b"), ("c", "d")))
        assert relation.schema == (x,)
        assert set(relation.rows) == {(a,)}

    def test_from_atom_applies_repeated_variable_selections(self):
        relation = from_atom(Atom(E, (x, x)), edge_db(("a", "a"), ("a", "b")))
        assert relation.schema == (x,)
        assert set(relation.rows) == {(a,)}

    def test_from_atom_on_ternary_atom_with_mixed_terms(self):
        database = Database(
            [
                Atom(T, (a, b, a)),
                Atom(T, (a, b, c)),
                Atom(T, (b, b, b)),
            ]
        )
        relation = from_atom(Atom(T, (x, b, x)), database)
        assert relation.schema == (x,)
        assert set(relation.rows) == {(a,), (b,)}

    def test_from_atom_with_all_constants(self):
        database = edge_db(("a", "b"))
        assert len(from_atom(Atom(E, (a, b)), database)) == 1
        assert from_atom(Atom(E, (a, c)), database).is_empty()


class TestOperators:
    def test_semijoin_keeps_matching_rows_only(self):
        left = Relation((x, y), [(a, b), (b, c), (c, d)])
        right = Relation((y, z), [(b, a), (d, a)])
        result = semijoin(left, right)
        assert result.schema == (x, y)
        assert set(result.rows) == {(a, b), (c, d)}

    def test_semijoin_without_shared_variables_is_all_or_nothing(self):
        left = Relation((x,), [(a,), (b,)])
        assert semijoin(left, Relation((z,), [(c,)])) == left
        assert semijoin(left, Relation.empty((z,))).is_empty()

    def test_semijoin_alignment_is_by_name_not_position(self):
        left = Relation((x, y), [(a, b)])
        right = Relation((z, y, x), [(c, b, a), (c, a, b)])
        assert set(semijoin(left, right).rows) == {(a, b)}

    def test_join_combines_on_shared_variables(self):
        left = Relation((x, y), [(a, b), (b, c)])
        right = Relation((y, z), [(b, d), (b, a), (c, d)])
        result = join(left, right)
        assert result.schema == (x, y, z)
        assert set(result.rows) == {(a, b, d), (a, b, a), (b, c, d)}

    def test_join_without_shared_variables_is_cross_product(self):
        left = Relation((x,), [(a,), (b,)])
        right = Relation((y,), [(c,)])
        assert set(join(left, right).rows) == {(a, c), (b, c)}

    def test_join_with_identical_schema_is_intersection(self):
        left = Relation((x, y), [(a, b), (b, c)])
        right = Relation((x, y), [(a, b), (c, d)])
        assert set(join(left, right).rows) == {(a, b)}

    def test_project_deduplicates(self):
        relation = Relation((x, y), [(a, b), (a, c), (b, c)])
        result = relation.project((x,))
        assert result.schema == (x,)
        assert sorted(result.rows) == [(a,), (b,)]

    def test_project_reorders_columns(self):
        relation = Relation((x, y), [(a, b)])
        assert Relation((y, x), [(b, a)]) == relation.project((y, x))

    def test_project_rejects_unknown_variables(self):
        with pytest.raises(SchemaError):
            Relation((x,), [(a,)]).project((y,))

    def test_select_filters_on_bindings(self):
        relation = Relation((x, y), [(a, b), (a, c), (b, c)])
        assert set(select(relation, {x: a}).rows) == {(a, b), (a, c)}
        assert set(select(relation, {x: a, y: c}).rows) == {(a, c)}
        # Variables outside the schema cannot disagree.
        assert select(relation, {z: d}) == relation

    def test_distinct_removes_duplicate_rows(self):
        relation = Relation((x,), [(a,), (a,), (b,)])
        assert sorted(distinct(relation).rows) == [(a,), (b,)]


class TestNoAliasing:
    """Operator outputs never share a ``rows`` list with their operands —
    mutating a result must not corrupt an input (regression for the
    degenerate ``semijoin``/``select`` paths that returned ``self``)."""

    def test_degenerate_semijoin_returns_a_fresh_relation(self):
        left = Relation((x,), [(a,), (b,)])
        right = Relation((z,), [(c,)])  # no shared variables, non-empty
        result = semijoin(left, right)
        assert result == left
        assert result is not left
        assert result.rows is not left.rows
        result.rows.append((d,))
        assert left.rows == [(a,), (b,)]

    def test_degenerate_semijoin_against_empty_is_a_fresh_empty_relation(self):
        left = Relation((x,), [(a,)])
        result = semijoin(left, Relation.empty((z,)))
        assert result.is_empty()
        result.rows.append((b,))
        assert left.rows == [(a,)]

    def test_select_with_no_applicable_checks_returns_a_fresh_relation(self):
        relation = Relation((x, y), [(a, b)])
        for binding in ({}, {z: c}):  # empty, and entirely outside the schema
            result = select(relation, binding)
            assert result == relation
            assert result is not relation
            assert result.rows is not relation.rows
            result.rows.clear()
            assert relation.rows == [(a, b)]


class TestAnswers:
    def test_answer_tuples_supports_repeated_head_variables(self):
        relation = Relation((x, y), [(a, b)])
        assert relation.answer_tuples((x, x, y)) == {(a, a, b)}

    def test_answer_tuples_of_nullary_relation(self):
        assert Relation.unit().answer_tuples(()) == {()}
        assert Relation.empty().answer_tuples(()) == set()


class TestTermIdentity:
    def test_constants_and_nulls_with_equal_strings_stay_distinct(self):
        """str(Constant(1)) == str(Constant("1")) — hashing must not conflate them."""
        one_int, one_str = Constant(1), Constant("1")
        relation = Relation((x,), [(one_int,), (one_str,), (Null("1"),)])
        assert len(relation.project((x,))) == 3
        other = Relation((x, y), [(one_int, a)])
        assert set(semijoin(relation, other).rows) == {(one_int,)}
