"""Tests for the relational data model (terms, atoms, schemas, instances)."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import pytest

from repro.datamodel import terms as term_module
from repro.datamodel import (
    Atom,
    Constant,
    Database,
    Instance,
    Null,
    Predicate,
    Schema,
    TermFactory,
    Variable,
    freeze_variable,
    instance_from_tuples,
    is_frozen_constant,
    unfreeze_constant,
)


TERM_CLASSES = [Constant, Null, Variable]

#: The weak intern table of each term class.
TABLES = {
    Constant: term_module._CONSTANTS,
    Null: term_module._NULLS,
    Variable: term_module._VARIABLES,
}


class TestTerms:
    def test_constants_equal_by_name(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_term_kinds_are_disjoint(self):
        assert Constant("a") != Variable("a")
        assert Null("a") != Variable("a")
        assert Constant("a") != Null("a")

    def test_kind_flags(self):
        assert Constant("a").is_constant and not Constant("a").is_variable
        assert Variable("x").is_variable and not Variable("x").is_null
        assert Null("n").is_null and not Null("n").is_constant

    def test_terms_are_hashable(self):
        bag = {Constant("a"), Variable("a"), Null("a")}
        assert len(bag) == 3

    def test_factory_produces_distinct_terms(self):
        factory = TermFactory()
        nulls = factory.fresh_nulls(10)
        variables = factory.fresh_variables(10)
        assert len(set(nulls)) == 10
        assert len(set(variables)) == 10

    def test_freeze_round_trip(self):
        variable = Variable("x")
        frozen = freeze_variable(variable)
        assert is_frozen_constant(frozen)
        assert unfreeze_constant(frozen) == variable

    def test_freeze_is_injective(self):
        assert freeze_variable(Variable("x")) != freeze_variable(Variable("y"))

    def test_unfreeze_rejects_plain_constants(self):
        with pytest.raises(ValueError):
            unfreeze_constant(Constant("a"))

    def test_plain_constant_is_not_frozen(self):
        assert not is_frozen_constant(Constant("a"))
        assert not is_frozen_constant(Variable("x"))

    @pytest.mark.parametrize("cls", TERM_CLASSES)
    def test_identity_equality_by_construction(self, cls):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__

    @pytest.mark.parametrize("cls", TERM_CLASSES)
    def test_same_key_same_object(self, cls):
        assert cls("a") is cls("a")
        assert cls("a") is not cls("b")

    def test_equal_names_share_one_constant(self):
        one = Constant(1)
        assert Constant(True) is one
        assert Constant(1.0) is one
        assert Constant(True) == Constant(1.0) == one

    def test_first_name_wins_while_the_term_is_alive(self):
        first = Constant(("first-name-wins", 1))
        assert Constant(("first-name-wins", True)) is first
        assert type(Constant(("first-name-wins", 1.0)).name[1]) is int
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None
        assert type(Constant(("first-name-wins", True)).name[1]) is bool

    def test_names_of_different_types_that_differ_stay_distinct(self):
        assert Constant(1) != Constant("1")
        assert Constant(1) is not Constant("1")

    def test_kinds_with_one_name_are_pairwise_distinct(self):
        kinds = [Constant("a"), Null("a"), Variable("a")]
        for index, left in enumerate(kinds):
            for right in kinds[index + 1 :]:
                assert left != right
                assert left is not right

    @pytest.mark.parametrize("cls, field", [(Constant, "name"), (Null, "label"), (Variable, "name")])
    def test_frozen(self, cls, field):
        term = cls("a")
        with pytest.raises(AttributeError):
            setattr(term, field, "b")
        with pytest.raises(AttributeError):
            delattr(term, field)
        with pytest.raises(AttributeError):
            term.other = 1
        assert getattr(term, field) == "a"

    @pytest.mark.parametrize("cls", TERM_CLASSES)
    def test_order_within_a_class(self, cls):
        terms = [cls("c"), cls("a"), cls("b")]
        assert sorted(terms) == [cls("a"), cls("b"), cls("c")]
        assert cls("a") < cls("b") <= cls("b")
        assert cls("c") > cls("b") >= cls("b")

    def test_order_across_classes_raises(self):
        with pytest.raises(TypeError):
            Constant("a") < Variable("b")
        with pytest.raises(TypeError):
            Null("a") >= Constant("a")
        with pytest.raises(TypeError):
            sorted([Constant("a"), Null("b")])

    @pytest.mark.parametrize("cls", TERM_CLASSES)
    def test_pickle_and_copy_return_the_same_object(self, cls):
        term = cls("a")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(term, protocol=protocol)) is term
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert copy.deepcopy([term, (term,)])[1][0] is term

    @pytest.mark.parametrize("cls", TERM_CLASSES)
    def test_unreferenced_term_dies_and_leaves_the_table(self, cls):
        key = f"ephemeral-{cls.__name__}"
        table = TABLES[cls]
        term = cls(key)
        ref = weakref.ref(term)
        assert key in table.refs
        del term
        gc.collect()
        assert ref() is None
        assert key not in table.refs

    @pytest.mark.parametrize("cls", TERM_CLASSES)
    def test_callback_survives_a_cleared_module_lock(self, cls, monkeypatch):
        """At interpreter exit python may clear the module's globals before
        the last terms die; their table callbacks must not read ``_LOCK``."""
        key = f"outlives-its-module-{cls.__name__}"
        term = cls(key)
        ref = weakref.ref(term)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.setattr(term_module, "_LOCK", None)
        del term
        gc.collect()
        assert ref() is None
        assert unraisable == []
        assert key not in TABLES[cls].refs

    def test_the_table_entry_of_a_reinterned_key_survives_the_old_callback(self):
        old = Null("reinterned")
        old_entry = term_module._NULLS.refs["reinterned"]
        del old
        gc.collect()
        new = Null("reinterned")
        # The dead entry's callback fired before the key was interned
        # again; firing it once more must not drop the live entry.
        term_module._NULLS._discard(old_entry)
        assert term_module._NULLS.refs["reinterned"]() is new
        assert Null("reinterned") is new

    def test_concurrent_construction_yields_one_object_per_name(self):
        names = [f"concurrent-{index}" for index in range(1000)]
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def build(slot):
            barrier.wait(timeout=30)
            results[slot] = [Constant(name) for name in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(result is not None for result in results)
        first = results[0]
        for other in results[1:]:
            assert all(left is right for left, right in zip(first, other))
        assert len({id(term) for term in first}) == len(names)

    @pytest.mark.parametrize("cls", TERM_CLASSES)
    def test_repr_and_str_unchanged(self, cls):
        term = cls("a")
        assert repr(term) == f"{cls.__name__}('a')"
        assert str(term) == {"Constant": "a", "Null": "_:a", "Variable": "a"}[cls.__name__]


class TestAtoms:
    def test_arity_is_checked(self):
        with pytest.raises(ValueError):
            Atom(Predicate("R", 2), (Variable("x"),))

    def test_predicate_call_shortcut(self):
        R = Predicate("R", 2)
        atom = R(Variable("x"), Constant("a"))
        assert atom.predicate == R
        assert atom.terms == (Variable("x"), Constant("a"))

    def test_term_partition(self):
        atom = Atom(Predicate("R", 3), (Variable("x"), Constant("a"), Null("n")))
        assert atom.variables() == {Variable("x")}
        assert atom.constants() == {Constant("a")}
        assert atom.nulls() == {Null("n")}
        assert not atom.is_ground()

    def test_apply_substitution(self):
        atom = Atom(Predicate("R", 2), (Variable("x"), Variable("y")))
        image = atom.apply({Variable("x"): Constant("a")})
        assert image.terms == (Constant("a"), Variable("y"))

    def test_positions_of(self):
        atom = Atom(Predicate("R", 3), (Variable("x"), Variable("y"), Variable("x")))
        assert atom.positions_of(Variable("x")) == (0, 2)

    def test_atoms_are_hashable_and_equal_by_value(self):
        left = Atom(Predicate("R", 1), (Constant("a"),))
        right = Atom(Predicate("R", 1), (Constant("a"),))
        assert left == right
        assert len({left, right}) == 1

    def test_negative_arity_is_rejected(self):
        with pytest.raises(ValueError):
            Predicate("R", -1)

    def test_hash_is_the_value_hash_computed_once(self):
        R = Predicate("R", 2)
        atom = Atom(R, (Variable("x"), Constant("a")))
        assert hash(R) == hash(("R", 2))
        assert hash(atom) == hash((R, (Variable("x"), Constant("a"))))
        assert R._hash == hash(R) and atom._hash == hash(atom)

    @pytest.mark.parametrize(
        "value, field",
        [(Predicate("R", 1), "name"), (Atom(Predicate("R", 1), (Constant("a"),)), "terms")],
    )
    def test_frozen(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1  # slotted: no other attribute either

    def test_order_by_value(self):
        R1, R2, S1 = Predicate("R", 1), Predicate("R", 2), Predicate("S", 1)
        assert sorted([S1, R2, R1]) == [R1, R2, S1]
        assert R1 < R2 <= R2 and S1 > R2 >= R2
        a, b = Constant("a"), Constant("b")
        atoms = [Atom(S1, (a,)), Atom(R1, (b,)), Atom(R1, (a,))]
        assert sorted(atoms) == [Atom(R1, (a,)), Atom(R1, (b,)), Atom(S1, (a,))]
        with pytest.raises(TypeError):
            R1 < Atom(R1, (a,))  # noqa: B015

    def test_equality_with_other_types(self):
        R = Predicate("R", 1)
        atom = Atom(R, (Constant("a"),))
        assert R != ("R", 1) and atom != (R, (Constant("a"),))
        assert atom != Atom(Predicate("S", 1), (Constant("a"),))
        assert atom != Atom(R, (Constant("b"),))

    def test_pickle_and_copy_keep_value_and_hash(self):
        atom = Atom(Predicate("R", 2), (Variable("x"), Constant("a")))
        for value in (atom.predicate, atom):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                loaded = pickle.loads(pickle.dumps(value, protocol=protocol))
                assert loaded == value and hash(loaded) == hash(value)
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
        assert copy.deepcopy(atom).terms[0] is Variable("x")

    def test_repr_unchanged(self):
        R = Predicate("R", 2)
        assert repr(R) == "Predicate(name='R', arity=2)"
        assert str(R) == "R/2"
        atom = Atom(R, (Variable("x"), Constant("a")))
        assert repr(atom) == "Atom(R, (Variable('x'), Constant('a')))"
        assert str(atom) == "R(x, a)"

    def test_terms_are_kept_as_a_tuple(self):
        atom = Atom(Predicate("R", 2), [Variable("x"), Constant("a")])
        assert atom.terms == (Variable("x"), Constant("a"))
        assert atom == Atom(Predicate("R", 2), (Variable("x"), Constant("a")))


class TestSchema:
    def test_add_and_lookup(self):
        schema = Schema([Predicate("R", 2)])
        assert schema.predicate("R").arity == 2
        assert "R" in schema

    def test_arity_conflict_is_rejected(self):
        schema = Schema([Predicate("R", 2)])
        with pytest.raises(ValueError):
            schema.add(Predicate("R", 3))

    def test_predicate_declared_on_the_fly(self):
        schema = Schema()
        predicate = schema.predicate("S", 3)
        assert predicate in schema

    def test_unknown_predicate_without_arity(self):
        schema = Schema()
        with pytest.raises(KeyError):
            schema.predicate("missing")

    def test_max_arity(self):
        schema = Schema([Predicate("R", 2), Predicate("S", 4)])
        assert schema.max_arity == 4
        assert Schema().max_arity == 0

    def test_from_atoms_and_union(self):
        atoms = [Atom(Predicate("R", 1), (Constant("a"),))]
        schema = Schema.from_atoms(atoms)
        merged = schema.union(Schema([Predicate("S", 2)]))
        assert len(merged) == 2


class TestInstance:
    def _sample(self):
        R = Predicate("R", 2)
        S = Predicate("S", 1)
        return Instance(
            [
                Atom(R, (Constant("a"), Constant("b"))),
                Atom(R, (Constant("b"), Null("n1"))),
                Atom(S, (Constant("a"),)),
            ]
        )

    def test_len_and_contains(self):
        instance = self._sample()
        assert len(instance) == 3
        assert Atom(Predicate("S", 1), (Constant("a"),)) in instance

    def test_rejects_non_ground_atoms(self):
        with pytest.raises(ValueError):
            Instance([Atom(Predicate("R", 1), (Variable("x"),))])

    def test_add_is_idempotent(self):
        instance = self._sample()
        atom = Atom(Predicate("S", 1), (Constant("a"),))
        assert not instance.add(atom)
        assert len(instance) == 3

    def test_discard(self):
        instance = self._sample()
        atom = Atom(Predicate("S", 1), (Constant("a"),))
        assert instance.discard(atom)
        assert atom not in instance
        assert not instance.discard(atom)

    def test_indexes(self):
        instance = self._sample()
        R = Predicate("R", 2)
        assert len(instance.atoms_with_predicate(R)) == 2
        assert len(instance.atoms_with_term(Constant("a"))) == 2
        assert len(instance.atoms_with_predicate_name("S")) == 1

    def test_domains(self):
        instance = self._sample()
        assert Null("n1") in instance.nulls()
        assert Constant("a") in instance.constants()
        assert not instance.is_database()

    def test_apply_substitution(self):
        instance = self._sample()
        renamed = instance.apply({Null("n1"): Constant("c")})
        assert renamed.is_database()
        assert len(renamed) == 3

    def test_restrict_to_terms(self):
        instance = self._sample()
        restricted = instance.restrict_to_terms([Constant("a"), Constant("b")])
        assert len(restricted) == 2

    def test_restrict_to_predicates(self):
        instance = self._sample()
        restricted = instance.restrict_to_predicates([Predicate("S", 1)])
        assert len(restricted) == 1

    def test_union_and_copy_are_independent(self):
        instance = self._sample()
        other = Instance([Atom(Predicate("T", 1), (Constant("z"),))])
        union = instance.union(other)
        assert len(union) == 4
        assert len(instance) == 3

    def test_instance_from_tuples(self):
        schema = Schema([Predicate("R", 2)])
        database = instance_from_tuples(schema, {"R": [(1, 2), (2, 3)]})
        assert isinstance(database, Database)
        assert len(database) == 2
        with pytest.raises(ValueError):
            instance_from_tuples(schema, {"R": [(1,)]})

    def test_equality_with_sets(self):
        instance = self._sample()
        assert instance == instance.atoms()
        assert instance == instance.copy()
