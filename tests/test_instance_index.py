"""The per-term index of an ``Instance`` is built on first read.

``Instance.add`` keeps the predicate index, the journal and the epoch
eagerly, but the per-term index (``atoms_with_term``, ``active_domain``,
``constants``, ``nulls``, ``is_database``) only once a read has built it.
These tests pin that:

* a differential against the eagerly indexed class it replaced
  (``helpers.instance_reference``) over random sequences of writes,
  copies, unions and restrictions, reading the term index before, between
  and after the writes;
* a loaded database served by ``QueryService`` and ``evaluate_iter`` under
  tgds never builds the index, and a first read afterwards sees every
  write, a discard followed by a re-add of the same atom included;
* the service's dead-code sweep counts what the eager active domain
  counts, and builds no index either.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import instance_reference as reference
from repro import chase, egd_chase, evaluate_iter, parse_egd, parse_query, parse_tgd
from repro.datamodel import Atom, Constant, Database, Instance, Null, Predicate, Variable
from repro.evaluation.semacyclic_eval import resolve_route
from repro.service import QueryService

R = Predicate("R", 2)
U = Predicate("U", 1)
GROUND = [Constant(f"c{i}") for i in range(4)] + [Null(f"n{i}") for i in range(2)]
TERMS = GROUND + [Variable("v")]


def term_index_built(instance):
    return instance._by_term is not None


# ----------------------------------------------------------------------
# Differential against the eager reference
# ----------------------------------------------------------------------
def atoms_over(terms):
    return st.one_of(
        st.tuples(st.sampled_from(terms), st.sampled_from(terms)).map(lambda t: Atom(R, t)),
        st.sampled_from(terms).map(lambda t: Atom(U, (t,))),
    )


ANY_ATOM = atoms_over(TERMS)
GROUND_ATOM = atoms_over(GROUND)
SLOT = st.integers(min_value=0, max_value=7)

OPERATION = st.one_of(
    st.tuples(st.just("add"), SLOT, ANY_ATOM),
    st.tuples(st.just("add"), SLOT, GROUND_ATOM),
    st.tuples(st.just("discard"), SLOT, GROUND_ATOM),
    st.tuples(st.just("read"), SLOT, st.sampled_from(GROUND)),
    st.tuples(st.just("domain"), SLOT, st.none()),
    st.tuples(st.just("copy"), SLOT, st.none()),
    st.tuples(st.just("union"), SLOT, st.lists(GROUND_ATOM, max_size=4)),
    st.tuples(st.just("restrict_terms"), SLOT, st.sets(st.sampled_from(GROUND))),
    st.tuples(st.just("restrict_predicates"), SLOT, st.sets(st.sampled_from([R, U]))),
)


def per_term(instance):
    return {term: list(instance.atoms_with_term(term)) for term in GROUND}


def domains(instance):
    return (
        instance.active_domain(),
        instance.constants(),
        instance.nulls(),
        instance.is_database(),
    )


def journals(instance):
    epoch = instance.mutation_epoch
    return epoch, [instance.journal_since(e) for e in range(epoch + 2)]


def assert_same_writes(lazy, eager):
    """Equal atoms (in order), epoch and journal; reads no term index."""
    assert list(lazy) == list(eager)
    assert journals(lazy) == journals(eager)


def apply(operation, pairs):
    """Run one operation on a pair ``(lazy, eager)`` chosen by its slot."""
    kind, slot, argument = operation
    lazy, eager = pairs[slot % len(pairs)]
    if kind == "add":
        if not argument.is_ground():
            token, before = lazy.content_token(), journals(lazy)
            built = term_index_built(lazy)
            for instance in (lazy, eager):
                with pytest.raises(ValueError):
                    instance.add(argument)
            assert lazy.content_token() is token and journals(lazy) == before
            assert term_index_built(lazy) == built
        else:
            assert lazy.add(argument) == eager.add(argument)
    elif kind == "discard":
        assert lazy.discard(argument) == eager.discard(argument)
    elif kind == "read":
        assert list(lazy.atoms_with_term(argument)) == list(eager.atoms_with_term(argument))
    elif kind == "domain":
        assert domains(lazy) == domains(eager)
    elif kind == "copy":
        pairs.append((lazy.copy(), eager.copy()))
        assert term_index_built(pairs[-1][0]) == term_index_built(lazy)
    elif kind == "union":
        pairs.append(
            (lazy.union(Instance(argument)), eager.union(reference.Instance(argument)))
        )
    elif kind == "restrict_terms":
        pairs.append((lazy.restrict_to_terms(argument), eager.restrict_to_terms(argument)))
    else:
        pairs.append(
            (lazy.restrict_to_predicates(argument), eager.restrict_to_predicates(argument))
        )


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(GROUND_ATOM, max_size=6),
    operations=st.lists(OPERATION, max_size=30),
)
def test_lazy_term_index_matches_the_eager_instance(initial, operations):
    pairs = [(Instance(initial), reference.Instance(initial))]
    assert not term_index_built(pairs[0][0])
    for operation in operations:
        apply(operation, pairs)
        for lazy, eager in pairs:
            assert_same_writes(lazy, eager)
    for lazy, eager in pairs:
        assert per_term(lazy) == per_term(eager)
        assert domains(lazy) == domains(eager)


def test_writes_after_the_build_keep_the_index_in_insertion_order():
    a, b, c = GROUND[:3]
    lazy = Instance([Atom(R, (a, b)), Atom(U, (a,)), Atom(R, (b, a))])
    eager = reference.Instance(lazy)
    assert list(lazy.atoms_with_term(a)) == list(eager.atoms_with_term(a))
    for instance in (lazy, eager):
        instance.discard(Atom(R, (a, b)))
        instance.add(Atom(R, (c, a)))
        instance.add(Atom(R, (a, b)))
    assert per_term(lazy) == per_term(eager)
    assert list(lazy.atoms_with_term(a)) == [
        Atom(U, (a,)), Atom(R, (b, a)), Atom(R, (c, a)), Atom(R, (a, b)),
    ]


def test_a_copy_of_a_built_index_is_independent():
    a, b = GROUND[:2]
    original = Instance([Atom(R, (a, b))])
    original.atoms_with_term(a)
    clone = original.copy()
    clone.add(Atom(U, (a,)))
    clone.discard(Atom(R, (a, b)))
    assert list(original.atoms_with_term(a)) == [Atom(R, (a, b))]
    assert list(clone.atoms_with_term(a)) == [Atom(U, (a,))]
    assert list(clone.atoms_with_term(b)) == []


def test_the_chase_builds_its_inputs_index_once_and_copies_it():
    """The chase searches a copy of its input by term on every run: the
    input builds the index on the first run, and later runs copy it."""
    a, b, c = GROUND[:3]
    database = Database([Atom(R, (a, b)), Atom(R, (b, c)), Atom(R, (a, c))])
    assert not term_index_built(database)
    first = chase(database, [parse_tgd("R(x, y), R(y, z) -> U(x)")]).instance
    assert term_index_built(database)
    index = database._by_term
    key = parse_egd("R(x, y), R(x, z) -> y = z")
    assert term_index_built(egd_chase(database, [key], on_failure="return").instance)
    assert database._by_term is index
    assert list(first.atoms_with_term(a)) == [Atom(R, (a, b)), Atom(R, (a, c)), Atom(U, (a,))]
    assert list(database.atoms_with_term(a)) == [Atom(R, (a, b)), Atom(R, (a, c))]


# ----------------------------------------------------------------------
# Serving a loaded database never builds the index
# ----------------------------------------------------------------------
E, N0, A, B = (Predicate("E", 2), Predicate("N_0", 2), Predicate("A", 1), Predicate("B", 1))
GUARDED = [parse_tgd("E(x, y) -> A(x)"), parse_tgd("A(x) -> E(x, x)")]
PLAIN = [parse_tgd("N_0(x, y) -> B(x)")]


def closed_graph(seed=3, domain=6, edges=12):
    """``E`` and ``N_0`` edges closed under :data:`GUARDED` and :data:`PLAIN`."""
    rng = random.Random(seed)
    facts = {}
    for predicate, marks in ((E, A), (N0, B)):
        for _ in range(edges):
            source = Constant(rng.randrange(domain))
            facts[Atom(predicate, (source, Constant(rng.randrange(domain))))] = None
            facts[Atom(marks, (source,))] = None
            if predicate == E:
                facts[Atom(E, (source, source))] = None
    return list(facts)


def test_serving_a_loaded_database_leaves_the_term_index_unbuilt():
    facts = closed_graph()
    database = Database(facts)
    service = QueryService(database)
    triangle = parse_query("q(v0) :- E(v0, v1), E(v1, v2), E(v2, v0)")
    cycle = parse_query("q(v0) :- N_0(v0, v1), N_0(v1, v2), N_0(v2, v0)")
    path = parse_query("q(x, z) :- E(x, y), N_0(y, z)")
    before = {
        "triangle": service.submit(triangle, tgds=GUARDED),
        "cycle": service.submit(cycle, tgds=PLAIN),
        "path": service.submit(path),
    }
    assert resolve_route(triangle, tgds=GUARDED)[0] == "reformulated"
    assert resolve_route(cycle, tgds=PLAIN)[0] == "decomposition"

    moved = facts[0]
    fresh = Atom(N0, (Constant(0), Constant("new")))
    writes = [("delete", moved), ("insert", fresh), ("insert", moved), ("delete", fresh)]
    writes.append(("insert", Atom(N0, (Constant("new"), Constant(0)))))
    for kind, atom in writes:
        assert getattr(service, kind)(atom)
    assert set(evaluate_iter(triangle, database, tgds=GUARDED)) == before["triangle"]
    assert set(evaluate_iter(cycle, database, tgds=PLAIN)) == before["cycle"]
    service.submit(path)
    assert not term_index_built(database)

    eager = reference.Instance(facts)
    for kind, atom in writes:
        (eager.add if kind == "insert" else eager.discard)(atom)
    terms = eager.active_domain() | {Constant("absent")}
    assert {t: list(database.atoms_with_term(t)) for t in terms} == {
        t: list(eager.atoms_with_term(t)) for t in terms
    }
    assert database.active_domain() == eager.active_domain()
    assert list(database.atoms_with_term(moved.terms[0]))[-1] == moved


def test_the_dead_code_sweep_leaves_the_term_index_unbuilt():
    facts = closed_graph()
    database = Database(facts)
    service = QueryService(database)
    path = parse_query("q(x, z) :- E(x, y), N_0(y, z)")
    service.submit(path)
    gone = facts[0].terms[0]
    eager = reference.Instance(facts)
    for atom in facts:
        if gone in atom.terms:
            assert service.delete(atom)
            eager.discard(atom)
    service.submit(path)
    dead = service.scans.dead_codes()
    assert not term_index_built(database)
    assert dead == service.scans.encoder.dead_codes(eager.active_domain()) > 0
