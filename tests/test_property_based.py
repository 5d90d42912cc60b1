"""Property-based tests (hypothesis) for the core data structures and invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase import chase, egd_chase
from repro.containment import cq_contained_in, cq_equivalent
from repro.datamodel import Atom, Constant, Instance, Predicate, Variable
from repro.dependencies import EGD, TGD
from repro.hypergraph import (
    instance_connectors,
    is_acyclic_atoms,
    is_valid_join_tree,
    join_tree_of_query_atoms,
    query_connectors,
)
from repro.queries import (
    ConjunctiveQuery,
    core,
    find_homomorphism,
    has_homomorphism,
    homomorphisms,
    is_homomorphism,
)
from repro.evaluation import evaluate_acyclic, evaluate_generic
from repro.workloads.generators import random_acyclic_query, random_schema


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
PREDICATES = [Predicate("P", 1), Predicate("E", 2), Predicate("T", 3)]
VARIABLES = [Variable(name) for name in "uvwxyz"]
CONSTANTS = [Constant(value) for value in "abcd"]


@st.composite
def atoms(draw, terms=st.sampled_from(VARIABLES)):
    predicate = draw(st.sampled_from(PREDICATES))
    chosen = tuple(draw(terms) for _ in range(predicate.arity))
    return Atom(predicate, chosen)


@st.composite
def ground_atoms(draw):
    return draw(atoms(terms=st.sampled_from(CONSTANTS)))


@st.composite
def boolean_queries(draw, max_atoms=5):
    body = draw(st.lists(atoms(), min_size=1, max_size=max_atoms))
    return ConjunctiveQuery((), body, name="h")


@st.composite
def instances(draw, max_atoms=8):
    return Instance(draw(st.lists(ground_atoms(), min_size=0, max_size=max_atoms)))


@st.composite
def acyclic_queries(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    atom_count = draw(st.integers(min_value=1, max_value=5))
    schema = random_schema(seed=seed % 17, predicate_count=3, max_arity=3)
    return random_acyclic_query(seed=seed, schema=schema, atom_count=atom_count)


SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Homomorphisms
# ----------------------------------------------------------------------
@SETTINGS
@given(boolean_queries(), instances())
def test_found_homomorphisms_are_homomorphisms(query, instance):
    for mapping in homomorphisms(query.body, instance):
        assert is_homomorphism(mapping, query.body, instance)


@SETTINGS
@given(boolean_queries())
def test_every_query_maps_into_its_canonical_database(query):
    database = query.canonical_database()
    mapping = find_homomorphism(query.body, database)
    assert mapping is not None
    assert is_homomorphism(mapping, query.body, database)


@SETTINGS
@given(boolean_queries(), instances())
def test_evaluation_matches_homomorphism_existence(query, instance):
    assert query.holds_in(instance) == has_homomorphism(query.body, instance)


# ----------------------------------------------------------------------
# Containment and cores
# ----------------------------------------------------------------------
@SETTINGS
@given(boolean_queries())
def test_containment_is_reflexive(query):
    assert cq_contained_in(query, query)


@SETTINGS
@given(boolean_queries(), boolean_queries(), boolean_queries())
def test_containment_is_transitive(first, second, third):
    if cq_contained_in(first, second) and cq_contained_in(second, third):
        assert cq_contained_in(first, third)


@SETTINGS
@given(boolean_queries())
def test_core_is_equivalent_and_no_larger(query):
    minimal = core(query)
    assert len(minimal) <= len(query)
    assert cq_equivalent(query, minimal)


@SETTINGS
@given(boolean_queries())
def test_dropping_atoms_generalises(query):
    if len(query.body) < 2:
        return
    smaller = ConjunctiveQuery((), query.body[:-1], name="smaller")
    assert cq_contained_in(query, smaller)


# ----------------------------------------------------------------------
# Hypergraphs and join trees
# ----------------------------------------------------------------------
@SETTINGS
@given(acyclic_queries())
def test_generated_acyclic_queries_are_acyclic(query):
    assert query.is_acyclic()
    tree = join_tree_of_query_atoms(query.body)
    assert is_valid_join_tree(tree, query.body, query_connectors)
    assert set(tree.atoms()) == set(query.body)


@SETTINGS
@given(boolean_queries())
def test_gyo_agrees_with_join_tree_existence(query):
    from repro.hypergraph import JoinTreeError

    acyclic = is_acyclic_atoms(query.body)
    try:
        tree = join_tree_of_query_atoms(query.body)
        built = True
        assert is_valid_join_tree(tree, query.body, query_connectors)
    except JoinTreeError:
        built = False
    assert built == acyclic


@SETTINGS
@given(acyclic_queries(), st.integers(min_value=0, max_value=1_000))
def test_yannakakis_agrees_with_generic_evaluation(query, seed):
    rng = random.Random(seed)
    domain = [Constant(f"d{i}") for i in range(4)]
    database = Instance(
        Atom(p, tuple(rng.choice(domain) for _ in range(p.arity)))
        for p in query.predicates()
        for _ in range(6)
    )
    assert evaluate_acyclic(query, database) == evaluate_generic(query, database)


# ----------------------------------------------------------------------
# Chase invariants
# ----------------------------------------------------------------------
@SETTINGS
@given(instances(), st.integers(min_value=0, max_value=10_000))
def test_full_tgd_chase_is_sound_and_satisfying(instance, seed):
    rng = random.Random(seed)
    E = Predicate("E", 2)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    tgds = [
        TGD([Atom(E, (x, y))], [Atom(E, (y, x))], label="sym"),
        TGD([Atom(E, (x, y)), Atom(E, (y, z))], [Atom(E, (x, z))], label="trans"),
    ]
    rng.shuffle(tgds)
    result = chase(instance, tgds, max_steps=2_000)
    assert result.terminated
    assert result.satisfies(tgds)
    # The chase only adds atoms (it never removes).
    assert instance.atoms() <= result.instance.atoms()
    # Full tgds introduce no nulls.
    assert result.instance.nulls() == instance.nulls()


@SETTINGS
@given(instances())
def test_egd_chase_result_satisfies_the_egds(instance):
    E = Predicate("E", 2)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    egd = EGD([Atom(E, (x, y)), Atom(E, (x, z))], y, z, label="func")
    result = egd_chase(instance, [egd], on_failure="return")
    if result.failed:
        return
    assert egd.is_satisfied_by(result.instance)
    assert len(result.instance) <= len(instance)


@SETTINGS
@given(acyclic_queries())
def test_canonical_databases_of_acyclic_queries_are_acyclic_instances(query):
    from repro.hypergraph import is_acyclic_instance

    assert is_acyclic_instance(query.canonical_database())
