"""Batched evaluation: differential equality, scan-cache counting, routing.

The contract of :func:`repro.evaluation.evaluate_batch` is that sharing
phase-1 scans and partitions across a batch changes *nothing* about the
answers: for every query the batched result must equal the one-at-a-time
result of the matching single-query engine (``evaluate_acyclic`` for
acyclic queries, the plan executor for cyclic ones, the reformulation route
under tgds) and the generic homomorphism oracle.  The :class:`ScanCache`
is additionally pinned down by counting: each predicate's base relation
is built at most once per cache, and every atom over it is served from it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    BatchEvaluator,
    Relation,
    ScanCache,
    TermEncoder,
    evaluate_acyclic,
    evaluate_batch,
    evaluate_generic,
    evaluate_via_reformulation,
    evaluate_with_plan,
)
from repro.evaluation.encoding import NUMPY_ENV, IntIndex
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.generators import (
    random_acyclic_query,
    random_database,
    random_schema,
    shared_predicate_batch_workload,
)
from repro.workloads.paper_examples import (
    example1_query,
    example1_tgd,
    guarded_triangle_example,
)
from repro.workloads import music_store_database

from helpers.tuple_engine import scan_atom


# ----------------------------------------------------------------------
# Randomized batches sharing predicates
# ----------------------------------------------------------------------
def _random_batch(seed: int):
    """A batch of 2–5 CQs (acyclic, constant-injected, plus sometimes a
    cyclic triangle) over one shared schema and database."""
    rng = random.Random(seed)
    schema = random_schema(
        seed=rng.random(), predicate_count=rng.randint(2, 4), max_arity=rng.randint(1, 3)
    )
    database = random_database(
        seed=rng.random(),
        schema=schema,
        facts_per_predicate=rng.randint(5, 20),
        domain_size=rng.randint(3, 8),
    )
    domain = sorted(database.constants(), key=str)

    queries = []
    for q_index in range(rng.randint(2, 5)):
        query = random_acyclic_query(
            seed=rng.random(), schema=schema, atom_count=rng.randint(1, 5)
        )
        body = []
        for atom in query.body:
            terms = list(atom.terms)
            for position in range(len(terms)):
                if domain and rng.random() < 0.2:
                    terms[position] = rng.choice(domain)
            body.append(Atom(atom.predicate, tuple(terms)))
        variables = sorted({v for atom in body for v in atom.variables()}, key=str)
        head = tuple(
            rng.choice(variables) for _ in range(rng.randint(0, min(2, len(variables))))
        ) if variables else ()
        queries.append(ConjunctiveQuery(head, body, name=f"b{seed}_{q_index}"))

    if rng.random() < 0.4:
        # A cyclic triangle over a schema predicate with arity 2, if any —
        # exercises the plan route inside the batch.
        binary = [p for p in schema.predicates() if p.arity == 2]
        if binary:
            x, y, z = Variable("tx"), Variable("ty"), Variable("tz")
            predicate = rng.choice(binary)
            queries.append(
                ConjunctiveQuery(
                    (),
                    [Atom(predicate, (x, y)), Atom(predicate, (y, z)), Atom(predicate, (z, x))],
                    name=f"b{seed}_cycle",
                )
            )
    return queries, database


def _assert_batch_matches_oracles(queries, database):
    batched = evaluate_batch(queries, database, engine="batch")
    sequential = evaluate_batch(queries, database, engine="sequential")
    assert batched == sequential
    for query, answers in zip(queries, batched):
        assert answers == evaluate_generic(query, database)
        if query.is_acyclic():
            assert answers == evaluate_acyclic(query, database)
        else:
            assert answers == evaluate_with_plan(query, database)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_batch_matches_per_query_engines_on_random_batches(seed):
    queries, database = _random_batch(seed)
    _assert_batch_matches_oracles(queries, database)


@pytest.mark.parametrize("seed", range(20))
def test_batch_matches_per_query_engines_on_seeded_grid(seed):
    """A fixed, deterministic slice of the same space (fast CI signal)."""
    queries, database = _random_batch(seed * 5407)
    _assert_batch_matches_oracles(queries, database)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_oracles_on_shared_predicate_workload(seed):
    queries, database = shared_predicate_batch_workload(12, size=240, seed=seed)
    _assert_batch_matches_oracles(queries, database)


# ----------------------------------------------------------------------
# Reformulation route (Proposition 24 inside a batch)
# ----------------------------------------------------------------------
def test_batch_reformulates_cyclic_queries_under_tgds():
    query = example1_query()
    tgd = example1_tgd()
    database = music_store_database(seed=3, customers=12, records=15, styles=4)

    assert not query.is_acyclic()
    batch = BatchEvaluator([query], tgds=[tgd])
    assert batch.routes() == ["reformulated"]

    [answers] = batch.evaluate(database)
    assert answers == evaluate_via_reformulation(query, [tgd], database)
    assert answers == evaluate_generic(query, database)


@pytest.mark.parametrize("seed", range(5))
def test_batch_reformulation_route_on_random_satisfying_databases(seed):
    """Mixed batch (cyclic-but-reformulable + acyclic) against the generic
    oracle on random databases satisfying the tgds."""
    from repro.chase import chase
    from repro.workloads.generators import random_database

    cyclic_query, tgds = guarded_triangle_example()
    acyclic_probe = ConjunctiveQuery(
        (),
        [Atom(cyclic_query.body[0].predicate, (Variable("px"), Variable("py")))],
        name="probe",
    )
    base = random_database(
        seed=seed,
        schema=cyclic_query.schema(),
        facts_per_predicate=8,
        domain_size=5,
    )
    result = chase(base, tgds, max_steps=10_000)
    assert result.terminated
    database = Database()
    database.add_all(result.instance)

    batch = BatchEvaluator([cyclic_query, acyclic_probe], tgds=tgds)
    assert batch.routes() == ["reformulated", "yannakakis"]
    answers = batch.evaluate(database)
    assert answers == batch.evaluate_sequential(database)
    assert answers == [
        evaluate_generic(cyclic_query, database),
        evaluate_generic(acyclic_probe, database),
    ]


def test_batch_without_tgds_routes_cyclic_to_decomposition():
    query = example1_query()
    batch = BatchEvaluator([query])
    assert batch.routes() == ["decomposition"]
    database = music_store_database(seed=5, customers=8, records=10, styles=3)
    assert batch.evaluate(database) == [evaluate_generic(query, database)]


# ----------------------------------------------------------------------
# ScanCache: one base build per predicate serves every atom over it
# ----------------------------------------------------------------------
class TestScanCache:
    E = Predicate("E", 2)
    F = Predicate("F", 2)

    def _database(self):
        database = Database()
        for i in range(12):
            database.add(Atom(self.E, (Constant(i % 4), Constant(i % 3))))
            database.add(Atom(self.F, (Constant(i % 3), Constant(i % 5))))
        return database

    def test_same_signature_is_built_once(self):
        database = self._database()
        cache = ScanCache(database)
        x, y, u, v = (Variable(n) for n in "xyuv")
        first = cache.scan(Atom(self.E, (x, y)))
        second = cache.scan(Atom(self.E, (u, v)))  # same shape, new names
        assert cache.served == 2
        assert cache.built == 1
        assert first.store is second.store  # one base store, two views
        assert first.schema == (x, y) and second.schema == (u, v)

    def test_every_atom_of_a_predicate_shares_one_build(self):
        database = self._database()
        cache = ScanCache(database)
        x, y = Variable("x"), Variable("y")
        cache.scan(Atom(self.E, (x, y)))
        cache.scan(Atom(self.E, (Constant(1), y)))  # anchored: a bucket
        cache.scan(Atom(self.E, (x, x)))  # repeated variable: a filter
        cache.scan(Atom(self.F, (x, y)))  # predicate differs
        assert cache.built == 2
        assert cache.cached_scans() == 2
        # Re-requesting any shape, at any anchor, adds no builds.
        cache.scan(Atom(self.E, (y, x)))
        cache.scan(Atom(self.E, (Constant(2), x)))
        cache.scan(Atom(self.E, (y, y)))
        cache.scan(Atom(self.F, (y, x)))
        assert cache.built == 2
        assert cache.served == 8

    def test_constant_scans_reuse_one_base_partition(self):
        """Anchoring the same position at different constants costs one full
        pass (the base store's key index), then one bucket per constant."""
        database = self._database()
        cache = ScanCache(database)
        y = Variable("y")
        builds = IntIndex.long_lived_builds
        for constant in range(4):
            cache.scan(Atom(self.E, (Constant(constant), y)))
        assert cache.built == 1
        assert IntIndex.long_lived_builds == builds + 1
        assert cache.cached_scans() == 1

    def test_scan_agrees_with_from_atom(self):
        """The cache's scans equal the oracle's one-pass fact scan."""
        database = self._database()
        cache = ScanCache(database)
        x, y = Variable("x"), Variable("y")
        for atom in [
            Atom(self.E, (x, y)),
            Atom(self.E, (Constant(2), y)),
            Atom(self.E, (x, x)),
            Atom(self.E, (Constant(0), Constant(0))),
            Atom(self.E, (Constant(0), Constant(1))),
            Atom(self.F, (y, Constant(1))),
        ]:
            assert cache.scan(atom).to_relation() == scan_atom(atom, database)

    def test_cache_rejects_foreign_database(self):
        cache = ScanCache(self._database())
        other = self._database()
        with pytest.raises(ValueError):
            cache.scan(Atom(self.E, (Variable("x"), Variable("y"))), other)

    def test_cache_absorbs_mutated_database(self):
        """Mutating the database must be absorbed, not served stale."""
        database = self._database()
        cache = ScanCache(database)
        atom = Atom(self.E, (Variable("x"), Variable("y")))
        before = set(cache.scan(atom).decoded_rows())
        fresh = Atom(self.E, (Constant("fresh"), Constant("fresh")))
        database.add(fresh)
        after = set(cache.scan(atom).decoded_rows())
        assert after == before | {fresh.terms}
        assert cache.delta_merges == 1 and cache.full_rebuilds == 0

    def test_missing_predicate_scans_empty(self):
        cache = ScanCache(self._database())
        missing = Predicate("Missing", 1)
        assert cache.scan(Atom(missing, (Variable("x"),))).is_empty()

    @pytest.mark.parametrize("use_numpy", [False, True], ids=["array", "numpy"])
    def test_anchor_without_facts_scans_empty_and_encodes_nothing(
        self, monkeypatch, use_numpy
    ):
        """An anchor absent from the predicate, or never encoded at all,
        gives an empty scan and leaves the encoder as it was."""
        if use_numpy:
            pytest.importorskip("numpy")
        monkeypatch.setenv(NUMPY_ENV, "1" if use_numpy else "0")
        database = self._database()
        cache = ScanCache(database)
        y = Variable("y")
        cache.scan(Atom(self.F, (Constant(4), y)))  # encodes F's terms, 4 among them
        terms = len(cache.encoder)
        for anchor in (Constant(4), Constant("never-seen")):
            for atom in (Atom(self.E, (anchor, y)), Atom(self.E, (y, anchor))):
                scanned = cache.scan(atom)
                assert scanned.is_empty() and list(scanned.decoded_rows()) == []
                assert scanned.store.use_numpy == use_numpy
        assert len(cache.encoder) == terms


# ----------------------------------------------------------------------
# Partition sharing
# ----------------------------------------------------------------------
class TestPartitionSharing:
    def test_views_share_partitions(self):
        a, b = Constant("a"), Constant("b")
        x, y, u, v = (Variable(n) for n in "xyuv")
        encoded = Relation((x, y), [(a, b), (b, a), (a, a)]).encoded(TermEncoder())
        view = encoded.with_schema((u, v))
        assert view.partition((u,)) is encoded.partition((x,))
        assert view.store is encoded.store

    def test_partition_is_cached_per_position_tuple(self):
        a, b = Constant("a"), Constant("b")
        x, y = Variable("x"), Variable("y")
        relation = Relation((x, y), [(a, b), (b, a)])
        assert relation.partition((x,)) is relation.partition((x,))
        assert relation.partition((x,)) is not relation.partition((y,))
        assert relation.partition((x, y)) is not relation.partition((y, x))

    def test_partition_contents(self):
        a, b = Constant("a"), Constant("b")
        x, y = Variable("x"), Variable("y")
        relation = Relation((x, y), [(a, b), (a, a), (b, a)])
        partition = relation.partition((x,))
        assert (a,) in partition and (b,) in partition
        assert list(partition.get((a,))) == [(a, b), (a, a)]
        assert list(partition.get(("missing",))) == []
        assert len(partition) == 2


# ----------------------------------------------------------------------
# Batch API corners
# ----------------------------------------------------------------------
def test_empty_batch():
    assert evaluate_batch([], Database()) == []


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError):
        evaluate_batch([], Database(), engine="warp")


def test_sequential_engine_rejects_a_scan_cache():
    """A supplied cache must never be silently dropped."""
    database = Database()
    with pytest.raises(ValueError):
        evaluate_batch([], database, engine="sequential", scans=ScanCache(database))


def test_explicit_cache_amortises_across_calls():
    queries, database = shared_predicate_batch_workload(6, size=120, seed=1)
    batch = BatchEvaluator(queries)
    cache = ScanCache(database)
    first = batch.evaluate(database, scans=cache)
    built_after_first = cache.built
    second = batch.evaluate(database, scans=cache)
    assert first == second
    assert cache.built == built_after_first  # second call: all cache hits


def test_boolean_and_ground_queries_in_batch():
    E = Predicate("E", 2)
    database = Database([Atom(E, (Constant("a"), Constant("b")))])
    x, y = Variable("x"), Variable("y")
    boolean_hit = ConjunctiveQuery((), [Atom(E, (x, y))], name="hit")
    boolean_miss = ConjunctiveQuery((), [Atom(E, (x, x))], name="miss")
    ground = ConjunctiveQuery((), [Atom(E, (Constant("a"), Constant("b")))], name="ground")
    results = evaluate_batch([boolean_hit, boolean_miss, ground], database)
    assert results == [{()}, set(), {()}]
