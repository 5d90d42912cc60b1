"""The long-lived :class:`repro.service.QueryService`.

Covers the three service contracts on top of the epoch machinery:

* the plan cache keyed by parameterised query shape — constants Σ does not
  name are lifted to placeholders (:func:`repro.service.query_shape`), and
  canonicalisation via :func:`repro.service.canonical_form` runs over the
  lifted core, so renamed variants, re-anchored variants and core-reducible
  supersets of one query share a single cached route, bound to each
  request's anchors at run time;
* the read/write surface — ``submit``/``stream`` (with ``limit=``
  backpressure and the :class:`ConcurrentMutationError` stream guard),
  ``insert``/``delete``, drift-triggered re-planning, ``verify()`` with
  the SVC001/SVC002 diagnostics;
* the seam between one-shot evaluation and a standing service (a caller
  hands the service's scan cache to ``evaluate_iter``/``evaluate_batch``)
  and the ``repro serve`` CLI.
"""

import io
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli, parse_query, parse_tgd
from repro import service as service_module
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import (
    YannakakisEvaluator,
    evaluate_batch,
    evaluate_generic,
    evaluate_iter,
)
from repro.queries.core_minimization import core
from repro.queries.cq import ConjunctiveQuery
from repro.service import (
    PLAN_CACHE_LIMIT,
    ConcurrentMutationError,
    QueryService,
    canonical_form,
    lift_constants,
    parameter,
    query_shape,
)

E = Predicate("E", 2)
x, y, z, u, v, w = (Variable(n) for n in "xyzuvw")


def _edge(a, b):
    return Atom(E, (Constant(a), Constant(b)))


def _db(*pairs):
    database = Database()
    for a, b in pairs:
        database.add(_edge(a, b))
    return database


def _path_query(a, b, c, name="q"):
    return ConjunctiveQuery((a, c), [Atom(E, (a, b)), Atom(E, (b, c))], name=name)


def _anchored_path(anchor, b, c):
    """``q(c) :- E(anchor, b), E(b, c)``: a two-hop walk from one constant."""
    return ConjunctiveQuery((c,), [Atom(E, (Constant(anchor), b)), Atom(E, (b, c))])


def _counting(monkeypatch, name):
    """Wrap ``repro.service.<name>`` and return the list of its calls."""
    calls = []
    original = getattr(service_module, name)

    def counted(query):
        calls.append(query)
        return original(query)

    monkeypatch.setattr(service_module, name, counted)
    return calls


# ----------------------------------------------------------------------
# Canonicalisation
# ----------------------------------------------------------------------
class TestCanonicalForm:
    def test_renamed_variants_share_one_canonical_form(self):
        assert canonical_form(_path_query(x, y, z)) == canonical_form(
            _path_query(u, v, w)
        )

    def test_head_positions_are_preserved(self):
        canonical = canonical_form(_path_query(x, y, z))
        assert canonical.head == (Variable("_h0"), Variable("_h1"))
        # _h0 is the source of the path, _h1 the target: positional
        # answer-tuple semantics survive canonicalisation.
        first_atom_vars = {
            variable
            for atom in canonical.body
            for variable in atom.terms
            if variable == Variable("_h0")
        }
        assert first_atom_vars == {Variable("_h0")}

    def test_different_shapes_stay_distinct(self):
        path = _path_query(x, y, z)
        loop = ConjunctiveQuery((x,), [Atom(E, (x, x))])
        assert canonical_form(path) != canonical_form(loop)

    def test_existing_underscore_names_do_not_collide(self):
        clash = ConjunctiveQuery(
            (Variable("_e0"),),
            [Atom(E, (Variable("_e0"), Variable("_h0")))],
        )
        canonical = canonical_form(clash)
        assert len(canonical.variables()) == 2

    def test_beyond_permutation_limit_is_deterministic(self):
        chain = [Atom(E, (Variable(f"c{i}"), Variable(f"c{i+1}"))) for i in range(9)]
        query = ConjunctiveQuery((Variable("c0"),), chain)
        assert canonical_form(query) == canonical_form(query)


# ----------------------------------------------------------------------
# The plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_isomorphic_variants_hit_one_cached_plan(self):
        """The acceptance bar: >= 90% of 64 renamed variants are hits."""
        service = QueryService(_db((1, 2), (2, 3), (3, 4)))
        names = [f"n{i}" for i in range(20)]
        expected = service.submit(_path_query(x, y, z))
        for i in range(63):
            a, b, c = (Variable(f"{names[i % 20]}{j}_{i}") for j in range(3))
            assert service.submit(_path_query(a, b, c, name=f"v{i}")) == expected
        assert service.plan_misses == 1
        assert service.plan_hits == 63
        assert service.plan_hits / 64 >= 0.9

    def test_core_reducible_query_shares_the_minimal_plan(self):
        service = QueryService(_db((1, 2), (2, 3)))
        minimal = _path_query(x, y, z)
        redundant = ConjunctiveQuery(
            (x, z),
            # u duplicates y's role: the core folds it away.
            [Atom(E, (x, y)), Atom(E, (y, z)), Atom(E, (x, u))],
        )
        first = service.submit(minimal)
        assert service.submit(redundant) == first
        assert service.plan_misses == 1 and service.plan_hits == 1

    def test_repeat_submission_skips_canonicalisation(self, monkeypatch):
        cores = _counting(monkeypatch, "core")
        canonicals = _counting(monkeypatch, "canonical_form")
        database = _db((1, 2), (2, 3), (5, 3), (3, 4))
        service = QueryService(database)
        first = _anchored_path(1, y, z)
        assert service.submit(first) == evaluate_generic(first, database)
        assert len(cores) == len(canonicals) == 1
        assert query_shape(first)[0] in service._shapes
        variants = [
            first,  # an exact repeat
            _anchored_path(1, u, w),  # renamed
            _anchored_path(5, y, z),  # re-anchored
            _anchored_path(2, v, x),  # renamed and re-anchored
        ]
        for query in variants:
            assert service.submit(query) == evaluate_generic(query, database)
        assert len(cores) == len(canonicals) == 1
        assert list(service._shapes) == [query_shape(first)[0]]

    def test_pre_key_memo_evicts_only_the_oldest_key(self):
        # Every body order of one all-free path is its own pre-key, and all
        # of them share one canonical core: PLAN_CACHE_LIMIT + 1 distinct
        # pre-keys over a single plan entry.
        chain = [Variable(f"p{i}") for i in range(8)]
        atoms = [Atom(E, (chain[i], chain[i + 1])) for i in range(7)]
        requests = [
            ConjunctiveQuery(tuple(chain), order)
            for order in itertools.islice(
                itertools.permutations(atoms), PLAN_CACHE_LIMIT + 1
            )
        ]
        service = QueryService(_db((1, 2), (2, 3)))
        for query in requests:
            service.submit(query)
        assert list(service._shapes) == [
            query_shape(query)[0] for query in requests[1:]
        ]
        assert service.plan_misses == 1

    def test_cached_evaluator_compiles_each_plan_once(self, monkeypatch):
        calls = []
        for name in ("_compile_answer_plan", "_compile_stream_plan"):
            original = getattr(YannakakisEvaluator, name)

            def counted(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(YannakakisEvaluator, name, counted)
        database = _db((1, 2), (2, 3), (3, 4))
        service = QueryService(database, replan_drift=1.0)  # no drift replans
        writes = [
            lambda: service.insert(_edge(4, 5)),
            lambda: service.delete(_edge(2, 3)),
            lambda: service.insert(_edge(2, 6)),
            lambda: None,
        ]
        for i, write in enumerate(writes):
            query = _path_query(*(Variable(f"{name}{i}") for name in "xyz"))
            truth = evaluate_generic(query, database)
            assert service.submit(query) == truth
            assert service.submit(query) == truth
            assert set(service.stream(query)) == truth
            write()
        assert service.plan_misses == 1 and service.replans == 0
        assert sorted(calls) == ["_compile_answer_plan", "_compile_stream_plan"]

    def test_drift_triggers_a_replan(self):
        database = _db((1, 2), (2, 3))
        service = QueryService(database, replan_drift=0.5)
        query = _path_query(x, y, z)
        service.submit(query)
        for i in range(10, 16):  # grow |D| past 50%
            service.insert(_edge(i, i + 1))
        service.submit(query)
        assert service.replans == 1
        assert service.plan_misses == 2


# ----------------------------------------------------------------------
# Parameterised plan keys: one plan per query shape, anchors as run state
# ----------------------------------------------------------------------
R, S = Predicate("R", 2), Predicate("S", 2)


def _rs_database():
    database = Database()
    for a, b in [(1, 2), (1, 3), (2, 2), (3, 1), (4, 4), (2, 5)]:
        database.add(Atom(R, (Constant(a), Constant(b))))
    for a, b in [(2, 1), (3, 1), (2, 3), (5, 2), (4, 4), (1, 1)]:
        database.add(Atom(S, (Constant(a), Constant(b))))
    return database


def _triangle(anchor):
    """A triangle entered from one constant: cyclic, so it takes the
    decomposition route."""
    return ConjunctiveQuery(
        (y, z),
        [Atom(E, (Constant(anchor), y)), Atom(E, (y, z)), Atom(E, (z, w)), Atom(E, (w, y))],
    )


def _triangle_database():
    return _db((1, 2), (2, 3), (3, 1), (4, 2), (2, 5), (5, 4), (3, 4), (4, 1))


class TestParameterisedPlans:
    def test_two_anchors_share_one_plan_entry(self):
        database = _db((1, 2), (2, 3), (5, 3), (3, 4))
        service = QueryService(database)
        for anchor in (1, 5, 2):
            query = _anchored_path(anchor, y, z)
            assert service.submit(query) == evaluate_generic(query, database)
            assert set(service.stream(query)) == evaluate_generic(query, database)
        assert service.plan_misses == 1 and len(service._plans) == 1
        (entry,) = service._plans.values()
        assert parameter(0) in entry.query.constants()

    def test_equality_pattern_of_constants_splits_entries(self):
        database = _rs_database()
        service = QueryService(database)
        same = ConjunctiveQuery(
            (x,), [Atom(R, (Constant(1), x)), Atom(S, (x, Constant(1)))]
        )
        distinct = ConjunctiveQuery(
            (x,), [Atom(R, (Constant(1), x)), Atom(S, (x, Constant(3)))]
        )
        assert query_shape(same)[0] != query_shape(distinct)[0]
        for query in (same, distinct):
            assert service.submit(query) == evaluate_generic(query, database)
        assert service.plan_misses == 2 and len(service._plans) == 2
        # Each pattern's other anchors reuse its entry.
        same_again = ConjunctiveQuery(
            (x,), [Atom(R, (Constant(2), x)), Atom(S, (x, Constant(2)))]
        )
        assert service.submit(same_again) == evaluate_generic(same_again, database)
        assert service.plan_misses == 2

    def test_constant_named_in_a_tgd_stays_literal(self):
        tgds = (parse_tgd("R(x, 'a') -> T(x)"), parse_tgd("R(x, 'b') -> T(x)"))
        database = Database()
        for a, b in [(1, "a"), (2, "b"), (3, "c"), (4, "d")]:
            database.add(Atom(R, (Constant(a), Constant(b))))
        for a in (1, 2):
            database.add(Atom(Predicate("T", 1), (Constant(a),)))
        service = QueryService(database)
        for name in ("a", "b", "c", "d"):
            query = parse_query(f"q(x) :- R(x, '{name}')")
            assert service.submit(query, tgds=tgds) == evaluate_generic(query, database)
        # 'a' and 'b' are named in the tgds: one entry each.  'c' and 'd'
        # are not: they lift to one parameter and share an entry.
        assert service.plan_misses == 3
        literal = query_shape(parse_query("q(x) :- R(x, 'a')"), tgds)
        assert literal[1] == {}
        lifted = query_shape(parse_query("q(x) :- R(x, 'c')"), tgds)
        assert lifted[1] == {parameter(0): Constant("c")}

    def test_reformulated_route_shares_one_plan_across_anchors(self):
        tgds = (parse_tgd("Interest(x, s), Class(r, s) -> Owns(x, r)"),)
        database = Database()
        facts = [
            "Interest('ann', 'math')", "Interest('bob', 'art')",
            "Interest('bob', 'math')", "Class('c1', 'math')",
            "Class('c2', 'art')", "Owns('ann', 'c1')", "Owns('bob', 'c1')",
            "Owns('bob', 'c2')", "Owns('cy', 'c2')", "Room('c1', 'r1')",
            "Room('c2', 'r2')", "Room('c2', 'r1')",
        ]
        for fact in facts:
            database.add(parse_query(f"q() :- {fact}").body[0])
        service = QueryService(database)
        for room in ("r1", "r2", "r3"):
            # Cyclic through x, y, z; the anchored Room atom keeps it so.
            query = parse_query(
                "q(x, y) :- Interest(x, z), Class(y, z), Owns(x, y), "
                f"Room(y, '{room}')"
            )
            assert service.submit(query, tgds=tgds) == evaluate_generic(query, database)
        assert service.plan_misses == 1
        (entry,) = service._plans.values()
        assert entry.kind == "reformulated"

    def test_shared_plans_pass_the_static_verifier(self, monkeypatch):
        from repro.analysis.verify_plan import verify_plan

        monkeypatch.setenv("REPRO_VERIFY", "1")
        database = _triangle_database()
        service = QueryService(database)
        for anchor in (1, 2, 4):
            for query in (_anchored_path(anchor, y, z), _triangle(anchor)):
                truth = evaluate_generic(query, database)
                for engine in ("auto", "decomposition", "plan"):
                    assert service.submit(query, engine=engine) == truth
                    assert set(service.stream(query, engine=engine)) == truth
        # Two shapes times three engines, each entry shared by the anchors.
        assert service.plan_misses == 6
        assert sorted(entry.kind for entry in service._plans.values()) == [
            "decomposition", "decomposition", "decomposition", "plan", "plan", "yannakakis",
        ]
        for entry in service._plans.values():
            if entry.evaluator is None:
                continue
            assert verify_plan(entry.evaluator.compile_answer_plan()) == []
            assert verify_plan(entry.evaluator.compile_stream_plan()) == []

    def test_cost_model_prices_an_anchored_scan_without_the_anchor(self):
        from repro.evaluation.operators import CostModel, Statistics

        model = CostModel(Statistics(_triangle_database()))
        estimates = {
            model.scan_estimate(Atom(E, (term, y))).rows
            for term in (Constant(1), Constant(2), Constant(99), parameter(0))
        }
        assert len(estimates) == 1

    def test_plan_engine_plans_and_compiles_once_per_entry(self, monkeypatch):
        from repro.evaluation import join_plans, planner_dp

        modes = []
        compiled = []
        original = planner_dp.plan_dp
        original_compile = join_plans.compile_plan

        def counted(query, database, **kwargs):
            modes.append(kwargs.get("linear", False))
            assert not set(query.constants()) - {parameter(0)}
            return original(query, database, **kwargs)

        def counted_compile(plan):
            compiled.append(plan)
            return original_compile(plan)

        monkeypatch.setattr(planner_dp, "plan_dp", counted)
        monkeypatch.setattr(join_plans, "compile_plan", counted_compile)
        database = _triangle_database()
        service = QueryService(database, replan_drift=0.5)
        names = itertools.cycle([(y, z), (u, v), (v, w)])
        for anchor in (1, 2, 3, 4, 5, 1):
            b, c = next(names)
            for query in (_anchored_path(anchor, b, c), _triangle(anchor)):
                truth = evaluate_generic(query, database)
                assert service.submit(query, engine="plan") == truth
                assert set(service.stream(query, engine="plan")) == truth
        # Two shapes, each planned and compiled once per mode (materialising,
        # streaming): warm requests neither plan nor compile.
        assert sorted(modes) == [False, False, True, True]
        assert len(compiled) == 4
        assert service.plan_misses == 2
        for i in range(10, 16):  # grow |D| past the drift threshold
            service.insert(_edge(i, i + 1))
        query = _anchored_path(2, y, z)
        assert service.submit(query, engine="plan") == evaluate_generic(query, database)
        assert service.replans == 1 and modes.count(False) == 3
        assert len(compiled) == 5

    def test_plan_cache_evicts_the_oldest_shape(self, monkeypatch):
        monkeypatch.setattr(service_module, "PLAN_CACHE_LIMIT", 4)
        database = Database()
        predicates = [Predicate(f"P{i}", 2) for i in range(6)]
        for i, predicate in enumerate(predicates):
            database.add(Atom(predicate, (Constant(i), Constant(i + 1))))
            database.add(Atom(predicate, (Constant(i + 1), Constant(i + 2))))

        def shape(i, anchor):
            return ConjunctiveQuery(
                (z,),
                [
                    Atom(predicates[i], (Constant(anchor), y)),
                    Atom(predicates[i], (y, z)),
                ],
            )

        service = QueryService(database)
        keys = []
        for i in range(5):
            query = shape(i, i)
            assert service.submit(query) == evaluate_generic(query, database)
            keys.append(service._shapes[query_shape(query)[0]])
        assert list(service._plans) == keys[1:]
        assert len(service._shapes) == 4
        # The evicted shape comes back under another anchor: a fresh
        # route and compile, still right.
        query = shape(0, 7)
        assert service.submit(query) == evaluate_generic(query, database)
        query = shape(0, 0)
        assert service.submit(query) == evaluate_generic(query, database)
        assert service.plan_misses == 6
        assert list(service._plans) == keys[2:] + [keys[0]]

    def test_parallel_batch_binds_each_request_its_own_anchor(self):
        """Concurrent runs of one shared plan never see each other's anchors.

        Four client threads submit to one service at once, so runs of the
        shared plan interleave; a few rounds make a lost binding show.
        """
        import sys
        from concurrent.futures import ThreadPoolExecutor

        database = _db(*[(i, i + 1) for i in range(40)])
        service = QueryService(database)
        queries = [_anchored_path(anchor % 40, y, z) for anchor in range(160)]
        truth = [evaluate_generic(query, database) for query in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as clients:
                for _ in range(4):
                    answers = list(clients.map(service.submit, queries, timeout=60))
                    planned = list(
                        clients.map(
                            lambda q: service.submit(q, engine="plan"), queries, timeout=60
                        )
                    )
                    assert answers == truth and planned == truth
        finally:
            sys.setswitchinterval(interval)
        assert answers[3] == {(Constant(5),)}
        assert service.plan_misses == 2  # one shape, two engines

    def test_warm_point_read_compiles_nothing_and_builds_no_index(self, monkeypatch):
        """Bounded work: a point read of a shape already in the plan cache,
        at an anchor never read before, compiles no scan pattern (each
        ``Scan`` of the cached plan holds its own, and the request's anchor
        is bound into it), builds no key index on a long-lived store, and
        answers as the tuple oracle does."""
        from helpers import tuple_engine

        from repro.evaluation import batch, operators, relation
        from repro.evaluation.encoding import IntIndex

        database = _db(*[(i, (i * 7) % 50) for i in range(50)])
        service = QueryService(database)
        service.submit(_anchored_path(1, y, z))  # plans the shape, builds its indexes
        compiled = []
        original = relation.compile_scan_pattern

        def counting(atom):
            compiled.append(atom)
            return original(atom)

        for module in (relation, batch, operators, service_module):
            if hasattr(module, "compile_scan_pattern"):
                monkeypatch.setattr(module, "compile_scan_pattern", counting)
        builds = IntIndex.long_lived_builds
        query = _anchored_path(2, Variable("b2"), Variable("c2"))
        answers = service.submit(query)
        assert compiled == []
        assert IntIndex.long_lived_builds == builds
        assert (service.plan_hits, service.plan_misses) == (1, 1)
        assert answers == tuple_engine.evaluate(YannakakisEvaluator(query), database)
        assert answers == {(Constant((2 * 7 * 7) % 50),)}

    def test_cached_scans_count_the_predicates_read(self):
        """However many anchors and shapes are read, the scan cache holds
        one base relation per predicate."""
        database = _db(*[(i, (i * 7) % 50) for i in range(50)])
        for i in range(50):
            database.add(Atom(R, (Constant(i), Constant(i % 5))))
        service = QueryService(database)
        assert service.counters()["cached_scans"] == 0
        for i in range(100):
            service.submit(_anchored_path(i % 50, y, z))
        assert service.counters()["cached_scans"] == 1
        for i in range(100):
            service.submit(
                ConjunctiveQuery((z,), [Atom(E, (x, Constant(i % 50))), Atom(R, (x, z))])
            )
            service.submit(ConjunctiveQuery((x,), [Atom(R, (x, x))]))
        assert service.counters()["cached_scans"] == 2
        assert service.counters()["scans_built"] == 2

    def test_placeholders_never_reach_the_encoder_or_scan_signatures(self):
        database = _db(*[(i, (i * 7) % 50) for i in range(50)])
        service = QueryService(database)
        for i in range(200):
            query = _anchored_path(i % 50, Variable(f"b{i}"), Variable(f"c{i}"))
            assert service.submit(query) == evaluate_generic(
                query, database
            )
        assert service.plan_misses == 1

        def is_placeholder(term):
            name = getattr(term, "name", None)
            return isinstance(name, tuple) and name[:1] == ("__param__",)

        assert not any(is_placeholder(term) for term in service.scans.encoder.terms)
        # The one cached relation is the predicate's base: no anchor, real
        # or placeholder, has a cache entry of its own.
        assert service.counters()["cached_scans"] == 1


@st.composite
def _queries_with_repeated_constants(draw):
    pool = [Variable(f"x{i}") for i in range(3)] + [Constant(i) for i in range(1, 4)]
    body = [
        Atom(draw(st.sampled_from([R, S])), tuple(draw(st.sampled_from(pool)) for _ in range(2)))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    variables = sorted({t for atom in body for t in atom.terms if isinstance(t, Variable)}, key=str)
    head = draw(st.lists(st.sampled_from(variables), max_size=2)) if variables else []
    return ConjunctiveQuery(tuple(head), body)


def _variant(query, data):
    """An isomorphic copy: variables renamed, constants renamed injectively."""
    targets = data.draw(st.permutations(list(range(1, 7))))
    mapping = {Constant(i): Constant(targets[i - 1]) for i in range(1, 4)}
    mapping.update({Variable(f"x{i}"): Variable(f"w{2 - i}") for i in range(3)})
    return query.apply(mapping)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _queries_with_repeated_constants(),
    st.lists(
        st.tuples(st.sampled_from([R, S]), st.integers(1, 6), st.integers(1, 6)),
        max_size=14,
    ),
    st.data(),
)
def test_equal_pre_keys_mean_equal_plan_keys(query, facts, data):
    variant = _variant(query, data)
    (shape, params), (variant_shape, variant_params) = (
        query_shape(query),
        query_shape(variant),
    )
    assert shape == variant_shape
    assert canonical_form(core(lift_constants(query, params))) == canonical_form(
        core(lift_constants(variant, variant_params))
    )
    database = Database()
    for predicate, a, b in facts:
        database.add(Atom(predicate, (Constant(a), Constant(b))))
    service = QueryService(database)
    assert service.submit(query) == evaluate_generic(query, database)
    assert service.submit(variant) == evaluate_generic(variant, database)
    assert service.plan_misses == 1


# ----------------------------------------------------------------------
# Read/write surface
# ----------------------------------------------------------------------
class TestReadWrite:
    def test_submit_reflects_every_write(self):
        service = QueryService(_db((1, 2), (2, 3)))
        query = _path_query(x, y, z)
        assert service.submit(query) == {(Constant(1), Constant(3))}
        assert service.delete(_edge(1, 2))
        assert service.insert(_edge(3, 4))
        assert service.submit(query) == {(Constant(2), Constant(4))}
        assert service.writes == 2
        assert not service.insert(_edge(3, 4))  # ineffective: not counted
        assert service.writes == 2

    def test_stream_limit_backpressure(self):
        service = QueryService(_db((1, 2), (2, 3), (3, 4), (4, 5)))
        answers = list(service.stream(_path_query(x, y, z), limit=2))
        assert len(answers) == 2

    def test_stream_raises_on_concurrent_mutation(self):
        service = QueryService(_db((1, 2), (2, 3), (3, 4)))
        stream = service.stream(_path_query(x, y, z))
        assert next(stream) is not None
        service.insert(_edge(9, 10))
        with pytest.raises(ConcurrentMutationError, match="epoch"):
            next(stream)

    def test_stream_completes_without_mutation(self):
        service = QueryService(_db((1, 2), (2, 3), (3, 4)))
        assert set(service.stream(_path_query(x, y, z))) == {
            (Constant(1), Constant(3)),
            (Constant(2), Constant(4)),
        }

    def test_verify_clean_then_svc002_on_drift(self):
        service = QueryService(_db((1, 2), (2, 3)), replan_drift=0.5)
        service.submit(_path_query(x, y, z))
        assert service.verify() == []
        for i in range(10, 16):
            service.insert(_edge(i, i + 1))
        codes = [d.code for d in service.verify()]
        assert codes == ["SVC002"]

    def test_verify_svc001_on_a_corrupted_stamp(self):
        service = QueryService(_db((1, 2)))
        service.submit(_path_query(x, y, z))
        relation = next(iter(service.scans._bases.values()))
        relation.stamp_epoch(relation.stamped_epoch() + 7)
        codes = [d.code for d in service.verify()]
        assert "SVC001" in codes

    def test_write_barrier_is_a_real_reader_writer_lock(self):
        """A write waits for in-flight reads AND blocks new reads.

        The "readers never observe a half-applied write" guarantee needs
        real exclusion, not a check-then-act drain: a read entering after
        the drain returned must not scan concurrently with the mutation.
        """
        import threading
        import time

        service = QueryService(_db((1, 2), (2, 3)))
        reader_entered = threading.Event()
        release_reader = threading.Event()
        events = []

        def slow_reader():
            service._begin_read()
            try:
                reader_entered.set()
                assert release_reader.wait(5)
                events.append("read-finished")
            finally:
                service._end_read()

        def late_reader():
            service._begin_read()
            try:
                # ``writes`` is bumped inside the barrier, so a reader that
                # slipped past a merely-pending write would record 0 here.
                events.append(("late-read", service.writes))
            finally:
                service._end_read()

        def wait_until(condition):
            deadline = time.monotonic() + 5
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.002)
            assert condition()

        threads = [threading.Thread(target=slow_reader)]
        threads[0].start()
        assert reader_entered.wait(5)
        threads.append(threading.Thread(target=lambda: service.insert(_edge(3, 4))))
        threads[1].start()
        # The write queues behind the in-flight read without mutating...
        wait_until(lambda: service._writers == 1)
        assert service.writes == 0
        # ...and a read arriving behind the pending write queues too.
        threads.append(threading.Thread(target=late_reader))
        threads[2].start()
        time.sleep(0.05)
        assert events == []
        release_reader.set()
        for thread in threads:
            thread.join(5)
        assert events == ["read-finished", ("late-read", 1)]
        assert service.writes == 1


# ----------------------------------------------------------------------
# One-shot evaluation next to a standing service
# ----------------------------------------------------------------------
class TestServiceSeam:
    def test_service_stream_fails_loudly_after_a_write(self):
        database = _db((1, 2), (2, 3))
        service = QueryService(database)
        assert set(service.stream(_path_query(x, y, z))) == {(Constant(1), Constant(3))}
        assert (service.plan_misses, service.plan_hits) == (1, 0)
        # An open service stream fails loudly on a concurrent write, through
        # the service or straight to the database.
        for write in (lambda: service.insert(_edge(7, 8)), lambda: database.add(_edge(8, 9))):
            stream = service.stream(_path_query(u, v, w))
            next(stream)
            write()
            with pytest.raises(ConcurrentMutationError):
                next(stream)

    def test_evaluate_batch_uses_the_service_scan_cache(self):
        database = _db((1, 2), (2, 3))
        service = QueryService(database)
        served_before = service.scans.served
        answers = evaluate_batch([_path_query(x, y, z)], database, scans=service.scans)
        assert answers == [{(Constant(1), Constant(3))}]
        assert service.scans.served > served_before
        built = service.scans.built
        assert set(evaluate_iter(_path_query(x, y, z), database, scans=service.scans)) == {
            (Constant(1), Constant(3))
        }
        assert service.scans.built == built  # the one-shot stream reused the base scan


# ----------------------------------------------------------------------
# The serve CLI
# ----------------------------------------------------------------------
def test_cli_serve_session(tmp_path):
    data = tmp_path / "facts.txt"
    data.write_text("E(1, 2)\nE(2, 3)\n", encoding="utf-8")
    session = tmp_path / "session.txt"
    session.write_text(
        "% read, write, read\n"
        "? q(a, c) :- E(a, b), E(b, c)\n"
        "- E(1, 2)\n"
        "+ E(3, 4)\n"
        "? q(a, c) :- E(a, b), E(b, c)\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    status = cli.main(
        [
            "serve",
            "--data", str(data),
            "--session", str(session),
            "--verify",
        ],
        out=out,
    )
    text = out.getvalue()
    assert status == 0
    assert "(1, 3)" in text and "(2, 4)" in text
    assert "- E(1, 2): removed" in text
    assert "verification: clean" in text
    assert "delta_merges: 1" in text
    assert "plan_hits: 1" in text


def test_cli_serve_rejects_malformed_lines(tmp_path):
    data = tmp_path / "facts.txt"
    data.write_text("E(1, 2)\n", encoding="utf-8")
    session = tmp_path / "session.txt"
    session.write_text("! not an operation\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="unknown session line"):
        cli.main(
            ["serve", "--data", str(data), "--session", str(session)],
            out=io.StringIO(),
        )
