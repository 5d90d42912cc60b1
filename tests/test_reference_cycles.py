"""A cold ``evaluate_iter`` leaves no reference cycles behind.

Self-referencing nested closures (a recursive ``def`` inside a function
holds itself through its closure cell) and memo tables whose entries'
generators point back at the table survive their last use until the cycle
collector runs, so peak memory follows GC timing.  This runs cold requests
on every streaming route with the cycle collector off and
``gc.DEBUG_SAVEALL`` on (which keeps whatever the collector then finds in
``gc.garbage``), and requires that no nested function or closure cell of
this package survives the requests or turns up as garbage.  It also requires that a cold request under tgds leaves no term
alive: the weak intern tables of nulls and variables end at their prior
size, and a standing :class:`repro.service.QueryService` keeps none of the
chase's nulls.  Each request runs through the engine (``evaluate_iter``
or the service); the tuple oracle under ``tests/helpers/`` is test code
and is not checked here.
"""

import gc
import os
import types

import repro
from repro.datamodel import terms as term_module
from repro.service import QueryService

SOURCE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

DATA = [
    "Interest('ann', 'jazz')", "Interest('bob', 'rock')", "Interest('cy', 'jazz')",
    "Class('r1', 'jazz')", "Class('r2', 'rock')", "Class('r3', 'jazz')",
    "Owns('ann', 'r1')", "Owns('ann', 'r3')", "Owns('bob', 'r2')",
    "Owns('cy', 'r1')", "Owns('cy', 'r3')",
    "E('a', 'b')", "E('b', 'c')", "E('c', 'a')", "E('a', 'c')",
]

REQUESTS = [
    # reformulated: the tgd makes the cyclic query semantically acyclic
    (
        "q(x, y) :- Interest(x, z), Class(y, z), Owns(x, y)",
        ["Interest(x, s), Class(r, s) -> Owns(x, r)"],
    ),
    ("q(x, z) :- E(x, y), E(y, z)", []),  # yannakakis
    ("q(x) :- E(x, y), E(y, z), E(z, x)", []),  # decomposition
]


def _ours(obj) -> bool:
    """A nested function of this package, or a closure cell holding one."""
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return False
    return (
        isinstance(obj, types.FunctionType)
        and obj.__code__.co_filename.startswith(SOURCE_ROOT)
        and "<locals>" in obj.__qualname__
    )


def test_cold_evaluate_iter_leaves_no_cyclic_garbage():
    database = repro.Database(repro.parse_atom(text) for text in DATA)
    gc.collect()
    before = {id(obj) for obj in gc.get_objects() if _ours(obj)}
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for query, tgds in REQUESTS:

            def stream():
                return repro.evaluate_iter(
                    repro.parse_query(query),
                    database,
                    tgds=[repro.parse_tgd(text) for text in tgds],
                )

            assert set(stream())
            next(stream())  # an abandoned stream must not leave a cycle either
        # With the collector off, only objects kept alive by a cycle (or a
        # cache) survive the requests.
        survivors = [
            obj for obj in gc.get_objects() if _ours(obj) and id(obj) not in before
        ]
        gc.collect()
        garbage = [obj for obj in gc.garbage if _ours(obj)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert survivors == []
    assert garbage == []


#: A request whose tgd has an existential variable, so both the chase of the
#: query and the containment checks of the reformulation search mint nulls.
#: The head has three variables, so the core does not decide alone and the
#: search runs.
EXISTENTIAL_REQUEST = ("q(x, y) :- E(x, y), E(y, z), E(z, x)", ["E(x, y) -> T(x, y, w)"])


def _assert_no_terms_behind(stream, database, monkeypatch, release=lambda: None):
    """Run the existential request through ``stream``; no term outlives it.

    ``release`` drops whatever the caller keeps on purpose (a standing
    service keeps its plan, and so the query's variables) before the
    variables are measured; the nulls are measured before it runs.
    """
    minted = []
    intern_null = term_module._NULLS.intern

    def counting_intern(label):
        minted.append(label)
        return intern_null(label)

    monkeypatch.setattr(term_module._NULLS, "intern", counting_intern)
    query, tgds = EXISTENTIAL_REQUEST
    gc.collect()
    before = (len(term_module._NULLS), len(term_module._VARIABLES))
    answers = set(
        stream(
            repro.parse_query(query),
            database,
            tgds=[repro.parse_tgd(text) for text in tgds],
        )
    )
    assert answers
    assert minted, "the request should have minted fresh nulls"
    gc.collect()
    assert len(term_module._NULLS) == before[0]
    release()
    gc.collect()
    assert len(term_module._VARIABLES) == before[1]


def test_cold_evaluate_iter_under_tgds_leaves_no_terms_behind(monkeypatch):
    """The chase's fresh nulls and the request's variables die with it.

    Terms are interned in weak tables (``repro.datamodel.terms``).  A term
    that something keeps alive past its request keeps its table entry, so
    the tables' sizes show any term a cold request leaks.
    """
    database = repro.Database(repro.parse_atom(text) for text in DATA)
    _assert_no_terms_behind(repro.evaluate_iter, database, monkeypatch)


def test_a_standing_service_keeps_no_chase_nulls(monkeypatch):
    """The same request through a standing service, which outlives it.

    The service keeps its plan entry, and with it the query's variables,
    by design; the nulls that the chase and the reformulation search mint
    must still die with the request.  The variables are measured once the
    service is gone.
    """
    services = [QueryService(repro.Database(repro.parse_atom(text) for text in DATA))]

    def stream(query, database, *, tgds):
        return services[0].stream(query, tgds=tgds)

    _assert_no_terms_behind(stream, services[0].database, monkeypatch, services.clear)
