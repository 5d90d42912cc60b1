"""A cold ``evaluate_iter`` leaves no reference cycles behind.

Self-referencing nested closures (a recursive ``def`` inside a function
holds itself through its closure cell) and memo tables whose entries'
generators point back at the table survive their last use until the cycle
collector runs, so peak memory follows GC timing.  This runs cold requests
on every streaming route with the cycle collector off and
``gc.DEBUG_SAVEALL`` on (which keeps whatever the collector then finds in
``gc.garbage``), and requires that no nested function, closure cell or
enumeration cursor of this package survives the requests or turns up as
garbage.  It also requires that a cold request under tgds leaves no term
alive: the weak intern tables of nulls and variables end at their prior
size.  Each request runs through the engine (``evaluate_iter``); the tuple
oracle under ``tests/helpers/`` is test code and is not checked here.
"""

import gc
import os
import types
from collections import OrderedDict

import pytest

import repro
from repro import service as service_module
from repro.datamodel import terms as term_module
from repro.evaluation.operators import _Enumeration, _MemoCursor

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
    """A nested function, closure cell, cursor or enumeration of this package."""
    if isinstance(obj, (_MemoCursor, _Enumeration)):
        return True
    if isinstance(obj, types.CellType):
        try:
            obj = obj.cell_contents
        except ValueError:  # an empty cell
            return False
        if isinstance(obj, (_MemoCursor, _Enumeration)):
            return True
    return (
        isinstance(obj, types.FunctionType)
        and obj.__code__.co_filename.startswith(SOURCE_ROOT)
        and "<locals>" in obj.__qualname__
    )


def test_cold_evaluate_iter_leaves_no_cyclic_garbage(isolated_registry):
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
EXISTENTIAL_REQUEST = ("q(x, y) :- E(x, y), E(y, z), E(z, x)", ["E(x, y) -> Owns(x, w)"])


@pytest.fixture
def isolated_registry(monkeypatch):
    """An empty service registry for the test.

    Under ``REPRO_SERVICE=1`` a cold request registers a new service; in a
    full registry that evicts the least recently used one, and with it
    whatever terms only that service held — the intern tables would then
    shrink mid-test for reasons the request does not control.
    """
    isolate_registry(monkeypatch)


def isolate_registry(monkeypatch):
    monkeypatch.setattr(service_module, "_services", OrderedDict())


def _fill_registry():
    """Register as many services as the registry holds, each keeping the
    variables of its own query alive — what earlier requests leave."""
    for index in range(service_module.SERVICE_REGISTRY_LIMIT):
        database = repro.Database([repro.parse_atom("E('a', 'b')")])
        query = repro.parse_query(f"q(u{index}) :- E(u{index}, w{index})")
        service_module.shared_service(database).submit(query)


def _assert_no_terms_behind(stream, monkeypatch):
    database = repro.Database(repro.parse_atom(text) for text in DATA)
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
    # Measured while a service the request registered (REPRO_SERVICE=1) is
    # still standing: it must keep none of the chase's fresh nulls.
    gc.collect()
    assert len(term_module._NULLS) == before[0]
    # That service keeps its plan, and so the query's variables, by design;
    # drop it before measuring the variables.
    service_module._services.clear()
    gc.collect()
    assert len(term_module._VARIABLES) == before[1]


def test_cold_evaluate_iter_under_tgds_leaves_no_terms_behind(monkeypatch, isolated_registry):
    """The chase's fresh nulls and the request's variables die with it.

    Terms are interned in weak tables (``repro.datamodel.terms``).  A term
    that something keeps alive past its request keeps its table entry, so
    the tables' sizes show any term a cold request leaks.
    """
    _assert_no_terms_behind(repro.evaluate_iter, monkeypatch)


def test_no_terms_behind_after_a_full_service_registry(monkeypatch):
    """The same request through the service seam, after other services
    filled the registry: isolating the registry keeps their eviction (and
    the terms it frees) out of the measurement."""
    monkeypatch.setenv("REPRO_SERVICE", "1")
    isolate_registry(monkeypatch)
    _fill_registry()
    isolate_registry(monkeypatch)
    _assert_no_terms_behind(repro.evaluate_iter, monkeypatch)
