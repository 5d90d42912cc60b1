"""A cold ``evaluate_iter`` leaves no reference cycles behind.

Self-referencing nested closures (a recursive ``def`` inside a function
holds itself through its closure cell) and memo tables whose entries'
generators point back at the table survive their last use until the cycle
collector runs, so peak memory follows GC timing.  This runs cold requests
on every streaming route with the cycle collector off and
``gc.DEBUG_SAVEALL`` on (which keeps whatever the collector then finds in
``gc.garbage``), and requires that no nested function, closure cell or
enumeration cursor of this package survives the requests or turns up as
garbage.
"""

import gc
import os
import types

import pytest

import repro
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


@pytest.mark.parametrize("backend", ["tuple", "columnar"])
def test_cold_evaluate_iter_leaves_no_cyclic_garbage(backend):
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
                    backend=backend,
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
