"""Every worked example of the paper as ready-made objects.

The objects below are used by the tests (to validate the library against the
paper's own claims) and by the benchmark harness (each benchmark under
``benchmarks/`` regenerates one of these constructions).
"""

from __future__ import annotations

from typing import List, Tuple

from ..datamodel import Atom, Constant, Predicate, Variable
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery


# ----------------------------------------------------------------------
# Example 1 — the music-store reformulation
# ----------------------------------------------------------------------
INTEREST = Predicate("Interest", 2)
CLASS = Predicate("Class", 2)
OWNS = Predicate("Owns", 2)


def example1_query() -> ConjunctiveQuery:
    """``q(x, y) = ∃z (Interest(x, z) ∧ Class(y, z) ∧ Owns(x, y))``."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return ConjunctiveQuery(
        (x, y),
        [Atom(INTEREST, (x, z)), Atom(CLASS, (y, z)), Atom(OWNS, (x, y))],
        name="music_store",
    )


def example1_tgd() -> TGD:
    """``τ = Interest(x, z), Class(y, z) → Owns(x, y)`` (compulsive collectors)."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return TGD(
        [Atom(INTEREST, (x, z)), Atom(CLASS, (y, z))],
        [Atom(OWNS, (x, y))],
        label="compulsive_collector",
    )


def example1_acyclic_reformulation() -> ConjunctiveQuery:
    """``q'(x, y) = ∃z (Interest(x, z) ∧ Class(y, z))`` — the paper's reformulation."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return ConjunctiveQuery(
        (x, y),
        [Atom(INTEREST, (x, z)), Atom(CLASS, (y, z))],
        name="music_store_acyclic",
    )


# ----------------------------------------------------------------------
# Figure 1 — stickiness and the marking procedure
# ----------------------------------------------------------------------
FIG1_T = Predicate("T", 3)
FIG1_S = Predicate("S", 2)
FIG1_R = Predicate("R", 2)
FIG1_P = Predicate("P", 2)


def figure1_second_rule() -> TGD:
    """``R(x, y), P(y, z) → ∃w T(x, y, w)`` (shared by both sets of Figure 1)."""
    x, y, z, w = (Variable(n) for n in ("x", "y", "z", "w"))
    return TGD(
        [Atom(FIG1_R, (x, y)), Atom(FIG1_P, (y, z))],
        [Atom(FIG1_T, (x, y, w))],
        label="fig1_second",
    )


def figure1_sticky_set() -> List[TGD]:
    """The sticky set of Figure 1: first rule ``T(x, y, z) → ∃w S(y, w)``.

    The join variable ``y`` of the second rule is propagated to every
    inferred atom, so the marking procedure leaves it unmarked.
    """
    x, y, z, w = (Variable(n) for n in ("x", "y", "z", "w"))
    first = TGD(
        [Atom(FIG1_T, (x, y, z))],
        [Atom(FIG1_S, (y, w))],
        label="fig1_first_sticky",
    )
    return [first, figure1_second_rule()]


def figure1_non_sticky_set() -> List[TGD]:
    """The non-sticky set of Figure 1: first rule ``T(x, y, z) → ∃w S(x, w)``.

    Here the join variable ``y`` of the second rule is dropped by ``S``, the
    marking reaches it and the set fails the stickiness test.
    """
    x, y, z, w = (Variable(n) for n in ("x", "y", "z", "w"))
    first = TGD(
        [Atom(FIG1_T, (x, y, z))],
        [Atom(FIG1_S, (x, w))],
        label="fig1_first_non_sticky",
    )
    return [first, figure1_second_rule()]


# ----------------------------------------------------------------------
# Example 2 — non-recursive / sticky sets destroy acyclicity
# ----------------------------------------------------------------------
EX2_P = Predicate("P", 1)
EX2_R = Predicate("R", 2)


def example2_query(n: int) -> ConjunctiveQuery:
    """``q = ∃x̄ (P(x_1) ∧ ... ∧ P(x_n))`` — trivially acyclic."""
    if n < 1:
        raise ValueError("n must be at least 1")
    variables = [Variable(f"x{i}") for i in range(1, n + 1)]
    return ConjunctiveQuery((), [Atom(EX2_P, (v,)) for v in variables], name=f"ex2_{n}")


def example2_tgd() -> TGD:
    """``τ = P(x), P(y) → R(x, y)`` — non-recursive and sticky, not guarded."""
    x, y = Variable("x"), Variable("y")
    return TGD([Atom(EX2_P, (x,)), Atom(EX2_P, (y,))], [Atom(EX2_R, (x, y))], label="ex2")


# ----------------------------------------------------------------------
# Example 3 — exponential UCQ rewritings for sticky sets
# ----------------------------------------------------------------------
def example3_predicates(n: int) -> List[Predicate]:
    """The predicates ``P_0, ..., P_n``, each of arity ``n + 2``."""
    return [Predicate(f"P{i}", n + 2) for i in range(n + 1)]


def example3_tgds(n: int) -> List[TGD]:
    """The sticky set of Example 3.

    For each ``i ∈ {1, ..., n}``:
    ``P_i(x_1..x_{i-1}, Z, x_{i+1}..x_n, Z, O), P_i(x_1..x_{i-1}, O, x_{i+1}..x_n, Z, O)
    → P_{i-1}(x_1..x_{i-1}, Z, x_{i+1}..x_n, Z, O)``.
    """
    predicates = example3_predicates(n)
    tgds: List[TGD] = []
    zero, one = Variable("Z"), Variable("O")
    for i in range(1, n + 1):
        others = [Variable(f"x{j}") for j in range(1, n + 1)]

        def tuple_with(value_at_i: Variable) -> Tuple[Variable, ...]:
            positions: List[Variable] = []
            for j in range(1, n + 1):
                positions.append(value_at_i if j == i else others[j - 1])
            return tuple(positions) + (zero, one)

        body = [
            Atom(predicates[i], tuple_with(zero)),
            Atom(predicates[i], tuple_with(one)),
        ]
        head = [Atom(predicates[i - 1], tuple_with(zero))]
        tgds.append(TGD(body, head, label=f"ex3_{i}"))
    return tgds


def example3_query(n: int) -> ConjunctiveQuery:
    """The Boolean CQ ``P_0(0, ..., 0, 0, 1)`` of Example 3."""
    predicates = example3_predicates(n)
    zero, one = Constant(0), Constant(1)
    terms = tuple([zero] * n + [zero, one])
    return ConjunctiveQuery((), [Atom(predicates[0], terms)], name=f"ex3_q_{n}")


# ----------------------------------------------------------------------
# Example 4 — a key over a binary + ternary schema destroying acyclicity
# ----------------------------------------------------------------------
EX4_R = Predicate("R", 2)
EX4_S = Predicate("S", 3)


def example4_query() -> ConjunctiveQuery:
    """``R(x,y) ∧ S(x,y,z) ∧ S(x,z,w) ∧ S(x,w,v) ∧ R(x,v)`` — acyclic."""
    x, y, z, w, v = (Variable(n) for n in ("x", "y", "z", "w", "v"))
    return ConjunctiveQuery(
        (),
        [
            Atom(EX4_R, (x, y)),
            Atom(EX4_S, (x, y, z)),
            Atom(EX4_S, (x, z, w)),
            Atom(EX4_S, (x, w, v)),
            Atom(EX4_R, (x, v)),
        ],
        name="ex4",
    )


def example4_key() -> EGD:
    """``R(x, y), R(x, z) → y = z`` — the first attribute of ``R`` is a key."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return EGD([Atom(EX4_R, (x, y)), Atom(EX4_R, (x, z))], y, z, label="ex4_key")


def example4_chased_shape() -> ConjunctiveQuery:
    """The cyclic query the paper reports after applying the key to Example 4."""
    x, y, z, w = (Variable(n) for n in ("x", "y", "z", "w"))
    return ConjunctiveQuery(
        (),
        [
            Atom(EX4_R, (x, y)),
            Atom(EX4_S, (x, y, z)),
            Atom(EX4_S, (x, z, w)),
            Atom(EX4_S, (x, w, y)),
        ],
        name="ex4_chased",
    )


def example4_scaled_query(n: int) -> ConjunctiveQuery:
    """The length-``n`` generalisation of Example 4 (used by the benchmark).

    ``R(x, y_0) ∧ S(x, y_0, y_1) ∧ ... ∧ S(x, y_{n-1}, y_n) ∧ R(x, y_n)`` —
    acyclic, but chasing with the key of Example 4 closes a cycle of length
    ``n`` through the hub ``x``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    x = Variable("x")
    ys = [Variable(f"y{i}") for i in range(n + 1)]
    atoms: List[Atom] = [Atom(EX4_R, (x, ys[0]))]
    for i in range(n):
        atoms.append(Atom(EX4_S, (x, ys[i], ys[i + 1])))
    atoms.append(Atom(EX4_R, (x, ys[n])))
    return ConjunctiveQuery((), atoms, name=f"ex4_scaled_{n}")


# ----------------------------------------------------------------------
# Example 5 (reconstruction) — cascading key merges on higher-arity schemas
# ----------------------------------------------------------------------
EX5_R = Predicate("R4", 4)
EX5_H = Predicate("H", 2)


def example5_keys() -> List[EGD]:
    """The two keys of Example 5.

    ``ǫ1 = R(x,y,z,w), R(x,y,z,w') → w = w'`` and
    ``ǫ2 = H(x,y), H(x,z) → y = z``.
    """
    x, y, z, w, w2 = (Variable(n) for n in ("x", "y", "z", "w", "w2"))
    first = EGD(
        [Atom(EX5_R, (x, y, z, w)), Atom(EX5_R, (x, y, z, w2))], w, w2, label="ex5_e1"
    )
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    second = EGD([Atom(EX5_H, (a, b)), Atom(EX5_H, (a, c))], b, c, label="ex5_e2")
    return [first, second]


def example5_ring_query(n: int) -> ConjunctiveQuery:
    """A scalable acyclic query for the keys of Example 5 (reconstruction).

    Figure 4's exact n×n-grid query cannot be recovered from the paper text
    alone (the figure does not survive the extraction), so this family
    reconstructs the *mechanism* the example illustrates: an acyclic query
    over the 4-ary predicate ``R`` whose chase under the key ``ǫ1`` becomes
    cyclic, with the length of the created cycle growing linearly in ``n``
    (and hence with unboundedly growing Gaifman-cycle structure), in contrast
    with the unary/binary keys of Proposition 22 which can never do this.

    Shape: a hub ``h`` carries a chain ``R(h, y_{i-1}, y_i, d_i)`` plus the
    two "book-end" atoms ``R(h, h, h, y_0)`` and ``R(h, h, h, y_n)``; the key
    on the first three positions of ``R`` merges ``y_0`` with ``y_n`` and
    closes the chain into a ring through the hub.
    """
    if n < 3:
        raise ValueError("n must be at least 3 for the chased ring to be cyclic")
    hub = Variable("h")
    ys = [Variable(f"y{i}") for i in range(n + 1)]
    atoms: List[Atom] = [Atom(EX5_R, (hub, hub, hub, ys[0]))]
    for i in range(1, n + 1):
        atoms.append(Atom(EX5_R, (hub, ys[i - 1], ys[i], Variable(f"d{i}"))))
    atoms.append(Atom(EX5_R, (hub, hub, hub, ys[n])))
    return ConjunctiveQuery((), atoms, name=f"ex5_ring_{n}")


# ----------------------------------------------------------------------
# Guarded running example used across tests and benchmarks
# ----------------------------------------------------------------------
GUARDED_E = Predicate("E", 2)
GUARDED_A = Predicate("A", 1)


def guarded_triangle_example() -> Tuple[ConjunctiveQuery, List[TGD]]:
    """A cyclic CQ that becomes semantically acyclic under linear (guarded) tgds.

    The query asks for a directed triangle ``E(x,y), E(y,z), E(z,x)`` — a
    core, hence not semantically acyclic in the absence of constraints.  The
    two linear tgds ``E(x,y) → A(x)`` and ``A(x) → E(x,x)`` make every
    ``E``-edge produce a self-loop at its source, so on every instance that
    satisfies them the triangle query is equivalent to the acyclic query
    ``∃x∃y E(x, y)`` (and to ``∃x A(x)``).
    """
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = ConjunctiveQuery(
        (),
        [
            Atom(GUARDED_E, (x, y)),
            Atom(GUARDED_E, (y, z)),
            Atom(GUARDED_E, (z, x)),
        ],
        name="guarded_triangle",
    )
    gx, gy = Variable("gx"), Variable("gy")
    edge_to_mark = TGD([Atom(GUARDED_E, (gx, gy))], [Atom(GUARDED_A, (gx,))], label="edge_to_mark")
    hx = Variable("hx")
    mark_to_loop = TGD([Atom(GUARDED_A, (hx,))], [Atom(GUARDED_E, (hx, hx))], label="mark_to_loop")
    return query, [edge_to_mark, mark_to_loop]


def guarded_triangle_reformulation() -> ConjunctiveQuery:
    """An acyclic reformulation of :func:`guarded_triangle_example`: ``∃x,y E(x,y)``."""
    x, y = Variable("x"), Variable("y")
    return ConjunctiveQuery((), [Atom(GUARDED_E, (x, y))], name="guarded_triangle_acyclic")


def k2_collapse_example() -> Tuple[ConjunctiveQuery, List[EGD]]:
    """A cyclic CQ over binary predicates that a key makes semantically acyclic.

    ``q = A(x, y) ∧ A(x, z) ∧ B(y, z)`` is cyclic (triangle on ``x, y, z``);
    the key "the first attribute of ``A`` determines the second" merges ``y``
    and ``z``, after which the query is equivalent to the acyclic
    ``A(x, y) ∧ B(y, y)``.
    """
    a_pred, b_pred = Predicate("A", 2), Predicate("B", 2)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    query = ConjunctiveQuery(
        (),
        [Atom(a_pred, (x, y)), Atom(a_pred, (x, z)), Atom(b_pred, (y, z))],
        name="k2_collapse",
    )
    kx, ky, kz = Variable("kx"), Variable("ky"), Variable("kz")
    egd = EGD([Atom(a_pred, (kx, ky)), Atom(a_pred, (kx, kz))], ky, kz, label="A_key")
    return query, [egd]
