"""The PCP reduction behind the undecidability of SemAc for full tgds (Theorem 7).

Theorem 7 shows that semantic acyclicity is undecidable for sets of *full*
tgds by reducing from the Post Correspondence Problem: given two equally
long lists of words ``w_1..w_n`` and ``w'_1..w'_n`` over ``{a, b}``, the
construction produces a Boolean CQ ``q`` and a set ``Σ`` of full tgds such
that the PCP instance has a solution iff ``q`` is equivalent under ``Σ`` to
an acyclic CQ (in the proof sketch: to a CQ whose underlying graph is a
directed path).

An undecidable problem cannot be implemented as a decision procedure; what
this module implements is the *reduction itself* (the construction of ``q``
and ``Σ`` from a PCP instance, following the proof sketch of Section 3), the
construction of the candidate path query from a PCP solution, and a bounded
PCP solver so that the benchmark can validate both directions of the
reduction on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..datamodel import Atom, Predicate, Variable
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery


# Schema of the reduction.
P_A = Predicate("Pa", 2)
P_B = Predicate("Pb", 2)
P_HASH = Predicate("Phash", 2)
P_STAR = Predicate("Pstar", 2)
SYNC = Predicate("sync", 2)
START = Predicate("start", 1)
END = Predicate("end", 1)

_LETTER = {"a": P_A, "b": P_B}


@dataclass(frozen=True)
class PCPInstance:
    """A PCP instance: two equally long lists of words over ``{a, b}``."""

    top: Tuple[str, ...]
    bottom: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.top) != len(self.bottom):
            raise ValueError("the two lists must have the same length")
        for word in self.top + self.bottom:
            if not word or set(word) - {"a", "b"}:
                raise ValueError(f"words must be non-empty over {{a, b}}, got {word!r}")

    @property
    def size(self) -> int:
        return len(self.top)

    def solution_word(self, indices: Sequence[int]) -> Optional[str]:
        """Return the common word spelled by ``indices`` if it is a solution."""
        if not indices:
            return None
        top_word = "".join(self.top[i] for i in indices)
        bottom_word = "".join(self.bottom[i] for i in indices)
        return top_word if top_word == bottom_word else None

    def has_solution_bounded(self, max_indices: int = 6) -> Optional[Tuple[int, ...]]:
        """Brute-force search for a solution of length ≤ ``max_indices``."""
        for length in range(1, max_indices + 1):
            for indices in itertools.product(range(self.size), repeat=length):
                if self.solution_word(indices) is not None:
                    return tuple(indices)
        return None

    def doubled(self) -> "PCPInstance":
        """Replace ``a``/``b`` by ``aa``/``bb`` (the evenness normalisation of the proof)."""
        double = {"a": "aa", "b": "bb"}

        def expand(word: str) -> str:
            return "".join(double[letter] for letter in word)

        return PCPInstance(
            tuple(expand(w) for w in self.top),
            tuple(expand(w) for w in self.bottom),
        )


# ----------------------------------------------------------------------
# The query q of Figure 2 (proof-sketch version)
# ----------------------------------------------------------------------
def pcp_query() -> ConjunctiveQuery:
    """The Boolean CQ ``q`` of the reduction (Figure 2, proof sketch).

    The query has variables ``x, y, z, u, v``; ``x`` is the ``start`` vertex,
    ``v`` the ``end`` vertex, and the inner triangle ``y, z, u`` carries the
    ``Pa``/``Pb``/``sync`` structure that the finalization rule recreates in
    the chase of a solution-encoding path query.
    """
    x, y, z, u, v = (Variable(n) for n in ("x", "y", "z", "u", "v"))
    atoms: List[Atom] = [
        Atom(START, (x,)),
        Atom(END, (v,)),
        Atom(P_HASH, (x, y)),
        Atom(P_HASH, (x, z)),
        Atom(P_HASH, (x, u)),
        Atom(P_A, (y, z)),
        Atom(P_A, (z, u)),
        Atom(P_STAR, (y, v)),
        Atom(P_STAR, (z, v)),
        Atom(P_STAR, (u, v)),
        Atom(P_B, (z, y)),
        Atom(P_B, (u, z)),
        Atom(P_A, (u, y)),
        Atom(P_B, (y, u)),
    ]
    atoms.extend(_sync_atoms(y, z, u))
    return ConjunctiveQuery((), atoms, name="pcp_q")


def _sync_atoms(y: Variable, z: Variable, u: Variable) -> List[Atom]:
    """The sync atoms of ``q`` — exactly those recreated by the finalization rule."""
    pairs = [(y, y), (z, z), (y, z), (z, y), (y, u), (u, y), (z, u), (u, z)]
    return [Atom(SYNC, pair) for pair in pairs]


def _word_path_atoms(
    word: str, source: Variable, target: Variable, prefix: str
) -> List[Atom]:
    """Atoms of the path reading ``word`` from ``source`` to ``target``."""
    atoms: List[Atom] = []
    current = source
    for index, letter in enumerate(word):
        nxt = target if index == len(word) - 1 else Variable(f"{prefix}_{index}")
        atoms.append(Atom(_LETTER[letter], (current, nxt)))
        current = nxt
    return atoms


# ----------------------------------------------------------------------
# The set Σ of full tgds
# ----------------------------------------------------------------------
def pcp_tgds(instance: PCPInstance) -> List[TGD]:
    """The set ``Σ`` of full tgds of the reduction (proof-sketch version)."""
    tgds: List[TGD] = []

    # 1. Initialization rule: start(x), P#(x, y) → sync(y, y).
    x, y = Variable("x"), Variable("y")
    tgds.append(
        TGD(
            [Atom(START, (x,)), Atom(P_HASH, (x, y))],
            [Atom(SYNC, (y, y))],
            label="init",
        )
    )

    # 2. Synchronization rules, one per index i.
    for index in range(instance.size):
        sx, sy, sz, su = (Variable(n) for n in ("sx", "sy", "sz", "su"))
        body: List[Atom] = [Atom(SYNC, (sx, sy))]
        body.extend(_word_path_atoms(instance.top[index], sx, sz, f"t{index}"))
        body.extend(_word_path_atoms(instance.bottom[index], sy, su, f"b{index}"))
        tgds.append(TGD(body, [Atom(SYNC, (sz, su))], label=f"sync_{index}"))

    # 3. Finalization rules, one per index i.
    for index in range(instance.size):
        x, y, z, u, v = (Variable(n) for n in ("fx", "fy", "fz", "fu", "fv"))
        y1, y2 = Variable("fy1"), Variable("fy2")
        body = [
            Atom(START, (x,)),
            Atom(P_A, (y, z)),
            Atom(P_A, (z, u)),
            Atom(P_STAR, (u, v)),
            Atom(END, (v,)),
            Atom(SYNC, (y1, y2)),
        ]
        body.extend(_word_path_atoms(instance.top[index], y1, y, f"ft{index}"))
        body.extend(_word_path_atoms(instance.bottom[index], y2, y, f"fb{index}"))
        head: List[Atom] = [
            Atom(P_HASH, (x, y)),
            Atom(P_HASH, (x, z)),
            Atom(P_HASH, (x, u)),
            Atom(P_STAR, (y, v)),
            Atom(P_STAR, (z, v)),
            Atom(P_B, (z, y)),
            Atom(P_B, (u, z)),
            Atom(P_A, (u, y)),
            Atom(P_B, (y, u)),
        ]
        head.extend(_sync_atoms(y, z, u))
        tgds.append(TGD(body, head, label=f"final_{index}"))

    return tgds


# ----------------------------------------------------------------------
# Candidate path queries
# ----------------------------------------------------------------------
def solution_path_query(instance: PCPInstance, indices: Sequence[int]) -> ConjunctiveQuery:
    """The acyclic path query ``q'`` encoding a solution sequence.

    The path spells ``start ─P#→ a_1 ⋯ a_t ─Pa→ ─Pa→ ─P*→ end`` where
    ``a_1 ⋯ a_t`` is the solution word.
    """
    word = instance.solution_word(indices)
    if word is None:
        raise ValueError(f"{indices!r} is not a solution of the PCP instance")
    return word_path_query(word)


def word_path_query(word: str) -> ConjunctiveQuery:
    """The path query encoding an arbitrary candidate word ``w ∈ {a, b}+``."""
    if not word or set(word) - {"a", "b"}:
        raise ValueError(f"the word must be non-empty over {{a, b}}, got {word!r}")
    start_var = Variable("p0")
    atoms: List[Atom] = [Atom(START, (start_var,))]
    current = start_var
    nxt = Variable("p1")
    atoms.append(Atom(P_HASH, (current, nxt)))
    current = nxt
    position = 2
    for letter in word:
        nxt = Variable(f"p{position}")
        atoms.append(Atom(_LETTER[letter], (current, nxt)))
        current, position = nxt, position + 1
    for letter_predicate in (P_A, P_A):
        nxt = Variable(f"p{position}")
        atoms.append(Atom(letter_predicate, (current, nxt)))
        current, position = nxt, position + 1
    nxt = Variable(f"p{position}")
    atoms.append(Atom(P_STAR, (current, nxt)))
    atoms.append(Atom(END, (nxt,)))
    return ConjunctiveQuery((), atoms, name=f"path_{word}")

