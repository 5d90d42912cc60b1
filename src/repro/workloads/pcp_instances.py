"""Named PCP instance families for the Theorem 7 reduction.

The undecidability proof of Theorem 7 reduces the Post Correspondence
Problem to semantic acyclicity under full tgds.  The reduction itself lives
in :mod:`repro.core.pcp`; this module supplies the *instances* that the tests
and the benchmark feed into it:

* small named instances with known status (solvable / unsolvable), including
  the classical textbook instance whose shortest solution has length 4;
* scalable families used by the benchmark to grow the reduction's query and
  tgd sizes in a controlled way;
* a seeded random-instance generator together with a helper that classifies
  instances by bounded search (the only kind of classification an
  undecidable problem admits).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..core.pcp import PCPInstance


# ----------------------------------------------------------------------
# Named instances with known status
# ----------------------------------------------------------------------
def trivially_solvable() -> PCPInstance:
    """Both lists share a pair with identical words; the solution has length 1."""
    return PCPInstance(top=("ab", "ba"), bottom=("ab", "aa"))


def short_solvable() -> PCPInstance:
    """A solvable instance whose shortest solution uses two different indices.

    Indices ``(0, 1)`` spell ``a·bb = ab·b = abb`` on both sides.
    """
    return PCPInstance(top=("a", "bb"), bottom=("ab", "b"))


def classic_solvable() -> PCPInstance:
    """The classical textbook instance with shortest solution ``(2, 1, 2, 0)``.

    ``top = (a, ab, bba)``, ``bottom = (baa, aa, bb)``; the solution spells
    ``bba·ab·bba·a = bb·aa·bb·baa = bbaabbbaa``.
    """
    return PCPInstance(top=("a", "ab", "bba"), bottom=("baa", "aa", "bb"))


def unsolvable_length_mismatch() -> PCPInstance:
    """Unsolvable: every top word is strictly longer than its bottom word."""
    return PCPInstance(top=("aa", "aba"), bottom=("a", "ab"))


def unsolvable_letter_mismatch() -> PCPInstance:
    """Unsolvable: top words start with ``a``, bottom words start with ``b``."""
    return PCPInstance(top=("ab", "aa"), bottom=("ba", "bb"))


def unsolvable_parity() -> PCPInstance:
    """Unsolvable: top words have even length, bottom words odd length."""
    return PCPInstance(top=("aa", "bb"), bottom=("a", "b"))


def named_instances() -> Dict[str, Tuple[PCPInstance, bool]]:
    """Every named instance together with its known solvability status."""
    return {
        "trivially_solvable": (trivially_solvable(), True),
        "short_solvable": (short_solvable(), True),
        "classic_solvable": (classic_solvable(), True),
        "unsolvable_length_mismatch": (unsolvable_length_mismatch(), False),
        "unsolvable_letter_mismatch": (unsolvable_letter_mismatch(), False),
        "unsolvable_parity": (unsolvable_parity(), False),
    }


# ----------------------------------------------------------------------
# Scalable families for the benchmark
# ----------------------------------------------------------------------
def scaled_solvable(word_length: int) -> PCPInstance:
    """A solvable instance whose words (and thus the tgd bodies) grow with ``word_length``.

    Both lists contain the same single word of the requested length, so the
    instance is solvable with one index but the synchronization rules of the
    reduction have bodies of size ``Θ(word_length)``.
    """
    if word_length < 1:
        raise ValueError("word_length must be positive")
    word = ("ab" * word_length)[:word_length]
    return PCPInstance(top=(word,), bottom=(word,))


def scaled_unsolvable(pairs: int) -> PCPInstance:
    """An unsolvable instance with ``pairs`` pairs (grows the number of tgds).

    Every top word is one letter longer than the corresponding bottom word,
    so no concatenation can ever have equal length on both sides.
    """
    if pairs < 1:
        raise ValueError("pairs must be positive")
    top = tuple("a" * (i + 2) for i in range(pairs))
    bottom = tuple("a" * (i + 1) for i in range(pairs))
    return PCPInstance(top=top, bottom=bottom)


# ----------------------------------------------------------------------
# Random instances
# ----------------------------------------------------------------------
def random_instance(
    seed=0,
    pairs: int = 3,
    max_word_length: int = 3,
) -> PCPInstance:
    """A random PCP instance (status unknown until classified)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    def word() -> str:
        length = rng.randint(1, max_word_length)
        return "".join(rng.choice("ab") for _ in range(length))

    return PCPInstance(
        top=tuple(word() for _ in range(pairs)),
        bottom=tuple(word() for _ in range(pairs)),
    )


def classify_bounded(
    instance: PCPInstance, max_indices: int = 5
) -> Tuple[Optional[Tuple[int, ...]], bool]:
    """Classify an instance by bounded search.

    Returns ``(solution, definitely_unsolvable)``: the solution if one of
    length ≤ ``max_indices`` exists, and a flag that is ``True`` only when a
    cheap certificate rules out *any* solution (length or first-letter
    mismatch on every pair), mirroring how the unsolvable named instances are
    built.  When both components are falsy the status is genuinely unknown —
    exactly the situation Theorem 7 exploits.
    """
    solution = instance.has_solution_bounded(max_indices)
    if solution is not None:
        return solution, False

    top_longer = all(len(t) > len(b) for t, b in zip(instance.top, instance.bottom))
    bottom_longer = all(len(b) > len(t) for t, b in zip(instance.top, instance.bottom))
    first_letter_clash = all(t[0] != b[0] for t, b in zip(instance.top, instance.bottom))
    definitely_unsolvable = top_longer or bottom_longer or first_letter_clash
    return None, definitely_unsolvable
