"""Set-level classification of tgd sets into the paper's syntactic classes.

Section 2 recalls the classes for which CQ containment is decidable:
guarded (G), linear (L), inclusion dependencies (ID), non-recursive (NR),
sticky (S) and the "weak" relaxations (weakly acyclic, weakly guarded,
weakly sticky), plus the class F of full tgds for which Theorem 7 proves
semantic acyclicity undecidable.  This module bundles the per-tgd and
graph-based checks into a single classification facility used by the
SemAc dispatcher.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence, Set

from .marking import is_sticky
from .predicate_graph import (
    is_non_recursive,
    is_weakly_acyclic,
    is_weakly_guarded,
    is_weakly_sticky,
)
from .tgd import TGD


class DependencyClass(Enum):
    """The syntactic classes of sets of tgds considered in the paper."""

    FULL = "full"
    GUARDED = "guarded"
    LINEAR = "linear"
    INCLUSION = "inclusion"
    NON_RECURSIVE = "non-recursive"
    STICKY = "sticky"
    WEAKLY_ACYCLIC = "weakly-acyclic"
    WEAKLY_GUARDED = "weakly-guarded"
    WEAKLY_STICKY = "weakly-sticky"
    BODY_CONNECTED = "body-connected"


def is_full_set(tgds: Sequence[TGD]) -> bool:
    """The class F: every tgd is full (no existential head variables)."""
    return all(tgd.is_full() for tgd in tgds)


def is_guarded_set(tgds: Sequence[TGD]) -> bool:
    """The class G: every tgd has a guard."""
    return all(tgd.is_guarded() for tgd in tgds)


def is_linear_set(tgds: Sequence[TGD]) -> bool:
    """The class L: every tgd has a single body atom."""
    return all(tgd.is_linear() for tgd in tgds)


def is_inclusion_set(tgds: Sequence[TGD]) -> bool:
    """The class ID: every tgd is an inclusion dependency."""
    return all(tgd.is_inclusion_dependency() for tgd in tgds)


def is_non_recursive_set(tgds: Sequence[TGD]) -> bool:
    """The class NR: acyclic predicate graph."""
    return is_non_recursive(tgds)


def is_sticky_set(tgds: Sequence[TGD]) -> bool:
    """The class S: the marking procedure leaves all join variables unmarked."""
    return is_sticky(tgds)


def is_body_connected_set(tgds: Sequence[TGD]) -> bool:
    """Every tgd has a connected body (the hypothesis of Proposition 5)."""
    return all(tgd.is_body_connected() for tgd in tgds)


_CHECKS = {
    DependencyClass.FULL: is_full_set,
    DependencyClass.GUARDED: is_guarded_set,
    DependencyClass.LINEAR: is_linear_set,
    DependencyClass.INCLUSION: is_inclusion_set,
    DependencyClass.NON_RECURSIVE: is_non_recursive_set,
    DependencyClass.STICKY: is_sticky_set,
    DependencyClass.WEAKLY_ACYCLIC: is_weakly_acyclic,
    DependencyClass.WEAKLY_GUARDED: is_weakly_guarded,
    DependencyClass.WEAKLY_STICKY: is_weakly_sticky,
    DependencyClass.BODY_CONNECTED: is_body_connected_set,
}


def classify(tgds: Sequence[TGD]) -> Set[DependencyClass]:
    """Return every class (among the supported ones) the tgd set belongs to."""
    tgd_list = list(tgds)
    return {cls for cls, check in _CHECKS.items() if check(tgd_list)}


def decidable_semac_classes(tgds: Sequence[TGD]) -> Set[DependencyClass]:
    """Classes of the set for which the paper proves SemAc decidable.

    These are guarded (and its subclasses linear / inclusion), non-recursive
    and sticky.  Full tgds and the weak relaxations are excluded (Theorem 7).
    """
    found = classify(tgds)
    decidable = {
        DependencyClass.GUARDED,
        DependencyClass.LINEAR,
        DependencyClass.INCLUSION,
        DependencyClass.NON_RECURSIVE,
        DependencyClass.STICKY,
    }
    return found & decidable


def describe(tgds: Sequence[TGD]) -> str:
    """Human-readable one-line description of the classification."""
    names = sorted(cls.value for cls in classify(tgds))
    return ", ".join(names) if names else "(none of the supported classes)"
