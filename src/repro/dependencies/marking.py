"""The sticky marking procedure (Figure 1(b), following Calì–Gottlob–Pieris).

Stickiness is defined through an inductive marking of body-variable
occurrences:

* **Base step** — for every tgd ``σ`` and body variable ``v`` of ``σ``: if
  some head atom of ``σ`` does not mention ``v``, mark every occurrence of
  ``v`` in the body of ``σ``.
* **Propagation step** (to fixpoint) — whenever a marked variable occurs in
  the body of some tgd at position ``π = (predicate, index)``, then for every
  tgd ``σ'`` and every body variable ``v`` of ``σ'`` occurring in the *head*
  of ``σ'`` at position ``π``, mark every occurrence of ``v`` in the body of
  ``σ'``.

A finite set of tgds is **sticky** iff no tgd contains two occurrences of a
marked variable in its body (i.e. all join variables end up unmarked).

Note on Figure 1: the paper's figure contrasts the set whose first rule is
``T(x,y,z) → ∃w S(y,w)`` (sticky — the join variable ``y`` of the second rule
is propagated to every inferred atom) with the set whose first rule is
``T(x,y,z) → ∃w S(x,w)`` (not sticky — ``y`` is dropped by ``S``).  Both sets
are available in :mod:`repro.workloads.paper_examples` and the benchmark
``bench_fig1_stickiness.py`` regenerates the markings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..datamodel import Predicate, Variable
from .tgd import TGD


#: A position is a (predicate, 0-based argument index) pair.
Position = Tuple[Predicate, int]


@dataclass
class MarkingResult:
    """Result of running the sticky marking procedure over a set of tgds."""

    #: For each tgd (by list index), the set of marked body variables.
    marked_variables: Dict[int, Set[Variable]] = field(default_factory=dict)
    #: Positions at which some marked variable occurs in some body.
    marked_positions: Set[Position] = field(default_factory=set)
    #: The tgds, in the order they were supplied.
    tgds: List[TGD] = field(default_factory=list)

    def is_sticky(self) -> bool:
        """Sticky iff no tgd repeats a marked variable in its body."""
        for index, tgd in enumerate(self.tgds):
            marked = self.marked_variables.get(index, set())
            occurrences: Dict[Variable, int] = {}
            for atom in tgd.body:
                for term in atom.terms:
                    if isinstance(term, Variable):
                        occurrences[term] = occurrences.get(term, 0) + 1
            for variable in marked:
                if occurrences.get(variable, 0) >= 2:
                    return False
        return True

    def violating_tgds(self) -> List[int]:
        """Indexes of tgds that repeat a marked variable in their body."""
        violations: List[int] = []
        for index, tgd in enumerate(self.tgds):
            marked = self.marked_variables.get(index, set())
            occurrences: Dict[Variable, int] = {}
            for atom in tgd.body:
                for term in atom.terms:
                    if isinstance(term, Variable):
                        occurrences[term] = occurrences.get(term, 0) + 1
            if any(occurrences.get(variable, 0) >= 2 for variable in marked):
                violations.append(index)
        return violations


def _body_positions_of(tgd: TGD, variable: Variable) -> Set[Position]:
    """Positions at which ``variable`` occurs in the body of ``tgd``."""
    positions: Set[Position] = set()
    for atom in tgd.body:
        for index, term in enumerate(atom.terms):
            if term == variable:
                positions.add((atom.predicate, index))
    return positions


def _head_positions_of(tgd: TGD, variable: Variable) -> Set[Position]:
    """Positions at which ``variable`` occurs in the head of ``tgd``."""
    positions: Set[Position] = set()
    for atom in tgd.head:
        for index, term in enumerate(atom.terms):
            if term == variable:
                positions.add((atom.predicate, index))
    return positions


def compute_marking(tgds: Sequence[TGD]) -> MarkingResult:
    """Run the sticky marking procedure and return the full marking."""
    tgd_list = list(tgds)
    result = MarkingResult(tgds=tgd_list)
    marked: Dict[int, Set[Variable]] = {index: set() for index in range(len(tgd_list))}

    # Base step: body variables missing from some head atom.
    for index, tgd in enumerate(tgd_list):
        for variable in tgd.body_variables():
            if any(variable not in atom.variables() for atom in tgd.head):
                marked[index].add(variable)

    # Propagation to fixpoint.
    changed = True
    while changed:
        changed = False
        marked_positions: Set[Position] = set()
        for index, tgd in enumerate(tgd_list):
            for variable in marked[index]:
                marked_positions |= _body_positions_of(tgd, variable)
        for index, tgd in enumerate(tgd_list):
            for variable in tgd.body_variables():
                if variable in marked[index]:
                    continue
                head_positions = _head_positions_of(tgd, variable)
                if head_positions & marked_positions:
                    marked[index].add(variable)
                    changed = True

    result.marked_variables = marked
    final_positions: Set[Position] = set()
    for index, tgd in enumerate(tgd_list):
        for variable in marked[index]:
            final_positions |= _body_positions_of(tgd, variable)
    result.marked_positions = final_positions
    return result


def is_sticky(tgds: Sequence[TGD]) -> bool:
    """Return ``True`` iff the set of tgds is sticky."""
    return compute_marking(tgds).is_sticky()
