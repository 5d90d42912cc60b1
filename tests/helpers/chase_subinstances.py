"""The per-subset enumeration of acyclic chase sub-instances.

This is the original body of
:func:`repro.core.candidates.acyclic_chase_subinstances`: for every subset
of the chase atoms, in ``itertools.combinations`` order, it builds a fresh
:class:`Instance` and searches for a head-preserving homomorphism from the
query into it.  The production generator answers the same question by
testing each subset against the minimal homomorphism images of the query
in the whole chase.  This module is the test-only differential oracle for
that index: both must yield the identical candidate sequence.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.core.candidates import _instance_atoms_to_query
from repro.datamodel import Constant, Instance
from repro.hypergraph import is_acyclic_instance
from repro.queries.cq import ConjunctiveQuery
from repro.queries.homomorphism import find_homomorphism


def acyclic_chase_subinstances_per_subset(
    query: ConjunctiveQuery,
    chase_instance: Instance,
    answer: Sequence[Constant],
    max_atoms: int,
    max_candidates: int = 5_000,
) -> Iterator[ConjunctiveQuery]:
    """Acyclic sub-instances of the chase admitting a head-preserving hom from ``query``."""
    atoms = chase_instance.sorted_atoms()
    inspected = 0
    upper = min(max_atoms, len(atoms))
    seed = {variable: value for variable, value in zip(query.head, answer)}
    for size in range(1, upper + 1):
        for subset in itertools.combinations(atoms, size):
            inspected += 1
            if inspected > max_candidates:
                return
            sub_instance = Instance(subset)
            if find_homomorphism(query.body, sub_instance, seed=seed) is None:
                continue
            if not is_acyclic_instance(sub_instance):
                continue
            candidate = _instance_atoms_to_query(
                list(subset), answer, name=f"{query.name}_chase_sub"
            )
            if candidate is not None:
                yield candidate
