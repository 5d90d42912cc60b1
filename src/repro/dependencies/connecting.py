"""The connecting operator ``c(·)`` of Section 4.

Given an acyclic Boolean CQ ``q``, a Boolean CQ ``q'`` and a finite set ``Σ``
of tgds, the connecting operator produces ``(c(q), c(q'), c(Σ))`` such that

* ``c(q)`` is acyclic and connected,
* ``c(q')`` is connected and *not* semantically acyclic under ``c(Σ)``
  (it contains an ``aux``-triangle),
* ``c(Σ)`` is a set of body-connected tgds, and
* ``q ⊆_Σ q'`` iff ``c(q) ⊆_{c(Σ)} c(q')``.

This is the generic reduction from ``AcBoolCont`` to ``RestCont`` used for
all the lower bounds (Proposition 13); the library uses it both in tests (to
validate the reduction on decidable instances) and to construct hard
instances for the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..datamodel import Atom, Predicate, Variable
from ..queries.cq import ConjunctiveQuery
from .tgd import TGD


#: The auxiliary binary predicate introduced by the operator.
AUX_PREDICATE = Predicate("aux__c", 2)


def _starred(predicate: Predicate) -> Predicate:
    """The predicate ``R⋆`` with one extra (connecting) position."""
    return Predicate(f"{predicate.name}__star", predicate.arity + 1)


def _fresh_variable(base: str, taken: set) -> Variable:
    candidate = base
    counter = 0
    while candidate in taken:
        counter += 1
        candidate = f"{base}{counter}"
    taken.add(candidate)
    return Variable(candidate)


@dataclass(frozen=True)
class ConnectedInstance:
    """The output of the connecting operator."""

    left_query: ConjunctiveQuery
    right_query: ConjunctiveQuery
    tgds: Tuple[TGD, ...]


def connect_query_simple(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Return ``c(q)``: starred atoms sharing a fresh variable plus ``aux(w, w)``."""
    if query.head:
        raise ValueError("the connecting operator is defined for Boolean CQs")
    taken = {variable.name for variable in query.variables()}
    w = _fresh_variable("w__c", taken)
    body: List[Atom] = [
        Atom(_starred(atom.predicate), atom.terms + (w,)) for atom in query.body
    ]
    body.append(Atom(AUX_PREDICATE, (w, w)))
    return ConjunctiveQuery((), body, name=f"c({query.name})")


def connect_query_triangle(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Return ``c(q')``: starred atoms plus an ``aux`` triangle ``w → u → v → w``."""
    if query.head:
        raise ValueError("the connecting operator is defined for Boolean CQs")
    taken = {variable.name for variable in query.variables()}
    w = _fresh_variable("w__c", taken)
    u = _fresh_variable("u__c", taken)
    v = _fresh_variable("v__c", taken)
    body: List[Atom] = [
        Atom(_starred(atom.predicate), atom.terms + (w,)) for atom in query.body
    ]
    body.extend(
        [
            Atom(AUX_PREDICATE, (w, u)),
            Atom(AUX_PREDICATE, (u, v)),
            Atom(AUX_PREDICATE, (v, w)),
        ]
    )
    return ConjunctiveQuery((), body, name=f"c({query.name})")


def connect_tgd(tgd: TGD) -> TGD:
    """Return ``c(τ)``: every atom gains the same fresh connecting variable."""
    taken = {variable.name for variable in tgd.body_variables() | tgd.head_variables()}
    w = _fresh_variable("w__c", taken)
    body = [Atom(_starred(atom.predicate), atom.terms + (w,)) for atom in tgd.body]
    head = [Atom(_starred(atom.predicate), atom.terms + (w,)) for atom in tgd.head]
    return TGD(body, head, label=f"c({tgd.label})")


def connect(
    acyclic_query: ConjunctiveQuery,
    other_query: ConjunctiveQuery,
    tgds: Sequence[TGD],
) -> ConnectedInstance:
    """Apply the connecting operator to an ``AcBoolCont`` instance.

    Args:
        acyclic_query: the acyclic Boolean CQ ``q`` (left-hand side).
        other_query: the Boolean CQ ``q'`` (right-hand side).
        tgds: the set ``Σ``.

    Returns:
        The connected triple ``(c(q), c(q'), c(Σ))``.
    """
    return ConnectedInstance(
        left_query=connect_query_simple(acyclic_query),
        right_query=connect_query_triangle(other_query),
        tgds=tuple(connect_tgd(tgd) for tgd in tgds),
    )


def is_closed_under_connecting(tgds: Sequence[TGD], check) -> bool:
    """Check that a class membership test survives the connecting operator.

    ``check`` is a predicate over lists of tgds (e.g.
    :func:`repro.dependencies.classification.is_guarded_set`); the function
    returns ``True`` iff the connected set still satisfies it.  Used by tests
    to confirm the closure claims of Section 4 for G, L, ID, NR and S.
    """
    connected = [connect_tgd(tgd) for tgd in tgds]
    return bool(check(connected))
