"""The reductions relating containment and semantic acyclicity (Section 3.2).

Two constructions from the paper are implemented here as executable objects:

* **Proposition 5** — for body-connected tgds and Boolean connected queries
  without common variables, with ``q`` acyclic and ``q'`` not semantically
  acyclic under ``Σ``:  ``q ⊆_Σ q'`` iff ``q ∧ q'`` is semantically acyclic
  under ``Σ``.  The conjunction ``q ∧ q'`` is the *SemAc instance* of the
  containment question.

* **Proposition 13 / the connecting operator** — the generic lower-bound
  pipeline ``AcBoolCont(C) → RestCont(C) → SemAc(C)``: an arbitrary
  containment question ``q ⊆_Σ q'`` with ``q`` acyclic Boolean is first
  *connected* (``c(q), c(q'), c(Σ)``), which forces every hypothesis of
  Proposition 5 to hold, and the connected conjunction is handed to the
  semantic-acyclicity decider.

The pipeline is how the paper transfers hardness from containment to
SemAc; running it forwards also gives an (intentionally roundabout) way of
*deciding* containment through SemAc, which the test suite uses to validate
the constructions against the direct chase-based containment procedures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..containment.constrained import ContainmentOutcome, contained_under_tgds
from ..dependencies.classification import is_body_connected_set
from ..dependencies.connecting import ConnectedInstance, connect
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from .semantic_acyclicity import (
    DEFAULT_SEMAC_CONFIG,
    SemAcConfig,
    SemAcDecision,
    decide_semantic_acyclicity_tgds,
)


# ----------------------------------------------------------------------
# Proposition 5: RestCont → SemAc
# ----------------------------------------------------------------------
@dataclass
class Proposition5Instance:
    """A containment question packaged as a semantic-acyclicity question.

    Attributes:
        acyclic_query: the acyclic Boolean CQ ``q`` (left-hand side).
        other_query: the Boolean CQ ``q'`` (right-hand side), renamed apart
            from ``q`` so the two share no variables.
        tgds: the constraint set ``Σ``.
        conjunction: the Boolean CQ ``q ∧ q'`` whose semantic acyclicity
            answers the containment question.
        hypothesis_notes: hypotheses of Proposition 5 that could not be
            verified (empty when everything checked out).
    """

    acyclic_query: ConjunctiveQuery
    other_query: ConjunctiveQuery
    tgds: Tuple[TGD, ...]
    conjunction: ConjunctiveQuery
    hypothesis_notes: List[str] = field(default_factory=list)

    @property
    def hypotheses_hold(self) -> bool:
        """``True`` iff every *checked* hypothesis of Proposition 5 held."""
        return not self.hypothesis_notes


def proposition5_instance(
    acyclic_query: ConjunctiveQuery,
    other_query: ConjunctiveQuery,
    tgds: Sequence[TGD],
) -> Proposition5Instance:
    """Build the ``q ∧ q'`` instance of Proposition 5.

    The function renames ``q'`` apart from ``q`` (the proposition requires
    disjoint variables) and records which of the cheap syntactic hypotheses
    fail; it does **not** check that ``q'`` is not semantically acyclic under
    ``Σ`` (that check is itself a SemAc question — callers that need it can
    run the decider on ``q'`` first).
    """
    notes: List[str] = []
    if acyclic_query.head or other_query.head:
        notes.append("Proposition 5 is stated for Boolean queries")
    if not acyclic_query.is_acyclic():
        notes.append("the left-hand query is not acyclic")
    if not acyclic_query.is_connected():
        notes.append("the left-hand query is not connected")
    if not other_query.is_connected():
        notes.append("the right-hand query is not connected")
    if not is_body_connected_set(list(tgds)):
        notes.append("the tgds are not body-connected")

    renamed = other_query.rename_apart(acyclic_query.variables(), suffix="_p5")
    conjunction = acyclic_query.conjoin(renamed, name="prop5_conjunction")
    return Proposition5Instance(
        acyclic_query=acyclic_query,
        other_query=renamed,
        tgds=tuple(tgds),
        conjunction=conjunction,
        hypothesis_notes=notes,
    )


def containment_via_proposition5(
    acyclic_query: ConjunctiveQuery,
    other_query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> Tuple[bool, SemAcDecision, Proposition5Instance]:
    """Decide ``q ⊆_Σ q'`` through Proposition 5.

    Returns the containment verdict (the semantic-acyclicity verdict of the
    conjunction), the underlying :class:`SemAcDecision` and the constructed
    instance.  The verdict is only meaningful when the proposition's
    hypotheses hold — in particular when ``q'`` is *not* semantically acyclic
    under ``Σ``; the caller is responsible for that hypothesis (the
    connecting pipeline below discharges it by construction).
    """
    instance = proposition5_instance(acyclic_query, other_query, tgds)
    decision = decide_semantic_acyclicity_tgds(instance.conjunction, list(tgds), config)
    return decision.semantically_acyclic, decision, instance


# ----------------------------------------------------------------------
# Proposition 13: AcBoolCont → RestCont → SemAc
# ----------------------------------------------------------------------
@dataclass
class SemAcReduction:
    """The full lower-bound pipeline applied to a containment question."""

    #: The connected triple ``(c(q), c(q'), c(Σ))``.
    connected: ConnectedInstance
    #: The Proposition 5 instance built from the connected triple.
    proposition5: Proposition5Instance

    @property
    def query(self) -> ConjunctiveQuery:
        """The SemAc input query ``c(q) ∧ c(q')``."""
        return self.proposition5.conjunction

    @property
    def tgds(self) -> Tuple[TGD, ...]:
        """The SemAc input constraints ``c(Σ)``."""
        return self.proposition5.tgds


def reduce_containment_to_semac(
    acyclic_query: ConjunctiveQuery,
    other_query: ConjunctiveQuery,
    tgds: Sequence[TGD],
) -> SemAcReduction:
    """Apply the connecting operator and Proposition 5 to a containment question.

    The input is an ``AcBoolCont`` instance: a Boolean acyclic CQ ``q``, a
    Boolean CQ ``q'`` and a set ``Σ`` of tgds.  The output is a semantic-
    acyclicity instance that is a *yes*-instance iff ``q ⊆_Σ q'``.

    The connecting operator guarantees every hypothesis of Proposition 5:
    ``c(q)`` is acyclic and connected, ``c(q')`` is connected and contains an
    ``aux``-triangle (so it is not semantically acyclic under ``c(Σ)``, which
    never touches ``aux``), and ``c(Σ)`` is body-connected.
    """
    if acyclic_query.head or other_query.head:
        raise ValueError("the reduction is defined for Boolean queries")
    if not acyclic_query.is_acyclic():
        raise ValueError("the left-hand query of AcBoolCont must be acyclic")
    connected = connect(acyclic_query, other_query, tgds)
    instance = proposition5_instance(
        connected.left_query, connected.right_query, list(connected.tgds)
    )
    return SemAcReduction(connected=connected, proposition5=instance)


def decide_containment_via_semac(
    acyclic_query: ConjunctiveQuery,
    other_query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> Tuple[bool, SemAcDecision, SemAcReduction]:
    """Decide ``q ⊆_Σ q'`` by running SemAc on the connected conjunction.

    This is the paper's hardness pipeline run forwards.  It is, of course, a
    terrible way to decide containment in practice (that is the point of the
    lower bound); the test suite uses it to validate the construction by
    cross-checking against the direct chase-based containment procedure.
    """
    reduction = reduce_containment_to_semac(acyclic_query, other_query, tgds)
    decision = decide_semantic_acyclicity_tgds(
        reduction.query, list(reduction.tgds), config
    )
    return decision.semantically_acyclic, decision, reduction


def direct_containment(
    acyclic_query: ConjunctiveQuery,
    other_query: ConjunctiveQuery,
    tgds: Sequence[TGD],
) -> ContainmentOutcome:
    """The direct chase-based containment check (for cross-validation)."""
    return contained_under_tgds(acyclic_query, other_query, list(tgds))
