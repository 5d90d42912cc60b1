"""Semantic acyclicity under constraints — the paper's central decision problems.

``SemAc(C)``: given a CQ ``q`` and a finite set ``Σ`` of constraints in the
class ``C``, is there an acyclic CQ ``q'`` with ``q ≡_Σ q'``?

The module implements the decision procedures the paper proves correct:

* **no constraints** — ``q`` is semantically acyclic iff its core is acyclic
  (exact, Section 1);
* **guarded tgds** (Theorem 11) and **keys over unary/binary predicates /
  unary FDs** (Theorem 23) — guess-and-check with the ``2·|q|`` bound of
  Proposition 8 (acyclicity-preserving chase);
* **non-recursive** and **sticky** sets (Theorems 18/20) — guess-and-check
  with the ``2·f_C(q, Σ)`` bound of Proposition 15 (UCQ rewritability);
* **full tgds** — undecidable (Theorem 7); the procedure still *searches*
  and certifies positive answers, but a negative answer carries no guarantee
  (see :mod:`repro.core.pcp` for the reduction behind the undecidability).

Because the problem is NP-hard already for a fixed schema, the deterministic
search is exponential.  Positive answers are always *certified*: the returned
witness has been verified equivalent to ``q`` under ``Σ``.  Negative answers
are exact when the search was exhaustive relative to the theoretical size
bound (reported in :class:`SemAcDecision.exhaustive`), which the default
configuration attempts only for small inputs; otherwise they mean "no witness
found by the layered candidate generators".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..chase.egd_chase import egd_chase_query
from ..chase.tgd_chase import ChaseResult, chase_query
from ..containment.constrained import (
    ContainmentConfig,
    ContainmentOutcome,
    contained_under_egds,
    contained_under_tgds,
)
from ..datamodel import Constant, Instance
from ..dependencies.classification import (
    DependencyClass,
    is_full_set,
    is_guarded_set,
    is_non_recursive_set,
    is_sticky_set,
)
from ..dependencies.egd import EGD
from ..dependencies.fd import FunctionalDependency, fds_to_egds, is_k2_set, all_unary
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from ..queries.core_minimization import core, is_semantically_acyclic_unconstrained
from ..rewriting.bounds import (
    small_query_bound_guarded,
    small_query_bound_ucq_rewritable,
)
from ..rewriting.ucq_rewriting import (
    RewritingBudgetExceeded,
    RewritingConfig,
    rewrite,
    rewriting_contained_under_tgds,
)
from .candidates import SubInstanceLattice, exhaustive_chase_candidates, fast_candidates


Constraints = Union[Sequence[TGD], Sequence[EGD], Sequence[FunctionalDependency]]


@dataclass
class SemAcConfig:
    """Budgets and switches for the semantic-acyclicity search."""

    #: Chase budgets used by the chase-based containment checks.
    chase_max_steps: int = 5_000
    chase_max_depth: Optional[int] = None
    #: Budgets for the UCQ rewriting (sticky / non-recursive strategies).
    rewriting: RewritingConfig = field(default_factory=RewritingConfig)
    #: Whether to use the rewriting for candidate generation when available.
    use_rewriting_candidates: bool = True
    #: Run the exhaustive anti-unification enumeration when the fast
    #: generators fail (only advisable for small queries/chases).
    exhaustive: bool = False
    #: Caps for the exhaustive enumeration.
    exhaustive_max_subsets: int = 20_000
    exhaustive_max_generalisations: int = 500
    #: Cap on the witness size considered by the exhaustive enumeration (the
    #: theoretical bound is used when smaller).
    exhaustive_size_cap: int = 8
    #: Cap on the number of candidates verified before giving up.
    max_candidates_checked: int = 50_000

    def containment_config(self) -> ContainmentConfig:
        return ContainmentConfig(
            max_steps=self.chase_max_steps, max_depth=self.chase_max_depth
        )


DEFAULT_SEMAC_CONFIG = SemAcConfig()


@dataclass
class SemAcDecision:
    """Outcome of a semantic-acyclicity decision."""

    #: The verdict.  ``True`` is always certified by :attr:`witness`.
    semantically_acyclic: bool
    #: A verified acyclic CQ equivalent to the input under the constraints.
    witness: Optional[ConjunctiveQuery]
    #: Which strategy produced the verdict.
    method: str
    #: The theoretical witness-size bound used by the search.
    size_bound: int
    #: Number of candidates that were verified against the constraints.
    candidates_checked: int = 0
    #: ``True`` when a negative verdict results from an exhaustive search of
    #: the bounded candidate space (and every verification was definite).
    exhaustive: bool = False
    #: Free-form diagnostic notes (budget exhaustion, unknown containments…).
    notes: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.semantically_acyclic


# ----------------------------------------------------------------------
# No constraints
# ----------------------------------------------------------------------
def decide_semantic_acyclicity_unconstrained(query: ConjunctiveQuery) -> SemAcDecision:
    """Exact decision in the absence of constraints: is the core acyclic?"""
    minimal = core(query)
    if minimal.is_acyclic():
        return SemAcDecision(
            semantically_acyclic=True,
            witness=minimal,
            method="core",
            size_bound=len(query),
            candidates_checked=1,
            exhaustive=True,
        )
    return SemAcDecision(
        semantically_acyclic=False,
        witness=None,
        method="core",
        size_bound=len(query),
        candidates_checked=1,
        exhaustive=True,
    )


# ----------------------------------------------------------------------
# Verification strategies
# ----------------------------------------------------------------------
def _definite(holds: bool) -> ContainmentOutcome:
    return ContainmentOutcome.TRUE if holds else ContainmentOutcome.FALSE


class _TgdVerifier:
    """Class-aware equivalence checks ``q ≡_Σ candidate`` for tgd sets.

    ``query_chase`` is the decision's own chase of ``q`` (run with the
    containment budgets) and ``answer`` its frozen head ``c(x̄)``; the
    direction ``q ⊆_Σ candidate`` is read off it instead of re-chasing ``q``
    for every candidate.  Every check returns its own three-valued outcome;
    ``saw_unknown`` records whether any check of the decision was
    inconclusive.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        tgds: Sequence[TGD],
        config: SemAcConfig,
        strategy: str,
        query_chase: ChaseResult,
        answer: Sequence[Constant],
    ) -> None:
        self.query = query
        self.tgds = list(tgds)
        self.config = config
        self.strategy = strategy
        self.query_chase = query_chase
        self.answer = tuple(answer)
        self.saw_unknown = False
        self._query_rewriting = None
        if strategy == "rewriting":
            try:
                self._query_rewriting = rewrite(query, self.tgds, config.rewriting)
            except RewritingBudgetExceeded:
                self.strategy = "chase"

    def candidate_contained_in_query(self, candidate: ConjunctiveQuery) -> ContainmentOutcome:
        """``candidate ⊆_Σ q``."""
        if self.strategy == "rewriting" and self._query_rewriting is not None:
            return _definite(
                rewriting_contained_under_tgds(
                    candidate,
                    self.query,
                    self.tgds,
                    config=self.config.rewriting,
                    rewriting=self._query_rewriting,
                )
            )
        outcome = contained_under_tgds(
            candidate, self.query, self.tgds, self.config.containment_config()
        )
        if outcome is ContainmentOutcome.UNKNOWN:
            self.saw_unknown = True
        return outcome

    def query_contained_in_candidate(self, candidate: ConjunctiveQuery) -> ContainmentOutcome:
        """``q ⊆_Σ candidate``."""
        if self.strategy == "rewriting":
            try:
                return _definite(
                    rewriting_contained_under_tgds(
                        self.query, candidate, self.tgds, config=self.config.rewriting
                    )
                )
            except RewritingBudgetExceeded:
                self.saw_unknown = True
        # Lemma 1 on the chase of q computed once per decision.  A CQ that
        # holds on a chase prefix holds on every longer one, so TRUE is
        # exact on any prefix; a miss is FALSE only on a terminated chase.
        if len(candidate.head) != len(self.answer):
            return ContainmentOutcome.FALSE
        if candidate.holds_in(self.query_chase.instance, self.answer):
            return ContainmentOutcome.TRUE
        if not self.query_chase.terminated:
            self.saw_unknown = True
            return ContainmentOutcome.UNKNOWN
        return ContainmentOutcome.FALSE

    def equivalent(self, candidate: ConjunctiveQuery) -> ContainmentOutcome:
        """``q ≡_Σ candidate``: TRUE if both directions are, else the first that is not."""
        forward = self.query_contained_in_candidate(candidate)
        if forward is not ContainmentOutcome.TRUE:
            return forward
        return self.candidate_contained_in_query(candidate)


# ----------------------------------------------------------------------
# SemAc under tgds
# ----------------------------------------------------------------------
def _strategy_for(tgds: Sequence[TGD]) -> Tuple[str, str]:
    """Pick (containment strategy, class label) for a set of tgds."""
    if is_guarded_set(tgds):
        return "chase", "guarded"
    if is_non_recursive_set(tgds):
        return "chase", "non-recursive"
    if is_sticky_set(tgds):
        return "rewriting", "sticky"
    if is_full_set(tgds):
        return "chase", "full"
    return "chase", "general"


def decide_semantic_acyclicity_tgds(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> SemAcDecision:
    """Decide whether ``query`` is semantically acyclic under a set of tgds."""
    tgd_list = list(tgds)
    if not tgd_list:
        return decide_semantic_acyclicity_unconstrained(query)

    strategy, class_label = _strategy_for(tgd_list)
    if class_label in ("guarded",):
        size_bound = small_query_bound_guarded(query)
    elif class_label in ("non-recursive", "sticky"):
        size_bound = small_query_bound_ucq_rewritable(query, tgd_list)
    else:
        size_bound = small_query_bound_guarded(query)

    notes: List[str] = [f"class={class_label}", f"strategy={strategy}"]
    if class_label == "full":
        notes.append(
            "SemAc is undecidable for full tgds (Theorem 7); negative answers "
            "are not certified"
        )
    elif class_label == "general":
        notes.append("tgd set outside the decidable classes; best-effort search")

    # Quick exact check: already acyclic, or acyclic core.
    if query.is_acyclic():
        return SemAcDecision(
            True, query, f"syntactic/{class_label}", size_bound, 1, True, notes
        )

    chase_result, freezing = chase_query(
        query,
        tgd_list,
        max_steps=config.chase_max_steps,
        max_depth=config.chase_max_depth,
    )
    if not chase_result.terminated:
        notes.append("chase truncated by budget; candidate space may be incomplete")
    answer = tuple(freezing[v] for v in query.head)

    verifier = _TgdVerifier(query, tgd_list, config, strategy, chase_result, answer)

    rewriting_disjuncts: Sequence[ConjunctiveQuery] = ()
    if config.use_rewriting_candidates and class_label in ("non-recursive", "sticky"):
        try:
            rewriting_disjuncts = list(rewrite(query, tgd_list, config.rewriting))
        except RewritingBudgetExceeded:
            notes.append("rewriting budget exceeded while generating candidates")

    # A sub-instance candidate holds in the chase of q, so it fails only on
    # ``candidate ⊆_Σ q``, which is upward-closed in the sub-instance: a
    # definite FALSE rules out every candidate below its mask.  The chase
    # strategy's FALSE is exact (Lemma 1 on a terminated chase); the
    # rewriting's is only as complete as the rewriting, so it prunes nothing.
    lattice = SubInstanceLattice(chase_result.instance, freezing)
    prunes = verifier.strategy == "chase"
    checked = 0
    for candidate, mask in fast_candidates(
        query,
        chase_result.instance,
        answer,
        size_bound,
        rewriting_disjuncts=rewriting_disjuncts,
        notes=notes,
        lattice=lattice,
    ):
        if checked >= config.max_candidates_checked:
            notes.append("candidate budget exhausted during the fast phase")
            break
        checked += 1
        outcome = verifier.equivalent(candidate)
        if outcome is ContainmentOutcome.TRUE:
            return SemAcDecision(
                True,
                candidate,
                f"fast/{class_label}",
                size_bound,
                checked,
                False,
                notes,
            )
        if prunes and mask is not None and outcome is ContainmentOutcome.FALSE:
            lattice.refute(mask)

    exhaustive_complete = False
    if config.exhaustive:
        cap = min(size_bound, config.exhaustive_size_cap)
        if cap < size_bound:
            notes.append(
                f"exhaustive enumeration capped at witness size {cap} "
                f"(theoretical bound {size_bound})"
            )
        budget_hit = False
        for candidate in exhaustive_chase_candidates(
            query,
            chase_result.instance,
            answer,
            max_atoms=cap,
            max_subsets=config.exhaustive_max_subsets,
            max_generalisations_per_subset=config.exhaustive_max_generalisations,
        ):
            if checked >= config.max_candidates_checked:
                budget_hit = True
                notes.append("candidate budget exhausted during the exhaustive phase")
                break
            checked += 1
            if verifier.equivalent(candidate):
                return SemAcDecision(
                    True,
                    candidate,
                    f"exhaustive/{class_label}",
                    size_bound,
                    checked,
                    False,
                    notes,
                )
        exhaustive_complete = (
            not budget_hit
            and chase_result.terminated
            and not verifier.saw_unknown
            and cap >= size_bound
        )

    if verifier.saw_unknown:
        notes.append("some containment checks were inconclusive (chase budget)")

    return SemAcDecision(
        False,
        None,
        f"search/{class_label}",
        size_bound,
        checked,
        exhaustive_complete,
        notes,
    )


def find_acyclic_reformulation_tgds(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> Optional[ConjunctiveQuery]:
    """Return a verified acyclic CQ equivalent to ``query`` under ``tgds`` (or ``None``)."""
    decision = decide_semantic_acyclicity_tgds(query, tgds, config)
    return decision.witness


def is_semantically_acyclic_under_tgds(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> bool:
    """Boolean convenience wrapper around :func:`decide_semantic_acyclicity_tgds`."""
    return decide_semantic_acyclicity_tgds(query, tgds, config).semantically_acyclic


# ----------------------------------------------------------------------
# SemAc under egds
# ----------------------------------------------------------------------
def decide_semantic_acyclicity_egds(
    query: ConjunctiveQuery,
    egds: Sequence[EGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> SemAcDecision:
    """Decide semantic acyclicity under a set of egds.

    The procedure is the guess-and-check of Theorem 21 with the ``2·|q|``
    bound; it is complete (given exhaustive mode) for classes with
    acyclicity-preserving chase — in particular ``K2`` (keys over unary and
    binary predicates, Proposition 22) and unary FDs.  For arbitrary egds the
    decidability status is open (Section 9) and negative answers are
    best-effort.
    """
    egd_list = list(egds)
    if not egd_list:
        return decide_semantic_acyclicity_unconstrained(query)

    size_bound = small_query_bound_guarded(query)
    notes: List[str] = ["class=egds"]

    if query.is_acyclic():
        return SemAcDecision(True, query, "syntactic/egds", size_bound, 1, True, notes)

    chase_result, freezing = egd_chase_query(query, egd_list, on_failure="return")
    if chase_result.failed:
        notes.append(
            "the egd chase of the query fails; the query is unsatisfiable on "
            "consistent databases and trivially equivalent to any acyclic CQ"
        )
        trivial = _trivial_acyclic_subquery(query)
        return SemAcDecision(True, trivial, "failing-chase", size_bound, 1, True, notes)
    answer = tuple(chase_result.resolve(freezing[v]) for v in query.head)

    def equivalent(candidate: ConjunctiveQuery) -> bool:
        return contained_under_egds(query, candidate, egd_list) and contained_under_egds(
            candidate, query, egd_list
        )

    checked = 0
    for candidate, _ in fast_candidates(
        query, chase_result.instance, answer, size_bound, notes=notes
    ):
        if checked >= config.max_candidates_checked:
            notes.append("candidate budget exhausted during the fast phase")
            break
        checked += 1
        if equivalent(candidate):
            return SemAcDecision(True, candidate, "fast/egds", size_bound, checked, False, notes)

    exhaustive_complete = False
    if config.exhaustive:
        cap = min(size_bound, config.exhaustive_size_cap)
        budget_hit = False
        for candidate in exhaustive_chase_candidates(
            query,
            chase_result.instance,
            answer,
            max_atoms=cap,
            max_subsets=config.exhaustive_max_subsets,
            max_generalisations_per_subset=config.exhaustive_max_generalisations,
        ):
            if checked >= config.max_candidates_checked:
                budget_hit = True
                notes.append("candidate budget exhausted during the exhaustive phase")
                break
            checked += 1
            if equivalent(candidate):
                return SemAcDecision(
                    True, candidate, "exhaustive/egds", size_bound, checked, False, notes
                )
        exhaustive_complete = not budget_hit and cap >= size_bound

    return SemAcDecision(
        False, None, "search/egds", size_bound, checked, exhaustive_complete, notes
    )


def _trivial_acyclic_subquery(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """A fallback acyclic query used when the chase of the query fails."""
    for atom in query.body:
        candidate_atoms = [atom]
        available = atom.variables()
        if set(query.head) <= available:
            return ConjunctiveQuery(query.head, candidate_atoms, name=f"{query.name}_triv")
    return query


def decide_semantic_acyclicity_fds(
    query: ConjunctiveQuery,
    fds: Sequence[FunctionalDependency],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> SemAcDecision:
    """Decide semantic acyclicity under functional dependencies.

    ``K2`` sets (keys over unary/binary predicates) and unary FDs have
    acyclicity-preserving chase, so the search is backed by Theorem 23 / the
    Figueira extension; other FD sets are handled best-effort (their status
    is open, Section 9).
    """
    fd_list = list(fds)
    decision = decide_semantic_acyclicity_egds(query, fds_to_egds(fd_list), config)
    if is_k2_set(fd_list):
        decision.notes.append("FD set is in K2 (keys over unary/binary predicates)")
    elif all_unary(fd_list):
        decision.notes.append("FD set consists of unary FDs")
    else:
        decision.notes.append(
            "FD set outside K2/unary FDs: decidability of SemAc is open (Section 9)"
        )
    return decision


# ----------------------------------------------------------------------
# Generic dispatcher
# ----------------------------------------------------------------------
def decide_semantic_acyclicity(
    query: ConjunctiveQuery,
    constraints: Constraints = (),
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> SemAcDecision:
    """Dispatch on the constraint type (tgds, egds or FDs)."""
    constraint_list = list(constraints)
    if not constraint_list:
        return decide_semantic_acyclicity_unconstrained(query)
    first = constraint_list[0]
    if isinstance(first, TGD):
        return decide_semantic_acyclicity_tgds(query, constraint_list, config)
    if isinstance(first, EGD):
        return decide_semantic_acyclicity_egds(query, constraint_list, config)
    if isinstance(first, FunctionalDependency):
        return decide_semantic_acyclicity_fds(query, constraint_list, config)
    raise TypeError(f"unsupported constraint type {type(first).__name__}")


def is_semantically_acyclic(
    query: ConjunctiveQuery,
    constraints: Constraints = (),
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> bool:
    """Boolean convenience wrapper around :func:`decide_semantic_acyclicity`."""
    return decide_semantic_acyclicity(query, constraints, config).semantically_acyclic
