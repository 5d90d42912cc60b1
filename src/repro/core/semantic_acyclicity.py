"""Semantic acyclicity under constraints — the paper's central decision problems.

``SemAc(C)``: given a CQ ``q`` and a finite set ``Σ`` of constraints in the
class ``C``, is there an acyclic CQ ``q'`` with ``q ≡_Σ q'``?

Without constraints, ``q`` is semantically acyclic iff its core is acyclic
(exact, Section 1).  Every other case runs one procedure,
:func:`_guess_and_check`: guess an acyclic CQ within the small-query bound
and check ``q ≡_Σ q'`` on the chase of ``q`` (Lemma 1).  Only the chase,
the bound and the equivalence test change from class to class:

* **guarded tgds** (Theorem 11) — the ``2·|q|`` bound of Proposition 8;
* **non-recursive** and **sticky** sets (Theorems 18/20) — the
  ``2·f_C(q, Σ)`` bound of Proposition 15; subqueries of the UCQ rewriting
  of ``q`` join the candidates, and sticky sets check containment on the
  rewriting;
* **keys over unary/binary predicates / unary FDs** (Theorem 23) — egds,
  whose chase always terminates, with the ``2·|q|`` bound; when the chase
  fails, the witness is ``q`` with all its variables collapsed into one,
  checked equivalent to ``q`` before it is returned;
* **full tgds** — undecidable (Theorem 7); the procedure still *searches*
  and certifies positive answers, but a negative answer carries no guarantee
  (see :mod:`repro.core.pcp` for the reduction behind the undecidability).

Under tgds only ``Σ_q``, the tgds reachable from the predicates ``P`` of
``q``, matter: a witness maps into the chase of ``q``, so both containments
fire tgds of ``Σ_q`` only.  When no tgd of ``Σ_q`` has a head predicate in
``P`` and every head atom of ``Σ_q`` has at most two variables, the core
decides exactly, with no search.  A witness ``q'`` is then equivalent,
without constraints, to its atoms over ``P``, which hold a copy of the core
of ``q``.  Restricted to the variables of that copy, every other atom of
``q'`` lies inside an atom of the copy or holds at most two of its
variables.  Restricting to vertices keeps ``q'`` acyclic, and α-acyclic
means chordal and conformal, so an edge of at most two vertices that no
other edge covers is a bridge, and dropping it keeps the hypergraph
acyclic: the core is acyclic.

The search runs the fast phase (:func:`~repro.core.candidates
.fast_candidates`) and, with ``SemAcConfig.exhaustive``, the exhaustive
phase (:func:`~repro.core.candidates.exhaustive_chase_candidates`);
``max_candidates_checked`` bounds the two together.  In the fast phase a
definite refutation of ``candidate ⊆_Σ q`` rules out every sub-instance
candidate below it (:class:`~repro.core.candidates.SubInstanceLattice`).
Only the tgd chase strategy prunes: the rewriting's refutation is only as
complete as the rewriting, and egd merges move subqueries of ``q`` off the
chase.

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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..chase.egd_chase import EGDChaseResult, egd_chase_query
from ..chase.tgd_chase import ChaseResult, chase_query
from ..containment.constrained import (
    ContainmentConfig,
    ContainmentOutcome,
    contained_under_egds,
    contained_under_tgds,
)
from ..datamodel import Constant, Instance, Variable
from ..dependencies.classification import (
    is_full_set,
    is_guarded_set,
    is_non_recursive_set,
    is_sticky_set,
)
from ..dependencies.egd import EGD
from ..dependencies.fd import (
    Constraints,
    FunctionalDependency,
    all_unary,
    fds_to_egds,
    is_k2_set,
    split_constraints,
)
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from ..queries.core_minimization import core
from ..queries.ucq import UnionOfConjunctiveQueries
from ..rewriting.bounds import (
    small_query_bound_guarded,
    small_query_bound_ucq_rewritable,
)
from ..rewriting.ucq_rewriting import (
    RewritingBudgetExceeded,
    rewrite,
    rewriting_contained_under_tgds,
)
from .candidates import SubInstanceLattice, exhaustive_chase_candidates, fast_candidates


@dataclass
class SemAcConfig:
    """The budgets of the semantic-acyclicity search.

    The UCQ rewriting and the exhaustive enumeration run with the budgets
    of :func:`~repro.rewriting.rewrite` and
    :func:`~repro.core.candidates.exhaustive_chase_candidates`.
    """

    #: Step budget of the chase of ``q`` and of the chase-based containment checks.
    chase_max_steps: int = 5_000
    #: Run the exhaustive anti-unification enumeration when the fast
    #: generators fail (only advisable for small queries/chases).
    exhaustive: bool = False
    #: Cap on the witness size considered by the exhaustive enumeration (the
    #: theoretical bound is used when smaller).
    exhaustive_size_cap: int = 8
    #: Cap on the number of candidates verified, over both phases.
    max_candidates_checked: int = 50_000

    def containment_config(self) -> ContainmentConfig:
        return ContainmentConfig(max_steps=self.chase_max_steps)


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
    #: The core of the input when the verdict came from it (method
    #: ``core``): equivalent to the input on every database, so a cyclic
    #: core can be evaluated in its place.  ``None`` on every other path.
    core: Optional[ConjunctiveQuery] = None

    def __bool__(self) -> bool:
        return self.semantically_acyclic


# ----------------------------------------------------------------------
# Constraint sets of one kind
# ----------------------------------------------------------------------
def one_class(constraints: Constraints) -> Tuple[List[TGD], List[EGD]]:
    """:func:`~repro.dependencies.split_constraints` for a decision, which
    takes one class: ``ValueError`` if ``Σ`` mixes tgds with egds or FDs."""
    tgds, egds = split_constraints(constraints)
    if tgds and egds:
        raise ValueError("mixing tgds and egds in one decision is not supported")
    return tgds, egds


def containment_test(
    tgds: Sequence[TGD], egds: Sequence[EGD], config: SemAcConfig = DEFAULT_SEMAC_CONFIG
) -> Callable[[ConjunctiveQuery, ConjunctiveQuery], bool]:
    """``(left, right) -> left ⊆_Σ right``; an inconclusive tgd check reads ``False``.

    Without constraints the egd test is plain CQ containment.
    """
    if tgds:
        budgets = config.containment_config()
        return lambda left, right: (
            contained_under_tgds(left, right, tgds, budgets) is ContainmentOutcome.TRUE
        )
    return lambda left, right: contained_under_egds(left, right, egds)


def chase_of_query(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    egds: Sequence[EGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> Tuple[Union[ChaseResult, EGDChaseResult], Dict[Variable, Constant], Tuple[Constant, ...]]:
    """``chase(q, Σ)`` with the freezing map and the frozen head ``c(x̄)`` on it.

    The tgd chase runs within ``config.chase_max_steps``; the egd chase
    returns a failed result instead of raising.
    """
    if tgds:
        result, freezing = chase_query(query, tgds, max_steps=config.chase_max_steps)
        return result, freezing, tuple(freezing[v] for v in query.head)
    result, freezing = egd_chase_query(query, egds, on_failure="return")
    return result, freezing, tuple(result.resolve(freezing[v]) for v in query.head)


# ----------------------------------------------------------------------
# No constraints
# ----------------------------------------------------------------------
def decide_semantic_acyclicity_unconstrained(query: ConjunctiveQuery) -> SemAcDecision:
    """Exact decision in the absence of constraints: is the core acyclic?"""
    minimal = core(query)
    acyclic = minimal.is_acyclic()
    return SemAcDecision(
        semantically_acyclic=acyclic,
        witness=minimal if acyclic else None,
        method="core",
        size_bound=len(query),
        candidates_checked=1,
        exhaustive=True,
        core=minimal,
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
    for every candidate.  ``query_rewriting`` is the decision's UCQ
    rewriting of ``q``; the rewriting strategy falls back to the chase
    without one (its budget was exceeded).  Every check returns its own
    three-valued outcome; ``saw_unknown`` records whether any check of the
    decision was inconclusive.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        tgds: Sequence[TGD],
        config: SemAcConfig,
        strategy: str,
        query_chase: ChaseResult,
        answer: Sequence[Constant],
        query_rewriting: Optional[UnionOfConjunctiveQueries] = None,
    ) -> None:
        self.query = query
        self.tgds = list(tgds)
        self.config = config
        self.strategy = strategy
        self.query_chase = query_chase
        self.answer = tuple(answer)
        self.saw_unknown = False
        self._query_rewriting = query_rewriting
        if strategy == "rewriting" and query_rewriting is None:
            self.strategy = "chase"

    def candidate_contained_in_query(self, candidate: ConjunctiveQuery) -> ContainmentOutcome:
        """``candidate ⊆_Σ q``."""
        if self.strategy == "rewriting" and self._query_rewriting is not None:
            return _definite(
                rewriting_contained_under_tgds(
                    candidate, self.query, self.tgds, rewriting=self._query_rewriting
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
                    rewriting_contained_under_tgds(self.query, candidate, self.tgds)
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


class _EgdVerifier:
    """``q ≡_Σ candidate`` for egds, whose chase terminates: every check is definite."""

    saw_unknown = False

    def __init__(self, query: ConjunctiveQuery, egds: Sequence[EGD]) -> None:
        self.query = query
        self.egds = egds

    def equivalent(self, candidate: ConjunctiveQuery) -> ContainmentOutcome:
        return _definite(
            contained_under_egds(self.query, candidate, self.egds)
            and contained_under_egds(candidate, self.query, self.egds)
        )


# ----------------------------------------------------------------------
# The guess-and-check search
# ----------------------------------------------------------------------
def _guess_and_check(
    query: ConjunctiveQuery,
    chase_instance: Instance,
    answer: Sequence[Constant],
    size_bound: int,
    verifier: Union[_TgdVerifier, _EgdVerifier],
    label: str,
    notes: List[str],
    config: SemAcConfig,
    lattice: Optional[SubInstanceLattice] = None,
    rewriting_disjuncts: Sequence[ConjunctiveQuery] = (),
    chase_terminated: bool = True,
) -> SemAcDecision:
    """Verify candidates until one is equivalent to ``query`` under ``Σ``.

    The fast phase walks :func:`fast_candidates`; given a ``lattice``, a
    definite ``FALSE`` rules out every candidate below the refuted mask, so
    pass one only when the verifier's ``FALSE`` is exact.  With
    ``config.exhaustive`` the exhaustive phase follows, up to witness size
    ``min(size_bound, config.exhaustive_size_cap)``.  The two phases share
    ``config.max_candidates_checked``.  A negative verdict is exhaustive
    when the exhaustive phase ran to the bound over a terminated chase and
    every check was definite.
    """
    cap = min(size_bound, config.exhaustive_size_cap)

    def candidates() -> Iterator[Tuple[str, ConjunctiveQuery, Optional[int]]]:
        for candidate, mask in fast_candidates(
            query,
            chase_instance,
            answer,
            size_bound,
            rewriting_disjuncts=rewriting_disjuncts,
            notes=notes,
            lattice=lattice,
        ):
            yield "fast", candidate, mask
        if not config.exhaustive:
            return
        if cap < size_bound:
            notes.append(
                f"exhaustive enumeration capped at witness size {cap} "
                f"(theoretical bound {size_bound})"
            )
        for candidate in exhaustive_chase_candidates(
            query, chase_instance, answer, max_atoms=cap
        ):
            yield "exhaustive", candidate, None

    checked = 0
    budget_hit = False
    for phase, candidate, mask in candidates():
        if checked >= config.max_candidates_checked:
            budget_hit = True
            notes.append(f"candidate budget exhausted during the {phase} phase")
            break
        checked += 1
        outcome = verifier.equivalent(candidate)
        if outcome is ContainmentOutcome.TRUE:
            return SemAcDecision(
                True, candidate, f"{phase}/{label}", size_bound, checked, False, notes
            )
        if lattice is not None and mask is not None and outcome is ContainmentOutcome.FALSE:
            lattice.refute(mask)

    if verifier.saw_unknown:
        notes.append("some containment checks were inconclusive (chase budget)")
    exhaustive = (
        config.exhaustive
        and not budget_hit
        and cap >= size_bound
        and chase_terminated
        and not verifier.saw_unknown
    )
    return SemAcDecision(
        False, None, f"search/{label}", size_bound, checked, exhaustive, notes
    )


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


def _reachable_tgds(query: ConjunctiveQuery, tgds: Sequence[TGD]) -> List[TGD]:
    """``Σ_q``: the tgds of ``tgds`` reachable from the predicates of ``query``.

    A tgd is reachable when one of its body predicates is a predicate of
    ``query`` or a head predicate of a reachable tgd; the others can fire in
    neither the chase of ``query`` nor that of a CQ mapping into it.
    """
    reached = query.predicates()
    chosen = [False] * len(tgds)
    grew = True
    while grew:
        grew = False
        for index, tgd in enumerate(tgds):
            if not chosen[index] and not reached.isdisjoint(tgd.body_predicates()):
                chosen[index] = grew = True
                reached |= tgd.head_predicates()
    return [tgd for tgd, keep in zip(tgds, chosen) if keep]


def _core_decides(query: ConjunctiveQuery, reachable: Sequence[TGD]) -> bool:
    """No tgd of ``Σ_q`` derives an atom over a predicate of ``query``, and
    every head atom of ``Σ_q`` has at most two distinct variables."""
    predicates = query.predicates()
    return all(
        predicates.isdisjoint(tgd.head_predicates())
        and all(len(atom.variables()) <= 2 for atom in tgd.head)
        for tgd in reachable
    )


def decide_semantic_acyclicity_tgds(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: SemAcConfig = DEFAULT_SEMAC_CONFIG,
) -> SemAcDecision:
    """Decide whether ``query`` is semantically acyclic under a set of tgds.

    Only ``Σ_q`` (:func:`_reachable_tgds`) is used: every witness maps into
    the chase of ``query``, so both containments fire tgds of ``Σ_q`` only.
    """
    tgd_list = list(tgds)
    if not tgd_list:
        return decide_semantic_acyclicity_unconstrained(query)
    tgd_list = _reachable_tgds(query, tgd_list)

    strategy, class_label = _strategy_for(tgd_list)
    rewritable = class_label in ("non-recursive", "sticky")
    if rewritable:
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

    if query.is_acyclic():
        return SemAcDecision(
            True, query, f"syntactic/{class_label}", size_bound, 1, True, notes
        )
    if _core_decides(query, tgd_list):
        decision = decide_semantic_acyclicity_unconstrained(query)
        decision.notes = notes + [
            "no reachable tgd derives an atom over the query's predicates or "
            "one with more than two variables, so the core decides"
        ]
        return decision

    chase_result, freezing, answer = chase_of_query(query, tgd_list, (), config)
    if not chase_result.terminated:
        notes.append("chase truncated by budget; candidate space may be incomplete")

    # One rewriting of q per decision: it seeds the candidates and, under
    # the rewriting strategy, decides ``candidate ⊆_Σ q``.
    query_rewriting: Optional[UnionOfConjunctiveQueries] = None
    if rewritable:
        try:
            query_rewriting = rewrite(query, tgd_list)
        except RewritingBudgetExceeded:
            notes.append("rewriting budget exceeded while generating candidates")
    rewriting_disjuncts: Sequence[ConjunctiveQuery] = (
        list(query_rewriting) if query_rewriting is not None else ()
    )
    verifier = _TgdVerifier(
        query, tgd_list, config, strategy, chase_result, answer, query_rewriting
    )

    # A sub-instance candidate holds in the chase of q, so it fails only on
    # ``candidate ⊆_Σ q``, which is upward-closed in the sub-instance.  The
    # chase strategy's FALSE is exact (Lemma 1 on a terminated chase), so
    # its refutations prune; the rewriting's is only as complete as the
    # rewriting, so it gets no lattice.
    lattice = None
    if verifier.strategy == "chase":
        lattice = SubInstanceLattice(chase_result.instance, freezing)
    return _guess_and_check(
        query,
        chase_result.instance,
        answer,
        size_bound,
        verifier,
        class_label,
        notes,
        config,
        lattice=lattice,
        rewriting_disjuncts=rewriting_disjuncts,
        chase_terminated=chase_result.terminated,
    )


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

    verifier = _EgdVerifier(query, egd_list)
    chase_result, _, answer = chase_of_query(query, (), egd_list, config)
    if chase_result.failed:
        # q is empty on every database satisfying the egds, so it is
        # contained in any query of its arity.  q maps onto its image with
        # all variables collapsed into one, so that image is contained in q;
        # and the image is acyclic, since each atom holds one variable.
        collapsed = _collapse_variables(query)
        if verifier.equivalent(collapsed) is ContainmentOutcome.TRUE:
            notes.append(
                "the egd chase of the query fails, so the query is empty on "
                "every database satisfying the egds, as is its acyclic image "
                "with all variables collapsed into one"
            )
            return SemAcDecision(
                True, collapsed, "failing-chase", size_bound, 1, True, notes
            )
    return _guess_and_check(
        query,
        chase_result.instance,
        answer,
        size_bound,
        verifier,
        "egds",
        notes,
        config,
    )


def _collapse_variables(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """``query`` (which has a variable) with every variable renamed to one:
    the first head variable, else the first body variable.  Constants are
    kept and repeated atoms dropped."""
    variables = list(query.head) + [
        term for atom in query.body for term in atom.terms if isinstance(term, Variable)
    ]
    mapping = {variable: variables[0] for variable in variables}
    body = list(dict.fromkeys(atom.apply(mapping) for atom in query.body))
    head = [variables[0]] * len(query.head)
    return ConjunctiveQuery(head, body, name=f"{query.name}_collapsed")


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
    """Dispatch on the constraint type (tgds, egds or FDs).

    Raises:
        ValueError: if ``constraints`` mixes tgds with egds or FDs.
    """
    constraint_list = list(constraints)
    if not constraint_list:
        return decide_semantic_acyclicity_unconstrained(query)
    tgds, egds = one_class(constraint_list)
    if tgds:
        return decide_semantic_acyclicity_tgds(query, tgds, config)
    if all(isinstance(c, FunctionalDependency) for c in constraint_list):
        return decide_semantic_acyclicity_fds(query, constraint_list, config)  # type: ignore[arg-type]
    return decide_semantic_acyclicity_egds(query, egds, config)
