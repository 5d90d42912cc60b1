"""Backward UCQ rewriting of a CQ under a set of tgds (Definition 2).

A class ``C`` of sets of tgds is *UCQ rewritable* when, for every CQ ``q``
and every ``Σ ∈ C``, one can construct a UCQ ``Q`` such that for every CQ
``q'``: ``q' ⊆_Σ q`` iff ``c(x̄) ∈ Q(D_{q'})``.  Non-recursive and sticky
sets enjoy this property (Propositions 17/19), and it is the engine behind
the SemAc procedures of Section 5.

The implementation is a piece-based backward rewriting in the style of
XRewrite [20]: repeatedly pick a disjunct ``g``, a tgd ``τ`` (renamed apart)
and a *piece* — a non-empty set of atoms of ``g`` together with an assignment
to head atoms of ``τ`` admitting a most general unifier that keeps the
existential variables of ``τ`` local to the piece — and replace the piece by
the unified body of ``τ``.  New disjuncts subsumed by existing ones are
pruned.  The procedure terminates for non-recursive and sticky sets; for
other inputs the budgets below stop it and a
:class:`RewritingBudgetExceeded` error is raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datamodel import Atom, Constant, Term, Variable
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries


class RewritingBudgetExceeded(RuntimeError):
    """Raised when the rewriting loop exceeds its disjunct or round budget."""


@dataclass
class RewritingConfig:
    """Budgets for the rewriting loop."""

    max_disjuncts: int = 2_000
    max_rounds: int = 200
    max_atoms_per_disjunct: int = 200


DEFAULT_REWRITING_CONFIG = RewritingConfig()


# ----------------------------------------------------------------------
# Most general unifiers via union-find
# ----------------------------------------------------------------------
class UnificationFailure(Exception):
    """Two distinct constants were forced to be equal."""


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        parent = self._parent.setdefault(term, term)
        if parent == term:
            return term
        root = self.find(parent)
        self._parent[term] = root
        return root

    def union(self, left: Term, right: Term) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return
        if isinstance(left_root, Constant) and isinstance(right_root, Constant):
            raise UnificationFailure(f"cannot unify constants {left_root} and {right_root}")
        # Keep constants as class representatives.
        if isinstance(left_root, Constant):
            self._parent[right_root] = left_root
        else:
            self._parent[left_root] = right_root

    def classes(self) -> Dict[Term, Set[Term]]:
        groups: Dict[Term, Set[Term]] = {}
        for term in list(self._parent):
            groups.setdefault(self.find(term), set()).add(term)
        return groups


def _unify_atom_pairs(pairs: Iterable[Tuple[Atom, Atom]]) -> Optional[_UnionFind]:
    """Unify the term tuples of the given atom pairs; ``None`` on failure."""
    union_find = _UnionFind()
    try:
        for left, right in pairs:
            if left.predicate != right.predicate:
                return None
            for left_term, right_term in zip(left.terms, right.terms):
                union_find.union(left_term, right_term)
    except UnificationFailure:
        return None
    return union_find


# ----------------------------------------------------------------------
# Piece rewriting steps
# ----------------------------------------------------------------------
def _choose_representatives(
    union_find: _UnionFind,
    answer_variables: Set[Variable],
    query_variables: Set[Variable],
) -> Dict[Term, Term]:
    """Build the substitution class → representative.

    Preference order: genuine constants, answer variables of the query,
    other query variables, anything else.
    """
    substitution: Dict[Term, Term] = {}
    for representative, members in union_find.classes().items():
        chosen: Term = representative
        constants = [m for m in members if isinstance(m, Constant)]
        if constants:
            chosen = constants[0]
        else:
            answer = sorted(
                (m for m in members if m in answer_variables), key=str
            )
            if answer:
                chosen = answer[0]
            else:
                own = sorted((m for m in members if m in query_variables), key=str)
                if own:
                    chosen = own[0]
                else:
                    chosen = sorted(members, key=str)[0]
        for member in members:
            substitution[member] = chosen
    return substitution


def rewrite_step(
    query: ConjunctiveQuery,
    tgd: TGD,
) -> List[ConjunctiveQuery]:
    """All one-step piece rewritings of ``query`` with ``tgd``.

    The tgd is renamed apart from the query internally.
    """
    renamed = tgd.rename_apart(query.variables())
    head_atoms = list(renamed.head)
    existential = renamed.existential_variables()
    frontier = renamed.frontier_variables()
    answer_variables = set(query.head)
    query_variables = query.variables()

    head_predicates = {atom.predicate for atom in head_atoms}
    candidate_indexes = [
        index
        for index, atom in enumerate(query.body)
        if atom.predicate in head_predicates
    ]
    results: List[ConjunctiveQuery] = []

    for piece_size in range(1, len(candidate_indexes) + 1):
        for piece in itertools.combinations(candidate_indexes, piece_size):
            per_atom_choices = []
            for index in piece:
                matches = [
                    head_atom
                    for head_atom in head_atoms
                    if head_atom.predicate == query.body[index].predicate
                ]
                per_atom_choices.append(matches)
            for assignment in itertools.product(*per_atom_choices):
                pairs = [
                    (query.body[index], head_atom)
                    for index, head_atom in zip(piece, assignment)
                ]
                union_find = _unify_atom_pairs(pairs)
                if union_find is None:
                    continue

                classes = union_find.classes()
                piece_atom_variables: Set[Variable] = set()
                for index in piece:
                    piece_atom_variables |= query.body[index].variables()
                outside_variables: Set[Variable] = set()
                for index, atom in enumerate(query.body):
                    if index not in piece:
                        outside_variables |= atom.variables()

                valid = True
                for representative, members in classes.items():
                    class_existential = {m for m in members if m in existential}
                    if not class_existential:
                        continue
                    if len(class_existential) > 1:
                        valid = False
                        break
                    # The remaining members must be variables of the query that
                    # are local to the piece (not answer variables, not shared
                    # with atoms outside the piece) — no constants, no frontier
                    # variables of the tgd.
                    others = members - class_existential
                    for member in others:
                        if isinstance(member, Constant):
                            valid = False
                            break
                        if member in frontier or member in existential:
                            valid = False
                            break
                        if member in answer_variables or member in outside_variables:
                            valid = False
                            break
                        if member not in piece_atom_variables:
                            valid = False
                            break
                    if not valid:
                        break
                if not valid:
                    continue

                substitution = _choose_representatives(
                    union_find, answer_variables, query_variables
                )

                # Answer variables must stay variables.
                head_ok = True
                new_head: List[Variable] = []
                for variable in query.head:
                    image = substitution.get(variable, variable)
                    if not isinstance(image, Variable):
                        head_ok = False
                        break
                    new_head.append(image)
                if not head_ok:
                    continue

                new_body: List[Atom] = []
                seen: Set[Atom] = set()
                for atom in renamed.body:
                    image = atom.apply(substitution)
                    if image not in seen:
                        seen.add(image)
                        new_body.append(image)
                for index, atom in enumerate(query.body):
                    if index in piece:
                        continue
                    image = atom.apply(substitution)
                    if image not in seen:
                        seen.add(image)
                        new_body.append(image)

                results.append(
                    ConjunctiveQuery(new_head, new_body, name=f"{query.name}_rw")
                )
    return results


# ----------------------------------------------------------------------
# The full rewriting loop
# ----------------------------------------------------------------------
def _subsumed_by(candidate: ConjunctiveQuery, existing: ConjunctiveQuery) -> bool:
    """``candidate ⊆ existing`` as plain CQs (existing is more general)."""
    from ..containment.cq_containment import cq_contained_in

    return cq_contained_in(candidate, existing)


def rewrite(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: RewritingConfig = DEFAULT_REWRITING_CONFIG,
) -> UnionOfConjunctiveQueries:
    """Compute a UCQ rewriting of ``query`` under ``tgds``.

    The resulting UCQ ``Q`` satisfies: for every CQ ``q'``,
    ``q' ⊆_Σ query`` iff ``c(x̄) ∈ Q(D_{q'})`` — provided the rewriting
    terminates, which it does for non-recursive and sticky sets.

    Raises:
        RewritingBudgetExceeded: when the budgets of ``config`` are hit.
    """
    disjuncts: List[ConjunctiveQuery] = [query]
    frontier: List[ConjunctiveQuery] = [query]
    rounds = 0

    while frontier:
        rounds += 1
        if rounds > config.max_rounds:
            raise RewritingBudgetExceeded(
                f"rewriting exceeded {config.max_rounds} rounds"
            )
        next_frontier: List[ConjunctiveQuery] = []
        for disjunct in frontier:
            for tgd in tgds:
                for candidate in rewrite_step(disjunct, tgd):
                    if len(candidate.body) > config.max_atoms_per_disjunct:
                        raise RewritingBudgetExceeded(
                            "rewriting produced a disjunct with more than "
                            f"{config.max_atoms_per_disjunct} atoms"
                        )
                    if any(_subsumed_by(candidate, existing) for existing in disjuncts):
                        continue
                    disjuncts.append(candidate)
                    next_frontier.append(candidate)
                    if len(disjuncts) > config.max_disjuncts:
                        raise RewritingBudgetExceeded(
                            f"rewriting exceeded {config.max_disjuncts} disjuncts"
                        )
        frontier = next_frontier

    return UnionOfConjunctiveQueries(disjuncts, name=f"rewrite({query.name})")


def rewriting_contained_under_tgds(
    left: ConjunctiveQuery,
    right: ConjunctiveQuery,
    tgds: Sequence[TGD],
    config: RewritingConfig = DEFAULT_REWRITING_CONFIG,
    rewriting: Optional[UnionOfConjunctiveQueries] = None,
) -> bool:
    """Decide ``left ⊆_Σ right`` through the UCQ rewriting of ``right``.

    This is the containment procedure used for the UCQ-rewritable classes
    (non-recursive and sticky sets); it is exact whenever the rewriting
    terminates.  A pre-computed ``rewriting`` of ``right`` may be supplied to
    amortise the cost over many left-hand sides.
    """
    if len(left.head) != len(right.head):
        return False
    if rewriting is None:
        rewriting = rewrite(right, tgds, config=config)
    database, freezing = left.freeze()
    answer = tuple(freezing[v] for v in left.head)
    return rewriting.holds_in(database, answer)
