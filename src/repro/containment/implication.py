"""Logical implication between dependencies, via the chase [25].

The paper's toolbox rests on the classical result of Maier, Mendelzon and
Sagiv (reference [25]) that implication of tgds/egds can be tested with the
chase: ``Σ ⊨ σ`` iff chasing the canonical (frozen) body of ``σ`` with ``Σ``
satisfies the head of ``σ``.  This module implements that test together with
the two uses query optimisers make of it:

* detecting *redundant* dependencies in a constraint set, and
* computing a *minimal cover* (a subset of ``Σ`` implying all of it).

Both are useful preprocessing steps before the semantic-acyclicity search:
smaller constraint sets mean smaller chases, smaller rewritings and fewer
candidate verifications.

The test is exact whenever the chase of the body terminates (always for
egds, and for tgd sets with a termination certificate); otherwise the
outcome is three-valued, like the containment checks it generalises.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from ..chase.egd_chase import egd_chase
from ..chase.tgd_chase import chase
from ..datamodel import Constant, Instance, TermFactory, Variable, freeze_variable
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..queries.homomorphism import find_homomorphism
from .constrained import ContainmentConfig, ContainmentOutcome, DEFAULT_CONFIG


Dependency = Union[TGD, EGD]


def _frozen_body(dependency: Dependency) -> Tuple[Instance, Dict[Variable, Constant]]:
    """The canonical database of the dependency's body plus the freezing map."""
    if isinstance(dependency, TGD):
        variables = dependency.body_variables()
        body = dependency.body
    else:
        variables = set()
        for atom in dependency.body:
            variables |= atom.variables()
        body = dependency.body
    freezing = {variable: freeze_variable(variable) for variable in variables}
    instance = Instance(atom.apply(freezing) for atom in body)
    return instance, freezing


def _saturate(
    instance: Instance,
    tgds: Sequence[TGD],
    egds: Sequence[EGD],
    config: ContainmentConfig,
):
    """Alternate tgd and egd chase rounds until a joint fixpoint (or budget).

    Returns ``(instance, resolve, failed, exhausted)`` where ``resolve`` maps
    any term to its representative after all egd identifications.
    """
    substitution: Dict = {}
    factory = TermFactory(null_prefix="impl_n")
    steps_left = config.max_steps
    exhausted = False
    current = instance
    while True:
        changed = False
        if tgds:
            tgd_result = chase(
                current,
                list(tgds),
                variant=config.chase_variant,
                max_steps=max(steps_left, 1),
                term_factory=factory,
            )
            if tgd_result.step_count:
                changed = True
            steps_left -= tgd_result.step_count
            current = tgd_result.instance
            if not tgd_result.terminated:
                exhausted = True
        if egds:
            egd_result = egd_chase(current, list(egds), on_failure="return")
            if egd_result.failed:
                return current, substitution, True, exhausted
            if egd_result.steps:
                changed = True
                current = egd_result.instance
                for source, target in egd_result.substitution.items():
                    substitution[source] = egd_result.resolve(target)
        if not changed or exhausted or steps_left <= 0:
            if steps_left <= 0:
                exhausted = True
            break
    return current, substitution, False, exhausted


def _resolve(substitution: Dict, term):
    seen = set()
    while term in substitution and term not in seen:
        seen.add(term)
        term = substitution[term]
    return term


def dependency_implied(
    sigma: Sequence[Dependency],
    candidate: Dependency,
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> ContainmentOutcome:
    """Decide whether ``Σ ⊨ candidate`` (chase the frozen body, check the head).

    The outcome is ``TRUE``/``FALSE`` whenever the chase reaches a fixpoint
    within the budget and ``UNKNOWN`` otherwise; a failing egd chase means
    the candidate's body is unsatisfiable on databases satisfying ``Σ``, so
    the implication holds vacuously.
    """
    tgds = [d for d in sigma if isinstance(d, TGD)]
    egds = [d for d in sigma if isinstance(d, EGD)]
    body_instance, freezing = _frozen_body(candidate)
    chased, substitution, failed, exhausted = _saturate(body_instance, tgds, egds, config)
    if failed:
        return ContainmentOutcome.TRUE

    if isinstance(candidate, EGD):
        left = _resolve(substitution, freezing[candidate.left])
        right = _resolve(substitution, freezing[candidate.right])
        if left == right:
            return ContainmentOutcome.TRUE
        return ContainmentOutcome.UNKNOWN if exhausted else ContainmentOutcome.FALSE

    seed = {
        variable: _resolve(substitution, freezing[variable])
        for variable in candidate.frontier_variables()
    }
    if find_homomorphism(candidate.head, chased, seed=seed) is not None:
        return ContainmentOutcome.TRUE
    return ContainmentOutcome.UNKNOWN if exhausted else ContainmentOutcome.FALSE


def redundant_dependencies(
    sigma: Sequence[Dependency],
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> List[int]:
    """Indexes of dependencies implied by the *rest* of the set (definite only)."""
    redundant: List[int] = []
    for index, dependency in enumerate(sigma):
        rest = [d for position, d in enumerate(sigma) if position != index]
        if dependency_implied(rest, dependency, config) is ContainmentOutcome.TRUE:
            redundant.append(index)
    return redundant


def minimal_cover(
    sigma: Sequence[Dependency],
    config: ContainmentConfig = DEFAULT_CONFIG,
) -> List[Dependency]:
    """A subset of ``Σ`` that implies every dropped dependency.

    Dependencies are dropped greedily (in input order) whenever the remaining
    set still implies them; the result is minimal with respect to this
    one-at-a-time removal, which is the standard notion of a cover.  Only
    definite (``TRUE``) implications justify a removal, so the cover is
    always equivalent to the input set.
    """
    kept: List[Dependency] = list(sigma)
    index = 0
    while index < len(kept):
        candidate = kept[index]
        rest = kept[:index] + kept[index + 1:]
        if rest and dependency_implied(rest, candidate, config) is ContainmentOutcome.TRUE:
            kept = rest
        else:
            index += 1
    return kept
