"""A naive chase: the differential oracle of the semi-naive tgd chase.

Every round matches every tgd body against the whole instance by nested
loops, with no index, no delta and no fast path, and fires each trigger
whose head has no match extending its frontier binding.  On full tgds this
is the naive Datalog fixpoint; with existential variables it is a
round-based restricted chase whose result is homomorphically equivalent to
every other restricted chase result (both are universal models).  It shares
no matching code with :mod:`repro.chase.tgd_chase` or
:mod:`repro.queries.homomorphism`.
"""

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.datamodel import Atom, Instance, Term, TermFactory, Variable
from repro.dependencies.tgd import TGD


def matches(
    atoms: Sequence[Atom], facts: Sequence[Atom], binding: Dict[Term, Term]
) -> Iterator[Dict[Term, Term]]:
    """Every extension of ``binding`` that maps each of ``atoms`` onto a fact."""
    if not atoms:
        yield dict(binding)
        return
    first, rest = atoms[0], atoms[1:]
    for fact in facts:
        if fact.predicate != first.predicate:
            continue
        extended = dict(binding)
        for term, value in zip(first.terms, fact.terms):
            if isinstance(term, Variable):
                if extended.setdefault(term, value) != value:
                    break
            elif term != value:
                break
        else:
            yield from matches(rest, facts, extended)


def violations(
    facts: Sequence[Atom], tgds: Sequence[TGD]
) -> List[Tuple[TGD, Dict[Term, Term]]]:
    """The triggers over ``facts`` whose head has no match (none iff a model)."""
    found = []
    for tgd in tgds:
        for trigger in matches(tgd.body, facts, {}):
            frontier = {v: trigger[v] for v in tgd.frontier_variables()}
            if next(matches(tgd.head, facts, frontier), None) is None:
                found.append((tgd, trigger))
    return found


def naive_chase(
    instance: Instance, tgds: Sequence[TGD], max_rounds: int = 50
) -> Tuple[List[Atom], bool]:
    """``(facts, fixpoint)``: the chase of ``instance`` after at most
    ``max_rounds`` rounds, and whether the last round fired nothing."""
    facts: List[Atom] = list(instance)
    present = set(facts)
    nulls = TermFactory(null_prefix="naive_n")
    for _ in range(max_rounds):
        fired = False
        for tgd in tgds:
            for _, trigger in violations(facts, [tgd]):
                frontier = {v: trigger[v] for v in tgd.frontier_variables()}
                if next(matches(tgd.head, facts, frontier), None) is not None:
                    continue  # satisfied by an atom fired earlier this round
                for variable in sorted(tgd.existential_variables(), key=str):
                    frontier[variable] = nulls.fresh_null()
                for atom in tgd.head:
                    fact = atom.apply(frontier)
                    if fact not in present:
                        present.add(fact)
                        facts.append(fact)
                fired = True
        if not fired:
            return facts, True
    return facts, False
