"""The chase procedure for tuple-generating dependencies.

The module implements the two standard chase variants:

* the **restricted** chase fires a trigger only when the head is not already
  satisfied with the same frontier binding (this is the variant the paper
  uses throughout);
* the **oblivious** chase fires every trigger exactly once regardless of
  satisfaction (useful as an ablation and for the guarded chase forest).

Both variants chase either an instance or a CQ (whose variables are frozen
into the canonical constants ``c(x)`` of Lemma 1).  Since the chase need not
terminate for arbitrary tgds, every run takes a step budget and an optional
depth budget; the result records whether a genuine fixpoint was reached.
Chases that terminate within the budget are exact; truncated chases are
still sound under-approximations of ``chase(I, Σ)`` (every atom they contain
belongs to every chase result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Atom, Constant, Instance, Term, TermFactory, Variable
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from ..queries.homomorphism import homomorphisms


class ChaseBudgetExceeded(RuntimeError):
    """Raised by :func:`chase` when ``on_budget='raise'`` and the budget runs out."""


@dataclass
class ChaseStep:
    """A single tgd chase step ``I --(τ, trigger)--> J``."""

    tgd_index: int
    tgd: TGD
    trigger: Dict[Term, Term]
    new_atoms: Tuple[Atom, ...]
    #: The image of the tgd body under the trigger (the atoms that fired it).
    premise_atoms: Tuple[Atom, ...]
    #: 1 + maximal depth of the premise atoms.
    depth: int


@dataclass
class ChaseResult:
    """Result of chasing an instance with a set of tgds."""

    instance: Instance
    steps: List[ChaseStep] = field(default_factory=list)
    #: ``True`` iff a fixpoint was reached (the result satisfies the tgds).
    terminated: bool = True
    #: ``True`` iff the step or depth budget stopped the chase early.
    budget_exhausted: bool = False
    #: Depth of each atom (0 for the initial atoms).
    atom_depth: Dict[Atom, int] = field(default_factory=dict)
    #: For derived atoms, the step that produced them (guarded-forest support).
    produced_by: Dict[Atom, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instance)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def max_depth(self) -> int:
        return max(self.atom_depth.values(), default=0)

    def satisfies(self, tgds: Iterable[TGD]) -> bool:
        """Check that the result satisfies every tgd (true iff ``terminated``)."""
        return all(tgd.is_satisfied_by(self.instance) for tgd in tgds)


def _frontier_binding(tgd: TGD, trigger: Mapping[Term, Term]) -> Dict[Term, Term]:
    return {variable: trigger[variable] for variable in tgd.frontier_variables()}


def _head_satisfied(tgd: TGD, instance: Instance, trigger: Mapping[Term, Term]) -> bool:
    if not tgd.existential_variables():
        # A full head is ground under the trigger: membership decides.
        return all(atom.apply(trigger) in instance for atom in tgd.head)
    seed = _frontier_binding(tgd, trigger)
    for _ in homomorphisms(tgd.head, instance, seed=seed):
        return True
    return False


def _trigger_key(tgd_index: int, tgd: TGD, trigger: Mapping[Term, Term]) -> Tuple:
    ordered = tuple(
        (variable.name, trigger[variable])
        for variable in sorted(tgd.body_variables(), key=str)
    )
    return (tgd_index, ordered)


def _term_order_key(term: Term) -> Tuple[str, str]:
    """A sort key for a term built from its interning key, not its identity.

    Terms hash by identity, so set order changes when a term dies and is
    interned again; the class name and the key's ``repr`` do not.
    """
    return (term.__class__.__name__, repr(term._key()))


def _unify_atom(pattern: Atom, fact: Atom) -> Optional[Dict[Term, Term]]:
    """Match a (variable-carrying) body atom against a ground fact."""
    if pattern.predicate != fact.predicate:
        return None
    binding: Dict[Term, Term] = {}
    for pattern_term, fact_term in zip(pattern.terms, fact.terms):
        if isinstance(pattern_term, Constant):
            if pattern_term != fact_term:
                return None
            continue
        bound = binding.get(pattern_term)
        if bound is None:
            binding[pattern_term] = fact_term
        elif bound != fact_term:
            return None
    return binding


def _triggers_touching(
    tgd: TGD,
    instance: Instance,
    delta: Optional[Set[Atom]],
) -> List[Dict[Term, Term]]:
    """Enumerate the triggers of ``tgd`` whose premise uses an atom of ``delta``.

    ``delta=None`` means "no restriction" (used for the first chase round).
    The enumeration is the semi-naive step of the chase: since instances only
    grow and satisfied heads stay satisfied, every trigger that became
    applicable after the previous round must read at least one freshly added
    atom, so restricting the premise to touch ``delta`` loses nothing.
    """
    if delta is None:
        return list(homomorphisms(tgd.body, instance))

    triggers: List[Dict[Term, Term]] = []
    body = tgd.body
    if len(body) == 1:
        # The unified fact is the premise, and distinct facts unify to
        # distinct bindings: each binding is a trigger, once.
        for fact in delta:
            trigger = _unify_atom(body[0], fact)
            if trigger is not None:
                triggers.append(trigger)
        return triggers
    seen: Set[Tuple] = set()
    ordered_variables = sorted(tgd.body_variables(), key=str)
    for position, pattern in enumerate(body):
        for fact in delta:
            seed = _unify_atom(pattern, fact)
            if seed is None:
                continue
            for trigger in homomorphisms(body, instance, seed=seed):
                key = tuple((v.name, trigger[v]) for v in ordered_variables)
                if key in seen:
                    continue
                seen.add(key)
                triggers.append(trigger)
    return triggers


def _chase_steps(
    result: ChaseResult,
    tgds: Sequence[TGD],
    variant: str,
    max_depth: Optional[int],
    factory: TermFactory,
) -> Generator[bool, int, bool]:
    """The chase loop of :class:`ChaseRun`, pausable at the step budget.

    It receives the step limit through ``send``, yields at the budget check
    before the next trigger (reporting whether the depth budget has cut a
    trigger so far) and returns that same flag when the loop ends.  It
    holds no reference to its :class:`ChaseRun`, so a run paused at its
    budget is freed by reference counting once its owner drops it.
    """
    fired: Set[Tuple] = set()
    depth_cut = False
    limit = yield depth_cut

    # Semi-naive trigger enumeration: after the first round only triggers
    # whose premise reads an atom added in the previous round are considered.
    # This is complete because instances only grow (a trigger skipped earlier
    # was either already fired or had a satisfied head, and satisfied heads
    # stay satisfied), and it keeps long chains of firings linear instead of
    # quadratic in the number of steps.
    delta: Optional[Set[Atom]] = None

    while True:
        progressed = False
        added_this_round: Set[Atom] = set()
        for tgd_index, tgd in enumerate(tgds):
            triggers = _triggers_touching(tgd, result.instance, delta)
            # Fire in an order fixed by the terms' keys: a chase cut by the
            # step budget then stops on the same prefix in every call.
            ordered_variables = sorted(tgd.body_variables(), key=str)
            triggers.sort(
                key=lambda trigger: [
                    _term_order_key(trigger[v]) for v in ordered_variables
                ]
            )
            for trigger in triggers:
                while len(result.steps) >= limit:
                    limit = yield depth_cut

                premise = tuple(atom.apply(trigger) for atom in tgd.body)
                depth = 1 + max(
                    (result.atom_depth.get(atom, 0) for atom in premise), default=0
                )
                if max_depth is not None and depth > max_depth:
                    # Respect the depth budget: this trigger is never fired,
                    # so the result may not be a fixpoint.
                    depth_cut = True
                    continue

                if variant == "oblivious":
                    key = _trigger_key(tgd_index, tgd, trigger)
                    if key in fired:
                        continue
                else:
                    if _head_satisfied(tgd, result.instance, trigger):
                        continue

                # Fire the trigger.
                substitution: Dict[Term, Term] = dict(_frontier_binding(tgd, trigger))
                for existential in sorted(tgd.existential_variables(), key=str):
                    substitution[existential] = factory.fresh_null()
                new_atoms = tuple(atom.apply(substitution) for atom in tgd.head)

                added_any = False
                for atom in new_atoms:
                    if result.instance.add(atom):
                        added_any = True
                        added_this_round.add(atom)
                        result.atom_depth[atom] = depth
                        result.produced_by[atom] = len(result.steps)
                    else:
                        result.atom_depth[atom] = min(
                            result.atom_depth.get(atom, depth), depth
                        )

                if variant == "oblivious":
                    fired.add(_trigger_key(tgd_index, tgd, trigger))

                result.steps.append(
                    ChaseStep(
                        tgd_index=tgd_index,
                        tgd=tgd,
                        trigger=dict(trigger),
                        new_atoms=new_atoms,
                        premise_atoms=premise,
                        depth=depth,
                    )
                )
                if added_any or variant == "oblivious":
                    progressed = True
        if not progressed:
            return depth_cut
        delta = added_this_round


class ChaseRun:
    """One chase of an instance that can be advanced budget by budget.

    The chase loop pauses at the step-budget check, right before it would
    consider the next trigger; :meth:`advance` raises the budget and resumes
    it there, with the semi-naive delta, the round's pending triggers and
    the oblivious chase's fired set intact.  Contract: a run advanced in
    chunks whose budgets sum to ``N`` ends in the same state as one
    ``advance(N)`` (same atoms, depths, steps and flags), which is what
    :func:`chase` does.
    """

    def __init__(
        self,
        instance: Instance,
        tgds: Sequence[TGD],
        variant: str = "restricted",
        max_depth: Optional[int] = None,
        term_factory: Optional[TermFactory] = None,
    ) -> None:
        if variant not in ("restricted", "oblivious"):
            raise ValueError(f"unknown chase variant {variant!r}")
        self.result = ChaseResult(instance=instance.copy(), terminated=False)
        for atom in self.result.instance:
            self.result.atom_depth[atom] = 0
        #: ``True`` once the loop has ended (fixpoint, or every remaining
        #: trigger suppressed by the depth budget); no budget resumes it.
        self.finished = False
        self._depth_cut = False
        self._loop = _chase_steps(
            self.result,
            list(tgds),
            variant,
            max_depth,
            term_factory or TermFactory(null_prefix="chase_n"),
        )
        next(self._loop)

    def advance(self, max_steps: int) -> ChaseResult:
        """Fire at most ``max_steps`` more steps and return the (shared) result."""
        if not self.finished:
            try:
                self._depth_cut = self._loop.send(len(self.result.steps) + max_steps)
            except StopIteration as stop:
                self._depth_cut = stop.value
                self.finished = True
        result = self.result
        # A pause at the step budget leaves the run resumable; a finished run
        # is a fixpoint unless the depth budget suppressed some trigger.
        result.budget_exhausted = not self.finished or self._depth_cut
        result.terminated = not result.budget_exhausted
        return result


def chase(
    instance: Instance,
    tgds: Sequence[TGD],
    variant: str = "restricted",
    max_steps: int = 10_000,
    max_depth: Optional[int] = None,
    on_budget: str = "return",
    term_factory: Optional[TermFactory] = None,
) -> ChaseResult:
    """Chase ``instance`` with ``tgds``.

    Args:
        instance: the instance ``I`` to chase (it is not modified).
        tgds: the finite set ``Σ``.
        variant: ``"restricted"`` (default) or ``"oblivious"``.
        max_steps: maximum number of chase steps before giving up.
        max_depth: if given, triggers whose premise atoms already sit at this
            depth are not fired (bounded / level-wise chase).
        on_budget: ``"return"`` (default) returns a truncated result with
            ``budget_exhausted=True``; ``"raise"`` raises
            :class:`ChaseBudgetExceeded`.
        term_factory: source of fresh nulls (a private one is created if omitted).

    Returns:
        A :class:`ChaseResult`; ``result.terminated`` tells whether the
        result is an actual chase fixpoint.
    """
    run = ChaseRun(
        instance, tgds, variant=variant, max_depth=max_depth, term_factory=term_factory
    )
    result = run.advance(max_steps)
    if not run.finished and on_budget == "raise":
        raise ChaseBudgetExceeded(f"chase exceeded {max_steps} steps")
    return result


def chase_query(
    query: ConjunctiveQuery,
    tgds: Sequence[TGD],
    variant: str = "restricted",
    max_steps: int = 10_000,
    max_depth: Optional[int] = None,
    on_budget: str = "return",
) -> Tuple[ChaseResult, Dict[Variable, Constant]]:
    """Chase a CQ: freeze its variables into ``c(x)`` constants and chase.

    Returns the chase result together with the freezing map, so that callers
    can recover the tuple ``c(x̄)`` needed by Lemma 1.
    """
    database, freezing = query.freeze()
    result = chase(
        database,
        tgds,
        variant=variant,
        max_steps=max_steps,
        max_depth=max_depth,
        on_budget=on_budget,
    )
    return result, freezing


def chase_terminates(
    instance: Instance,
    tgds: Sequence[TGD],
    max_steps: int = 10_000,
) -> bool:
    """Return ``True`` iff the restricted chase reaches a fixpoint within budget."""
    return chase(instance, tgds, max_steps=max_steps).terminated
