"""A long-lived query service with epoch-aware caches and a plan cache.

Everything else in the repo is one-shot-process: each entry point builds its
scan cache, statistics, and plan, answers, and throws the lot away.  A
standing system serving many clients over one mutating database (the
ROADMAP's query-service arc) needs the opposite: caches that *survive*
requests and stay correct across writes.  :class:`QueryService` is that
substrate:

* it owns one epoch-aware :class:`~repro.evaluation.batch.ScanCache` (and
  its append-only :class:`~repro.evaluation.encoding.TermEncoder`) per
  database, so scans, partitions, encodings, and the planning statistics
  read from them amortise across *requests*, not just across the queries
  of one batch;

* writes go through :meth:`insert`/:meth:`delete`, which bump the
  database's mutation epoch; the scan cache then absorbs the delta
  incrementally on the next read (see ``ScanCache.sync``) instead of being
  rebuilt;

* routed plans are cached **by parameterised query shape**: the constants
  of a request that Σ does not name are lifted to positional parameters
  (:func:`query_shape`), and the lifted query is core-minimised
  (:func:`repro.queries.core_minimization.core`) and canonically relabelled
  (:func:`canonical_form`).  So every renamed variant *and every anchor*
  of one query shares a single cached route and evaluator — and with it
  the evaluator's compiled plans (the flat plan route's join plans too,
  planned on its first request), which each request runs in its own
  execution context through a per-request scan provider that binds its
  anchors into every scanned atom (:class:`BoundScans`).  The lifting is
  sound because homomorphisms fix constants: an injective renaming of
  constants that avoids Σ commutes with ``core`` and preserves semantic
  acyclicity under Σ, and the cost model prices an anchored scan without
  looking at the anchor.  A bounded memo from the request's structural
  pre-key (one linear pass) to its plan key lets a warm request skip
  ``core``, ``canonical_form``, routing and compilation altogether.  Entries are
  re-planned when the database size drifts past ``replan_drift`` of the
  size they were planned at;

* :meth:`stream` wraps the streaming evaluators with an epoch guard: an
  open answer stream observes a concurrent write *before the next pull*
  and raises :class:`ConcurrentMutationError` instead of mixing pre- and
  post-mutation answers.

The one-shot entry points (:func:`repro.evaluation.semacyclic_eval
.evaluate_iter`/``evaluate_batch``) never route through a service; a
caller that wants one holds a :class:`QueryService`, and can hand its
:attr:`QueryService.scans` to them as ``scans=``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .analysis.diagnostics import Diagnostic, Severity
from .datamodel import Atom, Constant, Instance, Predicate, Term, Variable
from .dependencies.tgd import TGD
from .evaluation.batch import ScanCache
from .evaluation.encoding import EncodedRelation
from .evaluation.relation import (
    Relation,
    ScanPattern,
    ScanProvider,
    ScanTarget,
    compile_scan_pattern,
)
from .queries.core_minimization import core
from .queries.cq import ConjunctiveQuery

if TYPE_CHECKING:
    from .evaluation.semacyclic_eval import RouteEvaluator


class ConcurrentMutationError(RuntimeError):
    """An open answer stream observed a database mutation.

    Raised by the generators returned from :meth:`QueryService.stream` when
    the database's mutation epoch changed between pulls: the stream's scans
    and partitions reflect the epoch it was opened at, so continuing would
    interleave pre- and post-mutation answers.  Re-submit the query to
    stream against the current state.
    """


#: Existential-variable count up to which canonicalisation searches all
#: permutations for the lexicographically minimal relabelling (6! = 720
#: candidates).  Above it a deterministic name-ordered relabelling is used:
#: still sound (equal canonical forms are isomorphic) but it may miss
#: sharing between variants that differ in variable naming order.
CANONICAL_PERMUTE_LIMIT = 6


def canonical_form(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """A canonical representative of ``query``'s variable-isomorphism class.

    Head variables are relabelled ``_h0, _h1, ...`` in order of first head
    occurrence — head *positions* are untouched, so the canonical query's
    answer tuples equal the original's positionally.  Existential variables
    are relabelled ``_e0, _e1, ...`` by exhaustive permutation search
    minimising the sorted body-atom strings (up to
    :data:`CANONICAL_PERMUTE_LIMIT` existential variables; a deterministic
    fallback beyond).  Constants are left untouched here; the service lifts
    the ones Σ does not name to placeholder parameters *before* calling
    this (:func:`query_shape`, :func:`lift_constants`), so the anchors of a
    query do not split its class.

    Two queries that are variable-renamings of each other map to *equal*
    canonical forms (below the permutation limit), which is exactly the
    granularity of the service's plan cache; combined with
    :func:`~repro.queries.core_minimization.core` this collapses whole
    core-isomorphism classes onto one cache entry.
    """
    head_mapping: Dict[Term, Term] = {}
    for variable in query.head:
        if variable not in head_mapping:
            head_mapping[variable] = Variable(f"_h{len(head_mapping)}")
    existential = sorted(
        (v for v in query.variables() if v not in head_mapping), key=str
    )
    if len(existential) <= CANONICAL_PERMUTE_LIMIT:
        best_key: Optional[Tuple[str, ...]] = None
        best: Optional[ConjunctiveQuery] = None
        for permutation in itertools.permutations(range(len(existential))):
            mapping = dict(head_mapping)
            for variable, index in zip(existential, permutation):
                mapping[variable] = Variable(f"_e{index}")
            candidate = query.apply(mapping, name=query.name)
            key = tuple(sorted(str(atom) for atom in candidate.body))
            if best_key is None or key < best_key:
                best_key, best = key, candidate
        assert best is not None  # permutations() yields >= 1 candidate
        return best
    mapping = dict(head_mapping)
    for index, variable in enumerate(existential):
        mapping[variable] = Variable(f"_e{index}")
    return query.apply(mapping, name=query.name)


#: Entries kept by the plan cache and by the pre-key memo in front of it;
#: past it the oldest entry is forgotten.
PLAN_CACHE_LIMIT = 1024


def parameter(index: int) -> Constant:
    """The placeholder constant standing for parameter ``index`` of a shape.

    Follows the ``("__frozen__", name)`` idiom of
    :func:`repro.datamodel.terms.freeze_variable`: the parser only makes
    ``int``/``str`` constant names, so a placeholder never collides with a
    data constant or with a constant named in Σ.
    """
    return Constant(("__param__", index))


#: A request's structural pre-key: head and body with variables renamed to
#: first-occurrence numbers and lifted constants to placeholders, plus the
#: routing inputs (tgds and the forced engine).
PreKey = Tuple[tuple, tuple, Tuple[TGD, ...], str]


def query_shape(
    query: ConjunctiveQuery, tgds: Tuple[TGD, ...] = (), engine: str = "auto"
) -> Tuple[PreKey, Dict[Term, Term]]:
    """One linear pass: the request's pre-key and its parameter binding.

    Variables become their first-occurrence number (head first, then the
    body in order).  Each constant that no tgd names becomes
    :func:`parameter` ``i``, numbered by first occurrence, so equal
    constants share an index and the equality pattern is kept; constants
    named in ``tgds`` stay literal.  The binding maps each placeholder back
    to the request's constant — the run state a shared plan executes with.

    Equal pre-keys mean the two queries are isomorphic under a variable
    renaming and an injective renaming of the lifted constants that keeps
    head positions, so they can share one plan.
    """
    literal = {
        term
        for tgd in tgds
        for atom in tgd.body + tgd.head
        for term in atom.terms
        if isinstance(term, Constant)
    }
    slots: Dict[Term, object] = {}
    params: Dict[Term, Term] = {}
    for variable in query.head:
        if variable not in slots:
            slots[variable] = len(slots)
    body = []
    for atom in query.body:
        terms = []
        for term in atom.terms:
            slot = slots.get(term)
            if slot is None:
                if isinstance(term, Variable):
                    slot = len(slots)
                elif term in literal:
                    slot = term
                else:
                    placeholder = parameter(len(params))
                    params[placeholder] = term
                    slot = placeholder
                slots[term] = slot
            terms.append(slot)
        body.append((atom.predicate, tuple(terms)))
    head = tuple(slots[variable] for variable in query.head)
    return (head, tuple(body), tgds, engine), params


def lift_constants(
    query: ConjunctiveQuery, params: Mapping[Term, Term]
) -> ConjunctiveQuery:
    """``query`` with each bound constant replaced by its placeholder."""
    return query.apply({value: placeholder for placeholder, value in params.items()})


#: A plan-cache key: the canonical core's head and body, plus the routing
#: inputs that shape the plan (tgds and the forced engine).
PlanKey = Tuple[
    Tuple[Variable, ...], frozenset, Tuple[TGD, ...], str
]


class BoundScans:
    """One request's scan provider: the shared cache with the anchors bound.

    A cached plan scans the lifted query's atoms, whose anchors are
    placeholders (:func:`parameter`).  :meth:`scan` maps the placeholder
    constants of each scan's compiled pattern through this request's
    binding (:meth:`~repro.evaluation.relation.ScanPattern.bound`) and
    reads the bound pattern from the shared
    :class:`~repro.evaluation.batch.ScanCache`, so one compiled plan serves
    every anchor of its shape, no placeholder reaches the encoder and
    nothing is compiled per request.
    ``encoder`` is the cache's own, so encodings stay shared, and base
    relations (which carry no anchors) come straight from the cache.
    """

    __slots__ = ("scans", "params", "encoder")

    def __init__(self, scans: ScanCache, params: Mapping[Term, Term]) -> None:
        self.scans = scans
        self.params = params
        self.encoder = scans.encoder

    def scan(self, target: ScanTarget, database: Optional[Instance] = None) -> EncodedRelation:
        pattern = target if isinstance(target, ScanPattern) else compile_scan_pattern(target)
        return self.scans.scan(pattern.bound(self.params), database)

    def base_relation(self, predicate: Predicate) -> Relation:
        return self.scans.base_relation(predicate)


def _remember(table: Dict, key: object, value: object) -> None:
    """Insert into a bounded cache, forgetting the oldest entry when full."""
    if key not in table and len(table) >= PLAN_CACHE_LIMIT:
        del table[next(iter(table))]
    table[key] = value


@dataclass
class _PlanEntry:
    """One cached route: the canonical lifted core plus its compiled evaluator."""

    kind: str
    evaluator: "RouteEvaluator"
    query: ConjunctiveQuery  # the canonical lifted core the route was compiled for
    planned_epoch: int
    planned_size: int


class QueryService:
    """A standing evaluation service over one mutable database.

    See the module docstring for the design; the public surface is
    :meth:`submit` (materialised answers), :meth:`stream` (epoch-guarded
    generator with per-client ``limit=`` backpressure), :meth:`insert` /
    :meth:`delete` (the write path), and :meth:`verify` (SVC diagnostics).
    The counters ``plan_hits``/``plan_misses``/``replans``/``writes`` — and
    the scan cache's own counters — make the amortisation observable.
    """

    def __init__(self, database: Instance, *, replan_drift: float = 0.3) -> None:
        self.database = database
        #: Cached scans/partitions/encodings, kept fresh across writes by
        #: journal replay + in-place delta merges.
        self.scans = ScanCache(database)
        #: Relative database-size drift past which a cached plan is
        #: re-planned on next use (0.3 = 30%).
        self.replan_drift = replan_drift
        # Plan-cache and pre-key-memo guard: submits from concurrent client
        # threads route through one consistent cache.
        self._plan_lock = threading.RLock()
        # Reader-writer exclusion for materialised reads (see
        # :meth:`insert`): a mutation blocks new submits, waits for running
        # ones to finish, then mutates and bumps the epoch — readers never
        # observe a half-applied write, and open *streams* keep their own
        # epoch guard.  ``_writers`` counts pending-or-active writers (new
        # readers wait while it is non-zero, so writers cannot starve);
        # ``_writing`` serialises the writers themselves.
        self._idle_lock = threading.Lock()
        self._idle = threading.Condition(self._idle_lock)
        self._in_flight = 0
        self._writers = 0
        self._writing = False
        # Both bounded by PLAN_CACHE_LIMIT, oldest first.
        self._plans: Dict[PlanKey, _PlanEntry] = {}
        # Memo from a request's pre-key (see query_shape) to its plan key,
        # so every renamed or re-anchored repeat of a seen shape skips core
        # minimisation and canonicalisation entirely.
        self._shapes: Dict[PreKey, PlanKey] = {}
        #: Requests answered from a cached plan entry.
        self.plan_hits = 0
        #: Requests that routed + compiled a fresh plan entry.
        self.plan_misses = 0
        #: Cached entries discarded for statistics drift.
        self.replans = 0
        #: Effective database writes through :meth:`insert`/:meth:`delete`.
        self.writes = 0

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    def _drifted(self, entry: _PlanEntry, size: int) -> bool:
        return abs(size - entry.planned_size) > self.replan_drift * max(
            entry.planned_size, 1
        )

    def _entry(
        self, query: ConjunctiveQuery, tgds: Tuple[TGD, ...], engine: str
    ) -> Tuple[_PlanEntry, Dict[Term, Term]]:
        """The request's cached plan entry plus its parameter binding."""
        shape, params = query_shape(query, tgds, engine)
        with self._plan_lock:
            return self._entry_locked(query, shape, params), params

    def _entry_locked(
        self, query: ConjunctiveQuery, shape: PreKey, params: Dict[Term, Term]
    ) -> _PlanEntry:
        _, _, tgds, engine = shape
        key = self._shapes.get(shape)
        canonical = None  # only needed on a miss
        if key is None:
            canonical = canonical_form(core(lift_constants(query, params)))
            key = (canonical.head, frozenset(canonical.body), tgds, engine)
            _remember(self._shapes, shape, key)
        entry = self._plans.get(key)
        size = len(self.database)
        if entry is not None and self._drifted(entry, size):
            del self._plans[key]
            self.replans += 1
            entry = None
        if entry is not None:
            self.plan_hits += 1
            return entry
        from .evaluation.semacyclic_eval import resolve_route

        if canonical is None:
            canonical = canonical_form(core(lift_constants(query, params)))
        kind, evaluator = resolve_route(canonical, tgds=tgds, engine=engine)
        entry = _PlanEntry(
            kind,
            evaluator,
            canonical,
            getattr(self.database, "mutation_epoch", 0),
            size,
        )
        _remember(self._plans, key, entry)
        self.plan_misses += 1
        return entry

    def _scans_for(self, params: Mapping[Term, Term]) -> ScanProvider:
        """The scan provider of one request: its anchors bound, if it has any."""
        return BoundScans(self.scans, params) if params else self.scans

    # ------------------------------------------------------------------
    # Reader-writer exclusion (writes block new reads, then drain old ones)
    # ------------------------------------------------------------------
    def _begin_read(self) -> None:
        """Reader side: register a materialised submit as in flight.

        Waits out pending and active writers — without that gate a submit
        could slip in between a writer's drain and its mutation and scan
        concurrently with the write (check-then-act), caching scans whose
        epoch stamp disagrees with the rows actually read.  Pair every call
        with :meth:`_end_read` in a ``finally``.
        """
        with self._idle_lock:
            while self._writers:
                self._idle.wait()
            self._in_flight += 1

    def _end_read(self) -> None:
        """Reader side: the submit finished; wake the writers it held up."""
        with self._idle_lock:
            self._in_flight -= 1
            if not self._in_flight and self._writers:
                self._idle.notify_all()

    @contextmanager
    def _write_barrier(self):
        """Writer side: exclusive access for one mutation.

        Announces the writer first (blocking *new* readers), waits until the
        in-flight readers have finished and no other writer is mutating,
        then holds exclusivity for the body — a real reader-writer lock, not
        a check-then-act drain.  Readers and queued writers are released on
        exit.
        """
        with self._idle:
            self._writers += 1
            while self._in_flight or self._writing:
                self._idle.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._idle:
                self._writing = False
                self._writers -= 1
                self._idle.notify_all()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: ConjunctiveQuery,
        *,
        tgds: Sequence[TGD] = (),
        engine: str = "auto",
    ) -> Set[Tuple[Term, ...]]:
        """The full answer set of ``query`` over the current database state.

        Routed through the plan cache (the canonical lifted core's cached
        evaluator answers for every isomorphic variant and every anchor of
        the shape, with this request's constants bound as run state —
        answer tuples are positional, so they transfer verbatim) and the
        shared scan cache (mutations since the last request are absorbed
        incrementally before the scans are served).  Writes arriving while
        the submit runs wait for it (see :meth:`insert`).
        """
        entry, params = self._entry(query, tuple(tgds), engine)
        scans = self._scans_for(params)
        self._begin_read()
        try:
            return entry.evaluator.evaluate(self.database, scans=scans)
        finally:
            self._end_read()

    def stream(
        self,
        query: ConjunctiveQuery,
        *,
        tgds: Sequence[TGD] = (),
        engine: str = "auto",
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[Term, ...]]:
        """Stream distinct answers with an epoch guard and ``limit=`` cap.

        The returned generator checks the database's mutation epoch before
        every pull and raises :class:`ConcurrentMutationError` if a write
        landed since the stream was opened — a client holding a stale
        half-consumed stream fails loudly instead of silently mixing
        pre- and post-mutation answers.  ``limit`` is the per-client
        backpressure knob: at most that many answers are ever computed.
        """
        entry, params = self._entry(query, tuple(tgds), engine)
        inner = entry.evaluator.iter_answers(
            self.database, scans=self._scans_for(params), limit=limit
        )
        opened = getattr(self.database, "mutation_epoch", 0)
        return self._guarded(inner, opened)

    def _guarded(
        self, inner: Iterator[Tuple[Term, ...]], opened: int
    ) -> Iterator[Tuple[Term, ...]]:
        while True:
            current = getattr(self.database, "mutation_epoch", 0)
            if current != opened:
                raise ConcurrentMutationError(
                    f"database mutated (epoch {opened} -> {current}) while "
                    "an answer stream was open; re-submit the query to "
                    "stream answers over the current state"
                )
            try:
                answer = next(inner)
            except StopIteration:
                return
            yield answer

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def insert(self, atom: Atom) -> bool:
        """Add ``atom``; return whether it was new.  Epoch-bumping write.

        Runs under the write barrier (:meth:`_write_barrier`): new
        materialised submits are blocked, in-flight ones drained, and the
        mutation applied under exclusivity — so a concurrent client's submit
        never reads around a half-applied write; open streams are
        left to their own epoch guard, which fails them loudly on the next
        pull.
        """
        with self._write_barrier():
            added = self.database.add(atom)
            if added:
                self.writes += 1
        return added

    def delete(self, atom: Atom) -> bool:
        """Remove ``atom``; return whether it was present.  Epoch-bumping.

        Runs under the write barrier, like :meth:`insert`.
        """
        with self._write_barrier():
            removed = self.database.discard(atom)
            if removed:
                self.writes += 1
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """A snapshot of the service and scan-cache counters (for the CLI)."""
        return {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "replans": self.replans,
            "writes": self.writes,
            "scans_served": self.scans.served,
            "scans_built": self.scans.built,
            "delta_merges": self.scans.delta_merges,
            "full_rebuilds": self.scans.full_rebuilds,
            "cached_scans": self.scans.cached_scans(),
        }

    def verify(self) -> List[Diagnostic]:
        """Audit the service's cache invariants (SVC001/SVC002).

        SVC001 (ERROR): a cached base relation's epoch stamp disagrees with
        the scan cache's synced epoch without a pending delta to close the
        gap — the stale-answer condition the epoch machinery must make
        impossible.
        SVC002 (WARNING): a cached plan's planning-time statistics drifted
        past ``replan_drift`` (it will be re-planned on next use).
        """
        self.scans.sync()
        diagnostics: List[Diagnostic] = []
        for predicate, stamp, expected in self.scans.verify_epochs():
            diagnostics.append(
                Diagnostic(
                    "SVC001",
                    Severity.ERROR,
                    f"cached scan over {predicate.name} is stamped with "
                    f"epoch {stamp} but the cache is synced at {expected} "
                    "with no pending delta",
                    subject=f"scan:{predicate.name}",
                )
            )
        size = len(self.database)
        for entry in self._plans.values():
            if self._drifted(entry, size):
                diagnostics.append(
                    Diagnostic(
                        "SVC002",
                        Severity.WARNING,
                        f"plan for {entry.query.name} was planned at database "
                        f"size {entry.planned_size}, size is now {size} "
                        f"(drift threshold {self.replan_drift:.0%}); it will "
                        "be re-planned on next use",
                        subject=f"plan:{entry.query.name}",
                    )
                )
        return diagnostics

