"""Batched multi-query evaluation with shared scans and partitions.

The serving-path scenario of the ROADMAP — many users issuing many CQs over
one shared database — repeats an enormous amount of phase-1 work when the
queries are evaluated one at a time: every evaluator call re-scans each body
atom's relation (:meth:`Relation.from_atom`) and rebuilds the hash
partitions the semi-joins and joins probe.  Across a batch of queries over
overlapping predicates those scans are overwhelmingly identical.

This module amortises them:

* :class:`ScanCache` is a per-database cache of base-atom scans keyed by the
  atom's *scan signature* — its predicate plus the pattern of constants and
  repeated variables over its positions.  Two atoms with the same signature
  (``R(x, y)`` and ``R(u, v)``; ``R(x, 3)`` and ``R(u, 3)``) denote the same
  relation up to variable naming, so the cache materialises it once and
  serves ``O(1)`` schema views of it.  Because views share the underlying
  partition cache (:meth:`Relation.with_schema`), the hash partitions built
  by one query's semi-joins are reused by every later query joining the same
  scan on the same columns.

* :class:`BatchEvaluator` routes each query of a batch to the cheapest
  applicable engine — Yannakakis for acyclic queries, Yannakakis on an
  acyclic reformulation (Proposition 24) when tgds make the query
  semantically acyclic, a greedy hash-join plan otherwise — and drives all
  of them against one shared :class:`ScanCache`.

The public batch entry point is
:func:`repro.evaluation.semacyclic_eval.evaluate_batch`; the benchmark
``benchmarks/bench_batch_eval.py`` measures the amortisation on the
shared-predicate workload of
:func:`repro.workloads.generators.shared_predicate_batch_workload`.
"""

from __future__ import annotations

import threading
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..datamodel import Atom, Constant, Instance, Predicate, Term, Variable
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from .encoding import TermEncoder
from .join_plans import (
    evaluate_with_plan,
    explain_plan,
    iter_with_plan,
    resolve_planner,
)
from .relation import Relation, Row, ScanPattern, ScanProvider, compile_scan_pattern
from .yannakakis import YannakakisEvaluator


#: One signature slot: a constant pinned at the position, or the index
#: (in first-occurrence order) of the distinct variable at the position.
SignatureSlot = Tuple[str, Union[Constant, int]]

#: A scan signature: the predicate plus one slot per position.
ScanSignature = Tuple[Predicate, Tuple[SignatureSlot, ...]]


class CacheBindingError(ValueError):
    """A scan was requested against an instance the cache is not bound to.

    A :class:`ScanCache` serves exactly one database.  Passing a *different*
    instance to :meth:`ScanCache.scan` is accepted only when it is provably
    fact-identical to the bound one (it shares the bound database's content
    token, as :meth:`repro.datamodel.instance.Instance.copy` arranges);
    anything else raises this error rather than silently serving another
    instance's rows.  Distinct from the generic :class:`ValueError` so
    callers holding copies can catch exactly the binding failure.
    """


def atom_signature(atom: Atom) -> Tuple[ScanSignature, Tuple[Variable, ...]]:
    """Return the scan signature of ``atom`` plus its distinct variables.

    The signature abstracts variable *names* away: each position carries
    either ``("c", constant)`` or ``("v", i)`` where ``i`` numbers the
    atom's distinct variables in first-occurrence order.  Two atoms have
    equal signatures iff they denote the same relation up to renaming, which
    is exactly the granularity at which scans can be shared.  ``O(arity)``.
    """
    slots: List[SignatureSlot] = []
    order: List[Variable] = []
    index: Dict[Variable, int] = {}
    for term in atom.terms:
        if isinstance(term, Variable):
            slot = index.get(term)
            if slot is None:
                slot = len(order)
                index[term] = slot
                order.append(term)
            slots.append(("v", slot))
        else:
            slots.append(("c", term))
    return (atom.predicate, tuple(slots)), tuple(order)


class ScanCache:
    """Shared phase-1 scans and hash partitions for one database.

    One cache is bound to one :class:`Instance`; :meth:`scan` then serves
    every base-atom relation a batch of evaluators needs:

    * first request for a predicate: one ``O(|R|)`` pass materialises the
      *base* relation (every position a distinct variable);
    * first request for a signature with constants: the base relation is
      hash-partitioned by the constant positions **once** (cached on the
      relation), after which *every* signature pinning those positions —
      e.g. the same atom anchored at each of many different constants —
      costs one ``O(1)`` bucket lookup plus work linear in the bucket,
      not in ``|R|``;
    * repeated request for a signature: ``O(arity)`` (an ``O(1)``-storage
      schema view of the cached relation).

    Served relations share row storage and partition caches across queries
    (see :meth:`Relation.with_schema`), so semi-join/join partitions built
    by one query are reused by the rest of the batch.  The counters
    ``served``/``built``/``base_scans`` make the amortisation observable for
    tests and benchmarks.

    The cache is *epoch-aware*: it tracks the bound database's
    :attr:`~repro.datamodel.instance.Instance.mutation_epoch` and, instead
    of going stale (or being thrown away) when the database mutates, it
    absorbs the mutations incrementally:

    * **Indexed replay.** :meth:`sync` replays the database's journal into
      per-signature *pending delta* lists, in journal order.  A registry
      maps predicate → pinned positions → pinned constants → signatures,
      so a written fact is matched only against the signatures anchored at
      its own constants, plus the unanchored ones — not against every
      cached signature.
    * **Lazy merge.** The first access to a cached scan after a mutation
      merges its pending delta into the cached rows and partitions in
      place (:meth:`Relation.apply_delta`, ``O(delta)``), re-stamps the
      relation with the current epoch, and counts a ``delta_merges``.  A
      deleted row's slot is refilled from the tail (swap-on-delete), so
      only ``O(delta)`` rows move.
    * **Carried indexes.** A cached encoded store is carried forward by
      the same merge: a new store encodes only the delta and inherits
      every key index of the old one, patched bucket by bucket.  Readers
      still holding the old store keep a consistent snapshot, because
      neither the old store nor its indexes are touched.

    Only when the journal window was trimmed away does the cache fall back
    to dropping everything (``full_rebuilds``).  The :class:`TermEncoder`
    is append-only throughout — which is what keeps the carried-forward
    codes valid: deletions may strand term codes, which is harmless for
    correctness and auditable via :meth:`dead_codes`.
    """

    def __init__(self, database: Instance) -> None:
        self.database = database
        #: Serialises :meth:`scan` (sync, materialisation, delta merges) so
        #: client threads can share one cache.  Reentrant because a miss
        #: materialises through :meth:`_base`.
        self._lock = threading.RLock()
        #: The dictionary encoder of the columnar backend.  Owned here so
        #: encodings — like scans and partitions — amortise across every
        #: evaluation sharing the cache (``ExecutionContext`` picks it up
        #: via the scan provider).  Append-only across mutations: deleted
        #: facts never retract codes (see :meth:`dead_codes`).
        self.encoder = TermEncoder()
        # Epoch the cached scans reflect.  Every entry point calls sync(),
        # which is O(1) while the database is unchanged and otherwise
        # replays the journal into per-signature pending deltas.
        self._synced_epoch = getattr(database, "mutation_epoch", 0)
        self._scans: Dict[ScanSignature, Relation] = {}
        #: Compiled match/project plans per cached signature, kept so journal
        #: replay can match each mutated fact against the signatures it hits.
        self._patterns: Dict[ScanSignature, ScanPattern] = {}
        #: Journal replay's routing table: predicate → pinned (constant)
        #: positions → the constants pinned there → cached signatures.  A
        #: written fact is matched only against the signatures whose anchor
        #: it carries (unanchored ones sit under the empty position tuple).
        self._anchors: Dict[
            Predicate, Dict[Tuple[int, ...], Dict[Tuple[Constant, ...], List[ScanSignature]]]
        ] = {}
        #: Projected journal entries awaiting their merge, per signature:
        #: ``(added, projected row)`` in journal order.  Invariant (checked
        #: by :meth:`verify_epochs`): a cached relation is stamped with an
        #: epoch older than ``_synced_epoch`` iff its pending delta is here.
        self._pending: Dict[ScanSignature, List[Tuple[bool, Row]]] = {}
        #: Scan requests answered (cache hits + misses).
        self.served = 0
        #: Distinct signatures materialised (cache misses).  Maintained by
        #: the build paths so base and derived builds are each counted once.
        self.built = 0
        #: Full passes over a predicate's facts (base-relation builds).
        self.base_scans = 0
        #: Cached scans brought up to date by an in-place delta merge.
        self.delta_merges = 0
        #: Wholesale cache drops (journal window trimmed away).
        self.full_rebuilds = 0
        #: Dead-code audit sweeps run (see :meth:`dead_codes`).
        self.dead_code_sweeps = 0

    # ------------------------------------------------------------------
    # Epoch synchronisation
    # ------------------------------------------------------------------
    def current_epoch(self) -> int:
        """The database mutation epoch the cached scans reflect."""
        return self._synced_epoch

    def sync(self) -> None:
        """Bring the cache's view of the database up to the current epoch.

        ``O(1)`` when the database did not mutate since the last call.
        Otherwise the database journal since the last synced epoch is
        replayed: each mutated fact is looked up in the anchor registry —
        one dict probe per pinned position set of its predicate — and
        matched only against the signatures whose constants it carries,
        plus the unanchored ones; the projected row is queued in each
        matching signature's pending delta (merged lazily, on the
        signature's next scan).  Every other cached scan is re-stamped.  If
        the journal window was trimmed away (more than
        :attr:`~repro.datamodel.instance.Instance.JOURNAL_LIMIT` mutations
        behind), the cache drops all scans and rebuilds on demand.
        """
        current = getattr(self.database, "mutation_epoch", 0)
        if current == self._synced_epoch:
            return
        journal_since = getattr(self.database, "journal_since", None)
        journal = journal_since(self._synced_epoch) if journal_since else None
        if journal is None:
            self._scans.clear()
            self._patterns.clear()
            self._anchors.clear()
            self._pending.clear()
            self.full_rebuilds += 1
            self._synced_epoch = current
            return
        # Identities, not signatures: re-stamping visits every cached scan,
        # and a signature (nested tuples) rehashes on every lookup.
        queued: Set[int] = set()
        for added, fact in journal:
            anchors = self._anchors.get(fact.predicate)
            if not anchors:
                continue
            terms = fact.terms
            for pinned, by_key in anchors.items():
                signatures = by_key.get(tuple(terms[position] for position in pinned))
                if not signatures:
                    continue
                for signature in signatures:
                    pattern = self._patterns[signature]
                    if pattern.matches(terms):
                        self._pending.setdefault(signature, []).append(
                            (added, pattern.project(terms))
                        )
                        queued.add(id(self._scans[signature]))
        for relation in self._scans.values():
            if id(relation) not in queued:
                relation.stamp_epoch(current)
        self._synced_epoch = current

    def _register(self, signature: ScanSignature, pattern: ScanPattern) -> None:
        """Enter a newly cached signature into the journal-replay registry."""
        self._patterns[signature] = pattern
        pinned = tuple(position for position, _ in pattern.constant_checks)
        key = tuple(constant for _, constant in pattern.constant_checks)
        self._anchors.setdefault(signature[0], {}).setdefault(pinned, {}).setdefault(
            key, []
        ).append(signature)

    def _absorb(self, signature: ScanSignature, relation: Relation) -> None:
        """Merge ``signature``'s pending delta into its cached relation.

        The pending entries are normalised to net inserted/deleted row sets
        first.  This is sound because the journal is *effective* (entries
        for one fact alternate add/remove) and the signature projection is
        injective on matching facts — constants and repeated positions are
        recoverable from the projected row — so the projected entries
        alternate exactly like the facts they came from.
        """
        pending = self._pending.pop(signature, None)
        if pending is None:
            return
        inserted: Set[Row] = set()
        deleted: Set[Row] = set()
        for added, row in pending:
            if added:
                if row in deleted:
                    deleted.discard(row)
                else:
                    inserted.add(row)
            else:
                if row in inserted:
                    inserted.discard(row)
                else:
                    deleted.add(row)
        relation.apply_delta(inserted, deleted)
        relation.stamp_epoch(self._synced_epoch)
        self.delta_merges += 1

    def verify_epochs(self) -> List[Tuple[ScanSignature, Optional[int], int]]:
        """Audit the epoch stamps of every cached scan (for the verifier).

        Returns ``(signature, stamped epoch, expected epoch)`` for every
        cached relation violating the sync invariant: a stamp *ahead* of the
        synced epoch, or a stamp behind it without a pending delta to close
        the gap.  Empty on a healthy cache.
        """
        issues: List[Tuple[ScanSignature, Optional[int], int]] = []
        for signature, relation in self._scans.items():
            stamp = relation.stamped_epoch()
            if stamp == self._synced_epoch:
                continue
            if stamp is None or stamp > self._synced_epoch or signature not in self._pending:
                issues.append((signature, stamp, self._synced_epoch))
        return issues

    def cached_scans(self) -> int:
        """The number of cached signatures (each anchor of a shape is one)."""
        return len(self._scans)

    def dead_codes(self) -> int:
        """Count encoder codes whose term left the database (audit sweep).

        The encoder is append-only — deletions strand codes rather than
        retracting them, keeping every cached encoded store valid — so this
        sweep exists to make the drift observable.  Terms encoded from query
        constants that never occurred in the database also count as dead.
        ``O(encoded terms)``; bumps ``dead_code_sweeps``.
        """
        self.dead_code_sweeps += 1
        return self.encoder.dead_codes(self.database.active_domain())

    # ------------------------------------------------------------------
    def scan(self, atom: Atom, database: Optional[Instance] = None) -> Relation:
        """The relation of ``atom`` over the cache's database.

        Amortised cost: ``O(arity)`` after the first request for the atom's
        signature (see the class docstring for the miss costs), plus — only
        on the first access after database mutations — the :meth:`sync`
        journal replay and an ``O(delta)`` merge.  Mutating the bound
        database between scans is fully supported; answers always reflect
        the database's current facts.

        Raises:
            CacheBindingError: if ``database`` is given and is neither the
                bound instance nor a fact-identical copy of it (one sharing
                the bound database's content token).
        """
        if database is not None and database is not self.database:
            ours = getattr(self.database, "content_token", None)
            theirs = getattr(database, "content_token", None)
            if ours is None or theirs is None or ours() is not theirs():
                raise CacheBindingError(
                    "this ScanCache is bound to a different database instance "
                    "(and the one passed is not a fact-identical copy of it); "
                    "build a ScanCache(database) for the instance you are "
                    "querying, or query through the cache's own database"
                )
        with self._lock:
            self.sync()
            self.served += 1
            signature, variables = atom_signature(atom)
            relation = self._scans.get(signature)
            if relation is None:
                relation = self._materialise(signature)
                self._scans[signature] = relation
            else:
                self._absorb(signature, relation)
            return relation.with_schema(variables)

    # ------------------------------------------------------------------
    def _base(self, predicate: Predicate) -> Relation:
        """The full relation of ``predicate`` (one cached ``O(|R|)`` pass)."""
        signature: ScanSignature = (
            predicate,
            tuple(("v", i) for i in range(predicate.arity)),
        )
        relation = self._scans.get(signature)
        if relation is None:
            schema = [Variable(f"_s{i}") for i in range(predicate.arity)]
            rows = [fact.terms for fact in self.database.atoms_with_predicate(predicate)]
            relation = Relation(schema, rows)
            relation.stamp_epoch(self._synced_epoch)
            self._scans[signature] = relation
            self._register(signature, compile_scan_pattern([value for _, value in signature[1]]))
            self.built += 1
            self.base_scans += 1
        else:
            # Derived signatures materialise from the base rows, so the base
            # must absorb its pending delta before anything reads it.
            self._absorb(signature, relation)
        return relation

    def _materialise(self, signature: ScanSignature) -> Relation:
        """Build the canonical relation of a non-base signature.

        The selection/projection plan comes from the same
        :func:`~repro.evaluation.relation.compile_scan_pattern` that
        :meth:`Relation.from_atom` uses (one source of truth for
        atom-matching semantics).  Constant selections go through a cached
        partition of the base relation (``O(|R|)`` the first time a position
        set is pinned, ``O(bucket)`` afterwards); repeated-variable
        equalities and the projection onto first occurrences are linear in
        the selected rows.
        """
        predicate, slots = signature
        base = self._base(predicate)
        if slots == tuple(("v", i) for i in range(predicate.arity)):
            return base
        self.built += 1

        # A slot is a Constant (selection) or a distinct-variable index;
        # feeding those indexes to the pattern compiler reproduces exactly
        # the variable-identity structure of the original atom.
        pattern = compile_scan_pattern([value for _, value in slots])

        # Constant selections are answered by a cached partition bucket
        # instead of pattern.matches' per-row constant comparisons.
        source: Sequence[Row] = base.rows
        if pattern.constant_checks:
            pinned = [base.schema[position] for position, _ in pattern.constant_checks]
            key = tuple(constant for _, constant in pattern.constant_checks)
            source = base.partition(pinned).get(key)

        rows: List[Row] = []
        for row in source:
            if any(row[position] != row[first] for position, first in pattern.equality_checks):
                continue
            rows.append(pattern.project(row))
        schema = [Variable(f"_s{i}") for i in range(len(pattern.output_positions))]
        relation = Relation(schema, rows)
        relation.stamp_epoch(self._synced_epoch)
        self._register(signature, pattern)
        return relation


class BatchEvaluator:
    """Evaluate a batch of CQs over one database with shared phase-1 work.

    Per query, the constructor picks a route (query-only work, paid once):

    * ``"yannakakis"`` — the query is acyclic: Yannakakis' four phases
      (linear data complexity);
    * ``"reformulated"`` — the query is cyclic but ``tgds`` admit an acyclic
      reformulation (Proposition 24): Yannakakis on the reformulation — the
      fpt route, sound on every database satisfying the tgds;
    * ``"decomposition"`` — the query is cyclic with no reformulation: the
      bags of a min-fill tree decomposition are materialised and Yannakakis
      runs over the bag tree (polynomial for fixed decomposition width);
    * ``"plan"`` — forced fallback (``engine="plan"``): a join plan picked
      by the default planner on the Relation engine (worst-case exponential
      in the query, as CQ evaluation must be).

    :meth:`evaluate` then drives every route against one shared
    :class:`ScanCache`, so the batch pays each distinct (predicate,
    constant-signature) scan and each distinct partition once;
    :meth:`evaluate_sequential` is the one-at-a-time baseline with identical
    routing, used by the differential tests and the benchmark.
    """

    def __init__(
        self,
        queries: Iterable[ConjunctiveQuery],
        *,
        tgds: Sequence[TGD] = (),
    ) -> None:
        self.queries: List[ConjunctiveQuery] = list(queries)
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        self._routes: List[Tuple[str, Optional[YannakakisEvaluator]]] = [
            self._route(query) for query in self.queries
        ]

    def _route(self, query: ConjunctiveQuery) -> Tuple[str, Optional[YannakakisEvaluator]]:
        # Shared routing (lazy import: semacyclic_eval imports this module).
        from .semacyclic_eval import resolve_route

        return resolve_route(query, tgds=self.tgds)

    def routes(self) -> List[str]:
        """The route chosen per query (aligned with ``self.queries``)."""
        return [kind for kind, _ in self._routes]

    def _evaluate_one(
        self,
        query: ConjunctiveQuery,
        route: Tuple[str, Optional[YannakakisEvaluator]],
        database: Instance,
        scans: Optional[ScanProvider],
        backend: Optional[str] = None,
    ) -> Set[Tuple[Term, ...]]:
        kind, evaluator = route
        if evaluator is not None:  # "yannakakis" and "reformulated"
            return evaluator.evaluate(database, scans=scans, backend=backend)
        return evaluate_with_plan(query, database, scans=scans, backend=backend)

    def evaluate(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
        backend: Optional[str] = None,
    ) -> List[Set[Tuple[Term, ...]]]:
        """Return ``[q(D) for q in queries]`` with shared phase-1 work.

        A fresh :class:`ScanCache` for ``database`` is created unless
        ``scans`` supplies one (pass an explicit cache to amortise across
        *calls* as well, e.g. for a standing query batch over a database
        that did not change).  Data complexity: each distinct scan signature
        is materialised once, after which every acyclic (or reformulated)
        query adds its own linear semi-join/join cost and every plan-routed
        query its plan cost.

        The queries run one after another.  The shared cache is
        thread-safe (scans serialise on its lock), so client threads may
        call :meth:`evaluate` concurrently over one cache.
        """
        if scans is None:
            scans = ScanCache(database)
        return [
            self._evaluate_one(query, route, database, scans, backend)
            for query, route in zip(self.queries, self._routes)
        ]

    def evaluate_iter(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
        limit: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> List[Iterator[Tuple[Term, ...]]]:
        """Per-query answer *generators* over one shared :class:`ScanCache`.

        The streaming face of :meth:`evaluate`: the list is aligned with
        ``self.queries`` and each element lazily streams that query's
        distinct answers — Yannakakis' streaming phase 4 for the
        ``"yannakakis"``/``"reformulated"`` routes, the block-streamed final
        join for the ``"plan"`` route.  Nothing touches the database until a
        generator is pulled; the generators may be consumed in any order and
        interleaved, and they all draw their phase-1 scans from the same
        cache, so whichever generator first needs a scan signature pays for
        it and the rest reuse it.  ``limit`` applies per query.
        """
        if scans is None:
            scans = ScanCache(database)

        def stream_plan(query: ConjunctiveQuery) -> Iterator[Tuple[Term, ...]]:
            # Wrapped in a generator so even the *planning* (which scans
            # per-predicate cardinalities) waits for the first pull.
            yield from iter_with_plan(
                query,
                database,
                scans=scans,
                limit=limit,
                backend=backend,
            )

        iterators: List[Iterator[Tuple[Term, ...]]] = []
        for query, (kind, evaluator) in zip(self.queries, self._routes):
            if evaluator is not None:  # "yannakakis" and "reformulated"
                iterators.append(
                    evaluator.iter_answers(
                        database,
                        scans=scans,
                        limit=limit,
                        backend=backend,
                    )
                )
            else:
                iterators.append(stream_plan(query))
        return iterators

    def explain(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
        execute: bool = True,
        backend: Optional[str] = None,
    ) -> List[str]:
        """Per-query ``EXPLAIN`` output over one shared :class:`ScanCache`.

        Aligned with ``self.queries``; each entry names the chosen route
        and renders the compiled operator plan with estimated vs. observed
        cardinalities (see :func:`repro.evaluation.semacyclic_eval
        .explain`, whose formatting this matches).  All plans draw their
        scans and statistics from one cache, so explaining a batch costs
        each distinct base scan once.
        """
        if scans is None:
            scans = ScanCache(database)
        reports: List[str] = []
        for query, (kind, evaluator) in zip(self.queries, self._routes):
            lines = [f"query: {query}", f"route: {kind}"]
            if evaluator is not None:  # "yannakakis" and "reformulated"
                if kind == "reformulated":
                    lines.append(f"reformulation: {evaluator.query}")
                lines.append(
                    evaluator.explain(
                        database,
                        scans=scans,
                        execute=execute,
                        backend=backend,
                    )
                )
            else:
                plan = resolve_planner(None)(query, database, scans=scans)
                lines.append(
                    explain_plan(
                        plan,
                        database,
                        scans=scans,
                        execute=execute,
                        backend=backend,
                    )
                )
            reports.append("\n".join(lines))
        return reports

    def evaluate_sequential(
        self,
        database: Instance,
        *,
        backend: Optional[str] = None,
    ) -> List[Set[Tuple[Term, ...]]]:
        """The per-query baseline: identical routing, no shared scans.

        Every query re-runs its own phase-1 scans via
        :meth:`Relation.from_atom`, exactly as the one-query-at-a-time entry
        points do — this is the benchmark baseline and the differential
        oracle for :meth:`evaluate`.
        """
        return [
            self._evaluate_one(query, route, database, None, backend=backend)
            for query, route in zip(self.queries, self._routes)
        ]
