"""Batched multi-query evaluation over one scan cache per database.

The serving-path scenario of the ROADMAP — many users issuing many CQs over
one shared database — repeats an enormous amount of phase-1 work when the
queries are evaluated one at a time: every evaluator call re-scans each body
atom's relation and re-encodes it.  Across a batch of queries over
overlapping predicates those scans are overwhelmingly identical.

This module amortises them:

* :class:`ScanCache` is the one scan path of the engine.  It caches exactly
  one base :class:`Relation` per predicate — its rows, its partitions and
  its dictionary-encoded store with the store's key indexes — and serves
  every atom over that predicate from it.  An atom with only distinct
  variables is an ``O(1)`` schema view of the base store; an atom with
  constants or repeated variables is a lookup in the base store's cached
  key index on the pinned positions, filtered by the repeated-variable
  equalities and gathered into a one-shot store (Durand–Grandjean's RAM
  model, where an anchored atom is an index lookup, not a relation of its
  own).  Every execution context reads its scans through a cache: an
  injected one, or one built for the run.

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
)

from ..datamodel import Atom, Instance, Predicate, Term, Variable
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from .encoding import EncodedRelation, TermEncoder
from .join_plans import (
    evaluate_with_plan,
    explain_plan,
    iter_with_plan,
    resolve_planner,
)
from .relation import Relation, Row, ScanPattern, ScanProvider, compile_scan_pattern
from .yannakakis import YannakakisEvaluator


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


class ScanCache:
    """The scans of one database: one cached base relation per predicate.

    One cache is bound to one :class:`Instance`.  The first request for a
    predicate pays one ``O(|R|)`` pass that builds its *base* relation
    (every position a distinct variable); the first scan through the
    cache encodes it under the cache's :class:`TermEncoder` into a
    long-lived column store, cached on the relation
    (:meth:`Relation.encoded`).  :meth:`scan` then serves every atom over
    the predicate from that store:

    * only distinct variables: an ``O(arity)`` schema view of the store;
    * constants or repeated variables: the bucket of the store's cached key
      index on the pinned positions (one ``O(|R|)`` index build per pinned
      position set, then ``O(1)`` per anchor), filtered by the
      repeated-variable equalities and gathered into a one-shot store —
      ``O(bucket)``, with no cache entry of its own.  A constant the
      encoder has never seen scans empty without growing the encoder.

    Served stores share their caches across queries, so the key indexes
    and partitions one query builds on a base store serve the rest of the
    batch.  The counters ``served``/``built`` make the amortisation
    observable for tests and benchmarks; ``built`` counts base builds, at
    most one per predicate between full rebuilds.

    The cache is *epoch-aware*: it tracks the bound database's
    :attr:`~repro.datamodel.instance.Instance.mutation_epoch` and, instead
    of going stale (or being thrown away) when the database mutates, it
    absorbs the mutations incrementally:

    * **Replay by predicate.** :meth:`sync` appends each journal entry to
      its predicate's *pending delta*, in journal order, and re-stamps the
      base relations no entry touched: ``O(journal + predicates)``, however
      many anchors were ever read.
    * **Lazy merge.** The first access to a base relation after a mutation
      merges its pending delta into the cached rows and partitions in
      place (:meth:`Relation.apply_delta`, ``O(delta)``), re-stamps it with
      the current epoch, and counts a ``delta_merges``.  A deleted row's
      slot is refilled from the tail (swap-on-delete), so only ``O(delta)``
      rows move.
    * **Carried indexes.** The encoded store is carried forward by the same
      merge: a new store encodes only the delta and inherits every key
      index of the old one, patched bucket by bucket.  Readers still
      holding the old store keep a consistent snapshot, because neither
      the old store nor its indexes are touched.

    Only when the journal window was trimmed away does the cache fall back
    to dropping everything (``full_rebuilds``).  The :class:`TermEncoder`
    is append-only throughout — which is what keeps the carried-forward
    codes valid: deletions may strand term codes, which is harmless for
    correctness and auditable via :meth:`dead_codes`.
    """

    def __init__(self, database: Instance) -> None:
        self.database = database
        #: Serialises :meth:`scan` and :meth:`base_relation` (sync, base
        #: builds, delta merges) so client threads can share one cache.
        #: Reentrant because :meth:`scan` reads through :meth:`base_relation`.
        self._lock = threading.RLock()
        #: The dictionary encoder every served store is encoded under.
        #: Owned here so encodings — like scans and partitions — amortise
        #: across every evaluation sharing the cache (``ExecutionContext``
        #: picks it up from its scan provider).  Append-only across
        #: mutations: deleted facts never retract codes (see
        #: :meth:`dead_codes`).
        self.encoder = TermEncoder()
        # Epoch the cached relations reflect.  Every entry point calls
        # sync(), which is O(1) while the database is unchanged.
        self._synced_epoch = getattr(database, "mutation_epoch", 0)
        self._bases: Dict[Predicate, Relation] = {}
        #: Journal entries awaiting their merge, per predicate:
        #: ``(added, fact terms)`` in journal order.  Invariant (checked by
        #: :meth:`verify_epochs`): a base relation is stamped with an epoch
        #: older than ``_synced_epoch`` iff its pending delta is here.
        self._pending: Dict[Predicate, List[Tuple[bool, Row]]] = {}
        #: Scan requests answered.
        self.served = 0
        #: Base relations built (one full pass over a predicate's facts).
        self.built = 0
        #: Base relations brought up to date by an in-place delta merge.
        self.delta_merges = 0
        #: Wholesale cache drops (journal window trimmed away).
        self.full_rebuilds = 0
        #: Dead-code audit sweeps run (see :meth:`dead_codes`).
        self.dead_code_sweeps = 0

    # ------------------------------------------------------------------
    # Epoch synchronisation
    # ------------------------------------------------------------------
    def current_epoch(self) -> int:
        """The database mutation epoch the cached relations reflect."""
        return self._synced_epoch

    def sync(self) -> None:
        """Bring the cache's view of the database up to the current epoch.

        ``O(1)`` when the database did not mutate since the last call.
        Otherwise the database journal since the last synced epoch is
        replayed: each mutated fact of a cached predicate is queued in that
        predicate's pending delta (merged lazily, on the predicate's next
        read), and every other base relation is re-stamped — ``O(journal
        + predicates)``.  If the journal window was trimmed away (more
        than :attr:`~repro.datamodel.instance.Instance.JOURNAL_LIMIT`
        mutations behind), the cache drops every relation and rebuilds on
        demand.
        """
        current = getattr(self.database, "mutation_epoch", 0)
        if current == self._synced_epoch:
            return
        journal_since = getattr(self.database, "journal_since", None)
        journal = journal_since(self._synced_epoch) if journal_since else None
        if journal is None:
            self._bases.clear()
            self._pending.clear()
            self.full_rebuilds += 1
            self._synced_epoch = current
            return
        for added, fact in journal:
            if fact.predicate in self._bases:
                self._pending.setdefault(fact.predicate, []).append((added, fact.terms))
        for predicate, relation in self._bases.items():
            if predicate not in self._pending:
                relation.stamp_epoch(current)
        self._synced_epoch = current

    def _absorb(self, predicate: Predicate, relation: Relation) -> None:
        """Merge ``predicate``'s pending delta into its base relation.

        The pending entries are normalised to net inserted/deleted row sets
        first.  This is sound because the journal is *effective*: the
        entries for one fact alternate add/remove.
        """
        pending = self._pending.pop(predicate, None)
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

    def verify_epochs(self) -> List[Tuple[Predicate, Optional[int], int]]:
        """Audit the epoch stamps of every base relation (for the verifier).

        Returns ``(predicate, stamped epoch, expected epoch)`` for every
        base relation violating the sync invariant: a stamp *ahead* of the
        synced epoch, or a stamp behind it without a pending delta to close
        the gap.  Empty on a healthy cache.
        """
        issues: List[Tuple[Predicate, Optional[int], int]] = []
        for predicate, relation in self._bases.items():
            stamp = relation.stamped_epoch()
            if stamp == self._synced_epoch:
                continue
            if stamp is None or stamp > self._synced_epoch or predicate not in self._pending:
                issues.append((predicate, stamp, self._synced_epoch))
        return issues

    def cached_scans(self) -> int:
        """The number of cached base relations (one per predicate read)."""
        return len(self._bases)

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
    def base_relation(self, predicate: Predicate) -> Relation:
        """The current relation of ``predicate``, every position a variable.

        Built by one ``O(|R|)`` pass on first request and cached; after
        database mutations, the first request merges the pending delta
        (``O(delta)``).  The cost model's statistics read this relation,
        so planning and execution see the same rows.
        """
        with self._lock:
            self.sync()
            relation = self._bases.get(predicate)
            if relation is None:
                schema = [Variable(f"_s{i}") for i in range(predicate.arity)]
                rows = [fact.terms for fact in self.database.atoms_with_predicate(predicate)]
                relation = Relation(schema, rows)
                relation.stamp_epoch(self._synced_epoch)
                self._bases[predicate] = relation
                self.built += 1
            else:
                self._absorb(predicate, relation)
            return relation

    def scan(self, atom: Atom, database: Optional[Instance] = None) -> EncodedRelation:
        """The encoded relation of ``atom`` over the cache's database.

        Its schema lists the atom's variables in order of first occurrence;
        constants and repeated variables act as selections.  Cost:
        ``O(arity)`` for an atom with only distinct variables, ``O(bucket)``
        for an anchored one (see the class docstring), plus — only on the
        first access after database mutations — the :meth:`sync` journal
        replay and an ``O(delta)`` merge.  Every served store carries the
        epoch of the base store it was read from.

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
        pattern = compile_scan_pattern(atom.terms)
        with self._lock:
            base = self.base_relation(atom.predicate).encoded(self.encoder)
            self.served += 1
        variables: Sequence[Variable] = pattern.variables  # type: ignore[assignment]
        if not pattern.constant_checks and not pattern.equality_checks:
            return base.with_schema(variables)
        found = base.take(self._matching_rows(base, pattern), variables, pattern.output_positions)
        found.store.epoch = base.store.epoch
        return found

    def _matching_rows(self, base: EncodedRelation, pattern: ScanPattern) -> Sequence[int]:
        """The row ids of ``base`` passing ``pattern``'s selections, ascending.

        Constants select one bucket of the base store's key index on the
        pinned positions; repeated variables filter that bucket (or every
        row, without constants).  Bucket lists are copied, never returned:
        they belong to the cached index.
        """
        rows: Sequence[int] = range(len(base))
        if pattern.constant_checks:
            codes = self.encoder.codes
            key: List[int] = []
            for _, constant in pattern.constant_checks:
                code = codes.get(constant)
                if code is None:  # never encoded, so no stored fact has it
                    return []
                key.append(code)
            index = base.key_index(tuple(position for position, _ in pattern.constant_checks))
            rows = index.buckets.get(key[0] if len(key) == 1 else tuple(key), [])
        columns = base.store.columns
        return [
            row
            for row in rows
            if all(columns[p][row] == columns[first][row] for p, first in pattern.equality_checks)
        ]


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
    :class:`ScanCache`, so the batch pays each base scan, key index and
    partition once;
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
    ) -> Set[Tuple[Term, ...]]:
        kind, evaluator = route
        if evaluator is not None:  # "yannakakis" and "reformulated"
            return evaluator.evaluate(database, scans=scans)
        return evaluate_with_plan(query, database, scans=scans)

    def evaluate(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
    ) -> List[Set[Tuple[Term, ...]]]:
        """Return ``[q(D) for q in queries]`` with shared phase-1 work.

        A fresh :class:`ScanCache` for ``database`` is created unless
        ``scans`` supplies one (pass an explicit cache to amortise across
        *calls* as well, e.g. for a standing query batch over a database
        that did not change).  Data complexity: each predicate's base
        relation is scanned and encoded once, after which every acyclic (or reformulated)
        query adds its own linear semi-join/join cost and every plan-routed
        query its plan cost.

        The queries run one after another.  The shared cache is
        thread-safe (scans serialise on its lock), so client threads may
        call :meth:`evaluate` concurrently over one cache.
        """
        if scans is None:
            scans = ScanCache(database)
        return [
            self._evaluate_one(query, route, database, scans)
            for query, route in zip(self.queries, self._routes)
        ]

    def evaluate_iter(
        self,
        database: Instance,
        *,
        scans: Optional[ScanProvider] = None,
        limit: Optional[int] = None,
    ) -> List[Iterator[Tuple[Term, ...]]]:
        """Per-query answer *generators* over one shared :class:`ScanCache`.

        The streaming face of :meth:`evaluate`: the list is aligned with
        ``self.queries`` and each element lazily streams that query's
        distinct answers — Yannakakis' streaming phase 4 for the
        ``"yannakakis"``/``"reformulated"`` routes, the block-streamed final
        join for the ``"plan"`` route.  Nothing touches the database until a
        generator is pulled; the generators may be consumed in any order and
        interleaved, and they all draw their phase-1 scans from the same
        cache, so whichever generator first needs a predicate pays for its
        base scan and the rest reuse it.  ``limit`` applies per query.
        """
        if scans is None:
            scans = ScanCache(database)

        def stream_plan(query: ConjunctiveQuery) -> Iterator[Tuple[Term, ...]]:
            # Wrapped in a generator so even the *planning* (which scans
            # per-predicate cardinalities) waits for the first pull.
            yield from iter_with_plan(query, database, scans=scans, limit=limit)

        iterators: List[Iterator[Tuple[Term, ...]]] = []
        for query, (kind, evaluator) in zip(self.queries, self._routes):
            if evaluator is not None:  # "yannakakis" and "reformulated"
                iterators.append(
                    evaluator.iter_answers(database, scans=scans, limit=limit)
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
                    evaluator.explain(database, scans=scans, execute=execute)
                )
            else:
                plan = resolve_planner(None)(query, database, scans=scans)
                lines.append(
                    explain_plan(plan, database, scans=scans, execute=execute)
                )
            reports.append("\n".join(lines))
        return reports

    def evaluate_sequential(self, database: Instance) -> List[Set[Tuple[Term, ...]]]:
        """The per-query baseline: identical routing, no shared scans.

        Every query scans through a cache of its own, exactly as the
        one-query-at-a-time entry points do — this is the benchmark baseline and the differential
        oracle for :meth:`evaluate`.
        """
        return [
            self._evaluate_one(query, route, database, None)
            for query, route in zip(self.queries, self._routes)
        ]
