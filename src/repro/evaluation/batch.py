"""The scan layer: one scan cache per database, shared by every query over it.

The serving-path scenario of the ROADMAP — many users issuing many CQs over
one shared database — repeats an enormous amount of phase-1 work when the
queries are evaluated one at a time: every evaluator call re-scans each body
atom's relation and re-encodes it.  Across a batch of queries over
overlapping predicates those scans are overwhelmingly identical.

:class:`ScanCache` amortises them; it is the one scan path of the engine.
It caches exactly one base :class:`Relation` per predicate — its rows, its
partitions and its dictionary-encoded store with the store's key indexes —
and serves every atom over that predicate from it.  An atom with only
distinct variables is an ``O(1)`` schema view of the base store; an atom
with constants or repeated variables is a lookup in the base store's cached
key index on the pinned positions, filtered by the repeated-variable
equalities and gathered into a one-shot store (Durand–Grandjean's RAM
model, where an anchored atom is an index lookup, not a relation of its
own).  Every execution context reads its scans through a cache: an
injected one, or one built for the run.

The batch entry point is
:func:`repro.evaluation.semacyclic_eval.evaluate_batch`, which runs every
query's route over one cache; the benchmark
``benchmarks/bench_batch_eval.py`` measures the amortisation on the
shared-predicate workload of
:func:`repro.workloads.generators.shared_predicate_batch_workload`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datamodel import Instance, Predicate, Variable
from .encoding import EncodedRelation, TermEncoder
from .relation import (
    Relation,
    Row,
    ScanPattern,
    ScanTarget,
    compile_scan_pattern,
)


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
        ``O(facts + encoded terms)``: the live terms come from one pass over
        the facts, so the sweep builds no per-term index.  Bumps
        ``dead_code_sweeps``.
        """
        self.dead_code_sweeps += 1
        return self.encoder.dead_codes({term for atom in self.database for term in atom.terms})

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
            elif self._pending:
                self._absorb(predicate, relation)
            return relation

    def scan(self, target: ScanTarget, database: Optional[Instance] = None) -> EncodedRelation:
        """The encoded relation of an atom over the cache's database.

        ``target`` is the atom, or its compiled :class:`ScanPattern` (what
        a ``Scan`` operator passes, so a cached plan compiles nothing per
        request).  The schema lists the atom's variables in order of first
        occurrence; constants and repeated variables act as selections.
        Cost: ``O(arity)`` for an atom with only distinct variables,
        ``O(bucket)`` for an anchored one (see the class docstring), plus —
        only on the first access after database mutations — the
        :meth:`sync` journal replay and an ``O(delta)`` merge.  Every
        served store carries the epoch of the base store it was read from.

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
        pattern = target if isinstance(target, ScanPattern) else compile_scan_pattern(target)
        with self._lock:
            base = self.base_relation(pattern.predicate).encoded(self.encoder)
            self.served += 1
        if not pattern.constant_checks and not pattern.equality_checks:
            return base.with_schema(pattern.variables)
        found = base.take(
            self._matching_rows(base, pattern), pattern.variables, pattern.output_positions
        )
        found.store.epoch = base.store.epoch
        return found

    def _matching_rows(self, base: EncodedRelation, pattern: ScanPattern) -> Sequence[int]:
        """The row ids of ``base`` passing ``pattern``'s selections, ascending.

        Constants select one bucket of the base store's key index on the
        pinned positions; repeated variables filter that bucket (or every
        row, without constants).  A bucket is returned only to be gathered
        from, never kept or changed: it belongs to the cached index.
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
        if not pattern.equality_checks:
            return rows
        columns = base.store.columns
        return [
            row
            for row in rows
            if all(columns[p][row] == columns[first][row] for p, first in pattern.equality_checks)
        ]
