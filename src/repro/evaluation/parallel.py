"""Vectorised numpy kernels for the batch face.

The operator IR's batch face (:meth:`Operator.materialize_encoded`) moves
dictionary-encoded column stores through ``Select``/``Project``/``Distinct``/
``SemiJoin``/``HashJoin`` kernels.  On numpy storage (``REPRO_NUMPY=1``)
each of those operators has one single-pass vectorised kernel here:

* :func:`parallel_join` / :func:`parallel_semijoin` — the build side is one
  stable-argsorted key array (cached per store), probed with
  ``searchsorted``;
* :func:`parallel_project` — dedup by ``unique(return_index=True)``, then a
  sort of the kept row indices;
* selection is :meth:`EncodedRelation.select_codes`, already one mask on
  numpy storage (:func:`parallel_select` only keeps the old name).

Each returns ``None`` when it does not apply — non-numpy storage, a probe
side below :data:`PARALLEL_MIN_ROWS` rows, or a multi-column key whose
packing would overflow ``int64`` — and the caller runs the
:class:`~repro.evaluation.encoding.EncodedRelation` loop kernel instead.
The function names are historical: nothing here runs on threads.

**Determinism.**  Answers are bit-identical to the loop kernels.  The
stable sort keeps each key's build rows in original row order — exactly
the bucket order of the serial :class:`~repro.evaluation.encoding.IntIndex`
— and join output is laid out probe row by probe row, so a join emits
"for each left row, its bucket in order" just like
:meth:`EncodedRelation.join_index`.  Dedup keeps global first occurrences
in row order.

**Accounting.**  A hash join adds ``len(probe side)`` probes through
:meth:`Partition.add_probes` (the loop kernel counts one ``IntIndex.get``
per probe row); a semi-join adds none (membership is uncounted on every
path), so the bounded-work assertions hold on either kernel.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..datamodel import Variable
from .encoding import EncodedRelation, _numpy_module
from .relation import Partition

#: Probe-side rows below which the vectorised kernels decline.  Zero: on
#: numpy storage they beat the loop kernels at every measured size (engine
#: time of the layered chain workload, 2-core x86_64, numpy 2.4: 1.2× at
#: |D| = 10, 1.8× at 200, 3.2× at 1k, 5.7× at 20k).  Tests and
#: ``benchmarks/bench_parallel_scaling.py`` raise it to force the loop
#: kernels.
PARALLEL_MIN_ROWS = 0


#: Cache-miss sentinel (``None`` is a legitimate cached value: a key
#: packing that would overflow ``int64`` declines permanently).
_ABSENT = object()


def _applicable(probe: EncodedRelation, *others: EncodedRelation) -> bool:
    return (
        len(probe) >= PARALLEL_MIN_ROWS
        and probe.store.use_numpy
        and all(other.store.use_numpy for other in others)
    )


def _pack_base(relation: EncodedRelation) -> int:
    """The mixed-radix base multi-column keys pack under *right now*.

    The shared :class:`~repro.evaluation.encoding.TermEncoder` is append-only
    and grows across queries (new query constants, absorbed inserts), so the
    base must be sampled **once per kernel call** and used for every operand
    of that call — two operands packed at different bases compare
    incompatible encodings.  Any base bounding every code is a bijection, so
    a bigger-than-necessary base is always sound.
    """
    return max(2, len(relation.encoder))


def _pack_token(positions: Tuple[int, ...], base: int) -> int:
    """The cache-key component tying packed keys (and their sorted build
    array) to the packing base.

    Multi-column packings are only comparable when produced at the same
    base, so their cache entries carry it: when the shared encoder has grown
    since a store's keys were cached, the stale entry misses and the keys
    are repacked at the current base.  Single-column keys are the raw column
    — base-independent — so they keep one cache entry (token ``0``) across
    encoder growth.
    """
    return base if len(positions) > 1 else 0


def _packed_keys(relation: EncodedRelation, positions: Tuple[int, ...], base: int):
    """The per-row join keys as one numpy ``int64`` array, or ``None``.

    Single-column keys are the column itself.  Multi-column keys are packed
    into one integer per row under the caller-supplied mixed-radix ``base``
    (codes are dense, so any base bounding every code makes the packing a
    bijection); when the packed key space would overflow ``int64`` the
    kernel declines and the loop kernel runs instead.

    Cached per store, like :meth:`EncodedRelation.key_index`: cached scans
    are re-probed on every query of a warm serving path, and the packing
    depends only on the (immutable) store contents plus the base — which is
    part of the cache key (:func:`_pack_token`), so entries packed before
    the shared encoder grew are never served at the new base.
    """
    cache_key = ("packed", positions, _pack_token(positions, base))
    cached = relation.store.caches.get(cache_key, _ABSENT)
    if cached is not _ABSENT:
        return cached
    numpy = _numpy_module()
    columns = [
        numpy.asarray(relation.store.columns[p], dtype=numpy.int64)  # type: ignore[union-attr]
        for p in positions
    ]
    packed = columns[0]
    if len(columns) > 1:
        if base ** len(columns) >= 2 ** 62:
            packed = None
        else:
            for column in columns[1:]:
                packed = packed * base + column
    relation.store.caches[cache_key] = packed
    return packed


def _sorted_build(relation: EncodedRelation, keys, positions: Tuple[int, ...], base: int):
    """The build side as (sorted keys, row permutation), cached per store.

    The argsort is stable, so within equal keys the permutation keeps the
    original build row order — the serial :class:`IntIndex` bucket order.
    A warm serving path re-probing the same cached scan sorts it once.
    """
    cache_key = ("sorted", positions, _pack_token(positions, base))
    cached = relation.store.caches.get(cache_key)
    if cached is None:
        numpy = _numpy_module()
        order = numpy.argsort(keys, kind="stable")  # type: ignore[union-attr]
        cached = (keys[order], order)
        relation.store.caches[cache_key] = cached
    return cached


def _probe_keys(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
):
    """Packed probe keys plus the sorted build side, or ``None`` (decline)."""
    base = _pack_base(left)
    left_keys = _packed_keys(left, left_key, base)
    right_keys = _packed_keys(right, right_key, base)
    if left_keys is None or right_keys is None:
        return None
    return left_keys, _sorted_build(right, right_keys, right_key, base)


def parallel_join(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
    residual_positions: Tuple[int, ...],
    schema: Sequence[Variable],
) -> Optional[EncodedRelation]:
    """The vectorised hash join, or ``None`` when the loop kernel should run.

    ``left`` is the probe side, ``right`` the build side; the output carries
    ``left``'s columns plus ``right``'s residual columns under ``schema``,
    in exactly the :meth:`EncodedRelation.join_index` row order.  Counts
    ``len(left)`` probes.
    """
    if not left_key or not _applicable(left, right):
        return None
    probed = _probe_keys(left, right, left_key, right_key)
    if probed is None:
        return None
    keys, (sorted_keys, permutation) = probed
    numpy = _numpy_module()
    lo = numpy.searchsorted(sorted_keys, keys, side="left")  # type: ignore[union-attr]
    counts = numpy.searchsorted(sorted_keys, keys, side="right") - lo  # type: ignore[union-attr]
    # Row i's matches are permutation[lo[i]:lo[i] + counts[i]], laid out
    # block by block in probe-row order: position-within-block plus the
    # block's left edge, all vectorised.
    probe_rows = numpy.repeat(numpy.arange(len(left)), counts)  # type: ignore[union-attr]
    block_starts = numpy.cumsum(counts) - counts  # type: ignore[union-attr]
    within = numpy.arange(len(probe_rows)) - block_starts[probe_rows]  # type: ignore[union-attr]
    build_rows = permutation[lo[probe_rows] + within]
    columns = [column[probe_rows] for column in left.store.columns]  # type: ignore[index]
    columns.extend(right.store.columns[p][build_rows] for p in residual_positions)  # type: ignore[index]
    Partition.add_probes(len(left))
    return left._derive(schema, columns, len(probe_rows))


def parallel_semijoin(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
) -> Optional[EncodedRelation]:
    """The vectorised semi-join ``left ⋉ right`` (membership uncounted)."""
    if not left_key or not _applicable(left, right):
        return None
    probed = _probe_keys(left, right, left_key, right_key)
    if probed is None:
        return None
    keys, (sorted_keys, _) = probed
    numpy = _numpy_module()
    if not len(sorted_keys):
        indices = numpy.empty(0, dtype=numpy.int64)  # type: ignore[union-attr]
    else:
        slots = numpy.searchsorted(sorted_keys, keys)  # type: ignore[union-attr]
        numpy.minimum(slots, len(sorted_keys) - 1, out=slots)  # type: ignore[union-attr]
        indices = numpy.nonzero(sorted_keys[slots] == keys)[0]  # type: ignore[union-attr]
    return left.take(indices)


def parallel_project(
    relation: EncodedRelation,
    schema: Sequence[Variable],
    positions: Tuple[int, ...],
) -> Optional[EncodedRelation]:
    """The vectorised dedup projection (``Project`` and ``Distinct``).

    ``unique(return_index=True)`` finds each key's first occurrence; sorting
    those row indices restores the serial first-occurrence output order.
    """
    if not positions or not _applicable(relation):
        return None
    keys = _packed_keys(relation, positions, _pack_base(relation))
    if keys is None:
        return None
    numpy = _numpy_module()
    _, first = numpy.unique(keys, return_index=True)  # type: ignore[union-attr]
    first.sort()
    columns = [relation.store.columns[p][first] for p in positions]  # type: ignore[index]
    return relation._derive(schema, columns, len(first))


def parallel_select(
    relation: EncodedRelation,
    checks: Tuple[Tuple[int, int], ...],
) -> Optional[EncodedRelation]:
    """The equality selection under the kernel gate.

    ``Select`` calls :meth:`EncodedRelation.select_codes` directly — on
    numpy storage that is one mask over the checked columns already — so
    nothing in the engine calls this; it stays importable from
    :mod:`repro.evaluation.operators` for the repository benchmark's layer
    trace, which wraps it by that path.
    """
    if not checks or not _applicable(relation):
        return None
    return relation.select_codes(checks)
