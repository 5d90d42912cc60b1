"""Dense-code numpy kernels for the batch face.

The operator IR's batch face (:meth:`Operator.materialize_encoded`) moves
dictionary-encoded column stores through ``Project``/``SemiJoin``/
``HashJoin`` kernels.  On numpy storage (``REPRO_NUMPY=1``) each of those
operators has one single-pass vectorised kernel here.

**RAM-model contract.**  Dictionary codes are dense integers in
``[0, len(encoder))``.  Durand and Grandjean ("The complexity of acyclic
conjunctive queries revisited") evaluate acyclic queries in linear time in
a RAM model whose domain values are such integers: grouping is a bucket
pass over the code range, not a comparison sort.  The kernels keep to that
model and sort nothing by comparison:

* :func:`_stable_order` is the one ordering primitive — LSD radix passes
  over 16-bit digits of each key column (numpy's stable ``argsort`` on
  ``uint16`` is a linear radix sort);
* :func:`parallel_semijoin` — a single-column key marks the build codes in
  a boolean array over the code range and gathers it at the probe keys;
* :func:`parallel_join` — the build side is radix-ordered, and a
  single-column key finds each probe key's block of it by ``bincount`` +
  ``cumsum`` over the code range;
* :func:`parallel_project` — dedup keeps the first row of each run of
  equal keys in radix order (adjacent rows compared column by column) and
  returns the kept rows in row order through a mask;
* :func:`parallel_select` runs no operator: the IR has no selection
  operator (constants are pinned by the scans), and the function is kept
  only as a target the repository benchmark's layer trace wraps by its
  path in :mod:`repro.evaluation.operators`.

The code-range scratch arrays cost O(``len(encoder)``), and the encoder only
grows, so they are used only while the code range is at most
:data:`DENSE_FACTOR` times the operands' rows.  Otherwise, and for
multi-column join and semi-join keys (packed into one ``int64`` per row),
the probe is ``searchsorted`` over the radix-ordered build keys.

Each kernel returns ``None`` when it does not apply — non-numpy storage, a
probe side below :data:`PARALLEL_MIN_ROWS` rows, or a multi-column join key
whose packing would overflow ``int64`` — and the caller runs the
:class:`~repro.evaluation.encoding.EncodedRelation` loop kernel instead.
The function names are historical: nothing here runs on threads.

**Determinism.**  Answers are bit-identical to the loop kernels.  The radix
order is stable, so each key's build rows stay in original row order —
exactly the bucket order of the serial
:class:`~repro.evaluation.encoding.IntIndex` — and join output is laid out
probe row by probe row, so a join emits "for each left row, its bucket in
order" just like :meth:`EncodedRelation.join_index`.  Dedup keeps global
first occurrences in row order.

**Accounting.**  A hash join adds ``len(probe side)`` probes through one
:meth:`Partition.add_probes` call, exactly as the loop kernel does after
its loop; a semi-join adds none (membership is uncounted on every path),
so the bounded-work assertions hold on either kernel.
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

#: The code-range kernels (semi-join mask, join ``bincount``) run only
#: while ``len(encoder) <= DENSE_FACTOR * (len(left) + len(right))``; larger
#: code ranges probe with ``searchsorted`` instead, so a small probe never
#: pays an O(encoder) pass.  Crossover, single-column keys, uniform codes,
#: 2-core x86_64, numpy 2.4: the dense join ties the ``searchsorted`` join
#: at a code range of 6× the operand rows for 400 rows, 20× for 2.5k and
#: 32× for 25k; the dense semi-join (a calloc'd mask) still wins at 256×.
#: The factor takes the join's crossover at mid sizes.
DENSE_FACTOR = 16

#: Bits per radix digit: numpy's stable ``argsort`` on ``uint16`` is a
#: counting radix sort.
_DIGIT_BITS = 16

#: Cache-miss sentinel (``None`` is a legitimate cached value: a key
#: packing that would overflow ``int64`` declines permanently).
_ABSENT = object()


def _applicable(probe: EncodedRelation, *others: EncodedRelation) -> bool:
    return (
        len(probe) >= PARALLEL_MIN_ROWS
        and probe.store.use_numpy
        and all(other.store.use_numpy for other in others)
    )


def _code_base(relation: EncodedRelation) -> int:
    """An upper bound on every code of this kernel call, sampled *now*.

    The shared :class:`~repro.evaluation.encoding.TermEncoder` is append-only
    and grows across queries (new query constants, absorbed inserts), so the
    bound is sampled **once per kernel call** and used for every operand of
    that call.  Stores are immutable and hold only codes assigned before
    the call, so the sample bounds all of them even while another thread
    grows the encoder.  It sizes the radix digits, the code-range scratch
    arrays and the mixed-radix packing of multi-column keys; two operands
    packed at different bases compare incompatible encodings, and any base
    bounding every code is a bijection.
    """
    return max(2, len(relation.encoder))


def _stable_order(columns: Sequence[object], base: int):
    """The stable row permutation sorting rows lexicographically by
    ``columns`` (one or more).

    LSD radix sort: for each column from the last to the first, one stable
    pass per 16-bit digit of the codes, least significant digit first —
    ``ceil(bits(base) / 16)`` passes per column.  Equal keys keep their
    original row order.  Linear in rows × digits; the only ``argsort`` of
    this module, and it sorts ``uint16`` digits only.
    """
    numpy = _numpy_module()
    digits = max(1, -(-(base - 1).bit_length() // _DIGIT_BITS))
    order = None
    for column in reversed(columns):
        for digit in range(digits):
            values = column if order is None else column[order]  # type: ignore[index]
            if digit:
                values = values >> (_DIGIT_BITS * digit)
            # The cast keeps the low 16 bits: codes are non-negative.
            step = numpy.argsort(values.astype(numpy.uint16), kind="stable")  # type: ignore[union-attr]
            order = step if order is None else order[step]
    return order


def _is_dense(base: int, left: EncodedRelation, right: EncodedRelation) -> bool:
    """Whether a code-range scratch array is cheap next to the operands."""
    return base <= DENSE_FACTOR * (len(left) + len(right))


def _packed_keys(relation: EncodedRelation, positions: Tuple[int, ...], base: int):
    """The per-row join keys as one numpy ``int64`` array, or ``None``.

    Single-column keys are the column itself.  Multi-column keys are packed
    into one integer per row under the caller-supplied mixed-radix ``base``
    (codes are dense, so any base bounding every code makes the packing a
    bijection); when the packed key space would overflow ``int64`` the
    kernel declines and the loop kernel runs instead.

    Packings are cached per store, like :meth:`EncodedRelation.key_index`:
    cached scans are re-probed on every query of a warm serving path.  Two
    packings only compare when produced at the same base, so the base is
    part of the cache key — when the shared encoder has grown since a
    store's keys were cached, the stale entry misses and the keys are
    repacked at the current base.
    """
    columns = [relation.store.columns[p] for p in positions]
    if len(columns) == 1:
        return columns[0]
    cache_key = ("packed", positions, base)
    cached = relation.store.caches.get(cache_key, _ABSENT)
    if cached is not _ABSENT:
        return cached
    packed = None
    if base ** len(columns) < 2 ** 62:
        packed = columns[0]
        for column in columns[1:]:
            packed = packed * base + column  # type: ignore[operator]
    relation.store.caches[cache_key] = packed
    return packed


def _build_order(relation: EncodedRelation, positions: Tuple[int, ...], base: int):
    """The build side's stable radix order on ``positions``, cached per store.

    Within equal keys the permutation keeps the original build row order —
    the serial :class:`IntIndex` bucket order.  The order does not depend on
    ``base`` (any bound on the codes sorts the same), so growth of the
    encoder never invalidates it; a warm serving path re-probing the same
    cached scan orders it once.
    """
    cache_key = ("order", positions)
    cached = relation.store.caches.get(cache_key)
    if cached is None:
        cached = _stable_order([relation.store.columns[p] for p in positions], base)
        relation.store.caches[cache_key] = cached
    return cached


def _sparse_probe(
    left: EncodedRelation,
    right: EncodedRelation,
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
    base: int,
):
    """``(lo, counts, order)``: each probe row's block of the radix-ordered
    build side by ``searchsorted``, or ``None`` when a key packing would
    overflow ``int64``."""
    keys = _packed_keys(left, left_key, base)
    build_keys = _packed_keys(right, right_key, base)
    if keys is None or build_keys is None:
        return None
    order = _build_order(right, right_key, base)
    sorted_keys = build_keys[order]
    numpy = _numpy_module()
    lo = numpy.searchsorted(sorted_keys, keys, side="left")  # type: ignore[union-attr]
    counts = numpy.searchsorted(sorted_keys, keys, side="right") - lo  # type: ignore[union-attr]
    return lo, counts, order


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
    numpy = _numpy_module()
    base = _code_base(left)
    if len(left_key) == 1 and _is_dense(base, left, right):
        # Code c's build rows are order[starts[c]:starts[c] + sizes[c]].
        order = _build_order(right, right_key, base)
        keys = left.store.columns[left_key[0]]
        sizes = numpy.bincount(right.store.columns[right_key[0]], minlength=base)  # type: ignore[union-attr]
        starts = numpy.cumsum(sizes) - sizes  # type: ignore[union-attr]
        lo, counts = starts[keys], sizes[keys]
    else:
        probed = _sparse_probe(left, right, left_key, right_key, base)
        if probed is None:
            return None
        lo, counts, order = probed
    # Row i's matches are order[lo[i]:lo[i] + counts[i]], laid out block by
    # block in probe-row order: position-within-block plus the block's left
    # edge, all vectorised.
    probe_rows = numpy.repeat(numpy.arange(len(left)), counts)  # type: ignore[union-attr]
    block_starts = numpy.cumsum(counts) - counts  # type: ignore[union-attr]
    within = numpy.arange(len(probe_rows)) - block_starts[probe_rows]  # type: ignore[union-attr]
    build_rows = order[lo[probe_rows] + within]
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
    numpy = _numpy_module()
    base = _code_base(left)
    if len(left_key) == 1 and _is_dense(base, left, right):
        present = numpy.zeros(base, dtype=bool)  # type: ignore[union-attr]
        present[right.store.columns[right_key[0]]] = True
        indices = numpy.flatnonzero(present[left.store.columns[left_key[0]]])  # type: ignore[union-attr]
    else:
        probed = _sparse_probe(left, right, left_key, right_key, base)
        if probed is None:
            return None
        indices = numpy.flatnonzero(probed[1])  # type: ignore[union-attr]
    return left.take(indices)


def parallel_project(
    relation: EncodedRelation,
    schema: Sequence[Variable],
    positions: Tuple[int, ...],
) -> Optional[EncodedRelation]:
    """The vectorised dedup projection (``Project``).

    In the stable radix order equal keys are adjacent and each run starts
    at its key's first occurrence; a mask over those rows hands them back
    in row order — the serial first-occurrence output order.  Needs no key
    packing, so no width of key declines.
    """
    if not positions or not _applicable(relation):
        return None
    numpy = _numpy_module()
    columns = [relation.store.columns[p] for p in positions]
    rows = len(relation)
    order = _stable_order(columns, _code_base(relation))
    starts = numpy.zeros(rows, dtype=bool)  # type: ignore[union-attr]
    starts[:1] = True
    for column in columns:
        ordered = column[order]  # type: ignore[index]
        starts[1:] |= ordered[1:] != ordered[:-1]
    kept = numpy.zeros(rows, dtype=bool)  # type: ignore[union-attr]
    kept[order[starts]] = True
    first = numpy.flatnonzero(kept)  # type: ignore[union-attr]
    return relation._derive(schema, [column[first] for column in columns], len(first))  # type: ignore[index]


def parallel_select(
    relation: EncodedRelation,
    checks: Tuple[Tuple[int, int], ...],
) -> Optional[EncodedRelation]:
    """The equality selection under the kernel gate.

    Nothing in the engine calls this; it stays importable from
    :mod:`repro.evaluation.operators` for the repository benchmark's layer
    trace, which wraps it by that path.
    """
    if not checks or not _applicable(relation):
        return None
    return relation.select_codes(checks)
