"""Service-cache benchmark: delta merge vs rebuild, plan-cache hit rate,
latency over uptime.

Panels over the standing :class:`repro.service.QueryService` and its
:class:`~repro.evaluation.batch.ScanCache`:

* **Delta merge vs rebuild** — a mutate → scan loop: per round one fact is
  deleted and one inserted (a size-preserving mutation, exactly the shape
  the seed's size-snapshot guard could not see), then both scans of a
  two-hop path query — the whole predicate and one anchored at a
  constant — are re-served, encoded as the operators read them.  The
  long-lived cache absorbs each round's delta (``O(delta)`` journal
  replay, in-place partition patch, and an encoded store carried forward
  by encoding only the delta); the baseline builds a fresh ``ScanCache``
  every round (``O(|D|)`` scan + re-encode).  Headline: wall-clock ratio
  per round, plus the deterministic work proxy (base relations *built*:
  the long-lived cache builds the predicate once for the whole loop, the
  baseline once per round).

* **Columnar point reads after writes** — per round one fact is deleted
  and one inserted, then the merged encoded store answers one point
  semi-join (the probe kernel, through the store's key index).  A merge
  carries every key index of the old store forward, patching only the
  buckets the delta touches, so no round rebuilds one.  Headline: the
  number of key-index builds on long-lived stores after warm-up (asserted
  zero), next to the time per round and the time one fresh index build
  would add to it.

* **Long uptime** — point reads with 20% inserts and deletes (the
  ``serve_mixed`` shape of ``bench/``) against one service for
  :data:`UPTIME_SECONDS`, cut into :data:`UPTIME_SEGMENTS` equal segments.
  Anchored scans are bucket lookups in one cached store per predicate, so
  a write's sync work does not grow with the anchors read since start,
  and neither may latency: the last segment's median ms/op must stay
  within :data:`MAX_UPTIME_SLOWDOWN` of the first's.

* **Warm point reads** — the ten 2- and 3-hop path shapes of the
  repository benchmark's ``serve_point`` workload, anchored at never-seen
  constants, read from one service over the layered chain database
  (``yannakakis_scaling_workload(20_000, layers=4, fanout=2, seed=1)``)
  after each shape was planned once.  Each read is split into three timed
  phases: parse (``repro.parse_query``), plan lookup
  (``QueryService._entry``: the pre-key and the cache lookup) and
  execute-and-decode (the cached evaluator's run and the decoded answer
  set); freeing a read's query and answers is left out of all three.
  Headline: median µs per read per phase, with quartiles.  Every answer
  is checked against a walk of the chain's adjacency lists, and every
  read must hit the plan cache.

* **Plan-cache hit rate** — 64 syntactically distinct, variable-renamed
  variants of one query submitted to one service; core minimisation +
  canonical relabelling must collapse them onto a single cached plan
  (the acceptance bar is a ≥ 90% hit rate).  The anchored row does the
  same over 64 anchors of one point-query shape: the plan key lifts the
  anchor to a parameter, so they too share one plan (1 miss, 63 hits).

Results land in ``BENCH_service_cache.json``.  ``BENCH_SMOKE=1`` shrinks
sizes/rounds to milliseconds (the uptime panel to a few seconds) and skips
the timing assertions (tiny inputs are noise-dominated); the counter-based
assertions always run.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict, List, Sequence, Set, Tuple

import repro
from repro.datamodel import Atom, Constant, Database, Predicate, Variable
from repro.evaluation import ScanCache
from repro.evaluation.encoding import EncodedRelation, IntIndex
from repro.queries.cq import ConjunctiveQuery
from repro.reporting import BenchSnapshot
from repro.service import QueryService
from repro.workloads.generators import yannakakis_scaling_workload
from conftest import host_metadata, print_series, scaled_sizes, smoke_mode


E = Predicate("E", 2)
x, y, z = Variable("x"), Variable("y"), Variable("z")

FULL_SIZES = [400, 800, 1600, 3200]
SMOKE_SIZES = [64, 128]
SIZES = scaled_sizes(FULL_SIZES, SMOKE_SIZES)

#: serve → mutate → serve rounds per size.
ROUNDS = 3 if smoke_mode() else 24

#: Isomorphic query variants for the plan-cache panel.
VARIANTS = 64

#: The plan-cache acceptance bar (fraction of variants answered by one
#: cached plan).
MIN_HIT_RATE = 0.9

#: Long-uptime panel: seconds of mixed traffic against one service, the
#: number of equal segments it is cut into, and the bound on the last
#: segment's median ms/op over the first's.
UPTIME_SECONDS = 3.0 if smoke_mode() else 30.0
UPTIME_SEGMENTS = 6
MAX_UPTIME_SLOWDOWN = 1.25

#: Layered graph of the uptime panel: layers, nodes per layer, out-degree.
UPTIME_LAYERS = 4
UPTIME_WIDTH = 60 if smoke_mode() else 400
UPTIME_FANOUT = 3

#: One write per this many operations (20% writes).
UPTIME_WRITE_EVERY = 5

#: Warm point-read panel: facts of the layered chain database (four
#: layers, fanout 2, seed 1) and timed reads per path shape.
POINT_FACTS = 800 if smoke_mode() else 20_000
POINT_LAYERS = 4
POINT_READS_PER_SHAPE = 2 if smoke_mode() else 300

#: The ten 2- and 3-hop path shapes that fit in four layers, both
#: directions: ``(start layer, forward, hops)``.
POINT_SHAPES = tuple(
    (start, forward, hops)
    for hops in (2, 3)
    for start in range(POINT_LAYERS + 1)
    for forward in (True, False)
    if 0 <= (start + hops if forward else start - hops) <= POINT_LAYERS
)

_CACHE: Dict[str, List[Dict[str, object]]] = {}


def _edge(a: int, b: int) -> Atom:
    return Atom(E, (Constant(a), Constant(b)))


def _chain_database(size: int) -> Database:
    database = Database()
    for i in range(size):
        database.add(_edge(i, i + 1))
    return database


def _path_query(a: Variable, b: Variable, c: Variable, name: str = "path"):
    return ConjunctiveQuery((a, c), [Atom(E, (a, b)), Atom(E, (b, c))], name=name)


#: The two scans the path query reads: the whole predicate and one
#: constant-anchored atom.
def _signatures(size: int):
    return (Atom(E, (x, y)), Atom(E, (Constant(size // 2), y)))


def run_delta_vs_rebuild(sizes: Sequence[int] = SIZES) -> List[Dict[str, object]]:
    """Time the mutate→scan loop on both maintenance strategies."""
    if "delta" in _CACHE:
        return _CACHE["delta"]
    rows: List[Dict[str, object]] = []
    for size in sizes:
        atoms = _signatures(size)

        # --- long-lived cache: deltas absorbed in place ------------------
        database = _chain_database(size)
        cache = ScanCache(database)
        for atom in atoms:  # warm both scans (and the base encoding)
            cache.scan(atom)
        started = time.perf_counter()
        for round_index in range(ROUNDS):
            database.discard(_edge(round_index, round_index + 1))
            database.add(_edge(size + 1 + round_index, size + 2 + round_index))
            for atom in atoms:
                cache.scan(atom)
        delta_seconds = time.perf_counter() - started
        delta_built = cache.built

        # --- baseline: fresh cache (full rescan + repartition) per round -
        database = _chain_database(size)
        warm = ScanCache(database)
        for atom in atoms:
            warm.scan(atom)  # same warmup cost paid
        rebuild_built = 0
        started = time.perf_counter()
        for round_index in range(ROUNDS):
            database.discard(_edge(round_index, round_index + 1))
            database.add(_edge(size + 1 + round_index, size + 2 + round_index))
            fresh = ScanCache(database)
            for atom in atoms:
                fresh.scan(atom)
            rebuild_built += fresh.built
        rebuild_seconds = time.perf_counter() - started

        rows.append(
            {
                "size": size,
                "rounds": ROUNDS,
                "delta_ms": delta_seconds * 1000.0,
                "rebuild_ms": rebuild_seconds * 1000.0,
                "speedup": rebuild_seconds / max(delta_seconds, 1e-9),
                "delta_merges": cache.delta_merges,
                "delta_built": delta_built,
                "rebuild_built": rebuild_built,
            }
        )
    _CACHE["delta"] = rows
    return rows


def run_columnar_point_reads(sizes: Sequence[int] = SIZES) -> List[Dict[str, object]]:
    """Time merge + one point semi-join per round; count index rebuilds."""
    if "columnar" in _CACHE:
        return _CACHE["columnar"]
    rows: List[Dict[str, object]] = []
    for size in sizes:
        database = _chain_database(size)
        cache = ScanCache(database)
        encoder = cache.encoder

        def point_read(anchor: int) -> EncodedRelation:
            relation = cache.scan(Atom(E, (x, y)))
            point = EncodedRelation.from_rows((x,), [(encoder.encode(Constant(anchor)),)], encoder)
            return relation.semijoin(point)

        point_read(size // 2)  # warm-up: builds the store's key index once
        builds = IntIndex.long_lived_builds
        started = time.perf_counter()
        for round_index in range(ROUNDS):
            database.discard(_edge(round_index, round_index + 1))
            database.add(_edge(size + 1 + round_index, size + 2 + round_index))
            answer = point_read(size + 1 + round_index)
            assert len(answer) == 1, "the inserted edge must be found"
        seconds = time.perf_counter() - started
        post_merge_builds = IntIndex.long_lived_builds - builds

        relation = cache.scan(Atom(E, (x, y)))
        started = time.perf_counter()
        relation.fresh_copy().key_index((0,))
        build_seconds = time.perf_counter() - started
        rows.append(
            {
                "size": size,
                "rounds": ROUNDS,
                "round_ms": seconds * 1000.0 / ROUNDS,
                "index_build_ms": build_seconds * 1000.0,
                "delta_merges": cache.delta_merges,
                "post_merge_index_builds": post_merge_builds,
            }
        )
    _CACHE["columnar"] = rows
    return rows


def _node(layer: int, index: int) -> Constant:
    return Constant(f"n{layer}_{index}")


def run_long_uptime() -> Dict[str, object]:
    """Mixed point reads and writes against one service; ms/op per segment."""
    if "uptime" in _CACHE:
        return _CACHE["uptime"][0]
    rng = random.Random(1)
    database = Database()
    for layer in range(UPTIME_LAYERS - 1):
        for index in range(UPTIME_WIDTH):
            for _ in range(UPTIME_FANOUT):
                target = _node(layer + 1, rng.randrange(UPTIME_WIDTH))
                database.add(Atom(E, (_node(layer, index), target)))
    service = QueryService(database)

    def read() -> None:
        hops = rng.choice((2, 3))
        anchor = _node(rng.randrange(UPTIME_LAYERS - hops), rng.randrange(UPTIME_WIDTH))
        path = [Variable(f"h{i}") for i in range(hops)]
        body = [Atom(E, (anchor, path[0]))] + [
            Atom(E, (path[i], path[i + 1])) for i in range(hops - 1)
        ]
        service.submit(ConjunctiveQuery((path[-1],), body))

    inserted: List[Atom] = []

    def write() -> None:
        if inserted and rng.random() < 0.5:
            service.delete(inserted.pop(rng.randrange(len(inserted))))
            return
        layer = rng.randrange(UPTIME_LAYERS - 1)
        edge = Atom(
            E,
            (_node(layer, rng.randrange(UPTIME_WIDTH)), _node(layer + 1, rng.randrange(UPTIME_WIDTH))),
        )
        if service.insert(edge):
            inserted.append(edge)

    for _ in range(50):  # warm both shapes' plans and the base store's index
        read()
    samples: List[List[float]] = [[] for _ in range(UPTIME_SEGMENTS)]
    segment_seconds = UPTIME_SECONDS / UPTIME_SEGMENTS
    started = time.perf_counter()
    operations = 0
    while True:
        begin = time.perf_counter()
        segment = int((begin - started) / segment_seconds)
        if segment >= UPTIME_SEGMENTS:
            break
        operations += 1
        (write if operations % UPTIME_WRITE_EVERY == 0 else read)()
        samples[segment].append((time.perf_counter() - begin) * 1000.0)
    medians = [statistics.median(segment) for segment in samples]
    row = {
        "seconds": UPTIME_SECONDS,
        "operations": operations,
        "writes": service.writes,
        "segment_ms_per_op": medians,
        "last_over_first": medians[-1] / medians[0],
        "cached_scans": service.counters()["cached_scans"],
    }
    _CACHE["uptime"] = [row]
    return row


Shape = Tuple[int, bool, int]
Adjacency = Dict[Tuple[int, bool], Dict[Constant, Set[Constant]]]


def _layers(shape: Shape) -> range:
    """The chain layers (``S`` predicates) a path read crosses, in order."""
    start, forward, hops = shape
    return range(start + 1, start + hops + 1) if forward else range(start, start - hops, -1)


def _point_text(shape: Shape, anchor: int, prefix: str) -> str:
    """The query text of one path read, as ``serve_point`` spells it."""
    start, forward, hops = shape
    names = [f"'L{start}_{anchor}'"] + [f"{prefix}{j}" for j in range(1, hops + 1)]
    atoms = []
    for step, layer in enumerate(_layers(shape)):
        near, far = names[step], names[step + 1]
        pair = (near, far) if forward else (far, near)
        atoms.append(f"S{layer}({pair[0]}, {pair[1]})")
    return f"q({names[-1]}) :- " + ", ".join(atoms)


def _adjacency(database: Database) -> Adjacency:
    """Per chain layer and direction, each node's neighbours."""
    adjacency: Adjacency = {}
    for layer in range(1, POINT_LAYERS + 1):
        forward: Dict[Constant, Set[Constant]] = {}
        backward: Dict[Constant, Set[Constant]] = {}
        for fact in database.atoms_with_predicate(Predicate(f"S{layer}", 2)):
            source, target = fact.terms
            forward.setdefault(source, set()).add(target)
            backward.setdefault(target, set()).add(source)
        adjacency[(layer, True)] = forward
        adjacency[(layer, False)] = backward
    return adjacency


def _point_oracle(adjacency: Adjacency, shape: Shape, anchor: int) -> Set[tuple]:
    """The answers of one path read, by walking the chain's adjacency."""
    start, forward, _ = shape
    frontier = {Constant(f"L{start}_{anchor}")}
    for layer in _layers(shape):
        step = adjacency[(layer, forward)]
        frontier = {node for near in frontier for node in step.get(near, ())}
    return {(node,) for node in frontier}


def _quartiles(samples: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def run_warm_point_reads() -> Dict[str, object]:
    """Time the three phases of warm point reads on one service."""
    if "points" in _CACHE:
        return _CACHE["points"][0]
    _, database = yannakakis_scaling_workload(POINT_FACTS, layers=POINT_LAYERS, fanout=2, seed=1)
    width = max(1, POINT_FACTS // (POINT_LAYERS * 2))
    service = QueryService(database)
    adjacency = _adjacency(database)
    rng = random.Random(1)
    anchors = rng.sample(range(width), min(width, POINT_READS_PER_SHAPE + 1))
    for shape in POINT_SHAPES:  # plan every shape once, at its own anchor
        service.submit(repro.parse_query(_point_text(shape, anchors[-1], "w")))
    reads = [(shape, anchor) for anchor in anchors[:-1] for shape in POINT_SHAPES]
    rng.shuffle(reads)
    hits = service.plan_hits
    phases: Dict[str, List[float]] = {"parse": [], "plan_lookup": [], "execute_decode": []}
    failures = 0
    clock = time.perf_counter
    gc.collect()
    for request, (shape, anchor) in enumerate(reads):
        text = _point_text(shape, anchor, f"r{request}_v")
        started = clock()
        query = repro.parse_query(text)
        parsed = clock()
        entry, params = service._entry(query, (), "auto")
        planned = clock()
        answers = entry.evaluator.evaluate(database, scans=service._scans_for(params))
        done = clock()
        phases["parse"].append((parsed - started) * 1e6)
        phases["plan_lookup"].append((planned - parsed) * 1e6)
        phases["execute_decode"].append((done - planned) * 1e6)
        failures += answers != _point_oracle(adjacency, shape, anchor)
        # Free this read's query and answers here, untimed, not inside the
        # next read's phases (its variables' intern entries go with them).
        del query, entry, params, answers
    row: Dict[str, object] = {
        "facts": len(database),
        "shapes": len(POINT_SHAPES),
        "reads": len(reads),
        "plan_hits": service.plan_hits - hits,
        "plan_misses": service.plan_misses,
        "wrong_answers": failures,
    }
    for phase, samples in phases.items():
        row[f"{phase}_us"] = _quartiles(samples)
    totals = [sum(parts) for parts in zip(*phases.values())]
    row["read_us"] = _quartiles(totals)
    _CACHE["points"] = [row]
    return row


def run_plan_cache_hit_rate() -> Dict[str, object]:
    """Submit 64 renamed variants of one query to one service."""
    if "plans" in _CACHE:
        return _CACHE["plans"][0]
    database = _chain_database(SIZES[0])
    service = QueryService(database)
    expected = None
    for index in range(VARIANTS):
        a, b, c = (Variable(f"v{index}_{j}") for j in range(3))
        answers = service.submit(_path_query(a, b, c, name=f"variant{index}"))
        if expected is None:
            expected = answers
        assert answers == expected, "isomorphic variants must agree"
    row = {
        "variants": VARIANTS,
        "plan_hits": service.plan_hits,
        "plan_misses": service.plan_misses,
        "hit_rate": service.plan_hits / VARIANTS,
    }
    _CACHE["plans"] = [row]
    return row


def run_anchored_hit_rate() -> Dict[str, object]:
    """Submit one point-query shape anchored at 64 constants to one service."""
    if "anchored" in _CACHE:
        return _CACHE["anchored"][0]
    # Every anchor needs its two hops, whatever the smoke/full sizes are.
    database = _chain_database(VARIANTS + 1)
    service = QueryService(database)
    for anchor in range(VARIANTS):
        b, c = (Variable(f"a{anchor}_{j}") for j in range(2))
        query = ConjunctiveQuery(
            (c,), [Atom(E, (Constant(anchor), b)), Atom(E, (b, c))], name=f"anchor{anchor}"
        )
        answers = service.submit(query)
        assert answers == {(Constant(anchor + 2),)}, "each anchor keeps its own answers"
    row = {
        "anchors": VARIANTS,
        "plan_hits": service.plan_hits,
        "plan_misses": service.plan_misses,
        "hit_rate": service.plan_hits / VARIANTS,
    }
    _CACHE["anchored"] = [row]
    return row


def _write_snapshot() -> None:
    delta = run_delta_vs_rebuild()
    columnar = run_columnar_point_reads()
    plans = run_plan_cache_hit_rate()
    anchored = run_anchored_hit_rate()
    uptime = run_long_uptime()
    points = run_warm_point_reads()
    snapshot = BenchSnapshot("service_cache")
    snapshot.record("host", host_metadata())
    snapshot.record("sizes", [row["size"] for row in delta])
    snapshot.record("rounds", ROUNDS)
    snapshot.record("delta_speedups", [row["speedup"] for row in delta])
    snapshot.record("plan_cache", plans)
    snapshot.record("anchored_plan_cache", anchored)
    snapshot.record("long_uptime", uptime)
    snapshot.record("warm_point_reads", points)
    for row in delta:
        snapshot.add_row("curve", row)
    for row in columnar:
        snapshot.add_row("columnar_point_reads", row)
    snapshot.write()


def test_delta_merge_beats_full_rebuild():
    rows = run_delta_vs_rebuild()
    print_series(
        "mutate→scan: delta merge vs fresh-cache rebuild per round",
        [
            (
                row["size"],
                row["rounds"],
                f"{row['delta_ms']:.1f}",
                f"{row['rebuild_ms']:.1f}",
                f"{row['speedup']:.1f}x",
                row["delta_built"],
                row["rebuild_built"],
            )
            for row in rows
        ],
        header=(
            "size",
            "rounds",
            "delta ms",
            "rebuild ms",
            "speedup",
            "delta built",
            "rebuild built",
        ),
    )
    _write_snapshot()
    for row in rows:
        # Deterministic work proxy: the long-lived cache builds the base
        # relation once for the whole loop; the baseline pays per round.
        assert row["delta_built"] < row["rebuild_built"]
        assert row["delta_merges"] >= ROUNDS
    if smoke_mode():
        return
    last = rows[-1]
    assert last["speedup"] > 1.0, (
        f"delta merge should beat the per-round rebuild at size "
        f"{last['size']}, got {last['speedup']:.2f}x"
    )


def test_columnar_point_reads_carry_their_key_index():
    rows = run_columnar_point_reads()
    print_series(
        "mutate→point semi-join: columnar, key index carried through each merge",
        [
            (
                row["size"],
                row["rounds"],
                f"{row['round_ms']:.3f}",
                f"{row['index_build_ms']:.3f}",
                row["post_merge_index_builds"],
            )
            for row in rows
        ],
        header=("size", "rounds", "ms/round", "one build ms", "post-merge builds"),
    )
    _write_snapshot()
    for row in rows:
        assert row["delta_merges"] >= ROUNDS
        assert row["post_merge_index_builds"] == 0


def test_latency_does_not_grow_with_uptime():
    row = run_long_uptime()
    print_series(
        "mixed reads and writes on one service: median ms/op per segment",
        [
            (
                f"{row['seconds']:.0f}",
                row["operations"],
                row["writes"],
                " ".join(f"{ms:.3f}" for ms in row["segment_ms_per_op"]),
                f"{row['last_over_first']:.2f}x",
                row["cached_scans"],
            )
        ],
        header=("s", "ops", "writes", "ms/op per segment", "last/first", "cached scans"),
    )
    _write_snapshot()
    assert row["cached_scans"] == 1  # one predicate, however many anchors
    if smoke_mode():
        return
    assert row["last_over_first"] <= MAX_UPTIME_SLOWDOWN, (
        f"the last segment's median ms/op is {row['last_over_first']:.2f}x the "
        f"first's (bound {MAX_UPTIME_SLOWDOWN}x)"
    )


def test_plan_cache_hit_rate_across_isomorphic_variants():
    row = run_plan_cache_hit_rate()
    print_series(
        "plan cache over renamed variants",
        [(row["variants"], row["plan_hits"], row["plan_misses"], f"{row['hit_rate']:.1%}")],
        header=("variants", "hits", "misses", "hit rate"),
    )
    _write_snapshot()
    assert row["hit_rate"] >= MIN_HIT_RATE


def test_plan_cache_shares_one_plan_across_anchors():
    row = run_anchored_hit_rate()
    print_series(
        "plan cache over anchored variants",
        [(row["anchors"], row["plan_hits"], row["plan_misses"], f"{row['hit_rate']:.1%}")],
        header=("anchors", "hits", "misses", "hit rate"),
    )
    _write_snapshot()
    assert row["plan_misses"] == 1 and row["plan_hits"] == VARIANTS - 1


def test_warm_point_reads_split_by_phase():
    row = run_warm_point_reads()
    phases = ("parse", "plan_lookup", "execute_decode", "read")
    print_series(
        "warm point reads: median µs per read by phase (quartiles)",
        [
            (
                phase,
                f"{row[f'{phase}_us']['median']:.1f}",
                f"{row[f'{phase}_us']['q1']:.1f}-{row[f'{phase}_us']['q3']:.1f}",
            )
            for phase in phases
        ],
        header=("phase", "median µs", "quartiles"),
    )
    _write_snapshot()
    assert row["wrong_answers"] == 0
    assert row["plan_misses"] == len(POINT_SHAPES)  # one plan per shape
    assert row["plan_hits"] == row["reads"]  # every timed read is warm
