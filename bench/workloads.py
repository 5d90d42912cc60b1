"""The four workloads: seeded inputs, the operations a client sends, and
oracles that check every answer without going through the engine.

Everything here runs inside one repeat's process (see ``worker.py``).  A
workload is built in three steps, and only the middle one is the program's
set-up time:

1. ``MAKERS[workload](seed, sizes)`` draws every input from ``seed`` —
   facts, query classes, the request stream — and prepares the oracle;
2. ``session.setup()`` loads the database through ``Instance.add``,
   constructs the service and warms it up (this is ``setup_s``); it
   returns the warm-up operations with their answers, checked after the
   clock stopped;
3. ``session.next_block()`` yields the next block of operations of the
   closed loop; the harness records each block's throughput.

An :class:`Op` carries the timed call (query text in, decoded answers out)
and a check that runs after the clock stopped.  The program sees only the
generated inputs; it is never told which workload it is serving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import repro
from repro.datamodel import Atom, Constant, Database, Predicate
from repro.evaluation.generic import evaluate_generic
from repro.service import QueryService


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the seconds-long check."""

    #: Facts of the layered chain database (``yannakakis_scaling_workload``).
    chain_facts: int
    #: Point-query classes submitted during warm-up; warm requests reuse them.
    warm_classes: int
    #: Domain size of the ``cold_tgds`` DB, and the out-degree of every node
    #: in the base edges of ``E`` and ``N_0``, and of the ``R{k}`` paths.
    cold_domain: int
    cold_degree: int
    cold_closing_degree: int


FULL = Sizes(
    chain_facts=20_000, warm_classes=250, cold_domain=60, cold_degree=3,
    cold_closing_degree=2,
)
SMOKE = Sizes(
    chain_facts=2_000, warm_classes=30, cold_domain=16, cold_degree=2,
    cold_closing_degree=1,
)

LAYERS = 4
FANOUT = 2

#: Point reads of one round (every shape twice), and how many of them are a
#: class never submitted before, so that they miss the plan cache (25%).
ROUND_READS = 20
COLD_PER_ROUND = 5

#: ``serve_mixed`` operations per block: four rounds of reads and 20% writes,
#: half inserts and half deletes of earlier inserts.
MIXED_READS = 4 * ROUND_READS
MIXED_INSERTS = 10
MIXED_DELETES = 10


@dataclass
class Op:
    """One client operation: ``run`` is timed, ``check`` is not.

    ``check`` receives what ``run`` returned and gives ``None`` when it is
    right, or a one-line reason.  ``query_class`` names the class the
    operation belongs to, for the repeat-share accounting.
    """

    kind: str  # "read" or "write"
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    query_class: object = None


#: What ``setup()`` returns: each warm-up operation with its answer.
Warmed = List[Tuple[Op, object]]


def warm(ops: Sequence[Op]) -> Warmed:
    """Run warm-up operations during set-up; they are checked afterwards."""
    return [(op, op.run()) for op in ops]


def _mismatch(result: object, expected: Set[tuple]) -> Optional[str]:
    if not isinstance(result, set):
        return f"expected a set of answers, got {type(result).__name__}"
    if result == expected:
        return None
    return (
        f"{len(expected - result)} answer(s) missing and "
        f"{len(result - expected)} unexpected, of {len(expected)}"
    )


# ----------------------------------------------------------------------
# The layered chain database shared by the serve_* workloads
# ----------------------------------------------------------------------
def chain_edges(size: int, seed: int) -> List[Tuple[int, int, int]]:
    """The edges of ``yannakakis_scaling_workload(size, 4, 2, seed)``.

    Returned as ``(layer, source index, target index)`` in insertion order.
    The random draws replay ``layered_chain_database`` exactly (one
    ``choice`` per endpoint, same order), so the facts are identical while
    the benchmark does not depend on the generator staying in the program.
    """
    width = max(1, size // (LAYERS * FANOUT))
    rng = random.Random(seed)
    indices = range(width)
    edges: Dict[Tuple[int, int, int], None] = {}
    for layer in range(1, LAYERS + 1):
        for i in indices:
            edges[(layer, i, i)] = None
        for _ in range(width * (FANOUT - 1)):
            source = rng.choice(indices)
            edges[(layer, source, rng.choice(indices))] = None
    return list(edges)


_PREDICATES = {layer: Predicate(f"S{layer}", 2) for layer in range(1, LAYERS + 1)}


class Constants(dict):
    """One :class:`Constant` object per name, shared by the facts and the oracle.

    The engine decodes answers to the term objects it was loaded with, so
    the oracle's expected tuples then hold the very same objects and a set
    comparison of 40k answers stays cheap.
    """

    def __missing__(self, name: str) -> Constant:
        constant = self[name] = Constant(name)
        return constant


class ChainOracle:
    """Adjacency lists of the chain database, kept current through writes."""

    def __init__(self, edges: Sequence[Tuple[int, int, int]]) -> None:
        self.succ: Dict[int, Dict[int, Set[int]]] = {l: {} for l in _PREDICATES}
        self.pred: Dict[int, Dict[int, Set[int]]] = {l: {} for l in _PREDICATES}
        for edge in edges:
            self.add(edge)

    def __contains__(self, edge: Tuple[int, int, int]) -> bool:
        layer, source, target = edge
        return target in self.succ[layer].get(source, ())

    def add(self, edge: Tuple[int, int, int]) -> None:
        layer, source, target = edge
        self.succ[layer].setdefault(source, set()).add(target)
        self.pred[layer].setdefault(target, set()).add(source)

    def remove(self, edge: Tuple[int, int, int]) -> None:
        layer, source, target = edge
        self.succ[layer][source].discard(target)
        self.pred[layer][target].discard(source)

    def walk(self, shape: "Shape", anchor: int) -> Set[int]:
        """The indices of the nodes ``shape`` reaches from ``anchor``."""
        frontier = {anchor}
        for layer in shape.layers():
            step = self.succ[layer] if shape.forward else self.pred[layer]
            frontier = {n for node in frontier for n in step.get(node, ())}
        return frontier

    def full_chain(self) -> Set[Tuple[int, int]]:
        """Every (first-layer, last-layer) index pair joined by a path."""
        pairs: Set[Tuple[int, int]] = set()
        for start in self.succ[1]:
            frontier = {start}
            for layer in range(1, LAYERS + 1):
                frontier = {n for node in frontier for n in self.succ[layer].get(node, ())}
            pairs.update((start, end) for end in frontier)
        return pairs


@dataclass(frozen=True)
class Shape:
    """A path query anchored at one constant: start layer, direction, hops."""

    start: int
    forward: bool
    hops: int

    def layers(self) -> List[int]:
        """The ``S`` predicates crossed, in walking order."""
        if self.forward:
            return list(range(self.start + 1, self.start + self.hops + 1))
        return list(range(self.start, self.start - self.hops, -1))

    def end_layer(self) -> int:
        return self.start + self.hops if self.forward else self.start - self.hops

    def text(self, anchor: int, prefix: str) -> str:
        names = [f"'L{self.start}_{anchor}'"] + [f"{prefix}{j}" for j in range(1, self.hops + 1)]
        atoms = []
        for step, layer in enumerate(self.layers()):
            near, far = names[step], names[step + 1]
            pair = (near, far) if self.forward else (far, near)
            atoms.append(f"S{layer}({pair[0]}, {pair[1]})")
        return f"q({names[-1]}) :- " + ", ".join(atoms)


#: Every 2- and 3-hop path that fits in four layers, in both directions:
#: ten shapes times the layer width gives the point-query class space.
SHAPES = tuple(
    Shape(start, forward, hops)
    for hops in (2, 3)
    for start in range(LAYERS + 1)
    for forward in (True, False)
    if 0 <= (start + hops if forward else start - hops) <= LAYERS
)


class PointClasses:
    """Draws point-query classes, a shape of :data:`SHAPES` and an anchor:
    a fixed warm set, the same number per shape, and never-seen classes.

    Reads are dealt in rounds of :data:`ROUND_READS`, in a seeded order:
    every shape twice, :data:`COLD_PER_ROUND` of them never seen.  Every
    block of whole rounds thus asks for the same mix of work, so that the
    throughput of one block differs from another's only by the anchors and
    by the host.
    """

    def __init__(self, rng: random.Random, width: int, warm: int) -> None:
        self.rng = rng
        self.width = width
        self.seen: Set[Tuple[Shape, int]] = set()
        self.warm = {
            shape: [self.fresh(shape) for _ in range(warm // len(SHAPES))] for shape in SHAPES
        }
        self.dealt: List[Tuple[Shape, int]] = []

    def warm_classes(self) -> List[Tuple[Shape, int]]:
        return [chosen for classes in self.warm.values() for chosen in classes]

    def fresh(self, shape: Shape) -> Tuple[Shape, int]:
        # Rejection sampling; a repeat draws far fewer classes than exist.
        while True:
            chosen = (shape, self.rng.randrange(self.width))
            if chosen not in self.seen:
                self.seen.add(chosen)
                return chosen

    def next(self) -> Tuple[Shape, int]:
        if not self.dealt:
            shapes = list(SHAPES) * (ROUND_READS // len(SHAPES))
            cold = [True] * COLD_PER_ROUND + [False] * (ROUND_READS - COLD_PER_ROUND)
            self.rng.shuffle(shapes)
            self.rng.shuffle(cold)
            self.dealt = [
                self.fresh(shape) if new else self.rng.choice(self.warm[shape])
                for shape, new in zip(shapes, cold)
            ]
            self.dealt.reverse()
        return self.dealt.pop()


class ChainSession:
    """A ``QueryService`` over the chain database, plus the harness state."""

    #: Operations per block, the unit whose throughput ``query_rps`` is
    #: taken from: ten rounds of reads, about a quarter of a second at the
    #: seed commit.
    block = 10 * ROUND_READS

    #: Set-ups per repeat; ``setup_s`` is their median.
    setups = 3

    #: Operations between two runs of the reference join besides the one at
    #: each block's end (see ``worker.measure``): none, blocks are short.
    reference_every = 0

    def next_block(self) -> Iterator[Op]:
        """The next block; each operation is drawn when the previous one has run."""
        for _ in range(self.block):
            yield self.next_op()

    def __init__(self, seed: int, sizes: Sizes) -> None:
        edges = chain_edges(sizes.chain_facts, seed)
        self.constants = Constants()
        self.atoms = [self.edge_atom(edge) for edge in edges]
        self.oracle = ChainOracle(edges)
        self.width = max(1, sizes.chain_facts // (LAYERS * FANOUT))
        self.rng = random.Random(seed + 1)
        self.classes = PointClasses(self.rng, self.width, sizes.warm_classes)
        self.requests = 0
        self.database: Optional[Database] = None
        self.service: Optional[QueryService] = None

    def node(self, layer: int, index: int) -> Constant:
        return self.constants[f"L{layer}_{index}"]

    def edge_atom(self, edge: Tuple[int, int, int]) -> Atom:
        layer, source, target = edge
        return Atom(_PREDICATES[layer], (self.node(layer - 1, source), self.node(layer, target)))

    def load(self) -> None:
        self.database = Database()
        for atom in self.atoms:
            self.database.add(atom)
        self.service = QueryService(self.database)

    def teardown(self) -> None:
        """Drop what ``setup`` built, before the next set-up."""
        self.database = self.service = None

    def point_op(self, chosen: Tuple[Shape, int]) -> Op:
        shape, anchor = chosen
        self.requests += 1
        text = shape.text(anchor, f"r{self.requests}_v")
        service = self.service

        def check(result: object) -> Optional[str]:
            end = shape.end_layer()
            expected = {(self.node(end, i),) for i in self.oracle.walk(shape, anchor)}
            return _mismatch(result, expected)

        return Op("read", lambda: service.submit(repro.parse_query(text)), check, chosen)

    def warm_points(self) -> Warmed:
        return warm([self.point_op(chosen) for chosen in self.classes.warm_classes()])

    def counters(self) -> Dict[str, float]:
        """Monotone counters; the trace reports their change over the traced phase."""
        return dict(self.service.counters())

    def final_counters(self) -> Dict[str, float]:
        """Sizes read once, after the timed loop (the dead-code sweep is O(terms))."""
        scans = self.service.scans
        return {"encoder_terms": len(scans.encoder), "dead_codes": scans.dead_codes()}


class ServePoint(ChainSession):
    def setup(self) -> Warmed:
        self.load()
        return self.warm_points()

    def next_op(self) -> Op:
        return self.point_op(self.classes.next())


class ServeScan(ChainSession):
    block = 5

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        self.expected = {
            (self.node(0, start), self.node(LAYERS, end))
            for start, end in self.oracle.full_chain()
        }

    def scan_op(self) -> Op:
        self.requests += 1
        names = [f"r{self.requests}_x{j}" for j in range(LAYERS + 1)]
        atoms = ", ".join(
            f"S{layer}({names[layer - 1]}, {names[layer]})" for layer in _PREDICATES
        )
        text = f"q({names[0]}, {names[-1]}) :- {atoms}"
        service = self.service
        return Op(
            "read",
            lambda: service.submit(repro.parse_query(text)),
            lambda result: _mismatch(result, self.expected),
            "chain",
        )

    def setup(self) -> Warmed:
        self.load()
        return warm([self.scan_op()])

    def next_op(self) -> Op:
        return self.scan_op()


class ServeMixed(ChainSession):
    """``serve_point`` reads, with inserts and deletes mixed in.

    Each block holds exactly :data:`MIXED_READS` reads, :data:`MIXED_INSERTS`
    inserts and :data:`MIXED_DELETES` deletes, the writes in a seeded order;
    a delete with no inserted edge left to delete is an insert instead.
    """

    block = MIXED_READS + MIXED_INSERTS + MIXED_DELETES

    def __init__(self, seed: int, sizes: Sizes) -> None:
        super().__init__(seed, sizes)
        #: Edges this run inserted and has not deleted yet.
        self.inserted: List[Tuple[int, int, int]] = []

    def setup(self) -> Warmed:
        self.load()
        return self.warm_points()

    def insert_op(self) -> Op:
        rng = self.rng
        edge = (rng.randint(1, LAYERS), rng.randrange(self.width), rng.randrange(self.width))
        atom = self.edge_atom(edge)
        service = self.service

        def check(added: object) -> Optional[str]:
            expected = edge not in self.oracle
            if expected:
                self.oracle.add(edge)
                self.inserted.append(edge)
            if added is not expected:
                return f"insert returned {added!r}, expected {expected!r}"
            return None

        return Op("write", lambda: service.insert(atom), check)

    def delete_op(self) -> Op:
        edge = self.inserted.pop(self.rng.randrange(len(self.inserted)))
        atom = self.edge_atom(edge)
        service = self.service

        def check(removed: object) -> Optional[str]:
            self.oracle.remove(edge)
            if removed is not True:
                return f"delete returned {removed!r}, expected True"
            return None

        return Op("write", lambda: service.delete(atom), check)

    def next_block(self) -> Iterator[Op]:
        writes = ["insert"] * MIXED_INSERTS + ["delete"] * MIXED_DELETES
        self.rng.shuffle(writes)
        reads_between = MIXED_READS // len(writes)
        for kind in writes:
            # Every write follows the same number of reads, so that every
            # block pays for about as many delta merges.  Operations are
            # drawn when the previous one has run: a delete picks from the
            # edges inserted so far.
            for _ in range(reads_between):
                yield self.point_op(self.classes.next())
            if kind == "delete" and self.inserted:
                yield self.delete_op()
            else:
                yield self.insert_op()


# ----------------------------------------------------------------------
# cold_tgds: one-shot evaluation under constraints
# ----------------------------------------------------------------------
#: Three tgd families over disjoint predicates.  ``guarded`` makes every
#: E-source carry a self-loop, so E-cycles fold; ``closing`` generalises
#: Example 1 (a path of k-1 edges implies the edge closing the k-cycle);
#: ``plain`` adds nothing that could make an N_0-cycle acyclic.
TGD_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "guarded": ("E(x, y) -> A(x)", "A(x) -> E(x, x)"),
    "closing": tuple(
        ", ".join(f"R{k}_{i}(x{i}, x{i + 1})" for i in range(1, k))
        + f" -> R{k}_{k}(x{k}, x1)"
        for k in (3, 4, 5)
    ),
    "plain": ("N_0(x, y) -> B(x)",),
}


#: A query class: its head variables and its atoms ``(predicate, term, term)``.
QueryClass = Tuple[Tuple[str, ...], List[Tuple[str, str, str]]]


def _cycle_class(predicate: str, length: int, pendants: int) -> QueryClass:
    """A ``predicate``-cycle through ``v0..v{length-1}`` with pendant edges.

    Pendant ``i`` hangs off cycle vertex ``i mod length``, pointing out for
    even ``i`` and in for odd ``i``.  The head is ``(v0)``.
    """
    cycle = [f"v{i}" for i in range(length)]
    atoms = [(predicate, cycle[i], cycle[(i + 1) % length]) for i in range(length)]
    for i in range(pendants):
        vertex, pendant = cycle[i % length], f"p{i}"
        atoms.append((predicate, vertex, pendant) if i % 2 == 0 else (predicate, pendant, vertex))
    return ("v0",), atoms


def _closing_class(k: int) -> QueryClass:
    cycle = [f"v{i}" for i in range(k)]
    return ("v0", "v1"), [(f"R{k}_{i + 1}", cycle[i], cycle[(i + 1) % k]) for i in range(k)]


#: The 17 query classes: (family, head, atoms).  E-triangles with 0–4
#: pendants and the closed k-cycles, k = 3–5, have acyclic reformulations;
#: N_0 cycles of the same lengths, with 0–2 pendants, have none.
COLD_CLASSES = (
    [("guarded",) + _cycle_class("E", 3, p) for p in range(5)]
    + [("closing",) + _closing_class(k) for k in (3, 4, 5)]
    + [("plain",) + _cycle_class("N_0", k, p) for k in (3, 4, 5) for p in range(3)]
)


def cold_class_text(index: int, prefix: str) -> str:
    _, head, atoms = COLD_CLASSES[index]
    rename = lambda name: prefix + name  # noqa: E731
    body = ", ".join(f"{p}({rename(a)}, {rename(b)})" for p, a, b in atoms)
    return f"q({', '.join(rename(v) for v in head)}) :- {body}"


def cold_facts(seed: int, sizes: Sizes) -> List[Tuple[str, Tuple[int, ...]]]:
    """A random database closed under every family in :data:`TGD_FAMILIES`.

    Random base facts for every predicate, then the fixpoint of the (full)
    tgds computed directly: loops and marks for E-sources, B for N_0-sources,
    and the closing R{k}_k edge for every R{k} path.  The result satisfies
    the tgds, as ``database_satisfying`` would make it, without running the
    program's chase.

    The base edges of a predicate are the union of a few random
    permutations of the domain, so every node has about as many in- and
    out-edges.  With uniformly drawn edges the degrees, and with them the
    work of evaluating an N_0 cycle, varied by a fifth from seed to seed.
    """
    rng = random.Random(seed)
    domain = sizes.cold_domain
    facts: Dict[Tuple[str, Tuple[int, ...]], None] = {}

    def add_edges(name: str, edges: Set[Tuple[int, int]]) -> Set[Tuple[int, int]]:
        for edge in sorted(edges):
            facts[(name, edge)] = None
        return edges

    def regular_edges(name: str, degree: int) -> Set[Tuple[int, int]]:
        edges: Set[Tuple[int, int]] = set()
        targets = list(range(domain))
        for _ in range(degree):
            rng.shuffle(targets)
            edges.update(enumerate(targets))
        return add_edges(name, edges)

    for source, _ in regular_edges("E", sizes.cold_degree):
        facts[("A", (source,))] = None
        facts[("E", (source, source))] = None

    for source, _ in regular_edges("N_0", sizes.cold_degree):
        facts[("B", (source,))] = None

    for k in (3, 4, 5):
        steps = [regular_edges(f"R{k}_{i}", sizes.cold_closing_degree) for i in range(1, k)]
        # A few closing edges that no path implies.
        closing = add_edges(
            f"R{k}_{k}",
            {(rng.randrange(domain), rng.randrange(domain)) for _ in range(domain // 2)},
        )
        for start in range(domain):
            frontier = {start}
            for step in steps:
                frontier = {b for a, b in step if a in frontier}
            closing.update((end, start) for end in frontier)
        for edge in sorted(closing):
            facts[(f"R{k}_{k}", edge)] = None
    return list(facts)


class ColdTgds:
    """One-shot ``evaluate_iter`` under each request's own family of tgds."""

    #: Set-ups per repeat (each takes a few hundredths of a second).
    setups = 9

    #: A round takes over a second, through which the host's speed changes:
    #: the reference join runs after every request.
    reference_every = 1

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.constants = Constants()
        self.atoms = [
            Atom(Predicate(name, len(terms)), tuple(self.constants[f"c{t}"] for t in terms))
            for name, terms in cold_facts(seed, sizes)
        ]
        self.rng = random.Random(seed + 1)
        self.requests = 0
        self.database: Optional[Database] = None
        self._oracle_db = Database(self.atoms)
        self._expected: Dict[int, Set[tuple]] = {}

    def expected(self, index: int) -> Set[tuple]:
        """The answers of a class by the generic homomorphism evaluator,
        computed on the class's first check.

        Valid because the database satisfies every family's tgds.
        """
        if index not in self._expected:
            query = repro.parse_query(cold_class_text(index, ""))
            self._expected[index] = evaluate_generic(query, self._oracle_db)
        return self._expected[index]

    def op(self, index: int) -> Op:
        self.requests += 1
        text = cold_class_text(index, f"r{self.requests}_")
        tgd_texts = TGD_FAMILIES[COLD_CLASSES[index][0]]
        database = self.database

        def run() -> object:
            tgds = [repro.parse_tgd(t) for t in tgd_texts]
            return set(repro.evaluate_iter(repro.parse_query(text), database, tgds=tgds))

        return Op("read", run, lambda result: _mismatch(result, self.expected(index)), index)

    def setup(self) -> Warmed:
        self.database = Database()
        for atom in self.atoms:
            self.database.add(atom)
        # Warm-up: one reformulated and one decomposition request, so the
        # routes' lazily imported modules are loaded before timing.
        return warm([self.op(0), self.op(8)])

    def teardown(self) -> None:
        self.database = None

    def next_block(self) -> List[Op]:
        """One round, the block: every class once, in a fresh seeded order."""
        order = list(range(len(COLD_CLASSES)))
        self.rng.shuffle(order)
        return [self.op(index) for index in order]

    def counters(self) -> Dict[str, float]:
        return {}

    def final_counters(self) -> Dict[str, float]:
        return {}


MAKERS = {
    "serve_point": ServePoint,
    "serve_scan": ServeScan,
    "serve_mixed": ServeMixed,
    "cold_tgds": ColdTgds,
}
