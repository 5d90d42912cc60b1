"""Random and scalable workload generators for tests and benchmarks.

The generators are deliberately seeded (every function takes an explicit
``random.Random`` or a seed) so that benchmark runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..chase.tgd_chase import chase
from ..datamodel import Atom, Constant, Database, Predicate, Schema, Variable
from ..dependencies.egd import EGD
from ..core.semantic_acyclicity import one_class
from ..dependencies.fd import Constraints, FunctionalDependency, key
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------
def random_schema(
    seed=0,
    predicate_count: int = 4,
    max_arity: int = 3,
    prefix: str = "R",
) -> Schema:
    """A schema with ``predicate_count`` predicates of random arity ≤ ``max_arity``."""
    rng = _rng(seed)
    return Schema(
        Predicate(f"{prefix}{i}", rng.randint(1, max_arity))
        for i in range(predicate_count)
    )


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def random_acyclic_query(
    seed=0,
    schema: Optional[Schema] = None,
    atom_count: int = 5,
    free_variables: int = 0,
    name: str = "acyclic",
) -> ConjunctiveQuery:
    """Generate a random acyclic CQ by growing a join tree atom by atom.

    Each new atom reuses a random subset of the variables of one existing
    atom (its parent in the join tree) and adds fresh variables for the other
    positions, which guarantees acyclicity by construction.
    """
    rng = _rng(seed)
    schema = schema or random_schema(rng)
    predicates = list(schema.predicates())
    atoms: List[Atom] = []
    variable_counter = 0

    def fresh() -> Variable:
        nonlocal variable_counter
        variable_counter += 1
        return Variable(f"v{variable_counter}")

    first_predicate = rng.choice(predicates)
    atoms.append(Atom(first_predicate, tuple(fresh() for _ in range(first_predicate.arity))))
    for _ in range(atom_count - 1):
        parent = rng.choice(atoms)
        parent_variables = sorted(parent.variables(), key=str)
        predicate = rng.choice(predicates)
        shared_count = rng.randint(0, min(len(parent_variables), predicate.arity))
        shared = rng.sample(parent_variables, shared_count) if shared_count else []
        terms: List[Variable] = []
        for position in range(predicate.arity):
            if position < len(shared):
                terms.append(shared[position])
            else:
                terms.append(fresh())
        rng.shuffle(terms)
        atoms.append(Atom(predicate, tuple(terms)))

    all_variables = sorted({v for atom in atoms for v in atom.variables()}, key=str)
    head = tuple(rng.sample(all_variables, min(free_variables, len(all_variables))))
    return ConjunctiveQuery(head, atoms, name=name)


def cycle_query(length: int, predicate: Optional[Predicate] = None) -> ConjunctiveQuery:
    """The Boolean ``length``-cycle query ``E(x_1,x_2) ∧ ... ∧ E(x_n,x_1)`` (cyclic for n ≥ 3)."""
    if length < 2:
        raise ValueError("a cycle needs at least 2 atoms")
    predicate = predicate or Predicate("E", 2)
    variables = [Variable(f"c{i}") for i in range(length)]
    atoms = [
        Atom(predicate, (variables[i], variables[(i + 1) % length]))
        for i in range(length)
    ]
    return ConjunctiveQuery((), atoms, name=f"cycle_{length}")


def path_query(length: int, predicate: Optional[Predicate] = None, free_ends: bool = False) -> ConjunctiveQuery:
    """The ``length``-edge path query (acyclic)."""
    if length < 1:
        raise ValueError("a path needs at least 1 atom")
    predicate = predicate or Predicate("E", 2)
    variables = [Variable(f"p{i}") for i in range(length + 1)]
    atoms = [Atom(predicate, (variables[i], variables[i + 1])) for i in range(length)]
    head = (variables[0], variables[-1]) if free_ends else ()
    return ConjunctiveQuery(head, atoms, name=f"path_{length}")


def star_query(rays: int, predicate: Optional[Predicate] = None) -> ConjunctiveQuery:
    """The star query with ``rays`` edges out of a shared centre (acyclic)."""
    predicate = predicate or Predicate("E", 2)
    centre = Variable("c")
    atoms = [Atom(predicate, (centre, Variable(f"s{i}"))) for i in range(rays)]
    return ConjunctiveQuery((), atoms, name=f"star_{rays}")


# ----------------------------------------------------------------------
# Dependencies
# ----------------------------------------------------------------------
def random_guarded_tgds(
    seed=0,
    schema: Optional[Schema] = None,
    count: int = 3,
    max_head_atoms: int = 1,
) -> List[TGD]:
    """Random guarded tgds: a guard atom over all body variables plus extras.

    Heads default to a single atom: the acyclicity-preservation results for
    guarded sets (Proposition 12) are about single-atom-head tgds — a
    multi-atom head whose atoms share an existential variable can already
    destroy acyclicity — so the generator stays within that normal form
    unless the caller asks otherwise.
    """
    rng = _rng(seed)
    schema = schema or random_schema(rng)
    predicates = list(schema.predicates())
    tgds: List[TGD] = []
    for index in range(count):
        guard_predicate = rng.choice([p for p in predicates if p.arity >= 1])
        body_variables = [Variable(f"g{index}_{i}") for i in range(guard_predicate.arity)]
        guard = Atom(guard_predicate, tuple(body_variables))
        body = [guard]
        # Optionally add a side atom over a subset of the guard variables.
        if rng.random() < 0.5:
            side_predicate = rng.choice(predicates)
            side_terms = tuple(
                rng.choice(body_variables) for _ in range(side_predicate.arity)
            )
            body.append(Atom(side_predicate, side_terms))
        head: List[Atom] = []
        existential_counter = 0
        for _ in range(rng.randint(1, max_head_atoms)):
            head_predicate = rng.choice(predicates)
            terms: List[Variable] = []
            for _ in range(head_predicate.arity):
                if body_variables and rng.random() < 0.7:
                    terms.append(rng.choice(body_variables))
                else:
                    terms.append(Variable(f"z{index}_{existential_counter}"))
                    existential_counter += 1
            head.append(Atom(head_predicate, tuple(terms)))
        tgds.append(TGD(body, head, label=f"guarded_{index}"))
    return tgds


def random_inclusion_dependencies(
    seed=0,
    schema: Optional[Schema] = None,
    count: int = 3,
) -> List[TGD]:
    """Random inclusion dependencies (projections between predicates)."""
    rng = _rng(seed)
    schema = schema or random_schema(rng)
    predicates = list(schema.predicates())
    tgds: List[TGD] = []
    for index in range(count):
        source = rng.choice(predicates)
        target = rng.choice(predicates)
        body_variables = [Variable(f"i{index}_{i}") for i in range(source.arity)]
        shared = rng.sample(body_variables, min(len(body_variables), target.arity))
        head_terms: List[Variable] = []
        existential_counter = 0
        for position in range(target.arity):
            if position < len(shared):
                head_terms.append(shared[position])
            else:
                head_terms.append(Variable(f"iz{index}_{existential_counter}"))
                existential_counter += 1
        tgds.append(
            TGD(
                [Atom(source, tuple(body_variables))],
                [Atom(target, tuple(head_terms))],
                label=f"id_{index}",
            )
        )
    return tgds


def chain_non_recursive_tgds(depth: int, arity: int = 2) -> List[TGD]:
    """A non-recursive chain ``L_0 → L_1 → ... → L_depth`` of linear tgds."""
    predicates = [Predicate(f"L{i}", arity) for i in range(depth + 1)]
    tgds: List[TGD] = []
    for i in range(depth):
        variables = [Variable(f"x{j}") for j in range(arity)]
        tgds.append(
            TGD(
                [Atom(predicates[i], tuple(variables))],
                [Atom(predicates[i + 1], tuple(variables))],
                label=f"chain_{i}",
            )
        )
    return tgds


def random_full_tgds(
    seed=0,
    schema: Optional[Schema] = None,
    count: int = 3,
    max_body_atoms: int = 2,
) -> List[TGD]:
    """Random *full* tgds: heads reuse body variables only (no existentials).

    Full tgds are the class for which SemAc is undecidable (Theorem 7); the
    generator feeds the best-effort search and the chase-termination
    benchmarks (the chase under full tgds always terminates).
    """
    rng = _rng(seed)
    schema = schema or random_schema(rng)
    predicates = list(schema.predicates())
    tgds: List[TGD] = []
    for index in range(count):
        body: List[Atom] = []
        body_variables: List[Variable] = []
        for atom_index in range(rng.randint(1, max_body_atoms)):
            predicate = rng.choice(predicates)
            terms: List[Variable] = []
            for position in range(predicate.arity):
                if body_variables and rng.random() < 0.4:
                    terms.append(rng.choice(body_variables))
                else:
                    variable = Variable(f"f{index}_{atom_index}_{position}")
                    body_variables.append(variable)
                    terms.append(variable)
            body.append(Atom(predicate, tuple(terms)))
        head_predicate = rng.choice(predicates)
        head_terms = tuple(
            rng.choice(body_variables) for _ in range(head_predicate.arity)
        )
        tgds.append(
            TGD(body, [Atom(head_predicate, head_terms)], label=f"full_{index}")
        )
    return tgds


def random_non_recursive_tgds(
    seed=0,
    schema: Optional[Schema] = None,
    count: int = 3,
) -> List[TGD]:
    """Random non-recursive tgds: head predicates strictly later in a fixed order.

    A total order over the schema's predicates is fixed and every generated
    tgd uses body predicates strictly below its head predicate, which makes
    the predicate graph acyclic by construction.
    """
    rng = _rng(seed)
    schema = schema or random_schema(rng, predicate_count=5)
    ordered = list(schema.predicates())
    if len(ordered) < 2:
        raise ValueError("non-recursive generation needs at least two predicates")
    tgds: List[TGD] = []
    for index in range(count):
        head_position = rng.randint(1, len(ordered) - 1)
        head_predicate = ordered[head_position]
        body_pool = ordered[:head_position]
        body: List[Atom] = []
        body_variables: List[Variable] = []
        for atom_index in range(rng.randint(1, 2)):
            predicate = rng.choice(body_pool)
            terms: List[Variable] = []
            for position in range(predicate.arity):
                if body_variables and rng.random() < 0.4:
                    terms.append(rng.choice(body_variables))
                else:
                    variable = Variable(f"n{index}_{atom_index}_{position}")
                    body_variables.append(variable)
                    terms.append(variable)
            body.append(Atom(predicate, tuple(terms)))
        head_terms: List[Variable] = []
        existential_counter = 0
        for _ in range(head_predicate.arity):
            if body_variables and rng.random() < 0.7:
                head_terms.append(rng.choice(body_variables))
            else:
                head_terms.append(Variable(f"nz{index}_{existential_counter}"))
                existential_counter += 1
        tgds.append(
            TGD(body, [Atom(head_predicate, tuple(head_terms))], label=f"nr_{index}")
        )
    return tgds


def random_sticky_tgds(
    seed=0,
    schema: Optional[Schema] = None,
    count: int = 3,
    max_attempts: int = 200,
) -> List[TGD]:
    """Random sticky tgds (rejection sampling against the marking procedure).

    Candidate tgds (with joins, so the result is not trivially linear) are
    generated and the whole set is kept only if it passes
    :func:`repro.dependencies.is_sticky_set`; otherwise the offending tgd is
    re-drawn.  The fallback after ``max_attempts`` is a set of join-free
    linear tgds, which is sticky by construction.
    """
    from ..dependencies.classification import is_sticky_set

    rng = _rng(seed)
    schema = schema or random_schema(rng, predicate_count=4, max_arity=3)
    predicates = list(schema.predicates())

    def draw(index: int) -> TGD:
        body_predicate = rng.choice(predicates)
        other_predicate = rng.choice(predicates)
        shared = Variable(f"s{index}_j")
        body: List[Atom] = []
        first_terms = [
            shared if position == 0 else Variable(f"s{index}_a{position}")
            for position in range(body_predicate.arity)
        ]
        body.append(Atom(body_predicate, tuple(first_terms)))
        if rng.random() < 0.6:
            second_terms = [
                shared if position == 0 else Variable(f"s{index}_b{position}")
                for position in range(other_predicate.arity)
            ]
            body.append(Atom(other_predicate, tuple(second_terms)))
        head_predicate = rng.choice(predicates)
        head_terms = tuple(
            shared if position == 0 else Variable(f"s{index}_z{position}")
            for position in range(head_predicate.arity)
        )
        return TGD(body, [Atom(head_predicate, head_terms)], label=f"sticky_{index}")

    tgds = [draw(index) for index in range(count)]
    attempts = 0
    while not is_sticky_set(tgds) and attempts < max_attempts:
        attempts += 1
        tgds[rng.randrange(count)] = draw(rng.randrange(1_000_000))
    if not is_sticky_set(tgds):
        tgds = []
        for index in range(count):
            predicate = rng.choice(predicates)
            variables = [Variable(f"l{index}_{i}") for i in range(predicate.arity)]
            target = rng.choice(predicates)
            head_terms = tuple(
                variables[i] if i < len(variables) else Variable(f"lz{index}_{i}")
                for i in range(target.arity)
            )
            tgds.append(
                TGD(
                    [Atom(predicate, tuple(variables))],
                    [Atom(target, head_terms)],
                    label=f"sticky_fallback_{index}",
                )
            )
    return tgds


def random_functional_dependencies(
    seed=0,
    schema: Optional[Schema] = None,
    count: int = 3,
    unary_only: bool = False,
) -> List[FunctionalDependency]:
    """Random functional dependencies over predicates of arity ≥ 2."""
    rng = _rng(seed)
    schema = schema or random_schema(rng, predicate_count=4, max_arity=3)
    eligible = [p for p in schema.predicates() if p.arity >= 2]
    if not eligible:
        raise ValueError("the schema has no predicate of arity ≥ 2")
    fds: List[FunctionalDependency] = []
    for _ in range(count):
        predicate = rng.choice(eligible)
        positions = list(range(1, predicate.arity + 1))
        if unary_only:
            determinant = {rng.choice(positions)}
        else:
            determinant = set(
                rng.sample(positions, rng.randint(1, max(1, predicate.arity - 1)))
            )
        remaining = [p for p in positions if p not in determinant]
        if not remaining:
            remaining = [rng.choice(positions)]
        dependent = set(rng.sample(remaining, rng.randint(1, len(remaining))))
        fds.append(FunctionalDependency.of(predicate, determinant, dependent))
    return fds


def random_keys(
    seed=0,
    schema: Optional[Schema] = None,
    max_arity: Optional[int] = None,
) -> List[FunctionalDependency]:
    """One random key per eligible predicate of the schema.

    With ``max_arity=2`` the result is a ``K2`` set (keys over unary/binary
    predicates only), the class of Theorem 23.
    """
    rng = _rng(seed)
    schema = schema or random_schema(rng, predicate_count=4, max_arity=3)
    keys: List[FunctionalDependency] = []
    for predicate in schema.predicates():
        if predicate.arity < 2:
            continue
        if max_arity is not None and predicate.arity > max_arity:
            continue
        key_size = rng.randint(1, predicate.arity - 1)
        key_positions = rng.sample(range(1, predicate.arity + 1), key_size)
        keys.append(key(predicate, key_positions))
    return keys


def binary_keys(schema: Schema) -> List[EGD]:
    """One key (first attribute) per binary predicate of ``schema`` (a K2 set)."""
    egds: List[EGD] = []
    for predicate in schema.predicates():
        if predicate.arity != 2:
            continue
        x, y, z = Variable("kx"), Variable("ky"), Variable("kz")
        egds.append(
            EGD(
                [Atom(predicate, (x, y)), Atom(predicate, (x, z))],
                y,
                z,
                label=f"key_{predicate.name}",
            )
        )
    return egds


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------
def random_database(
    seed=0,
    schema: Optional[Schema] = None,
    facts_per_predicate: int = 30,
    domain_size: int = 20,
) -> Database:
    """A random database over ``schema`` with the given number of facts."""
    rng = _rng(seed)
    schema = schema or random_schema(rng)
    database = Database()
    domain = [Constant(f"a{i}") for i in range(domain_size)]
    for predicate in schema.predicates():
        for _ in range(facts_per_predicate):
            database.add(
                Atom(predicate, tuple(rng.choice(domain) for _ in range(predicate.arity)))
            )
    return database


def database_satisfying(
    constraints: Constraints,
    seed=0,
    schema: Optional[Schema] = None,
    facts_per_predicate: int = 20,
    domain_size: int = 15,
    max_steps: int = 20_000,
) -> Database:
    """A random database that satisfies Σ (tgds, or egds and FDs).

    Under tgds the random database is completed by the chase.  The chase of
    a finite database under arbitrary tgds may not terminate; the function
    raises ``ValueError`` when the step budget is exhausted so that
    benchmarks never silently use an inconsistent database.  Under egds a
    random fact is kept only if it violates no egd together with the facts
    kept before it.
    """
    base = random_database(
        seed, schema=schema, facts_per_predicate=facts_per_predicate, domain_size=domain_size
    )
    tgds, egds = one_class(constraints)
    if egds:
        database = Database()
        for atom in base:
            database.add(atom)
            if not all(egd.is_satisfied_by(database) for egd in egds):
                database.discard(atom)
        return database
    result = chase(base, tgds, max_steps=max_steps)
    if not result.terminated:
        raise ValueError("the chase of the random database did not terminate in budget")
    database = Database()
    database.add_all(result.instance)
    return database


def path_database(length: int, predicate: Optional[Predicate] = None) -> Database:
    """A directed path with ``length`` edges (plus its edge relation only)."""
    predicate = predicate or Predicate("E", 2)
    database = Database()
    for i in range(length):
        database.add(Atom(predicate, (Constant(f"n{i}"), Constant(f"n{i + 1}"))))
    return database


def layered_chain_database(
    layers: int,
    width: int,
    fanout: int = 2,
    seed=0,
    predicate_prefix: str = "S",
) -> Database:
    """A layered join workload: ``layers`` binary relations chained in series.

    Relation ``S{i}`` connects layer ``i-1`` to layer ``i``; each layer has
    ``width`` nodes and each relation ``width · fanout`` edges (a diagonal
    "spine" guaranteeing answers, plus seeded random edges that the
    semi-join passes must prune).  The total database size is
    ``layers · width · fanout`` facts, so the workload scales linearly in
    ``width`` while the answer count of the matching chain query stays
    ``O(width)`` for fixed ``layers``/``fanout`` — exactly the regime where
    a linear-time evaluator should scale linearly and a quadratic one
    visibly cannot.
    """
    if layers < 1 or width < 1 or fanout < 1:
        raise ValueError("layers, width and fanout must all be positive")
    rng = _rng(seed)
    database = Database()
    for layer in range(1, layers + 1):
        predicate = Predicate(f"{predicate_prefix}{layer}", 2)
        sources = [Constant(f"L{layer - 1}_{i}") for i in range(width)]
        targets = [Constant(f"L{layer}_{i}") for i in range(width)]
        for i in range(width):
            database.add(Atom(predicate, (sources[i], targets[i])))
        for _ in range(width * (fanout - 1)):
            database.add(Atom(predicate, (rng.choice(sources), rng.choice(targets))))
    return database


def layered_chain_query(
    layers: int,
    predicate_prefix: str = "S",
    free_ends: bool = True,
) -> ConjunctiveQuery:
    """The chain query matching :func:`layered_chain_database` (acyclic)."""
    if layers < 1:
        raise ValueError("a chain needs at least 1 atom")
    variables = [Variable(f"x{i}") for i in range(layers + 1)]
    atoms = [
        Atom(Predicate(f"{predicate_prefix}{i + 1}", 2), (variables[i], variables[i + 1]))
        for i in range(layers)
    ]
    head = (variables[0], variables[-1]) if free_ends else ()
    return ConjunctiveQuery(head, atoms, name=f"chain_{layers}")


def layered_decoy_database(
    layers: int,
    width: int,
    fanout: int = 2,
    decoy_width: Optional[int] = None,
    seed=0,
    predicate_prefix: str = "S",
) -> Database:
    """A layered chain database with dead-ending decoy chains per layer.

    On top of :func:`layered_chain_database` (spine plus seeded random
    edges), every intermediate layer ``1 ≤ i < layers`` gets ``decoy_width``
    decoy nodes: relation ``S1`` feeds each first-layer decoy from a random
    real source, and each later relation extends the decoy chains in
    lockstep — but the final relation ``S{layers}`` never leaves a decoy, so
    every decoy chain is a dead end.  In the existential 1-cover game this
    is the propagation stress case: the images riding a decoy chain only die
    when the deletion initiated at the chain's tip has cascaded all the way
    back, which costs the round-based fixpoint one full re-scan per layer
    while the worklist engine pays O(1) per support pair.  The spine
    guarantees the duplicator still wins on the pure chain query, so the
    fixpoint always runs to completion instead of exiting on an empty set.
    """
    if layers < 2:
        raise ValueError("decoy chains need at least 2 layers")
    if decoy_width is None:
        decoy_width = width
    rng = _rng(seed)
    database = layered_chain_database(
        layers, width, fanout=fanout, seed=rng.random(), predicate_prefix=predicate_prefix
    )
    real_sources = [Constant(f"L0_{i}") for i in range(width)]
    for k in range(decoy_width):
        database.add(
            Atom(
                Predicate(f"{predicate_prefix}1", 2),
                (rng.choice(real_sources), Constant(f"D1_{k}")),
            )
        )
        for layer in range(2, layers):
            database.add(
                Atom(
                    Predicate(f"{predicate_prefix}{layer}", 2),
                    (Constant(f"D{layer - 1}_{k}"), Constant(f"D{layer}_{k}")),
                )
            )
    return database


def cover_game_scaling_workload(
    size: int,
    layers: int = 4,
    fanout: int = 2,
    seed=0,
) -> Tuple[ConjunctiveQuery, Database]:
    """A (query, database) pair with ``≈ size`` facts for cover-game scaling.

    The query is the Boolean chain over the layered relations; the database
    is :func:`layered_decoy_database` sized so that doubling ``size``
    doubles every relation (real and decoy part alike).  Used by
    ``benchmarks/bench_cover_game_scaling.py`` to demonstrate that the
    worklist cover-game engine grows ≈ linearly per database doubling while
    the round-based fixpoint re-scans every support pair each round.
    """
    # Facts per unit width: ``fanout`` real edges per layer plus one decoy
    # edge per intermediate layer.
    width = max(1, size // (layers * fanout + layers - 1))
    query = layered_chain_query(layers, free_ends=False)
    database = layered_decoy_database(layers, width, fanout=fanout, seed=seed)
    return query, database


def shared_predicate_batch_workload(
    batch_size: int,
    size: int = 2000,
    predicate_count: int = 6,
    anchor_pool: int = 4,
    max_rays: int = 3,
    domain_size: int = 60,
    seed=0,
) -> Tuple[List[ConjunctiveQuery], Database]:
    """``batch_size`` anchored star CQs over a shared predicate pool + one DB.

    The database has ``predicate_count`` binary predicates with
    ``≈ size / predicate_count`` random facts each over one shared domain.
    Every query is an *anchored star*: 1..``max_rays`` atoms
    ``P(a, x)`` sharing one centre variable ``x`` (the head), with each
    anchor constant ``a`` drawn from a pool of ``anchor_pool`` domain
    constants and each predicate from the shared pool — the "point lookups
    joined on a shared key" shape of a serving workload.

    The batch is built so that scans repeat heavily: every atom reads one
    of ``predicate_count`` base relations, at one of ``anchor_pool``
    anchors, no matter how large the batch, while one-at-a-time evaluation
    pays a full ``O(|R|)`` scan per predicate per query.  Because *every* atom is constant-selected, the per-query join
    work after phase 1 is only the size of the selected buckets
    (``≈ facts / domain_size``), so the shared scans and partitions of
    :class:`repro.evaluation.batch.ScanCache` dominate the sequential cost —
    the regime ``benchmarks/bench_batch_eval.py`` measures, where the
    batched advantage keeps growing as the batch doubles.
    """
    if batch_size < 1:
        raise ValueError("a batch needs at least one query")
    rng = _rng(seed)
    predicates = [Predicate(f"B{i}", 2) for i in range(predicate_count)]
    domain = [Constant(f"d{i}") for i in range(domain_size)]
    anchors = domain[: max(1, anchor_pool)]

    database = Database()
    facts_per_predicate = max(1, size // predicate_count)
    for predicate in predicates:
        # Guarantee every anchor has at least one outgoing edge so anchored
        # atoms are satisfiable, then fill with random pairs.
        for anchor in anchors:
            database.add(Atom(predicate, (anchor, rng.choice(domain))))
        for _ in range(facts_per_predicate):
            database.add(Atom(predicate, (rng.choice(domain), rng.choice(domain))))

    queries: List[ConjunctiveQuery] = []
    for index in range(batch_size):
        centre = Variable(f"x{index}")
        atoms = [
            Atom(rng.choice(predicates), (rng.choice(anchors), centre))
            for _ in range(rng.randint(1, max_rays))
        ]
        queries.append(ConjunctiveQuery((centre,), atoms, name=f"batch_q{index}"))
    return queries, database


def wide_output_workload(
    rays: int,
    width: int = 24,
    decoys: Optional[int] = None,
    seed=0,
    predicate_prefix: str = "W",
) -> Tuple[ConjunctiveQuery, Database]:
    """A free-star CQ whose output is huge relative to its database.

    The query is ``q(x_1, …, x_rays) :- W1(c, x_1), …, Wrays(c, x_rays)``
    (acyclic: a star joined on the centre variable ``c``).  The database has
    one *hub* constant with ``width`` outgoing edges per ray predicate, so
    the answer set is the full cross product of the rays — exactly
    ``width ** rays`` tuples out of only ``rays · width`` hub facts.  Each
    ray additionally gets ``decoys`` (default ``width``) edges out of decoy
    centres that are missing from the *other* rays, so the semi-join passes
    have genuine pruning work and only the hub survives.

    This is the wide-output regime the streaming enumerator exists for: a
    materialising phase 4 pays for all ``width ** rays`` answers before
    returning the first one, while
    :meth:`~repro.evaluation.yannakakis.YannakakisEvaluator.iter_answers`
    produces the first answer after the (linear) reduction passes plus
    O(rays) bucket probes — see ``benchmarks/bench_enumeration.py``.
    Growing ``rays`` at fixed ``width`` scales the output geometrically
    while the database stays essentially constant.
    """
    if rays < 2:
        raise ValueError("a wide-output star needs at least 2 rays")
    if width < 1:
        raise ValueError("width must be positive")
    if decoys is None:
        decoys = width
    rng = _rng(seed)
    hub = Constant("hub")
    database = Database()
    predicates = [Predicate(f"{predicate_prefix}{i + 1}", 2) for i in range(rays)]
    for ray, predicate in enumerate(predicates):
        for j in range(width):
            database.add(Atom(predicate, (hub, Constant(f"t{ray}_{j}"))))
        # Decoy centres appear in this ray only, so they die in the
        # semi-join with any other ray.
        for k in range(decoys):
            database.add(
                Atom(
                    predicate,
                    (Constant(f"decoy{ray}_{k}"), Constant(f"u{ray}_{rng.randrange(width)}")),
                )
            )
    centre = Variable("c")
    head = tuple(Variable(f"x{i + 1}") for i in range(rays))
    body = [
        Atom(predicate, (centre, variable))
        for predicate, variable in zip(predicates, head)
    ]
    return ConjunctiveQuery(head, body, name=f"wide_{rays}x{width}"), database


def yannakakis_scaling_workload(
    size: int,
    layers: int = 4,
    fanout: int = 2,
    seed=0,
    free_ends: bool = True,
) -> Tuple[ConjunctiveQuery, Database]:
    """A (query, database) pair with ``≈ size`` facts for scaling benchmarks.

    ``size`` is the target total fact count; the layer width is derived so
    that doubling ``size`` doubles every relation.  Used by
    ``benchmarks/bench_yannakakis_scaling.py`` to demonstrate that the
    hash-relation Yannakakis evaluator grows linearly in ``|D|`` where the
    assignment-dict implementation grows quadratically.
    """
    width = max(1, size // (layers * fanout))
    query = layered_chain_query(layers, free_ends=free_ends)
    database = layered_chain_database(layers, width, fanout=fanout, seed=seed)
    return query, database


def skewed_chain_database(
    layers: int,
    width: int,
    fanout: int = 2,
    skew: float = 1.1,
    seed=0,
    predicate_prefix: str = "S",
) -> Database:
    """A layered chain whose random edges follow a Zipf-like distribution.

    Identical in shape to :func:`layered_chain_database` (diagonal spine
    plus ``width · (fanout - 1)`` extra edges per relation), but the extra
    edges pick their endpoints with probability ``∝ 1/rank^skew`` instead
    of uniformly: a handful of "hub" nodes receive most of the fan-in, so
    join buckets are long and uneven — the case where kernels that lay out
    one bucket per probe row must keep the serial bucket order.  ``skew=0``
    degenerates to the uniform layered chain.
    """
    if layers < 1 or width < 1 or fanout < 1:
        raise ValueError("layers, width and fanout must all be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    rng = _rng(seed)
    weights = [1.0 / (rank + 1) ** skew for rank in range(width)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    database = Database()
    for layer in range(1, layers + 1):
        predicate = Predicate(f"{predicate_prefix}{layer}", 2)
        sources = [Constant(f"L{layer - 1}_{i}") for i in range(width)]
        targets = [Constant(f"L{layer}_{i}") for i in range(width)]
        for i in range(width):
            database.add(Atom(predicate, (sources[i], targets[i])))
        extra = width * (fanout - 1)
        if extra:
            picked_sources = rng.choices(sources, cum_weights=cumulative, k=extra)
            picked_targets = rng.choices(targets, cum_weights=cumulative, k=extra)
            for source, target in zip(picked_sources, picked_targets):
                database.add(Atom(predicate, (source, target)))
    return database


def skewed_scaling_workload(
    size: int,
    layers: int = 4,
    fanout: int = 2,
    skew: float = 1.1,
    seed=0,
    free_ends: bool = True,
) -> Tuple[ConjunctiveQuery, Database]:
    """The skewed counterpart of :func:`yannakakis_scaling_workload`.

    Same chain query and ``≈ size`` total facts, but the database comes
    from :func:`skewed_chain_database`, so join-key frequencies are
    Zipf-distributed: most probe rows match the buckets of a few hub keys.
    """
    width = max(1, size // (layers * fanout))
    query = layered_chain_query(layers, free_ends=free_ends)
    database = skewed_chain_database(
        layers, width, fanout=fanout, skew=skew, seed=seed
    )
    return query, database


def plan_quality_workload(
    size: int,
    seed=0,
    owners: Optional[int] = None,
) -> Tuple[ConjunctiveQuery, Database]:
    """A (query, database) pair on which blind constant selectivities misplan.

    Three relations over ``size`` entities:

    * ``Status(x, s)`` — every entity, with only **two** distinct status
      values (half the entities are ``'active'``);
    * ``Owner(x, u)`` — ≈ ``1.25 · size`` facts over ``owners`` distinct
      owners (default ``size // 8``), so anchoring at one owner keeps only
      a handful of rows;
    * ``Link(x, y)`` — ``2 · size`` random entity pairs.

    The query anchors both constants::

        q(x, y) :- Status(x, 'active'), Owner(x, 'u0'), Link(x, y)

    The legacy 1/10-per-constraint heuristic scores ``Status(x,'active')``
    (really: half the database) *below* ``Owner(x,'u0')`` (really: a few
    rows) because ``Status`` has fewer facts, so the heuristic greedy plan
    starts from the non-selective anchor and drags an O(size) intermediate
    through the join.  The statistics-calibrated model reads the distinct
    counts — 2 status values vs ``owners`` owner values — and starts from
    the selective anchor instead; ``benchmarks/bench_plan_quality.py``
    measures the gap, which grows linearly with ``size``.
    """
    if size < 8:
        raise ValueError("the plan-quality workload needs at least 8 entities")
    if owners is None:
        owners = max(2, size // 8)
    rng = _rng(seed)
    status = Predicate("Status", 2)
    owner = Predicate("Owner", 2)
    link = Predicate("Link", 2)
    entities = [Constant(f"e{i}") for i in range(size)]
    database = Database()
    for index, entity in enumerate(entities):
        database.add(
            Atom(status, (entity, Constant("active" if index % 2 == 0 else "inactive")))
        )
        database.add(Atom(owner, (entity, Constant(f"u{index % owners}"))))
        # Every fourth entity has a second owner, so |Owner| > |Status| and
        # the fact-count heuristic ranks the Owner anchor as the *more*
        # expensive of the two.
        if index % 4 == 0:
            database.add(Atom(owner, (entity, Constant(f"u{rng.randrange(owners)}"))))
    for _ in range(2 * size):
        database.add(Atom(link, (rng.choice(entities), rng.choice(entities))))
    x, y = Variable("x"), Variable("y")
    query = ConjunctiveQuery(
        (x, y),
        [
            Atom(status, (x, Constant("active"))),
            Atom(owner, (x, Constant("u0"))),
            Atom(link, (x, y)),
        ],
        name=f"plan_quality_{size}",
    )
    return query, database


def fanout_cycles_workload(
    size: int,
    fanout: Optional[int] = None,
) -> Tuple[ConjunctiveQuery, Database]:
    """A cyclic (query, database) pair on which every left-deep order blows up.

    The query is two triangles sharing the variable ``z``::

        q(x, u) :- A(x, y), B(y, z), C(z, x), F1(z, u), F2(u, v), F3(v, z)

    The database holds ``size`` disjoint instances.  Each triangle has one
    cheap "middle" edge away from ``z`` (``A(x, y)`` and ``F2(u, v)``, one
    fact per instance) while both edges adjacent to ``z`` carry ``fanout``
    entries per ``z``-value of which only one closes the triangle (default
    ``max(2, size // 4)``, so the fan grows with the database).

    A left-deep (linear) order can enter only one triangle through its
    cheap middle edge; the other triangle is reachable solely through a
    fan edge with nothing but ``z`` bound, so the order pays an
    ``Θ(size · fanout)`` intermediate before the middle edge prunes it.
    A bushy plan — or the decomposition route, which materialises the two
    triangles as separate bags and joins them on ``z`` after semijoin
    reduction — keeps every intermediate ``Θ(size)``.
    ``benchmarks/bench_plan_quality.py`` measures the gap.
    """
    if fanout is None:
        fanout = max(2, size // 4)
    a, b, c = Predicate("A", 2), Predicate("B", 2), Predicate("C", 2)
    f1, f2, f3 = Predicate("F1", 2), Predicate("F2", 2), Predicate("F3", 2)
    database = Database()
    for i in range(size):
        xi, yi, zi = Constant(f"x{i}"), Constant(f"y{i}"), Constant(f"z{i}")
        ui, vi = Constant(f"u{i}"), Constant(f"v{i}")
        database.add(Atom(a, (xi, yi)))
        database.add(Atom(b, (yi, zi)))
        database.add(Atom(c, (zi, xi)))
        database.add(Atom(f1, (zi, ui)))
        database.add(Atom(f2, (ui, vi)))
        database.add(Atom(f3, (vi, zi)))
        # Fan entries adjacent to z that never close their triangle.
        for k in range(fanout - 1):
            database.add(Atom(b, (Constant(f"yf{i}_{k}"), zi)))
            database.add(Atom(c, (zi, Constant(f"xf{i}_{k}"))))
            database.add(Atom(f1, (zi, Constant(f"uf{i}_{k}"))))
            database.add(Atom(f3, (Constant(f"vf{i}_{k}"), zi)))
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    u, v = Variable("u"), Variable("v")
    query = ConjunctiveQuery(
        (x, u),
        [
            Atom(a, (x, y)),
            Atom(b, (y, z)),
            Atom(c, (z, x)),
            Atom(f1, (z, u)),
            Atom(f2, (u, v)),
            Atom(f3, (v, z)),
        ],
        name=f"fanout_cycles_{size}",
    )
    return query, database


def grid_database(rows: int, columns: int, predicate: Optional[Predicate] = None) -> Database:
    """A ``rows × columns`` grid over one edge relation (both directions of adjacency)."""
    predicate = predicate or Predicate("E", 2)
    database = Database()

    def node(i: int, j: int) -> Constant:
        return Constant(f"g{i}_{j}")

    for i in range(rows):
        for j in range(columns):
            if j + 1 < columns:
                database.add(Atom(predicate, (node(i, j), node(i, j + 1))))
            if i + 1 < rows:
                database.add(Atom(predicate, (node(i, j), node(i + 1, j))))
    return database


def music_store_database(
    seed=0,
    customers: int = 30,
    records: int = 40,
    styles: int = 8,
    interests_per_customer: int = 3,
    closed_under_collector_rule: bool = True,
) -> Database:
    """A database for the Example 1 schema (Interest / Class / Owns).

    When ``closed_under_collector_rule`` is set, the ``Owns`` relation is
    completed so that the database satisfies the tgd of Example 1.
    """
    from .paper_examples import CLASS, INTEREST, OWNS

    rng = _rng(seed)
    database = Database()
    style_constants = [Constant(f"style{i}") for i in range(styles)]
    record_constants = [Constant(f"record{i}") for i in range(records)]
    customer_constants = [Constant(f"cust{i}") for i in range(customers)]

    record_styles: Dict[Constant, Constant] = {}
    for record in record_constants:
        style = rng.choice(style_constants)
        record_styles[record] = style
        database.add(Atom(CLASS, (record, style)))

    for customer in customer_constants:
        liked = rng.sample(style_constants, min(interests_per_customer, styles))
        for style in liked:
            database.add(Atom(INTEREST, (customer, style)))
        # A few arbitrary purchases.
        for record in rng.sample(record_constants, 2):
            database.add(Atom(OWNS, (customer, record)))
        if closed_under_collector_rule:
            for record, style in record_styles.items():
                if style in liked:
                    database.add(Atom(OWNS, (customer, record)))
    return database
