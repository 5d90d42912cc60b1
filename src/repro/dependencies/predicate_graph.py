"""Predicate and position dependency graphs of tgd sets.

Two graphs drive the "weak" notions of Section 2:

* the **predicate graph** has an edge from every body predicate to every head
  predicate of each tgd; a set of tgds is *non-recursive* iff this graph has
  no directed cycle;
* the **position dependency graph** of Fagin et al. has the positions
  ``(predicate, index)`` as nodes, with regular and *special* edges induced
  by the propagation of universally quantified variables and the creation of
  existential values; a set is *weakly acyclic* iff no cycle goes through a
  special edge.

The module also computes the set of **affected positions** (positions that
may host labelled nulls during the chase), which underlies weak guardedness
and weak stickiness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..datamodel import Predicate, Variable
from .tgd import TGD


Position = Tuple[Predicate, int]


# ----------------------------------------------------------------------
# Predicate graph / non-recursiveness
# ----------------------------------------------------------------------
def predicate_graph(tgds: Iterable[TGD]) -> Dict[Predicate, Set[Predicate]]:
    """Directed graph with an edge body-predicate → head-predicate per tgd."""
    graph: Dict[Predicate, Set[Predicate]] = {}
    for tgd in tgds:
        for source in tgd.body_predicates():
            graph.setdefault(source, set())
            for target in tgd.head_predicates():
                graph.setdefault(target, set())
                graph[source].add(target)
    return graph


_WHITE, _GREY, _BLACK = 0, 1, 2


def _has_directed_cycle(graph: Dict[object, Set[object]]) -> bool:
    """Standard three-colour DFS cycle detection."""
    colour: Dict[object, int] = {node: _WHITE for node in graph}
    return any(
        colour[node] == _WHITE and _reaches_grey(graph, node, colour)
        for node in list(graph)
    )


def _reaches_grey(
    graph: Dict[object, Set[object]], node: object, colour: Dict[object, int]
) -> bool:
    """The DFS step of :func:`_has_directed_cycle` (a back edge is a cycle)."""
    colour[node] = _GREY
    for neighbour in graph.get(node, ()):  # pragma: no branch
        if colour[neighbour] == _GREY:
            return True
        if colour[neighbour] == _WHITE and _reaches_grey(graph, neighbour, colour):
            return True
    colour[node] = _BLACK
    return False


def is_non_recursive(tgds: Sequence[TGD]) -> bool:
    """Non-recursive sets of tgds: acyclic predicate graph."""
    return not _has_directed_cycle(predicate_graph(tgds))


def stratification_depth(tgds: Sequence[TGD]) -> int:
    """Length of the longest path in the predicate graph (∞-free only).

    Only meaningful for non-recursive sets; used to bound the number of
    rounds of the chase and of the rewriting.  Raises ``ValueError`` on
    recursive sets.
    """
    if not is_non_recursive(tgds):
        raise ValueError("stratification depth is defined for non-recursive sets only")
    graph = predicate_graph(tgds)
    depth: Dict[Predicate, int] = {}
    return max((_longest_from(graph, node, depth) for node in graph), default=0)


def _longest_from(
    graph: Dict[Predicate, Set[Predicate]], node: Predicate, depth: Dict[Predicate, int]
) -> int:
    """The longest path length from ``node``, memoised in ``depth``."""
    if node in depth:
        return depth[node]
    best = 0
    for neighbour in graph.get(node, ()):  # pragma: no branch
        best = max(best, 1 + _longest_from(graph, neighbour, depth))
    depth[node] = best
    return best


# ----------------------------------------------------------------------
# Position dependency graph / weak acyclicity
# ----------------------------------------------------------------------
@dataclass
class PositionGraph:
    """The position dependency graph: regular and special directed edges."""

    regular_edges: Set[Tuple[Position, Position]] = field(default_factory=set)
    special_edges: Set[Tuple[Position, Position]] = field(default_factory=set)
    positions: Set[Position] = field(default_factory=set)

    def all_edges(self) -> Set[Tuple[Position, Position]]:
        return self.regular_edges | self.special_edges


def position_dependency_graph(tgds: Iterable[TGD]) -> PositionGraph:
    """Build the Fagin et al. position dependency graph of a set of tgds."""
    graph = PositionGraph()
    for tgd in tgds:
        for atom in tuple(tgd.body) + tuple(tgd.head):
            for index in range(atom.arity):
                graph.positions.add((atom.predicate, index))
        existential = tgd.existential_variables()
        for variable in tgd.body_variables():
            body_positions = {
                (atom.predicate, index)
                for atom in tgd.body
                for index, term in enumerate(atom.terms)
                if term == variable
            }
            head_positions = {
                (atom.predicate, index)
                for atom in tgd.head
                for index, term in enumerate(atom.terms)
                if term == variable
            }
            if not head_positions:
                continue
            for source in body_positions:
                for target in head_positions:
                    graph.regular_edges.add((source, target))
                for atom in tgd.head:
                    for index, term in enumerate(atom.terms):
                        if term in existential:
                            graph.special_edges.add((source, (atom.predicate, index)))
    return graph


def is_weakly_acyclic(tgds: Sequence[TGD]) -> bool:
    """Weak acyclicity: no cycle of the position graph uses a special edge."""
    graph = position_dependency_graph(tgds)
    adjacency: Dict[Position, Set[Tuple[Position, bool]]] = {
        position: set() for position in graph.positions
    }
    for source, target in graph.regular_edges:
        adjacency[source].add((target, False))
    for source, target in graph.special_edges:
        adjacency[source].add((target, True))

    # A cycle through a special edge exists iff for some special edge (u, v),
    # u is reachable from v.
    def reachable(start: Position, goal: Position) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for neighbour, _ in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return False

    return not any(
        reachable(target, source) for source, target in graph.special_edges
    )


# ----------------------------------------------------------------------
# Affected positions (for the weak classes)
# ----------------------------------------------------------------------
def affected_positions(tgds: Sequence[TGD]) -> Set[Position]:
    """Positions that may host labelled nulls during the chase.

    A position is affected if an existential variable occurs there in some
    head, or (inductively) if some tgd propagates a universal variable that
    occurs *only* at affected positions in its body to that head position.
    """
    affected: Set[Position] = set()
    for tgd in tgds:
        existential = tgd.existential_variables()
        for atom in tgd.head:
            for index, term in enumerate(atom.terms):
                if term in existential:
                    affected.add((atom.predicate, index))

    changed = True
    while changed:
        changed = False
        for tgd in tgds:
            for variable in tgd.frontier_variables():
                body_positions = {
                    (atom.predicate, index)
                    for atom in tgd.body
                    for index, term in enumerate(atom.terms)
                    if term == variable
                }
                if not body_positions or not body_positions <= affected:
                    continue
                for atom in tgd.head:
                    for index, term in enumerate(atom.terms):
                        if term == variable and (atom.predicate, index) not in affected:
                            affected.add((atom.predicate, index))
                            changed = True
    return affected


def is_weakly_guarded(tgds: Sequence[TGD]) -> bool:
    """Weak guardedness: a body atom covers all affected-only body variables.

    A body variable is *harmful* for a tgd if every body position where it
    occurs is affected; the tgd is weakly guarded if some body atom contains
    every harmful variable (a plain guard trivially qualifies).
    """
    affected = affected_positions(tgds)
    for tgd in tgds:
        harmful: Set[Variable] = set()
        for variable in tgd.body_variables():
            positions = {
                (atom.predicate, index)
                for atom in tgd.body
                for index, term in enumerate(atom.terms)
                if term == variable
            }
            if positions and positions <= affected:
                harmful.add(variable)
        if not harmful:
            continue
        if not any(harmful <= atom.variables() for atom in tgd.body):
            return False
    return True


def is_weakly_sticky(tgds: Sequence[TGD]) -> bool:
    """Weak stickiness: repeated marked body variables must touch a safe position.

    A position is *safe* when it is not affected (only finitely many values
    can ever appear there during the chase).  A set is weakly sticky if, for
    every tgd, every variable that occurs more than once in its body is
    either unmarked or occurs at some safe position.
    """
    from .marking import compute_marking

    affected = affected_positions(tgds)
    marking = compute_marking(tgds)
    for index, tgd in enumerate(tgds):
        occurrences: Dict[Variable, List[Position]] = {}
        for atom in tgd.body:
            for position_index, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    occurrences.setdefault(term, []).append(
                        (atom.predicate, position_index)
                    )
        for variable, positions in occurrences.items():
            if len(positions) < 2:
                continue
            if variable not in marking.marked_variables.get(index, set()):
                continue
            if all(position in affected for position in positions):
                return False
    return True
