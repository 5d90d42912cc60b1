"""The original assignment-dict implementation of Yannakakis' algorithm.

This module preserves the first-generation evaluator that represented every
row as a ``Dict[Variable, Term]`` and decided each semi-join with a nested
``any(_compatible(...))`` scan.  That scan is **quadratic** in the database
size (every row of a node is compared against every row of the child in the
worst case), which silently negated the linear-time guarantee the algorithm
is famous for.  The production evaluator lives in
:mod:`repro.evaluation.yannakakis` and runs on the hash-partitioned
:class:`repro.evaluation.relation.Relation` engine.

The dict implementation is a **test-only differential oracle**: it lives
under ``tests/helpers/`` and is deliberately *not* importable from
``repro.evaluation``.  ``benchmarks/bench_yannakakis_scaling.py`` imports
it as ``helpers.yannakakis_dict`` for its quadratic baseline (the
benchmarks' conftest puts ``tests/`` on ``sys.path``).  Two unrelated
implementations agreeing on randomized workloads is strong evidence for
both.

One genuine bug of the original has been fixed here as well: deduplication
used to key projected rows on ``(variable.name, str(term))``, which
conflates distinct terms with equal string forms (``Constant(1)`` vs
``Constant("1")``, or a ``Constant`` and a ``Null`` sharing a name) and
silently merged distinct partial tuples.  Terms are hashable — the key is
now the term objects themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.datamodel import Atom, Constant, Instance, Term, Variable
from repro.hypergraph import JoinTree, JoinTreeError, build_join_tree, query_connectors
from repro.queries.cq import ConjunctiveQuery
from repro.evaluation.yannakakis import AcyclicityRequired


Assignment = Dict[Variable, Term]


def _atom_assignments(atom: Atom, database: Instance) -> List[Assignment]:
    """All ways of matching a single query atom against the database."""
    assignments: List[Assignment] = []
    for fact in database.atoms_with_predicate(atom.predicate):
        mapping: Assignment = {}
        compatible = True
        for query_term, data_term in zip(atom.terms, fact.terms):
            if isinstance(query_term, Constant):
                if query_term != data_term:
                    compatible = False
                    break
            else:
                bound = mapping.get(query_term)  # type: ignore[arg-type]
                if bound is None:
                    mapping[query_term] = data_term  # type: ignore[index]
                elif bound != data_term:
                    compatible = False
                    break
        if compatible:
            assignments.append(mapping)
    return assignments


def _compatible(left: Assignment, right: Assignment, shared: Iterable[Variable]) -> bool:
    return all(left[variable] == right[variable] for variable in shared)


@dataclass
class _NodeRelation:
    variables: FrozenSet[Variable]
    assignments: List[Assignment]


class DictYannakakisEvaluator:
    """The seed evaluator: correct answers, quadratic semi-join passes."""

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query
        try:
            self.join_tree: JoinTree = build_join_tree(query.body, query_connectors)
        except JoinTreeError as error:
            raise AcyclicityRequired(str(error)) from error
        self._node_variables: Dict[int, FrozenSet[Variable]] = {
            node.identifier: frozenset(node.atom.variables())
            for node in self.join_tree.nodes()
        }

    # ------------------------------------------------------------------
    def _reduce(self, database: Instance) -> Optional[Dict[int, _NodeRelation]]:
        """Phases 1–3; returns per-node reduced relations or ``None`` if empty."""
        relations: Dict[int, _NodeRelation] = {}
        for node in self.join_tree.nodes():
            assignments = _atom_assignments(node.atom, database)
            if not assignments:
                return None
            relations[node.identifier] = _NodeRelation(
                self._node_variables[node.identifier], assignments
            )

        # Bottom-up semi-joins (nested loop: quadratic by design, see module
        # docstring).
        for identifier in self.join_tree.bottom_up_order():
            for child in self.join_tree.children(identifier):
                shared = relations[identifier].variables & relations[child].variables
                child_rows = relations[child].assignments
                kept = [
                    row
                    for row in relations[identifier].assignments
                    if any(_compatible(row, other, shared) for other in child_rows)
                ]
                relations[identifier].assignments = kept
                if not kept:
                    return None

        # Top-down semi-joins.
        for identifier in self.join_tree.top_down_order():
            parent = self.join_tree.parent(identifier)
            if parent is None:
                continue
            shared = relations[identifier].variables & relations[parent].variables
            parent_rows = relations[parent].assignments
            kept = [
                row
                for row in relations[identifier].assignments
                if any(_compatible(row, other, shared) for other in parent_rows)
            ]
            relations[identifier].assignments = kept
            if not kept:
                return None
        return relations

    # ------------------------------------------------------------------
    def boolean(self, database: Instance) -> bool:
        """Return ``True`` iff the (Boolean reading of the) query holds in ``database``."""
        return self._reduce(database) is not None

    def evaluate(self, database: Instance) -> Set[Tuple[Term, ...]]:
        """Return the full answer set ``q(D)``."""
        relations = self._reduce(database)
        if relations is None:
            return set()
        free_variables = set(self.query.head)

        # For every node, the variables that must be carried upward: free
        # variables of its subtree plus the variables shared with the parent.
        carry: Dict[int, Set[Variable]] = {}
        for identifier in self.join_tree.bottom_up_order():
            wanted = (self._node_variables[identifier] & free_variables) | set()
            for child in self.join_tree.children(identifier):
                wanted |= carry[child] & (
                    free_variables
                    | (self._node_variables[identifier] & self._node_variables[child])
                )
                wanted |= carry[child] & free_variables
            parent = self.join_tree.parent(identifier)
            if parent is not None:
                wanted |= self._node_variables[identifier] & self._node_variables[parent]
            carry[identifier] = wanted

        # Bottom-up projection joins: each node produces partial tuples over
        # carry[node], combining its own rows with its children's results.
        partial: Dict[int, List[Assignment]] = {}
        for identifier in self.join_tree.bottom_up_order():
            rows = relations[identifier].assignments
            results: List[Assignment] = []
            children = self.join_tree.children(identifier)
            for row in rows:
                stack: List[Tuple[int, Assignment]] = [(0, dict(row))]
                while stack:
                    child_index, accumulated = stack.pop()
                    if child_index == len(children):
                        projected = {
                            variable: accumulated[variable]
                            for variable in carry[identifier]
                            if variable in accumulated
                        }
                        results.append(projected)
                        continue
                    child = children[child_index]
                    for child_row in partial[child]:
                        if all(
                            accumulated.get(variable, child_row.get(variable))
                            == child_row.get(variable, accumulated.get(variable))
                            for variable in set(accumulated) & set(child_row)
                        ):
                            merged = dict(accumulated)
                            merged.update(child_row)
                            stack.append((child_index + 1, merged))
            # Deduplicate projected rows, keyed on the term objects (not
            # their string forms — see module docstring).
            unique: Dict[Tuple, Assignment] = {}
            for row in results:
                key = tuple(sorted(row.items(), key=lambda item: item[0].name))
                unique[key] = row
            partial[identifier] = list(unique.values())

        answers: Set[Tuple[Term, ...]] = set()
        for row in partial[self.join_tree.root]:
            if all(variable in row for variable in free_variables):
                answers.add(tuple(row[variable] for variable in self.query.head))
        return answers
