"""Relational data model: terms, atoms, schemas, instances and databases."""

from .terms import (
    Constant,
    GroundTerm,
    Null,
    Term,
    TermFactory,
    Variable,
    freeze_variable,
    fresh_null,
    fresh_variable,
    is_frozen_constant,
    is_ground,
    unfreeze_constant,
)
from .atoms import (
    Atom,
    Predicate,
    atoms_constants,
    atoms_predicates,
    atoms_variables,
)
from .schema import Schema
from .instance import Database, Instance, instance_from_tuples

__all__ = [
    "Atom",
    "Constant",
    "Database",
    "GroundTerm",
    "Instance",
    "Null",
    "Predicate",
    "Schema",
    "Term",
    "TermFactory",
    "Variable",
    "atoms_constants",
    "atoms_predicates",
    "atoms_variables",
    "freeze_variable",
    "fresh_null",
    "fresh_variable",
    "instance_from_tuples",
    "is_frozen_constant",
    "is_ground",
    "unfreeze_constant",
]
