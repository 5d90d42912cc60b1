"""Pretty-printers producing the same surface syntax the parser accepts."""

from __future__ import annotations

from typing import Iterable, Union

from ..datamodel import Atom, Constant, Instance, Term
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries


def format_term(term: Term) -> str:
    """Render a term in parser-compatible syntax.

    A string constant is single-quoted, or double-quoted when it holds a
    single quote; one holding both kinds cannot be written (the syntax has
    no escape)."""
    if isinstance(term, Constant):
        if isinstance(term.name, int):
            return str(term.name)
        name = str(term.name)
        if "'" in name and '"' not in name:
            return f'"{name}"'
        return f"'{name}'"
    return str(term)


def format_atom(atom: Atom) -> str:
    """Render an atom in parser-compatible syntax."""
    return f"{atom.predicate.name}({', '.join(format_term(t) for t in atom.terms)})"


def format_conjunction(atoms: Iterable[Atom]) -> str:
    return ", ".join(format_atom(atom) for atom in atoms)


def format_query(query: ConjunctiveQuery) -> str:
    """Render a CQ as ``name(x, y) :- body`` (Boolean queries omit the head)."""
    body = format_conjunction(query.body)
    if not query.head:
        return body
    head = f"{query.name}({', '.join(str(v) for v in query.head)})"
    return f"{head} :- {body}"


def format_ucq(ucq: UnionOfConjunctiveQueries) -> str:
    """Render a UCQ with ``;`` separated disjuncts."""
    return " ; ".join(format_query(q) for q in ucq)


def format_tgd(tgd: TGD) -> str:
    """Render a tgd as ``body -> head``."""
    return f"{format_conjunction(tgd.body)} -> {format_conjunction(tgd.head)}"


def format_egd(egd: EGD) -> str:
    """Render an egd as ``body -> x = y``."""
    return f"{format_conjunction(egd.body)} -> {egd.left} = {egd.right}"


def format_dependency(dependency: Union[TGD, EGD]) -> str:
    if isinstance(dependency, TGD):
        return format_tgd(dependency)
    return format_egd(dependency)


def format_instance(instance: Instance) -> str:
    """Render an instance one fact per line (deterministic order)."""
    return "\n".join(format_atom(atom) for atom in instance.sorted_atoms())
