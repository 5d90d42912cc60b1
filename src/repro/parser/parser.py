"""A small Datalog-like surface syntax for queries and dependencies.

The syntax is deliberately minimal but convenient for examples and tests:

* atoms: ``R(x, y)`` — bare identifiers are variables, integers and quoted
  strings are constants;
* conjunctive queries: ``q(x, y) :- R(x, z), S(z, y)`` (Boolean queries can
  omit the head entirely: ``R(x, z), S(z, y)``);
* unions of CQs: disjuncts separated by ``;``;
* tgds: ``R(x, y), S(y, z) -> T(x, z), U(z, w)`` (variables appearing only in
  the head are read as existentially quantified);
* egds: ``R(x, y), R(x, z) -> y = z``;
* programs: dependencies separated by newlines or ``.``, with ``%``
  starting a comment that runs to the end of its line.

Quoting.  A string constant is written between single quotes (``'a b'``) or
double quotes (``"a b"``).  It runs to the next quote of the same kind —
there is no escape, so a constant cannot contain its own quote character —
and it is one token everywhere: a ``,``, ``(``, ``)``, ``:-``, ``->``,
``=``, ``;``, ``.`` or ``%`` inside it is part of the constant, never a
separator.  A quote without its closing partner is a :class:`ParseError`.

The parser reads a text in one pass: one precompiled pattern matches each
atom at its offset (checking its argument list on the way), and one more
classifies the atom's terms.  The separators above the atom level are
found by patterns that step over quoted constants.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from ..datamodel import Atom, Constant, Predicate, Schema, Term, Variable
from ..dependencies.egd import EGD
from ..dependencies.tgd import TGD
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries


class ParseError(ValueError):
    """Raised on malformed input."""


_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_QUOTED = r"'[^']*'|\"[^\"]*\""
_TERM_TEXT = rf"(?:-?\d+|{_QUOTED}|{_IDENTIFIER})"
#: A comma-separated list of terms, possibly empty.
_ARGUMENTS = rf"\s*(?:{_TERM_TEXT}\s*(?:,\s*{_TERM_TEXT}\s*)*)?"

#: One atom and the comma (or end of text) after it: group 1 is the
#: predicate name, group 2 the argument list.
_ATOM = re.compile(rf"\s*({_IDENTIFIER})\s*\(({_ARGUMENTS})\)\s*(?:,|\Z)")

#: One term of an argument list :data:`_ATOM` has matched; the group that
#: matched says what it is: 1 an integer, 2 or 3 a quoted string, 4 a
#: variable.
_TERM = re.compile(rf"(-?\d+)|'([^']*)'|\"([^\"]*)\"|({_IDENTIFIER})")

_ONE_TERM = re.compile(rf"\s*{_TERM_TEXT}\s*")

#: A query head and its ``:-``: a named head (group 1 the name, group 2 the
#: argument list), ``()`` or nothing.
_HEAD = re.compile(rf"\s*(?:({_IDENTIFIER})\s*\(({_ARGUMENTS})\)|\(\))?\s*:-")


def _separator(pattern: str) -> "re.Pattern[str]":
    """A pattern whose matches are quoted constants, or the separator
    ``pattern`` outside them (then group 1 is set)."""
    return re.compile(rf"{_QUOTED}|({pattern})")


_COMMENT = _separator("%")
_ARROW = _separator("->")
_EQUALS = _separator("=")
_DISJUNCTION = _separator(";")
#: A program's statements end at a newline, a period or a ``%`` comment,
#: which runs to the end of its line.
_STATEMENT = _separator(r"[\n.]|%[^\n]*")


def _split(text: str, separator: "re.Pattern[str]", limit: int = -1) -> List[str]:
    """``text`` cut at the separators outside quoted constants, at most
    ``limit`` times (no limit when negative)."""
    parts: List[str] = []
    start = 0
    for match in separator.finditer(text):
        if match.group(1) is None:  # a quoted constant: step over it
            continue
        if len(parts) == limit:
            break
        parts.append(text[start : match.start()])
        start = match.end()
    parts.append(text[start:])
    return parts


def strip_comment(line: str) -> str:
    """``line`` up to its ``%`` comment; a ``%`` inside a quoted constant
    starts none."""
    return _split(line, _COMMENT, 1)[0]


def _terms(arguments: str) -> Tuple[Term, ...]:
    """The terms of an argument list that :data:`_ARGUMENTS` matched."""
    terms: List[Term] = []
    append = terms.append
    for number, single, double, name in _TERM.findall(arguments):
        if name:
            append(Variable(name))
        elif number:
            append(Constant(int(number)))
        else:
            append(Constant(single or double))
    return tuple(terms)


def _variable(text: str) -> Variable:
    """The one variable ``text`` holds (a side of an egd's equality)."""
    if _ONE_TERM.fullmatch(text) is None:
        raise ParseError(f"invalid term {text.strip()!r}")
    term = _terms(text)[0]
    if not isinstance(term, Variable):
        raise ParseError("egds equate two variables")
    return term


def _atom(match: "re.Match[str]", schema: Optional[Schema]) -> Atom:
    """The atom an :data:`_ATOM` match spells."""
    terms = _terms(match.group(2))
    if schema is None:
        return Atom(Predicate(match.group(1), len(terms)), terms)
    return Atom(schema.predicate(match.group(1), len(terms)), terms)


def parse_atom(text: str, schema: Optional[Schema] = None) -> Atom:
    """Parse a single atom such as ``R(x, 'a', 3)``."""
    match = _ATOM.match(text)
    # The pattern reads the comma after an atom; one atom alone has none.
    if match is None or match.end() != len(text) or text.endswith(","):
        raise ParseError(f"malformed atom {text!r}")
    return _atom(match, schema)


def parse_conjunction(text: str, schema: Optional[Schema] = None) -> List[Atom]:
    """Parse a comma-separated conjunction of atoms (a trailing comma is
    allowed)."""
    atoms: List[Atom] = []
    end = len(text)
    position = 0
    while position < end:
        match = _ATOM.match(text, position)
        if match is None:
            rest = text[position:]
            if rest.isspace():
                break
            raise ParseError(f"malformed atom {rest!r}")
        atoms.append(_atom(match, schema))
        position = match.end()
    return atoms


def parse_query(text: str, schema: Optional[Schema] = None, name: str = "q") -> ConjunctiveQuery:
    """Parse a CQ.

    Accepted forms: ``q(x, y) :- body`` / ``() :- body`` / just ``body``
    (Boolean query).  Text that does not start with a head and ``:-`` is
    read as a body, where a ``:-`` outside quotes is malformed.
    """
    head: Tuple[Variable, ...] = ()
    match = _HEAD.match(text)
    if match is None:
        body = text
    else:
        body = text[match.end() :]
        if match.group(1) is not None:
            name = match.group(1)
            terms = _terms(match.group(2))
            for term in terms:
                if not isinstance(term, Variable):
                    raise ParseError("query heads may only contain variables")
            head = terms  # type: ignore[assignment]
    return ConjunctiveQuery(head, parse_conjunction(body, schema), name=name)


def parse_ucq(text: str, schema: Optional[Schema] = None, name: str = "Q") -> UnionOfConjunctiveQueries:
    """Parse a UCQ whose disjuncts are separated by ``;``."""
    disjunct_texts = [part for part in _split(text, _DISJUNCTION) if part.strip()]
    disjuncts = [
        parse_query(part, schema, name=f"{name}_{index}")
        for index, part in enumerate(disjunct_texts)
    ]
    return UnionOfConjunctiveQueries(disjuncts, name=name)


def _rule_sides(text: str, kind: str) -> Tuple[str, str]:
    """The body and head texts of a dependency ``body -> head``."""
    parts = _split(text, _ARROW, 1)
    if len(parts) != 2:
        raise ParseError(f"{kind} needs a '->': {text!r}")
    return parts[0], parts[1]


def parse_tgd(text: str, schema: Optional[Schema] = None, label: Optional[str] = None) -> TGD:
    """Parse a tgd ``body -> head`` (head variables not in the body are existential)."""
    body_text, head_text = _rule_sides(text, "a tgd")
    body = parse_conjunction(body_text, schema)
    head = parse_conjunction(head_text, schema)
    return TGD(body, head, label=label)


def parse_egd(text: str, schema: Optional[Schema] = None, label: Optional[str] = None) -> EGD:
    """Parse an egd ``body -> x = y``."""
    body_text, equality_text = _rule_sides(text, "an egd")
    sides = _split(equality_text, _EQUALS, 1)
    if len(sides) != 2:
        raise ParseError(f"an egd needs an equality in its head: {text!r}")
    left, right = (_variable(side) for side in sides)
    return EGD(parse_conjunction(body_text, schema), left, right, label=label)


def parse_dependency(text: str, schema: Optional[Schema] = None) -> Union[TGD, EGD]:
    """Parse either a tgd or an egd, deciding by the shape of the head."""
    _, head_text = _rule_sides(text, "a dependency")
    if len(_split(head_text, _EQUALS, 1)) == 2 and "(" not in head_text:
        return parse_egd(text, schema)
    return parse_tgd(text, schema)


def parse_program(
    text: str, schema: Optional[Schema] = None
) -> List[Union[TGD, EGD]]:
    """Parse a newline/period-separated list of dependencies (``%`` comments allowed)."""
    return [
        parse_dependency(statement, schema)
        for statement in _split(text, _STATEMENT)
        if statement.strip()
    ]
