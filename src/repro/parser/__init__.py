"""Datalog-like parser and pretty-printers."""

from .parser import (
    ParseError,
    parse_atom,
    parse_conjunction,
    parse_dependency,
    parse_egd,
    parse_program,
    parse_query,
    parse_tgd,
    parse_ucq,
    strip_comment,
)
from .formatting import (
    format_atom,
    format_conjunction,
    format_dependency,
    format_egd,
    format_instance,
    format_query,
    format_tgd,
    format_term,
    format_ucq,
)

__all__ = [
    "ParseError",
    "format_atom",
    "format_conjunction",
    "format_dependency",
    "format_egd",
    "format_instance",
    "format_query",
    "format_tgd",
    "format_term",
    "format_ucq",
    "parse_atom",
    "parse_conjunction",
    "parse_dependency",
    "parse_egd",
    "parse_program",
    "parse_query",
    "parse_tgd",
    "parse_ucq",
    "strip_comment",
]
