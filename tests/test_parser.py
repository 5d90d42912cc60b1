"""Tests for the Datalog-like parser and the pretty-printers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Atom, Constant, Predicate, Schema, Variable
from repro.dependencies import EGD, TGD
from repro.queries.cq import ConjunctiveQuery
from repro.parser import (
    ParseError,
    format_atom,
    format_dependency,
    format_egd,
    format_instance,
    format_query,
    format_tgd,
    format_ucq,
    parse_atom,
    parse_conjunction,
    parse_dependency,
    parse_egd,
    parse_program,
    parse_query,
    parse_tgd,
    parse_ucq,
)


class TestParsing:
    def test_parse_atom_terms(self):
        atom = parse_atom("R(x, 'a', 3)")
        assert atom.predicate == Predicate("R", 3)
        assert atom.terms == (Variable("x"), Constant("a"), Constant(3))

    def test_parse_nullary_atom(self):
        atom = parse_atom("Flag()")
        assert atom.predicate.arity == 0

    def test_malformed_atoms(self):
        for text in ["R(x", "R x)", "R(x,)", "(x, y)", "R(x y)"]:
            with pytest.raises(ParseError):
                parse_atom(text)

    def test_parse_conjunction_splits_on_top_level_commas(self):
        atoms = parse_conjunction("R(x, y), S(y, z, w), T(x)")
        assert [a.predicate.name for a in atoms] == ["R", "S", "T"]

    def test_parse_boolean_query(self):
        query = parse_query("R(x, y), S(y, z, w)")
        assert query.is_boolean()
        assert len(query) == 2

    def test_parse_query_with_head(self):
        query = parse_query("answer(x, z) :- R(x, y), R(y, z)")
        assert query.name == "answer"
        assert query.head == (Variable("x"), Variable("z"))

    def test_head_constants_are_rejected(self):
        with pytest.raises(ParseError):
            parse_query("q(x, 'a') :- R(x, y)")

    def test_parse_ucq(self):
        ucq = parse_ucq("q(x) :- R(x, y) ; q(x) :- S(x)")
        assert len(ucq) == 2
        assert ucq.arity == 1

    def test_parse_tgd(self):
        tgd = parse_tgd("R(x, y), S(y) -> T(x, z)")
        assert isinstance(tgd, TGD)
        assert tgd.existential_variables() == {Variable("z")}

    def test_parse_egd(self):
        egd = parse_egd("R(x, y), R(x, z) -> y = z")
        assert isinstance(egd, EGD)
        assert {egd.left, egd.right} == {Variable("y"), Variable("z")}

    def test_parse_dependency_dispatch(self):
        assert isinstance(parse_dependency("R(x, y) -> S(x)"), TGD)
        assert isinstance(parse_dependency("R(x, y), R(x, z) -> y = z"), EGD)

    def test_parse_program(self):
        program = parse_program(
            """
            % keys and inclusions
            R(x, y), R(x, z) -> y = z
            R(x, y) -> S(x)
            """
        )
        assert len(program) == 2
        assert isinstance(program[0], EGD)
        assert isinstance(program[1], TGD)

    def test_schema_checks_arities(self):
        schema = Schema([Predicate("R", 2)])
        with pytest.raises(ValueError):
            parse_atom("R(x, y, z)", schema)

    def test_missing_arrow_errors(self):
        with pytest.raises(ParseError):
            parse_tgd("R(x, y)")
        with pytest.raises(ParseError):
            parse_egd("R(x, y) -> S(x)")
        with pytest.raises(ParseError):
            parse_dependency("R(x, y)")


class TestFormattingRoundTrips:
    def test_atom_round_trip(self):
        atom = parse_atom("R(x, 'a', 3)")
        assert parse_atom(format_atom(atom)) == atom

    def test_query_round_trip(self):
        query = parse_query("q(x, z) :- R(x, y), R(y, z)")
        assert parse_query(format_query(query)) == query

    def test_boolean_query_round_trip(self):
        query = parse_query("R(x, y), S(y, z, w)")
        assert parse_query(format_query(query)) == query

    def test_tgd_round_trip(self):
        tgd = parse_tgd("R(x, y), S(y) -> T(x, z)")
        assert parse_tgd(format_tgd(tgd)) == tgd

    def test_egd_round_trip(self):
        egd = parse_egd("R(x, y), R(x, z) -> y = z")
        assert parse_egd(format_egd(egd)) == egd
        assert "=" in format_dependency(egd)

    def test_ucq_round_trip(self):
        ucq = parse_ucq("q(x) :- R(x, y) ; q(x) :- S(x)")
        assert parse_ucq(format_ucq(ucq)) == ucq

    def test_format_instance_is_deterministic(self):
        query = parse_query("R(x, y), S(y, z, w)")
        database = query.canonical_database()
        assert format_instance(database) == format_instance(database.copy())


#: One input per kind of ``ParseError`` the parser raises, with the function
#: that parses it.  Pinned before the one-pass rewrite of the parser: every
#: entry must keep raising ``ParseError`` (the message may change).
PARSE_ERRORS = [
    (parse_atom, "R(x"),  # unclosed argument list
    (parse_atom, "R x)"),  # no opening parenthesis
    (parse_atom, "R x, y)"),
    (parse_atom, "(x, y)"),  # no predicate name
    (parse_atom, "1R(x)"),  # predicate name starts with a digit
    (parse_atom, "R(x,)"),  # empty last term
    (parse_atom, "R(x y)"),  # two terms without a comma
    (parse_atom, "R(x) extra"),  # text after the atom
    (parse_query, "R(x) S(y)"),  # two atoms without a comma
    (parse_query, "R((x))"),  # nested parentheses
    (parse_query, "R(x))"),  # unbalanced closing parenthesis
    (parse_query, "R(x), (y)"),  # nameless atom in a conjunction
    (parse_query, "R(x),,S(y)"),  # empty atom between commas
    (parse_query, "q(x :- R(x)"),  # malformed head
    (parse_query, "R(x,,y)"),  # empty term between commas
    (parse_query, "R(x-y)"),  # invalid term
    (parse_query, "R(1.5)"),  # not an integer
    (parse_query, "R('a)"),  # unterminated single quote
    (parse_query, 'R("a)'),  # unterminated double quote
    (parse_query, "q(x, 'a') :- R(x, y)"),  # constant in the head
    (parse_query, "q(3) :- R(x)"),  # number in the head
    (parse_ucq, "q(x) :- R(x ; q(x) :- S(x)"),  # unclosed atom in a disjunct
    (parse_tgd, "A(x) B(x)"),  # no arrow
    (parse_egd, "A(x, y) -> x"),  # no equality
    (parse_egd, "R(x, y) -> S(x)"),
    (parse_egd, "A(x, y) -> x = 'c'"),  # an egd equates variables only
    (parse_dependency, "R(x, y)"),  # no arrow
]


@pytest.mark.parametrize(
    "parse, text", PARSE_ERRORS, ids=[f"{p.__name__}:{t}" for p, t in PARSE_ERRORS]
)
def test_malformed_input_raises_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


class TestQuotedConstants:
    """A quoted constant is one token: no separator inside it splits the
    text, and a quote without its partner is an error."""

    def test_lone_quote_is_a_parse_error(self):
        for text in ("R(', x)", 'R(", x)', "R(x, ')", "q(x) :- R(x, ')"):
            with pytest.raises(ParseError):
                parse_query(text)

    def test_comma_inside_a_constant_round_trips(self):
        atom = Atom(Predicate("R", 2), (Constant("a,b"), Variable("x")))
        assert parse_atom(format_atom(atom)) == atom

    def test_parenthesis_inside_a_constant(self):
        query = parse_query("R('a(b', x), S(')')")
        assert query.body[0].terms == (Constant("a(b"), Variable("x"))
        assert query.body[1].terms == (Constant(")"),)

    def test_period_inside_a_constant_does_not_end_a_statement(self):
        (tgd,) = parse_program("R(x, 'a.b') -> S(x)")
        assert tgd.body[0].terms == (Variable("x"), Constant("a.b"))

    def test_semicolon_inside_a_constant_does_not_split_a_union(self):
        ucq = parse_ucq("q(x) :- R(x, 'a;b') ; q(x) :- S(x)")
        assert len(ucq) == 2
        assert ucq.disjuncts[0].body[0].terms[1] == Constant("a;b")

    def test_rule_separators_inside_constants(self):
        query = parse_query("q(x) :- R(x, ':-')")
        assert query.head == (Variable("x"),)
        assert query.body[0].terms[1] == Constant(":-")
        tgd = parse_dependency("R(x, '->') -> S(x, '=')")
        assert isinstance(tgd, TGD)
        assert tgd.head[0].terms[1] == Constant("=")
        assert isinstance(parse_dependency("R(x, '=') -> S(x)"), TGD)

    def test_comments_end_at_the_line_and_skip_quotes(self):
        program = parse_program(
            "% it's a comment. With a period\n"
            "R(x, '50%') -> S(x) % trailing: it's ignored\n"
            "R(x, y), R(x, z) -> y = z."
        )
        assert len(program) == 2
        assert program[0].body[0].terms[1] == Constant("50%")
        assert isinstance(program[1], EGD)

    def test_a_constant_holding_a_single_quote_uses_double_quotes(self):
        atom = Atom(Predicate("R", 1), (Constant("it's"),))
        assert format_atom(atom) == 'R("it\'s")'
        assert parse_atom(format_atom(atom)) == atom


_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,4}", fullmatch=True)
_PREDICATE_NAMES = st.from_regex(r"[A-Z][A-Za-z0-9_]{0,3}", fullmatch=True)
#: String constants without the quote character ``format_term`` uses.
_STRINGS = st.text(
    alphabet=st.characters(blacklist_characters="'", blacklist_categories=("Cs",)),
    max_size=6,
)
_TERMS = st.one_of(
    _NAMES.map(Variable),
    _STRINGS.map(Constant),
    st.integers(min_value=-10**6, max_value=10**6).map(Constant),
)


@st.composite
def _atoms(draw):
    terms = tuple(draw(st.lists(_TERMS, max_size=3)))
    return Atom(Predicate(draw(_PREDICATE_NAMES), len(terms)), terms)


@st.composite
def _queries(draw):
    body = draw(st.lists(_atoms(), min_size=1, max_size=4))
    variables = sorted({t for atom in body for t in atom.terms if isinstance(t, Variable)}, key=str)
    head = draw(st.lists(st.sampled_from(variables), max_size=3)) if variables else []
    return ConjunctiveQuery(head, body, name=draw(_PREDICATE_NAMES))


@st.composite
def _tgds(draw):
    body = draw(st.lists(_atoms(), min_size=1, max_size=3))
    head = draw(st.lists(_atoms(), min_size=1, max_size=2))
    return TGD(body, head)


class TestRoundTrips:
    """``parse(format(x)) == x`` over string constants without a quote."""

    @settings(max_examples=100, deadline=None)
    @given(_queries())
    def test_query_round_trip(self, query):
        parsed = parse_query(format_query(query))
        assert parsed == query
        assert parsed.body == query.body

    @settings(max_examples=50, deadline=None)
    @given(_tgds())
    def test_tgd_round_trip(self, tgd):
        assert parse_tgd(format_tgd(tgd)) == tgd

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_tgds(), min_size=1, max_size=3))
    def test_program_round_trip(self, tgds):
        text = "\n".join(format_dependency(tgd) for tgd in tgds)
        assert parse_program(text) == tgds

    @pytest.mark.parametrize(
        "text",
        [
            "q(x) :- R('a,b', x)",
            "q(x) :- R('a(b', x)",
            "q(x) :- R(x, 'a.b'), S(x, ';'), T('%', \"it's\")",
            "R(x, '->'), S('=', ':-')",
        ],
    )
    def test_examples(self, text):
        query = parse_query(text)
        assert parse_query(format_query(query)) == query
