"""The package's one-pass parser against the recursive-descent parser in
descent_parser.py: an equal AST with every node's position equal, or the
same ParseError message, line and column.

The texts are generated programs, the same programs with a few tokens
dropped, duplicated, swapped or inserted, the error cases of
test_dsl_parse.py, and nesting at the parser's limit and one either side.
"""

import random
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descent_parser
from dslcases import CORPUS, PARSE_ERRORS
from genprog import rand_program
from lumenloop.dsl.formatter import format_program
from lumenloop.dsl.parser import MAX_NESTING, parse_source
from lumenloop.dsl.tokens import tokenize
from lumenloop.errors import ParseError


def positioned(node):
    """``node`` as nested tuples of every field, ``pos`` included (AST
    equality leaves positions out)."""
    if isinstance(node, tuple):
        return tuple(positioned(child) for child in node)
    if is_dataclass(node):
        return (type(node).__name__, *(positioned(getattr(node, f.name)) for f in fields(node)))
    return node


def parsed(parse, text):
    """The positioned AST, or the ParseError's message, line and column."""
    try:
        return positioned(parse(text))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)


def assert_parsers_agree(text):
    assert parsed(parse_source, text) == parsed(descent_parser.parse_source, text)


# "(", ")", "not" and every operator
INSERTED = ["(", ")", "not", "and", "or", "+", "-", "*", "/", "=",
            "<", "<=", ">", ">=", "==", "!="]


def render(tokens):
    """Source text for ``(lexeme, line)`` pairs: a newline where the line
    changes, else a space."""
    pieces = []
    for k, (lexeme, line) in enumerate(tokens):
        if k:
            pieces.append("\n" if line != tokens[k - 1][1] else " ")
        pieces.append(lexeme)
    return "".join(pieces)


@st.composite
def mutated_programs(draw):
    program = rand_program(random.Random(draw(st.integers(0, 2**32 - 1))))
    tokens = [(t.lexeme, t.line) for t in tokenize(format_program(program))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "insert"]))
        if edit == "drop":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(i, (draw(st.sampled_from(INSERTED)), tokens[i][1]))
        if not tokens:
            break
    return render(tokens)


@settings(max_examples=1500)
@given(mutated_programs())
def test_the_parser_matches_the_descent_parser(text):
    assert_parsers_agree(text)


def at_the_limit(k):
    """Texts nested ``k`` deep in each way the parser counts a level."""
    half = k // 2
    return {
        "parentheses": "light = " + "(" * k + "1" + ")" * k,
        "negations": "light = " + "-" * k + "1",
        "sum": "light = 1" + " + 1" * k,
        "product": "light = 1" + " * 2" * k + " - 3",
        "motion": "if " + "(" * k + "motion" + ")" * k + " then end",
        "comparison": "if " + "(" * k + "a < 1" + ")" * k + " then end",
        "or": "if motion" + " or motion" * k + " then end",
        "ifs": "if motion then " * k + "light = 1" + " end" * k,
        "ifs-and-parentheses": "if motion then " * half + "light = " + "(" * half + "1"
        + ")" * half + " end" * half,
        # "(" falls back to a condition after a comparison failed too
        # deep; the descent parser held one level for the fallback then
        "fallback": "if " + "(" * (k - 1) + "motion" + ")" * (k - 1) + " + 1" * 100 + " then end",
    }


CASES = {
    **{f"corpus-{i}": text for i, text in enumerate(CORPUS)},
    **{f"error-{i}": text for i, (text, _) in enumerate(PARSE_ERRORS)},
    **{f"{name}-{k}": text
       for k in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1)
       for name, text in at_the_limit(k).items()},
    "empty": "", "comment": "# only a comment", "lines": "light = 1\n\nmem.x = light",
    "if": "if", "if-(": "if (", "mem": "mem", "mem.": "mem.", "huge": "light = " + "9" * 400,
    "empty-else": "if motion then light = 1 else end",
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_each_case_parses_as_the_descent_parser_parses_it(text):
    assert_parsers_agree(text)


def test_a_chain_of_one_hundred_operators_parses_and_one_more_is_too_deep():
    parse_source("light = 1" + " + 1" * 100)
    with pytest.raises(ParseError) as err:
        parse_source("light = 1" + " + 1" * 101)
    assert (str(err.value), err.value.line, err.value.column) == (
        "line 1, column 413: nesting too deep", 1, 413)
