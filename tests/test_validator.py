"""validate() lexes a program's canonical text only when a node-count bound
says the token limit could matter. Against a validate that always lexes
it, it gives the same diagnostics for generated and hand-built programs.
"""

import math
import random
from dataclasses import fields, is_dataclass
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genprog import corrupted, rand_program
from lumenloop.dsl import validator
from lumenloop.dsl.baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from lumenloop.dsl.formatter import format_program
from lumenloop.dsl.nodes import (
    Assignment,
    BinOp,
    BoolOp,
    Comparison,
    If,
    MemRef,
    MotionCond,
    Neg,
    Not,
    Number,
    Program,
    Ref,
)
from lumenloop.dsl.tokens import tokenize
from lumenloop.dsl.validator import (
    MAX_BRANCH_MERGES,
    MAX_PROGRAM_TOKENS,
    TOKENS_PER_NODE,
    Diagnostic,
    _Checker,
    validate,
)
from lumenloop.errors import LexError


def validate_always_lexing(program):
    """validate's rule before the bound: the canonical text of every
    program whose operators are all known is rendered and lexed."""
    checker = _Checker()
    for stmt in program.statements:
        checker.check_statement(stmt)
    found = checker.diagnostics
    if not checker.unknown_op:
        try:
            count = len(tokenize(format_program(program)))
        except LexError as exc:
            found.append(Diagnostic(f"canonical text does not lex: {exc}", 1, 1))
        else:
            if count > MAX_PROGRAM_TOKENS:
                message = f"program has {count} tokens (limit {MAX_PROGRAM_TOKENS})"
                found.append(Diagnostic(message, 1, 1))
    if checker.merges > MAX_BRANCH_MERGES:
        found.append(Diagnostic(
            f"program's ifs write {checker.merges} targets, each counted "
            f"once per enclosing if (limit {MAX_BRANCH_MERGES})", 1, 1))
    return sorted(found, key=lambda d: (d.line, d.column))


def count_nodes(node):
    """Statements and their parts, every node once."""
    if isinstance(node, tuple):
        return sum(count_nodes(child) for child in node)
    if isinstance(node, Program):
        return count_nodes(node.statements)
    if not is_dataclass(node):
        return 0
    return 1 + sum(count_nodes(getattr(node, f.name)) for f in fields(node) if f.name != "pos")


def checked_nodes(program):
    checker = _Checker()
    for stmt in program.statements:
        checker.check_statement(stmt)
    return checker.nodes


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_generated_programs_get_the_diagnostics_of_always_lexing(seed, corrupt):
    rng = random.Random(seed)
    program = rand_program(rng)
    if corrupt:
        program = corrupted(program, rng)
    assert validate(program) == validate_always_lexing(program)
    assert checked_nodes(program) == count_nodes(program)


def test_a_generated_program_has_at_most_six_canonical_tokens_a_node():
    rng = random.Random(39)
    ratios = []
    for _ in range(1000):
        program = rand_program(rng)
        nodes = count_nodes(program)
        ratios.append(len(tokenize(format_program(program))) / nodes)
    assert max(ratios) <= TOKENS_PER_NODE


def assigned(value):
    return Program((Assignment("light", value),))


def lines(count):
    """``count`` statements ``light = 0.5``: two nodes and three tokens each."""
    return (Assignment("light", Number(0.5)),) * count


class LoudFloat(float):
    """A float whose repr is 10,001 tokens long."""

    def __repr__(self):
        return " + ".join(["1.0"] * 5_001)


UNDER, OVER = MAX_PROGRAM_TOKENS // TOKENS_PER_NODE, MAX_PROGRAM_TOKENS // TOKENS_PER_NODE + 1
HAND_BUILT = {
    # names the checker reports: unknown, or a memory name that is not one
    # identifier, some of whose canonical texts do not lex
    **{f"ref-{name!r}": assigned(Ref(name))
       for name in ("bogus", "if", "a b", "a$", "", "mem.x", "x²", " ".join(["a"] * 10_001))},
    **{f"memref-{name!r}": assigned(MemRef(name))
       for name in ("a b", "1a", "x$", "", "end", "x.y", " ".join(["a"] * 10_001))},
    **{f"target-{target!r}": Program((Assignment(target, Number(1.0)),))
       for target in ("bogus", "mem.", "mem.a b", "a$", "ambient", "mem.ok")},
    # floats of every kind, and numbers that are not floats
    **{f"number-{value!r}": assigned(Neg(Number(value)))
       for value in (-1.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -1e-7)},
    **{f"number-{type(value).__name__}": assigned(Number(value))
       for value in (1, True, Fraction(1, 3), Decimal("0.5"), "0.5", LoudFloat(0.5))},
    # unknown operators: no canonical text, so nothing is lexed
    "binop-%": assigned(BinOp("%", Ref("bogus"), Number(1.0))),
    "comparison-=": Program((If(Comparison("=", Ref("a b"), Number(1.0)), (), None),)),
    "boolop-xor": Program((If(BoolOp("xor", MotionCond(), Not(MotionCond())), (), None),)),
    # both sides of the six-tokens-a-node bound, and of the limit
    "nodes-under": Program(lines(UNDER // 2)),
    "nodes-over": Program(lines(UNDER // 2 - 1) + (Assignment("light", Neg(Number(0.5))),)),
    "tokens-at-limit": Program(lines(MAX_PROGRAM_TOKENS // 3)),
    "tokens-over-limit": Program(lines(MAX_PROGRAM_TOKENS // 3 + 1)),
}


@pytest.mark.parametrize("program", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_hand_built_programs_get_the_diagnostics_of_always_lexing(program):
    assert validate(program) == validate_always_lexing(program)


def test_the_bound_cases_sit_where_their_names_say():
    assert count_nodes(HAND_BUILT["nodes-under"]) == UNDER
    assert count_nodes(HAND_BUILT["nodes-over"]) == OVER
    assert len(validate(HAND_BUILT["tokens-at-limit"])) == 0
    assert [d.message for d in validate(HAND_BUILT["tokens-over-limit"])] == [
        f"program has {MAX_PROGRAM_TOKENS + 2} tokens (limit {MAX_PROGRAM_TOKENS})"]
    loud = validate(HAND_BUILT["number-LoudFloat"])  # under the bound, but not a float
    assert [d.message for d in loud] == [
        f"program has {MAX_PROGRAM_TOKENS + 3} tokens (limit {MAX_PROGRAM_TOKENS})"]


@pytest.mark.parametrize("name, lexes", [
    *((name, False) for name in BUILTIN_PROGRAM_SOURCES),
    ("nodes-under", False), ("nodes-over", True), ("ref-'bogus'", True),
    ("number-int", True), ("number--1.0", False), ("binop-%", False),
])
def test_the_canonical_text_is_lexed_only_past_the_bound(monkeypatch, name, lexes):
    program = HAND_BUILT[name] if name in HAND_BUILT else builtin_program(name)
    texts = []
    monkeypatch.setattr(validator, "tokenize", lambda text: texts.append(text) or tokenize(text))
    validate(program)
    assert len(texts) == lexes
