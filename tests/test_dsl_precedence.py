"""Parser and formatter agree on operator precedence, shape by shape.

Every tree of depth at most 2 is built over one leaf: the four arithmetic
operators and unary minus over ``ambient``, and ``and``/``or``/``not`` over
``motion`` and one comparison. Each must survive format -> parse unchanged,
and its canonical text must be a fixed point of format -> parse -> format.
"""

from lumenloop.dsl.formatter import format_program
from lumenloop.dsl.nodes import (
    Assignment,
    BinOp,
    BoolOp,
    Comparison,
    If,
    MotionCond,
    Neg,
    Not,
    Number,
    Program,
    Ref,
)
from lumenloop.dsl.parser import parse_source

LIGHT_ON = (Assignment("light", Number(1.0)),)


def shapes(leaves, prefix, binary, ops, depth):
    """Every tree of depth <= ``depth``, in a fixed order."""
    if depth == 0:
        return list(leaves)
    below = shapes(leaves, prefix, binary, ops, depth - 1)
    return [
        *leaves,
        *(prefix(node) for node in below),
        *(binary(op, left, right) for op in ops for left in below for right in below),
    ]


EXPRS = shapes([Ref("ambient")], Neg, BinOp, ("+", "-", "*", "/"), 2)
CONDS = shapes([MotionCond(), Comparison(">", Ref("ambient"), Number(0.5))],
               Not, BoolOp, ("and", "or"), 2)


def assert_round_trip(program):
    text = format_program(program)
    assert parse_source(text) == program, text
    assert format_program(parse_source(text)) == text


def test_every_depth_2_expression_round_trips():
    assert len(EXPRS) == 1 + 6 + 4 * 6 * 6
    for expr in EXPRS:
        assert_round_trip(Program((Assignment("light", expr),)))


def test_every_depth_2_condition_round_trips():
    assert len(CONDS) == 2 + 12 + 2 * 12 * 12
    for cond in CONDS:
        assert_round_trip(Program((If(cond, LIGHT_ON, None),)))
