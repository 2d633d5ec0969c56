"""AST node types.

Nodes compare structurally; source positions are carried for diagnostics
but excluded from equality so parse(format(ast)) == ast holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Union

SENSOR_NAMES = ("ambient", "motion", "signal", "light", "ticks_since_motion", "tick")
ACTUATOR_NAMES = ("light", "listen", "broadcast")
# Sensors that have no actuator counterpart and therefore reject assignment.
READ_ONLY_NAMES = frozenset(SENSOR_NAMES) - frozenset(ACTUATOR_NAMES)

# Binary operator levels, loosest first; every level is left-associative.
# The parser builds one chain per level and the formatter parenthesizes
# by level, so this is the only statement of operator precedence.
COND_LEVELS = (("or",), ("and",))
EXPR_LEVELS = (("+", "-"), ("*", "/"))
BINARY_LEVEL = {
    op: level
    for levels in (COND_LEVELS, EXPR_LEVELS)
    for level, ops in enumerate(levels)
    for op in ops
}


class Pos(NamedTuple):
    line: int = 0
    column: int = 0


_NO_POS = Pos()


@dataclass(frozen=True)
class Number:
    value: float
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class Ref:
    """A bare identifier read, normally one of SENSOR_NAMES."""

    name: str
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class MemRef:
    """A ``mem.<name>`` read."""

    name: str
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


Expr = Union[Number, Ref, MemRef, Neg, BinOp]


@dataclass(frozen=True)
class Comparison:
    op: str  # < <= > >= == !=
    left: Expr
    right: Expr
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class MotionCond:
    """Bare ``motion`` used directly as a condition."""

    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class BoolOp:
    op: str  # and | or
    left: "Cond"
    right: "Cond"
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class Not:
    operand: "Cond"
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


Cond = Union[Comparison, MotionCond, BoolOp, Not]


@dataclass(frozen=True)
class Assignment:
    """``target = expr``.

    The target is kept as written: "light", "listen", "broadcast",
    "mem.<name>", or (in ill-formed programs) any other identifier.
    """

    target: str
    value: Expr
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


@dataclass(frozen=True)
class If:
    condition: Cond
    then_body: tuple["Statement", ...]
    else_body: tuple["Statement", ...] | None
    pos: Pos = field(default=_NO_POS, compare=False, kw_only=True)


Statement = Union[Assignment, If]


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]
