"""Seeded random program and sensor-reading generators for fuzz tests.

Programs are built as ASTs (guaranteed structurally valid), with nonnegative
literals of at most six fractional digits, bounded nesting, and empty else
branches represented as None to match what the parser produces.
"""

import random
from dataclasses import fields, is_dataclass, replace

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
from lumenloop.engine import SensorReading

SENSORS = ("ambient", "motion", "signal", "light", "ticks_since_motion", "tick")
ACTUATORS = ("light", "listen", "broadcast")
MEM_NAMES = ("a", "b", "acc")
COMPARATORS = ("<", "<=", ">", ">=", "==", "!=")
BIN_OPS = ("+", "-", "*", "/")


def rand_number(rng: random.Random) -> Number:
    scale = rng.choice((1.0, 1.0, 1.0, 10.0, 100.0))
    return Number(round(rng.random() * scale, rng.randrange(7)))


def rand_expr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.45:
            return rand_number(rng)
        if roll < 0.85:
            return Ref(rng.choice(SENSORS))
        return MemRef(rng.choice(MEM_NAMES))
    if rng.random() < 0.15:
        return Neg(rand_expr(rng, depth - 1))
    return BinOp(
        rng.choice(BIN_OPS), rand_expr(rng, depth - 1), rand_expr(rng, depth - 1)
    )


def rand_cond(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.2:
            return MotionCond()
        return Comparison(
            rng.choice(COMPARATORS), rand_expr(rng, 2), rand_expr(rng, 2)
        )
    if rng.random() < 0.25:
        return Not(rand_cond(rng, depth - 1))
    return BoolOp(
        rng.choice(("and", "or")), rand_cond(rng, depth - 1), rand_cond(rng, depth - 1)
    )


def rand_statement(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.6:
        target = rng.choice(ACTUATORS + tuple("mem." + n for n in MEM_NAMES))
        return Assignment(target, rand_expr(rng, 3))
    then_body = tuple(
        rand_statement(rng, depth - 1) for _ in range(rng.randrange(0, 3))
    )
    else_body = None
    if rng.random() < 0.5:
        stmts = tuple(rand_statement(rng, depth - 1) for _ in range(rng.randrange(1, 3)))
        else_body = stmts or None
    return If(rand_cond(rng, 2), then_body, else_body)


def rand_program(rng: random.Random) -> Program:
    return Program(tuple(rand_statement(rng, 3) for _ in range(rng.randrange(1, 5))))


def rand_stateless_program(rng: random.Random) -> Program:
    """A random program whose step is stateless (``engine.BatchStep``): one
    of ``rand_program``'s with every memory slot and ``tick`` read as
    another sensor, every memory write made to ``broadcast``, and
    ``ticks_since_motion`` kept only where it is compared with a number."""
    return Program(tuple(_stateless(node) for node in rand_program(rng).statements))


def _stateless(node):
    if isinstance(node, Assignment):
        target = "broadcast" if node.target.startswith("mem.") else node.target
        return Assignment(target, _stateless(node.value))
    if isinstance(node, If):
        return If(_stateless(node.condition), tuple(map(_stateless, node.then_body)),
                  node.else_body and tuple(map(_stateless, node.else_body)))
    if isinstance(node, Comparison):
        counter = Ref("ticks_since_motion")
        if node.left == counter and isinstance(node.right, Number):
            return node
        if node.right == counter and isinstance(node.left, Number):
            return node
        return replace(node, left=_stateless(node.left), right=_stateless(node.right))
    if isinstance(node, (BinOp, BoolOp)):
        return replace(node, left=_stateless(node.left), right=_stateless(node.right))
    if isinstance(node, (Neg, Not)):
        return replace(node, operand=_stateless(node.operand))
    if isinstance(node, MemRef):
        return Ref("signal")
    if isinstance(node, Ref) and node.name in ("tick", "ticks_since_motion"):
        return Ref("ambient" if node.name == "tick" else "light")
    return node


# Names the validator rejects, or whose formatted text does not lex or parse.
UNKNOWN_NAMES = ("bogus", "lights", "mem", "if")
BAD_MEM_NAMES = ("1a", "a b", "x.y", "", "a#", "end", "x$", "x²")
BAD_TARGETS = ("ambient", "motion", "signal", "tick", "ticks_since_motion", "bogus", "mem.2")


def corrupted(node, rng):
    """``node`` with some reads and targets swapped for bad names."""
    if isinstance(node, Ref) and rng.random() < 0.1:
        return Ref(rng.choice(UNKNOWN_NAMES))
    if isinstance(node, MemRef) and rng.random() < 0.1:
        return MemRef(rng.choice(BAD_MEM_NAMES))
    if isinstance(node, Assignment) and rng.random() < 0.1:
        node = replace(node, target=rng.choice(BAD_TARGETS))
    changes = {}
    for f in fields(node):
        if f.name == "pos":  # a tuple, but of numbers
            continue
        value = getattr(node, f.name)
        if isinstance(value, tuple):
            changes[f.name] = tuple(corrupted(v, rng) for v in value)
        elif is_dataclass(value):
            changes[f.name] = corrupted(value, rng)
    return replace(node, **changes)


def rand_reading(rng: random.Random, tick: int = 0) -> SensorReading:
    return SensorReading(
        ambient=rng.random(),
        motion=rng.random() < 0.5,
        signal=rng.random(),
        current_light=rng.random(),
        ticks_since_motion=rng.randrange(256),
        tick=tick,
    )
