"""Rule programs compiled to closures: the package's one implementation of
the rule language.

``CompiledProgram`` turns a program's AST, once, into closures over numpy
values. ``CompiledProgram.batch_step`` gives an ``engine.run_batch`` step in
which every pole of every lane runs the program over (lanes, poles) arrays;
``controllers.DslController`` runs the same closures on one pole's scalar
readings. Both go through ``_ProgramStep.run``.

The lowering is if-conversion: a condition becomes a boolean mask over the
poles, both branches run, each under its own mask, and an assignment keeps
the old value where its mask is false (``np.where(mask, value, old)``).
Expressions have no side effects, so evaluating both branches, and both
sides of ``and``/``or``, changes nothing. The language's rules: division by
zero gives 0, a non-finite result collapses to 0 at each arithmetic
operator and at each assignment, light and broadcast clamp to [0, 1] by two
comparisons (so -0.0 stays -0.0), listen is ``value >= 0.5``, an unknown
identifier reads 0, an unknown target is not written, reading ``light``
gives the sensor (the lamp's level at the start of the tick), and an
actuator a tick does not assign keeps its last value. numpy's float64
operations round as Python's floats do.

A closure takes the step, which holds the tick's sensors, the memory
slots and the actuator values so far. A subtree without sensors or memory
is folded to its value at compile time, by the same operations.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

import numpy as np

from ..engine import TICKS_SINCE_MOTION_CAP, BatchStep, count_since_motion
from .nodes import (
    SENSOR_NAMES,
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
    Statement,
)

# A compiled expression or condition is either its constant value or a
# closure from the step to its value (a scalar or an array of the step's
# shape); a compiled statement is a closure over the step and the mask of
# poles it runs for (None for all of them).
Run = Callable[["_ProgramStep", object], None]


def _total(value):
    return np.where(np.isfinite(value), value, 0.0)


def _clamp01(value):
    return np.where(value < 0.0, 0.0, np.where(value > 1.0, 1.0, value))


# x / 0 is inf or nan in numpy, which collapses to 0: the language's
# division-by-zero rule needs no test of its own
_ARITHMETIC = {
    "+": lambda left, right: _total(np.add(left, right)),
    "-": lambda left, right: _total(np.subtract(left, right)),
    "*": lambda left, right: _total(np.multiply(left, right)),
    "/": lambda left, right: _total(np.divide(left, right)),
}
_COMPARE = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}
_LOGIC = {"and": np.logical_and, "or": np.logical_or}


def _apply(op, *parts):
    """``op`` over the parts' values: a constant if every part is one."""
    if not any(callable(part) for part in parts):
        return op(*parts)
    if len(parts) == 1:
        (inner,) = parts
        return lambda step: op(inner(step))
    left, right = (p if callable(p) else (lambda step, p=p: p) for p in parts)
    return lambda step: op(left(step), right(step))


def _expr(node, names: set[str]):
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Ref):
        if node.name not in SENSOR_NAMES:
            return 0.0  # unknown identifiers read as 0
        names.add(node.name)
        return attrgetter(node.name)  # the step holds each sensor by its name
    if isinstance(node, MemRef):
        name = node.name
        names.add("mem." + name)
        return lambda step: step.memory[name]
    if isinstance(node, Neg):
        return _apply(np.negative, _expr(node.operand, names))
    if isinstance(node, BinOp):
        return _apply(
            _ARITHMETIC[node.op], _expr(node.left, names), _expr(node.right, names)
        )
    raise TypeError(f"not an expression node: {node!r}")


def _cond(node, names: set[str]):
    if isinstance(node, MotionCond):
        return lambda step: step.moving
    if isinstance(node, Comparison):
        return _apply(
            _COMPARE[node.op], _expr(node.left, names), _expr(node.right, names)
        )
    if isinstance(node, BoolOp):
        return _apply(
            _LOGIC[node.op], _cond(node.left, names), _cond(node.right, names)
        )
    if isinstance(node, Not):
        return _apply(np.logical_not, _cond(node.operand, names))
    raise TypeError(f"not a condition node: {node!r}")


def _level(value):
    return _clamp01(_total(value))


def _listen(value):
    return _total(value) >= 0.5


def _assignment(node: Assignment, names: set[str]) -> Run | None:
    target = node.target
    if target.startswith("mem."):
        slots, name, finish = "memory", target[4:], _total
        names.add(target)
    elif target in ("light", "broadcast"):
        slots, name, finish = "outputs", target, _level
    elif target == "listen":
        slots, name, finish = "outputs", target, _listen
    else:
        return None  # other targets are validation errors; writing them is a no-op
    value = _apply(finish, _expr(node.value, names))

    def run(step, mask):
        new = value(step) if callable(value) else value
        held = getattr(step, slots)
        held[name] = new if mask is None else np.where(mask, new, held[name])

    return run


def _if(node: If, names: set[str]) -> Run:
    condition = _cond(node.condition, names)
    then_run = _block(node.then_body, names)
    else_run = _block(node.else_body or (), names)

    def run(step, mask):
        taken = condition(step) if callable(condition) else condition
        if np.ndim(taken) == 0:  # every pole takes the same branch
            (then_run if taken else else_run)(step, mask)
            return
        then_run(step, taken if mask is None else mask & taken)
        not_taken = ~taken
        else_run(step, not_taken if mask is None else mask & not_taken)

    return run


def _statement(node: Statement, names: set[str]) -> Run | None:
    if isinstance(node, Assignment):
        return _assignment(node, names)
    if isinstance(node, If):
        return _if(node, names)
    raise TypeError(f"not a statement node: {node!r}")


def _block(statements, names: set[str]) -> Run:
    runs = [run for run in (_statement(s, names) for s in statements) if run is not None]

    def run(step, mask):
        for statement in runs:
            statement(step, mask)

    return run


class CompiledProgram:
    """A program lowered to closures, ready to make steps."""

    def __init__(self, program: Program):
        names: set[str] = set()  # sensors read and memory slots used
        with np.errstate(all="ignore"):  # constant folding may overflow
            self._run = _block(program.statements, names)
        self._memory = sorted(n[4:] for n in names if n.startswith("mem."))
        self._counts_motion = "ticks_since_motion" in names

    def batch_step(self) -> BatchStep:
        """A fresh step: every pole starts with no memory, lamp off,
        listening and silent."""
        return _ProgramStep(self._run, self._memory, self._counts_motion)


class _ProgramStep:
    """Per-pole state of one run: memory slots, the last light, listen and
    broadcast values, the ticks-since-motion counters and the tick. Each
    starts as a scalar and becomes an array once a tick writes it per pole.
    Called with a lane's arrays it is a ``run_batch`` step; ``run`` alone is
    one tick on given sensors, which is all a single pole needs."""

    __slots__ = (
        "_run", "_counts_motion", "_since", "_tick", "memory", "outputs",
        "ambient", "motion", "moving", "signal", "light", "ticks_since_motion", "tick",
    )

    def __init__(self, run: Run, memory: list[str], counts_motion: bool):
        self._run = run
        self._counts_motion = counts_motion  # only a program that reads them
        self._since = TICKS_SINCE_MOTION_CAP  # no motion observed yet
        self._tick = 0
        self.memory = dict.fromkeys(memory, 0.0)
        self.outputs = {"light": 0.0, "listen": True, "broadcast": 0.0}

    def __call__(self, ambient, motion, signal, light):
        since = None  # read only by a program that counts it
        if self._counts_motion:
            self._since = count_since_motion(self._since, motion)
            since = self._since.astype(float)
        tick = float(self._tick)
        self._tick += 1
        return self.run(ambient, motion, signal, light, since, tick)

    def run(self, ambient, motion, signal, light, ticks_since_motion, tick):
        """Run the program once on these sensors (floats, or float arrays
        of one shape; motion is 0.0 or 1.0) and return the (light, listen,
        broadcast) values that hold after it."""
        self.ambient, self.motion, self.signal, self.light = ambient, motion, signal, light
        self.ticks_since_motion, self.tick = ticks_since_motion, tick
        self.moving = motion == 1.0
        with np.errstate(all="ignore"):
            self._run(self, None)
        outputs = self.outputs
        return outputs["light"], outputs["listen"], outputs["broadcast"]
