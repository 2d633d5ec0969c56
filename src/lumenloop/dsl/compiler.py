"""Rule programs compiled to closures: the package's one implementation of
the rule language.

``CompiledProgram`` turns a program's AST, once, into closures over numpy
values. ``CompiledProgram.batch_step`` gives an ``engine.run_batch`` step in
which every pole of every lane runs the program over (lanes, poles) arrays;
``controllers.DslController`` runs the same closures on one pole's scalar
readings. Both go through ``_ProgramStep.run``.

The step holds one mapping of the current values: the ``mem.*`` slots
and the light, listen and broadcast written so far. An ``if`` whose
condition differs between poles runs each branch over every pole, the
then branch on a copy of the mapping and the else branch on the mapping
itself, and merges them at the join: each target written in either branch
gets one ``np.where(taken, then_value, else_value)``, and the set of those
targets is known at compile time. Every operation is elementwise, so a
pole's merged value is exactly what the branch it takes computes for it;
no array is ever written in place, so a shallow copy is enough. A
condition that is one value for every pole runs only the branch taken.
Expressions have no side effects, so evaluating both branches, and both
sides of ``and``/``or``, changes nothing. The language's rules: division by
zero gives 0, a non-finite result collapses to 0 at each arithmetic
operator and at each assignment (a value already known to be finite, an
arithmetic result or a memory read, skips the check there), light and
broadcast clamp to [0, 1] by two comparisons (so -0.0 stays -0.0),
listen is ``value >= 0.5``, an unknown identifier reads 0, an unknown
target is not written, reading ``light`` gives the sensor (the lamp's
level at the start of the tick), and an actuator a tick does not assign
keeps its last value. numpy's float64 operations round as Python's
floats do.

A closure takes the step, which holds the tick's sensors and the values.
A subtree without sensors or memory is folded to its value at compile
time, by the same operations.
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
# shape); a compiled statement is a closure over the step that sets values
# in ``step.values``.
Run = Callable[["_ProgramStep"], None]


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
        target = "mem." + node.name
        names.add(target)
        return lambda step: step.values[target]
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


def _listen(value):
    return value >= 0.5


def _finite(node) -> bool:
    """Whether an expression is finite whatever the sensors read: an
    arithmetic result (each operator makes its own total), a memory read
    (every memory write is total), or the negation of one."""
    while isinstance(node, Neg):
        node = node.operand
    return isinstance(node, (BinOp, MemRef))


def _assignment(node: Assignment, names: set[str], written: set[str]) -> Run | None:
    target = node.target
    if target.startswith("mem."):
        names.add(target)
    elif target not in ("light", "listen", "broadcast"):
        return None  # other targets are validation errors; writing them is a no-op
    written.add(target)
    value = _expr(node.value, names)
    if not _finite(node.value):  # a bare sensor may read NaN or +-inf
        value = _apply(_total, value)
    if target == "listen":
        value = _apply(_listen, value)
    elif not target.startswith("mem."):
        value = _apply(_clamp01, value)

    def run(step):
        step.values[target] = value(step) if callable(value) else value

    return run


def _if(node: If, names: set[str], written: set[str]) -> Run:
    condition = _cond(node.condition, names)
    targets: set[str] = set()  # written in either branch
    then_run = _block(node.then_body, names, targets)
    else_run = _block(node.else_body or (), names, targets)
    written.update(targets)
    merged = sorted(targets)

    def run(step):
        taken = condition(step) if callable(condition) else condition
        if np.ndim(taken) == 0:  # every pole takes the same branch
            (then_run if taken else else_run)(step)
            return
        values = step.values
        step.values = dict(values)
        then_run(step)
        then_values, step.values = step.values, values
        else_run(step)
        for target in merged:
            values[target] = np.where(taken, then_values[target], values[target])

    return run


def _statement(node: Statement, names: set[str], written: set[str]) -> Run | None:
    if isinstance(node, Assignment):
        return _assignment(node, names, written)
    if isinstance(node, If):
        return _if(node, names, written)
    raise TypeError(f"not a statement node: {node!r}")


def _block(statements, names: set[str], written: set[str]) -> Run:
    runs = [run for run in (_statement(s, names, written) for s in statements)
            if run is not None]

    def run(step):
        for statement in runs:
            statement(step)

    return run


class CompiledProgram:
    """A program lowered to closures, ready to make steps."""

    def __init__(self, program: Program):
        names: set[str] = set()  # sensors read and memory slots used
        with np.errstate(all="ignore"):  # constant folding may overflow
            self._run = _block(program.statements, names, set())
        self._memory = sorted(n for n in names if n.startswith("mem."))
        self._counts_motion = "ticks_since_motion" in names

    def batch_step(self) -> BatchStep:
        """A fresh step: every pole starts with no memory, lamp off,
        listening and silent."""
        return _ProgramStep(self._run, self._memory, self._counts_motion)


class _ProgramStep:
    """Per-pole state of one run: the values (memory slots and the last
    light, listen and broadcast), the ticks-since-motion counters and the
    tick. Each value starts as a scalar and becomes an array once a tick
    writes it per pole. Called with a lane's arrays it is a ``run_batch``
    step; ``run`` alone is one tick on given sensors, which is all a single
    pole needs."""

    __slots__ = (
        "_run", "_counts_motion", "_since", "_tick", "values",
        "ambient", "motion", "moving", "signal", "light", "ticks_since_motion", "tick",
    )

    def __init__(self, run: Run, memory: list[str], counts_motion: bool):
        self._run = run
        self._counts_motion = counts_motion  # only a program that reads them
        self._since = TICKS_SINCE_MOTION_CAP  # no motion observed yet
        self._tick = 0
        self.values = dict.fromkeys(memory, 0.0)
        self.values.update(light=0.0, listen=True, broadcast=0.0)

    @property
    def memory(self) -> dict:
        """The memory slots' values by name (``mem.`` left off)."""
        return {key[4:]: value for key, value in self.values.items()
                if key.startswith("mem.")}

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
            self._run(self)
        values = self.values
        return values["light"], values["listen"], values["broadcast"]
