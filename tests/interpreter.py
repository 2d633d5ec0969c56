"""The tree-walking rule-program interpreter: the reference that the
package's compiled programs (``lumenloop.dsl.compiler``) are tested against.

A program runs once per tick against a SensorReading and an EvalContext
holding the pole's memory and the previous actuator command, by walking
the AST with Python floats. Evaluation never raises on validated programs:
division by zero yields 0.0, non-finite intermediates collapse to 0.0,
light/broadcast outputs clamp to [0, 1] and listen is true when its
assigned value is >= 0.5. Actuators keep their previous value when a
tick's run does not assign them. ``InterpreterController`` is one pole's
controller and ``interpreter_factory`` a factory of them, for
``tests/scalar_engine.py``; both must give exactly (``repr``-equal) what
a ``lumenloop.dsl.compiler.CompiledProgram`` and the ``DslController``
it makes give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from lumenloop.dsl.nodes import (
    Assignment,
    BinOp,
    BoolOp,
    Comparison,
    Cond,
    Expr,
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
from lumenloop.engine import ActuatorCommand, SensorReading

_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass
class EvalContext:
    """Per-pole interpreter state, persistent across ticks."""

    memory: dict[str, float] = field(default_factory=dict)
    previous: ActuatorCommand = field(default_factory=ActuatorCommand)


def _total(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def _sensor_value(name: str, reading: SensorReading) -> float:
    if name == "ambient":
        return reading.ambient
    if name == "motion":
        return 1.0 if reading.motion else 0.0
    if name == "signal":
        return reading.signal
    if name == "light":
        return reading.current_light
    if name == "ticks_since_motion":
        return float(reading.ticks_since_motion)
    if name == "tick":
        return float(reading.tick)
    # Unknown identifiers read as 0 so unvalidated programs stay total.
    return 0.0


def eval_expr(node: Expr, reading: SensorReading, ctx: EvalContext) -> float:
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Ref):
        return _sensor_value(node.name, reading)
    if isinstance(node, MemRef):
        return ctx.memory.get(node.name, 0.0)
    if isinstance(node, Neg):
        return -eval_expr(node.operand, reading, ctx)
    if isinstance(node, BinOp):
        left = eval_expr(node.left, reading, ctx)
        right = eval_expr(node.right, reading, ctx)
        if node.op == "+":
            return _total(left + right)
        if node.op == "-":
            return _total(left - right)
        if node.op == "*":
            return _total(left * right)
        if right == 0.0:
            return 0.0
        return _total(left / right)
    raise TypeError(f"not an expression node: {node!r}")


def eval_cond(node: Cond, reading: SensorReading, ctx: EvalContext) -> bool:
    if isinstance(node, MotionCond):
        return reading.motion
    if isinstance(node, Comparison):
        left = eval_expr(node.left, reading, ctx)
        right = eval_expr(node.right, reading, ctx)
        return _COMPARE[node.op](left, right)
    if isinstance(node, BoolOp):
        if node.op == "and":
            return eval_cond(node.left, reading, ctx) and eval_cond(
                node.right, reading, ctx
            )
        return eval_cond(node.left, reading, ctx) or eval_cond(
            node.right, reading, ctx
        )
    if isinstance(node, Not):
        return not eval_cond(node.operand, reading, ctx)
    raise TypeError(f"not a condition node: {node!r}")


class _Outputs:
    __slots__ = ("light", "listen", "broadcast")

    def __init__(self, previous: ActuatorCommand):
        self.light = previous.light
        self.listen = previous.listen
        self.broadcast = previous.broadcast


def _run_statement(
    node: Statement, reading: SensorReading, ctx: EvalContext, out: _Outputs
) -> None:
    if isinstance(node, Assignment):
        value = _total(eval_expr(node.value, reading, ctx))
        target = node.target
        if target.startswith("mem."):
            ctx.memory[target[4:]] = value
        elif target == "light":
            out.light = _clamp01(value)
        elif target == "broadcast":
            out.broadcast = _clamp01(value)
        elif target == "listen":
            out.listen = value >= 0.5
        # Other targets are validation errors; writing them is a no-op.
        return
    if isinstance(node, If):
        if eval_cond(node.condition, reading, ctx):
            for stmt in node.then_body:
                _run_statement(stmt, reading, ctx, out)
        else:
            for stmt in node.else_body or ():
                _run_statement(stmt, reading, ctx, out)
        return
    raise TypeError(f"not a statement node: {node!r}")


def evaluate(
    program: Program, reading: SensorReading, ctx: EvalContext
) -> ActuatorCommand:
    """Run one tick of the program, updating ctx in place."""
    out = _Outputs(ctx.previous)
    for stmt in program.statements:
        _run_statement(stmt, reading, ctx, out)
    command = ActuatorCommand(
        light=out.light, listen=out.listen, broadcast=out.broadcast
    )
    ctx.previous = command
    return command


class InterpreterController:
    """Runs a rule program through ``evaluate`` with fresh per-pole memory."""

    def __init__(self, program: Program):
        self.program = program
        self.ctx = EvalContext()

    def act(self, reading: SensorReading) -> ActuatorCommand:
        return evaluate(self.program, reading, self.ctx)


def interpreter_factory(program: Program):
    """A controller factory: one InterpreterController per pole."""
    return lambda: InterpreterController(program)
