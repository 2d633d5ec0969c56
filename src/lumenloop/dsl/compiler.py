"""Rule programs compiled to generated Python: the package's one
implementation of the rule language.

``CompiledProgram`` lowers a program's AST, once, to the source of one
straight-line function, ``run(<sensors>, values)``, and compiles it. Each
operator becomes one assignment of a numpy call to a fresh local, and so
does each step of the language's rules (the check for a finite value, the
clamp, the listen threshold); nothing nests, so no program reaches
CPython's limits on nested parentheses or indentation. ``values`` is the
tuple of the program's state: the ``mem.*`` slots and the light, listen
and broadcast written so far. The function unpacks it into parameters
and returns each slot's final value. ``CompiledProgram.batch_step`` gives
a fresh ``DslController``, an ``engine.run_batch`` step in which every
pole of every lane runs the program over (lanes, poles) arrays, called
straight from ``DslController.__call__`` inside ``run_batch``, whose run
has numpy's warnings off throughout. Calling the program gives the same
object, which ``engine.controller_step`` runs on one pole's scalar
readings through ``DslController.act``; ``act`` turns the warnings off
around each call itself. Either way inf and NaN are values of the
language, never warnings.

The generator tracks each slot's current value, a constant or a local,
as SSA construction does: an assignment emits no line, it only rebinds
the slot. An ``if`` generates its then branch, restores the slots, generates
its else branch, and emits one ``np.where(taken, then_value, else_value)``
per slot whose value differs between the two: it adds only its merges,
which the validator bounds (``MAX_BRANCH_MERGES``). A merge of two
constant listen flags needs no ``where``: the slot takes the condition
itself when the then branch sets True, else its ``logical_not``. Every
operation is elementwise and expressions have no side effects, so a
pole's merged value is exactly what the branch it takes computes for it,
also when the condition is one value for every pole, and evaluating both
sides of ``and``/``or`` changes nothing. A condition folded to a constant
at compile time emits only the branch it takes. The language's rules:
division by zero gives 0, a non-finite result collapses to 0 at each
arithmetic operator and at each assignment (a value already known to be
finite, an arithmetic result or a memory read, skips the check there),
light and broadcast clamp to [0, 1] by two comparisons (so -0.0 stays
-0.0), listen is ``value >= 0.5``, an unknown identifier reads 0, an
unknown target is not written, reading ``light`` gives the sensor (the
lamp's level at the start of the tick), and an actuator a tick does not
assign keeps its last value. numpy's float64 operations round as
Python's floats do. A subtree whose leaves are all known at compile time
(numbers, and memory slots the program has set to a constant) is folded
to its value there, by the same operations.

A program with no ``mem.*`` slot that reads neither ``tick`` nor
``ticks_since_motion``, or reads ``ticks_since_motion`` only as a bare
operand compared with a constant (folded, if it is an expression), has a
``stateless`` step (``engine.BatchStep``): its outputs depend only on the
tick's sensors and its last outputs, as an actuator a tick leaves
unassigned keeps its last value. Such a program counts ticks since motion
only up to one past the largest of those constants, floored, from 0 to
255, which changes no comparison, and its step confirms through
``repeats`` that the counters repeat before ``run_batch`` settles its
lane. A settled lane's kept outputs may be ``==`` but not bit-equal to
those the program would give, as the clamp keeps -0.0; no metric sees
the sign of a zero.

Programs may come from a model, so no text of theirs reaches the source.
It holds only names the generator makes (``s_<sensor>`` for the sensors
of ``SENSOR_NAMES``, ``v<i>`` for the state passed in, ``k<i>`` for
constants, ``e<i>`` for temporaries) and the numpy functions of
``_FUNCTIONS``. Every constant is passed in through the function's
globals, which hold no builtins, as a read-only 0-d array (a step may
return it, and every step of the program shares it); memory names never
become identifiers (Python would fold ``mem.ﬁ`` and ``mem.fi`` into one
by NFKC normalisation).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..engine import (
    TICKS_SINCE_MOTION_CAP,
    ActuatorCommand,
    SensorReading,
    count_since_motion,
)
from .nodes import (
    ACTUATOR_NAMES,
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
)

# The only functions the generated source calls, by the names it calls them.
_FUNCTIONS = {
    function.__name__: function
    for function in (
        np.add, np.subtract, np.multiply, np.divide, np.negative,
        np.less, np.less_equal, np.greater, np.greater_equal, np.equal, np.not_equal,
        np.logical_and, np.logical_or, np.logical_not, np.isfinite, np.where,
    )
}
# x / 0 is inf or nan in numpy, which collapses to 0: the language's
# division-by-zero rule needs no test of its own
_ARITHMETIC = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide"}
_COMPARE = {
    "<": "less",
    "<=": "less_equal",
    ">": "greater",
    ">=": "greater_equal",
    "==": "equal",
    "!=": "not_equal",
}
_LOGIC = {"and": "logical_and", "or": "logical_or"}
_COUNTER = Ref("ticks_since_motion")


def _walk(nodes):
    """Every node of ``nodes`` and under them, dead branches included."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, If):
            stack += (node.condition, *node.then_body, *(node.else_body or ()))
        elif isinstance(node, Assignment):
            stack.append(node.value)
        elif isinstance(node, (BinOp, BoolOp, Comparison)):
            stack += (node.left, node.right)
        elif isinstance(node, (Neg, Not)):
            stack.append(node.operand)


def _finite(node) -> bool:
    """Whether an expression is finite whatever the sensors read: an
    arithmetic result (each operator makes its own total), a memory read
    (every memory write is total), or the negation of one."""
    while isinstance(node, Neg):
        node = node.operand
    return isinstance(node, (BinOp, MemRef))


class _Generator:
    """Writes a program's body, one line per operation. ``slot`` maps each
    state slot to its current value: a constant (folded at compile time)
    or, as a ``str``, the local that holds it at run time."""

    def __init__(self, state: list[str], reads_motion: bool):
        self.slot = {name: f"v{i}" for i, name in enumerate(state)}
        self.lines: list[str] = []
        self.constants: dict[str, object] = {}
        self.temporaries = 0
        # the sensors the generated code reads, once per read, and each
        # constant a bare ticks_since_motion is compared with
        self.reads: list[str] = []
        self.counter_bounds: list = []
        # computed once per call, as numpy bools even on one pole
        self.moving = self.call("equal", "s_motion", 1.0) if reads_motion else None

    def let(self, expression: str) -> str:
        local = f"e{self.temporaries}"
        self.temporaries += 1
        self.lines.append(f"{local} = {expression}")
        return local

    def operand(self, value) -> str:
        if isinstance(value, str):
            return value
        name = f"k{len(self.constants)}"
        self.constants[name] = value
        return name

    def call(self, function: str, *args):
        """``function(*args)``: its value if every argument is a constant,
        else a fresh local that holds it."""
        if not any(isinstance(arg, str) for arg in args):
            return _FUNCTIONS[function](*args)
        return self.let(f"{function}({', '.join(map(self.operand, args))})")

    def total(self, value):
        return self.call("where", self.call("isfinite", value), value, 0.0)

    def clamp01(self, value):
        above = self.call("where", self.call("greater", value, 1.0), 1.0, value)
        return self.call("where", self.call("less", value, 0.0), 0.0, above)

    def expr(self, node):
        if isinstance(node, Number):
            return node.value
        if isinstance(node, Ref):
            if node.name not in SENSOR_NAMES:
                return 0.0  # unknown identifiers read as 0
            self.reads.append(node.name)
            return f"s_{node.name}"
        if isinstance(node, MemRef):
            return self.slot["mem." + node.name]
        if isinstance(node, Neg):
            return self.call("negative", self.expr(node.operand))
        if isinstance(node, BinOp):
            left, right = self.expr(node.left), self.expr(node.right)
            return self.total(self.call(_ARITHMETIC[node.op], left, right))
        raise TypeError(f"not an expression node: {node!r}")

    def cond(self, node):
        if isinstance(node, MotionCond):
            return self.moving
        if isinstance(node, Comparison):
            left, right = self.expr(node.left), self.expr(node.right)
            for operand, other in ((node.left, right), (node.right, left)):
                if operand == _COUNTER and not isinstance(other, str):
                    self.counter_bounds.append(other)
            return self.call(_COMPARE[node.op], left, right)
        if isinstance(node, BoolOp):
            left, right = self.cond(node.left), self.cond(node.right)
            return self.call(_LOGIC[node.op], left, right)
        if isinstance(node, Not):
            return self.call("logical_not", self.cond(node.operand))
        raise TypeError(f"not a condition node: {node!r}")

    def block(self, statements) -> None:
        for node in statements:
            if isinstance(node, Assignment):
                self.assignment(node)
            elif isinstance(node, If):
                self.branch(node)
            else:
                raise TypeError(f"not a statement node: {node!r}")

    def assignment(self, node: Assignment) -> None:
        if node.target not in self.slot:
            return  # other targets are validation errors; writing them is a no-op
        value = self.expr(node.value)
        if not _finite(node.value):  # a bare sensor may read NaN or +-inf
            value = self.total(value)
        if node.target == "listen":
            value = self.call("greater_equal", value, 0.5)
        elif node.target in ACTUATOR_NAMES:
            value = self.clamp01(value)
        self.slot[node.target] = value

    def branch(self, node: If) -> None:
        taken = self.cond(node.condition)
        if not isinstance(taken, str):  # folded: every pole takes one branch
            self.block(node.then_body if taken else node.else_body or ())
            return
        before = dict(self.slot)
        self.block(node.then_body)
        then, self.slot = self.slot, before
        self.block(node.else_body or ())
        for name, value in then.items():
            other = self.slot[name]
            if value is other:  # written in neither branch
                continue
            if isinstance(value, np.bool_) and isinstance(other, np.bool_):
                # listen set to a constant in each branch, so they differ
                self.slot[name] = taken if value else self.call("logical_not", taken)
            else:
                self.slot[name] = self.call("where", taken, value, other)


class CompiledProgram:
    """A program lowered to one generated function, ready to make steps:
    a controller factory (``engine.ControllerFactory``) whose call and
    ``batch_step`` both give a fresh ``DslController``. ``source`` is that
    function's text."""

    def __init__(self, program: Program):
        nodes = list(_walk(program.statements))
        memory = {"mem." + n.name for n in nodes if isinstance(n, MemRef)}
        memory.update(n.target for n in nodes
                      if isinstance(n, Assignment) and n.target.startswith("mem."))
        self._state = [*sorted(memory), *ACTUATOR_NAMES]

        generator = _Generator(self._state, any(isinstance(n, MotionCond) for n in nodes))
        state = "".join(f"{local}, " for local in generator.slot.values())  # as passed in
        with np.errstate(all="ignore"):  # constant folding may overflow
            generator.block(program.statements)
        sensors = ", ".join(f"s_{name}" for name in SENSOR_NAMES)
        final = "".join(f"{generator.operand(value)}, " for value in generator.slot.values())
        self.source = "\n".join([
            f"def run({sensors}, values):",
            f"    {state}= values",
            *(f"    {line}" for line in generator.lines),
            f"    return {final}",
        ]) + "\n"
        namespace = {"__builtins__": {}, **_FUNCTIONS}
        for name, value in generator.constants.items():
            # a 0-d array spares each ufunc call converting a Python
            # float; read-only, as every step of this program shares it
            constant = namespace[name] = np.array(value)
            constant.flags.writeable = False
        exec(compile(self.source, "<rule program>", "exec"), namespace)
        self._run = namespace["run"]

        reads = generator.reads
        bounded = reads.count("ticks_since_motion") == len(generator.counter_bounds)
        self._cap = (None if "ticks_since_motion" not in reads
                     else _counter_cap(generator.counter_bounds) if bounded
                     else TICKS_SINCE_MOTION_CAP)
        self.stateless = not memory and "tick" not in reads and bounded

    def batch_step(self) -> DslController:
        """A fresh step: every pole starts with no memory, lamp off,
        listening and silent."""
        return DslController(self._run, self._state, self._cap, self.stateless)

    __call__ = batch_step


def _counter_cap(bounds: list) -> int:
    """Where ticks_since_motion may saturate in a program that only
    compares it with the constants ``bounds``: one past the largest finite
    one, floored, from 0 up to TICKS_SINCE_MOTION_CAP. A count at the cap
    is greater than every bound, as is each count it stands for, so every
    comparison answers as it would uncapped; an infinite or NaN constant
    (only a hand-built AST holds one) answers alike for every count."""
    finite = [float(bound) for bound in bounds if math.isfinite(bound)]
    return min(TICKS_SINCE_MOTION_CAP, max(0, math.floor(max(finite, default=-1.0)) + 1))


class DslController:
    """Per-pole state of one run: the values (memory slots and the last
    light, listen and broadcast), the ticks-since-motion counters and the
    tick. Each value starts as a scalar and becomes an array once a tick
    writes it per pole. Called with a lane's arrays it is a ``run_batch``
    step, ``stateless`` when its program is (module docstring); ``run``
    alone is one tick on given sensors, and ``act`` is that tick on one
    pole's reading, as an ``engine.Controller``."""

    __slots__ = ("_run", "_names", "_cap", "_since", "_tick", "_values", "stateless")

    def __init__(self, run: Callable, names: list[str], cap: int | None, stateless: bool):
        self._run = run
        self._names = names  # of the values: memory slots, then the actuators
        self._cap = cap  # where the counters saturate; None: the program reads none
        # the counters two ticks back, one tick back and now, as floats,
        # which the program reads: no motion observed yet
        self._since = (float(cap),) * 3 if cap is not None else None
        self._tick = 0
        self._values = (0.0,) * (len(names) - 3) + (0.0, True, 0.0)
        self.stateless = stateless

    @property
    def memory(self) -> dict:
        """The memory slots' values by name (``mem.`` left off)."""
        return {name[4:]: value for name, value in zip(self._names, self._values)
                if name.startswith("mem.")}

    def __call__(self, ambient, motion, signal, light):
        since = None  # read only by a program that counts it
        if self._cap is not None:
            _, one_back, now = self._since
            since = count_since_motion(now, motion, self._cap)
            self._since = (one_back, now, since)
        tick = float(self._tick)
        self._tick += 1
        # run_batch has numpy's warnings off for the whole run
        values = self._values = self._run(
            ambient, motion, signal, light, since, tick, self._values
        )
        return values[-3:]

    def repeats(self) -> bool:
        """Whether the ticks-since-motion counters, the one state a
        stateless program keeps beside its outputs, are == to those two
        ticks before (``engine.BatchStep``); always, for a program that
        reads none."""
        return self._cap is None or bool(np.all(self._since[2] == self._since[0]))

    def run(self, ambient, motion, signal, light, ticks_since_motion, tick):
        """Run the program once on these sensors (floats, or float arrays
        of one shape; motion is 0.0 or 1.0) and return the (light, listen,
        broadcast) values that hold after it."""
        with np.errstate(all="ignore"):  # inf and NaN are values of the language
            values = self._values = self._run(
                ambient, motion, signal, light, ticks_since_motion, tick, self._values
            )
        return values[-3:]

    def act(self, reading: SensorReading) -> ActuatorCommand:
        light, listen, broadcast = self.run(
            reading.ambient,
            1.0 if reading.motion else 0.0,
            reading.signal,
            reading.current_light,
            float(reading.ticks_since_motion),
            float(reading.tick),
        )
        return ActuatorCommand(float(light), bool(listen), float(broadcast))
