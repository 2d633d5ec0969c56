"""Totality fuzzing, controller-vs-oracle equivalence, and the compiled
controller against the tests' interpreter.

The oracle classes in oracles.py re-state each built-in program as literal
Python float operations; over any reading stream the package's
DslController must agree with them exactly, actuator for actuator. Over
generated programs and readings it must give exactly (``repr``-equal,
signed zeros included) what the tree-walking interpreter in interpreter.py
gives.
"""

import math
import random
import zlib

from genprog import rand_program, rand_reading
from interpreter import InterpreterController
from oracles import ORACLES
from lumenloop.controllers import program_factory
from lumenloop.dsl.baselines import builtin_program
from lumenloop.dsl.formatter import format_program
from lumenloop.dsl.parser import parse_source

N_ORACLE_STEPS = 1000
N_FUZZ_PROGRAMS = 400
N_FUZZ_READINGS = 25  # 400 * 25 = 10_000 program/input pairs


def test_controller_matches_oracles_exactly():
    for name, oracle_cls in ORACLES.items():
        controller = program_factory(builtin_program(name))()
        oracle = oracle_cls()
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for step in range(N_ORACLE_STEPS):
            rd = rand_reading(rng, tick=step)
            got = controller.act(rd)
            want = oracle.act(rd)
            assert got.light == want.light, (name, step)
            assert got.listen == want.listen, (name, step)
            assert got.broadcast == want.broadcast, (name, step)


def test_totality_fuzz():
    # each command is also repr-equal to the interpreter's, and pytest raises
    # a RuntimeWarning as an error (pyproject.toml)
    rng = random.Random(20240815)
    for i in range(N_FUZZ_PROGRAMS):
        program = rand_program(rng)
        controller = program_factory(program)()
        interpreter = InterpreterController(program)
        for step in range(N_FUZZ_READINGS):
            rd = rand_reading(rng, tick=step)
            cmd = controller.act(rd)
            assert repr(cmd) == repr(interpreter.act(rd)), (i, step)
            assert 0.0 <= cmd.light <= 1.0, (i, step)
            assert 0.0 <= cmd.broadcast <= 1.0, (i, step)
            assert isinstance(cmd.listen, bool), (i, step)
            memory = controller.step.memory.values()
            assert all(math.isfinite(v) for v in memory), (i, step)


def test_random_ast_roundtrip():
    rng = random.Random(99)
    for i in range(300):
        program = rand_program(rng)
        text = format_program(program)
        assert parse_source(text) == program, (i, text)
