"""Totality fuzzing and interpreter-vs-oracle equivalence.

The oracle classes in oracles.py re-state each built-in program as literal
Python float operations; over any reading stream the interpreter must agree
with them exactly, actuator for actuator.
"""

import math
import random
import zlib

from genprog import rand_program, rand_reading
from oracles import ORACLES
from lumenloop.dsl.baselines import builtin_program
from lumenloop.dsl.formatter import format_program
from lumenloop.dsl.interpreter import EvalContext, evaluate
from lumenloop.dsl.parser import parse_source

N_ORACLE_STEPS = 1000
N_FUZZ_PROGRAMS = 400
N_FUZZ_READINGS = 25  # 400 * 25 = 10_000 program/input pairs


def test_interpreter_matches_oracles_exactly():
    for name, oracle_cls in ORACLES.items():
        program = builtin_program(name)
        ctx = EvalContext()
        oracle = oracle_cls()
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for step in range(N_ORACLE_STEPS):
            rd = rand_reading(rng, tick=step)
            got = evaluate(program, rd, ctx)
            want = oracle.act(rd)
            assert got.light == want.light, (name, step)
            assert got.listen == want.listen, (name, step)
            assert got.broadcast == want.broadcast, (name, step)


def test_totality_fuzz():
    rng = random.Random(20240815)
    for i in range(N_FUZZ_PROGRAMS):
        program = rand_program(rng)
        ctx = EvalContext()
        for step in range(N_FUZZ_READINGS):
            cmd = evaluate(program, rand_reading(rng, tick=step), ctx)
            assert 0.0 <= cmd.light <= 1.0, (i, step)
            assert 0.0 <= cmd.broadcast <= 1.0, (i, step)
            assert isinstance(cmd.listen, bool), (i, step)
            assert all(math.isfinite(v) for v in ctx.memory.values()), (i, step)


def test_random_ast_roundtrip():
    rng = random.Random(99)
    for i in range(300):
        program = rand_program(rng)
        text = format_program(program)
        assert parse_source(text) == program, (i, text)
