"""Totality fuzzing, controller-vs-oracle equivalence, the compiled
controller against the tests' interpreter, and the static checks'
entry points against each other.

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
from dataclasses import fields, is_dataclass, replace

from genprog import rand_program, rand_reading
from interpreter import InterpreterController
from oracles import ORACLES
from lumenloop.dsl.baselines import builtin_program
from lumenloop.dsl.compiler import CompiledProgram
from lumenloop.dsl.formatter import format_program
from lumenloop.dsl.nodes import Assignment, MemRef, Ref
from lumenloop.dsl.parser import parse_source
from lumenloop.dsl.validator import validate, validate_strict
from lumenloop.errors import LexError, ParseError, ValidationError
from lumenloop.loop.extraction import extract_program

N_ORACLE_STEPS = 1000
N_FUZZ_PROGRAMS = 400
N_FUZZ_READINGS = 25  # 400 * 25 = 10_000 program/input pairs


def test_controller_matches_oracles_exactly():
    for name, oracle_cls in ORACLES.items():
        controller = CompiledProgram(builtin_program(name))()
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
        controller = CompiledProgram(program)()
        interpreter = InterpreterController(program)
        for step in range(N_FUZZ_READINGS):
            rd = rand_reading(rng, tick=step)
            cmd = controller.act(rd)
            assert repr(cmd) == repr(interpreter.act(rd)), (i, step)
            assert 0.0 <= cmd.light <= 1.0, (i, step)
            assert 0.0 <= cmd.broadcast <= 1.0, (i, step)
            assert isinstance(cmd.listen, bool), (i, step)
            memory = controller.memory.values()
            assert all(math.isfinite(v) for v in memory), (i, step)


def test_random_ast_roundtrip():
    rng = random.Random(99)
    for i in range(300):
        program = rand_program(rng)
        text = format_program(program)
        assert parse_source(text) == program, (i, text)


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
        value = getattr(node, f.name)
        if isinstance(value, tuple):
            changes[f.name] = tuple(corrupted(v, rng) for v in value)
        elif is_dataclass(value) and f.name != "pos":
            changes[f.name] = corrupted(value, rng)
    return replace(node, **changes)


def raised(call, *args):
    """What ``call(*args)`` raises, as comparable fields, or None."""
    try:
        call(*args)
    except ValidationError as exc:
        return type(exc), str(exc), exc.diagnostics
    except (LexError, ParseError) as exc:
        return type(exc), str(exc), exc.line, exc.column
    return None


def test_validate_validate_strict_and_extract_program_agree():
    rng = random.Random(30)
    kinds = []
    for i in range(400):
        program = corrupted(rand_program(rng), rng)
        diagnostics = [str(d) for d in validate(program)]
        strict = raised(validate_strict, program)
        if diagnostics:
            assert strict == (ValidationError, diagnostics[0], tuple(diagnostics)), i
        else:
            assert strict is None, i
        text = format_program(program)
        want = raised(lambda: validate_strict(parse_source(text)))
        assert raised(extract_program, f"reply\n```controller\n{text}\n```\n") == want, (i, text)
        kinds.append(None if want is None else want[0])
    # the mix holds clean programs and every kind of failure
    assert set(kinds) == {None, ValidationError, LexError, ParseError}
