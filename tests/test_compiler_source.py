"""The source ``dsl.compiler`` generates: safe, deterministic and flat.

Programs may come from a model, so the generated function must hold no
text of theirs: only the generator's own names and a fixed table of numpy
functions, every constant passed in through globals without builtins.
Memory names that look like Python keywords, builtins, the generator's
own locals, or that NFKC-normalise to another name must each stay their
own slot. Programs nested as deep as the parser allows must compile (no
limit of CPython's on nested parentheses or indentation is reached) and
give source lines in proportion to their tokens. An ``if`` adds at most
one line per slot written beneath it, and the validator bounds the sum of
those over all ifs, so a program the validator accepts compiles to
source lines in proportion to its tokens plus that bound.
"""

import ast
import inspect
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalar_engine
from genprog import rand_program
from interpreter import InterpreterController, interpreter_factory
from lumenloop import controllers
from lumenloop.cli import EXIT_USAGE, main
from lumenloop.dsl.compiler import CompiledProgram
from lumenloop.dsl.nodes import SENSOR_NAMES
from lumenloop.dsl.parser import MAX_NESTING, parse_source
from lumenloop.dsl.tokens import tokenize
from lumenloop.dsl.validator import MAX_BRANCH_MERGES, validate, validate_strict
from lumenloop.engine import SensorReading
from lumenloop.errors import ParseError, ValidationError
from lumenloop.loop.extraction import extract_program
from lumenloop.scenario import builtin_scenario

SRC = Path(__file__).resolve().parent.parent / "src"

# The generator's names: sensors, state slots, constants, temporaries, and
# the state tuple's parameter; and the numpy functions it may call.
GENERATED_NAME = re.compile(rf"s_(?:{'|'.join(SENSOR_NAMES)})|[vke](?:0|[1-9][0-9]*)|values")
FUNCTIONS = frozenset({
    "add", "subtract", "multiply", "divide", "negative",
    "less", "less_equal", "greater", "greater_equal", "equal", "not_equal",
    "logical_and", "logical_or", "logical_not", "isfinite", "where",
})
# Everything the source may be made of: assignments of calls and names.
SOURCE_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Return,
    ast.Tuple, ast.Call, ast.Name, ast.Load, ast.Store,
)

# Memory names chosen to break a careless generator: a builtin, a Python
# keyword, the generator's own locals and functions, a ligature that NFKC
# folds into another name that is also used, and non-ASCII letters.
ADVERSARIAL = """\
mem.__import__ = mem.__import__ + 1
mem.import = signal * 2
mem.v0 = mem.__import__ - 3
mem.k0 = mem.v0 + ambient
mem.e0 = mem.k0 * mem.k0
mem.s_light = mem.e0 / 7
mem.where = 0.25
mem.ﬁ = 7
mem.fi = mem.ﬁ + ambient
mem.été = mem.fi * 0.5
mem.ключ = mem.été - mem.where
if motion or mem.v0 > 0 then
  light = mem.été / 10
  mem.ﬁ = mem.fi - 1
else
  broadcast = mem.import + mem.s_light
  mem.v0 = 0 - 1
end
listen = mem.ﬁ / 10
"""
ADVERSARIAL_NAMES = {
    "__import__", "import", "v0", "k0", "e0", "s_light", "where",
    "ﬁ", "fi", "été", "ключ",
}


def nested_ifs(depth):
    """``depth`` nested ifs whose conditions differ between poles, each but
    the innermost writing memory on the way in (an operator there would
    nest one level deeper), each with a broadcast in its else branch."""
    opening = "".join(
        f"if signal > {level / depth} then " + "mem.a = mem.a + 0.01 " * (level < depth - 1)
        for level in range(depth)
    )
    return opening + "light = mem.a " + "else broadcast = 0.5 end " * depth


# (the program at the deepest nesting the parser accepts, one level deeper)
DEEPEST = {
    "nested-ifs": (nested_ifs(MAX_NESTING), nested_ifs(MAX_NESTING + 1)),
    "operator-chain": ("broadcast = signal" + " - ambient" * MAX_NESTING,
                       "broadcast = signal" + " - ambient" * (MAX_NESTING + 1)),
    "negations": ("light = " + "-" * MAX_NESTING + "signal",
                  "light = " + "-" * (MAX_NESTING + 1) + "signal"),
    "parentheses": ("mem.x = " + "(signal * " * (MAX_NESTING // 2) + "2" + ")" * (MAX_NESTING // 2)
                    + " light = mem.x",
                    "mem.x = " + "(signal * " * (MAX_NESTING // 2 + 1) + "2"
                    + ")" * (MAX_NESTING // 2 + 1) + " light = mem.x"),
}


def assert_source_is_generated(program: CompiledProgram) -> None:
    tree = ast.parse(program.source)
    unpack, *body, result = tree.body[0].body
    assert isinstance(unpack, ast.Assign) and isinstance(result, ast.Return)
    for statement in body:  # one numpy call per line, nothing else
        assert isinstance(statement, ast.Assign) and len(statement.targets) == 1, ast.dump(statement)
        assert isinstance(statement.value, ast.Call), ast.dump(statement)
    for node in ast.walk(tree):
        assert isinstance(node, SOURCE_NODES), ast.dump(node)
        if isinstance(node, ast.Name):
            assert GENERATED_NAME.fullmatch(node.id) or node.id in FUNCTIONS, node.id
        if isinstance(node, ast.Call):
            assert isinstance(node.func, ast.Name) and node.func.id in FUNCTIONS
        if isinstance(node, ast.arg):
            assert GENERATED_NAME.fullmatch(node.arg), node.arg
    namespace = inspect.unwrap(program._run).__globals__
    assert namespace["__builtins__"] == {}
    for name in namespace:
        assert name in FUNCTIONS or name in ("__builtins__", "run") or re.fullmatch(
            r"k(?:0|[1-9][0-9]*)", name), name


def assert_steps_equal_the_interpreter(program, poles=6, ticks=5, seed=0):
    """One lane of ``poles`` poles, each on its own readings, ``repr``-equal
    to one interpreter per pole in every output and memory slot."""
    rng = np.random.default_rng(seed)
    step = CompiledProgram(program).batch_step()
    interpreters = [InterpreterController(program) for _ in range(poles)]
    for tick in range(ticks):
        ambient, signal, light = rng.choice([-0.0, 0.0, 0.1, 0.5, 0.9, 1.0, 3.0], (3, 1, poles))
        motion = rng.choice([0.0, 1.0], (1, poles))
        since = rng.integers(0, 9, (1, poles)).astype(float)
        got = [np.broadcast_to(value, (1, poles))
               for value in step.run(ambient, motion, signal, light, since, float(tick))]
        memory = {name: np.broadcast_to(value, (1, poles)) for name, value in step.memory.items()}
        for pole, interpreter in enumerate(interpreters):
            want = interpreter.act(SensorReading(
                float(ambient[0, pole]), bool(motion[0, pole] == 1.0), float(signal[0, pole]),
                float(light[0, pole]), float(since[0, pole]), float(tick),
            ))
            where = (tick, pole)
            assert repr(float(got[0][0, pole])) == repr(want.light), where
            assert bool(got[1][0, pole]) is want.listen, where
            assert repr(float(got[2][0, pole])) == repr(want.broadcast), where
            assert {name: repr(float(value[0, pole])) for name, value in memory.items()} == {
                name: repr(interpreter.ctx.memory.get(name, 0.0)) for name in memory}, where


def test_adversarial_memory_names_are_slots_of_their_own():
    program = parse_source(ADVERSARIAL)
    step = CompiledProgram(program).batch_step()
    assert set(step.memory) == ADVERSARIAL_NAMES
    assert_steps_equal_the_interpreter(program)
    scenario = builtin_scenario("scenario1")
    want = scalar_engine.run_simulation(scenario, interpreter_factory(program), trace=True)
    got = scalar_engine.traced_run(scenario, CompiledProgram(program))
    assert repr(got[0]) == repr(want[0])
    scalar_engine.assert_same_ticks(got[1], want[1])


@pytest.mark.parametrize("source", [ADVERSARIAL, *(deepest for deepest, _ in DEEPEST.values())],
                         ids=["adversarial", *DEEPEST])
def test_the_source_holds_only_generated_names_and_table_functions(source):
    program = CompiledProgram(parse_source(source))
    assert_source_is_generated(program)
    for name in ("__import__", "import", "ﬁ", "été", "ключ"):
        assert name not in program.source


def test_constants_reach_the_function_only_through_its_globals():
    program = CompiledProgram(parse_source("mem.a = 0.125 light = mem.a * signal + 0.5 * 3"))
    assert_source_is_generated(program)  # which allows no constant node
    constants = [value for name, value in inspect.unwrap(program._run).__globals__.items()
                 if re.fullmatch(r"k[0-9]+", name)]
    assert 0.125 in constants and 1.5 in constants  # 0.5 * 3 is folded


def test_constants_are_read_only_0d_arrays_that_every_step_shares():
    # a ufunc takes a 0-d array without converting a Python float per
    # call; read-only, so no step can change what another one reads
    program = CompiledProgram(parse_source("mem.a = 0.125 light = 0.75 broadcast = mem.a * signal"))
    constants = {name: value for name, value in inspect.unwrap(program._run).__globals__.items()
                 if re.fullmatch(r"k[0-9]+", name)}
    assert constants
    for name, value in constants.items():
        assert isinstance(value, np.ndarray) and value.shape == (), name
        assert not value.flags.writeable, name
    sensors = (0.5, np.zeros((1, 4)), np.full((1, 4), 0.5), np.zeros((1, 4)))
    step = program.batch_step()
    light, _, _ = step(*sensors)
    assert any(light is value for value in constants.values())
    with pytest.raises(ValueError, match="read-only"):
        light[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        step.memory["a"][...] = 1.0
    light, _, broadcast = program.batch_step()(*sensors)
    assert repr(float(light)) == "0.75"
    assert broadcast.tolist() == [[0.0625] * 4]
    assert step.memory == {"a": 0.125}


def test_the_source_does_not_depend_on_the_hash_seed():
    code = ("import sys; from lumenloop.dsl.compiler import CompiledProgram; "
            "from lumenloop.dsl.parser import parse_source; "
            "sys.stdout.buffer.write(CompiledProgram("
            "parse_source(sys.stdin.buffer.read().decode('utf-8'))).source.encode('utf-8'))")
    sources = set()
    for seed in ("0", "1", "2718281"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(SRC)}
        result = subprocess.run([sys.executable, "-c", code], input=ADVERSARIAL.encode("utf-8"),
                                capture_output=True, env=env, check=True, timeout=60)
        sources.add(result.stdout)
    assert sources == {CompiledProgram(parse_source(ADVERSARIAL)).source.encode("utf-8")}


@pytest.mark.parametrize("name", DEEPEST)
def test_programs_as_deep_as_the_parser_allows_compile_flat(name):
    deepest, deeper = DEEPEST[name]
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_source(deeper)
    program = parse_source(deepest)
    compiled = CompiledProgram(program)  # no SyntaxError, IndentationError or RecursionError
    assert len(compiled.source.splitlines()) <= 4 * len(tokenize(deepest))
    assert max(len(line) - len(line.lstrip()) for line in compiled.source.splitlines()) == 4
    assert_steps_equal_the_interpreter(program, seed=len(name))


def test_random_programs_compile_to_generated_source():
    rng = random.Random(14)
    for _ in range(50):
        assert_source_is_generated(CompiledProgram(rand_program(rng)))


def where_calls_of_two_bools(program: CompiledProgram) -> list[str]:
    constants = inspect.unwrap(program._run).__globals__
    # a constant is a 0-d array; a local or sensor name is in no globals
    # (None), whose dtype is object
    return [
        ast.unparse(node) for node in ast.walk(ast.parse(program.source))
        if isinstance(node, ast.Call) and node.func.id == "where"
        and all(np.asarray(constants.get(getattr(arg, "id", None))).dtype == bool
                for arg in node.args[1:])
    ]


LISTEN_SET_IN_BOTH_BRANCHES = [
    "if light < 0.5 then listen = 1 else listen = 0 end",
    "if motion then listen = 0 else listen = 1 end",
    "if signal > ambient then listen = 0.5 else listen = 0.25 end broadcast = signal",
]


def test_a_listen_merge_of_two_constants_is_its_condition():
    # where(taken, True, False) is taken, and where(taken, False, True) is
    # logical_not(taken): neither is generated
    rng = random.Random(23)
    programs = [rand_program(rng) for _ in range(300)]
    programs += [parse_source(source) for source in LISTEN_SET_IN_BOTH_BRANCHES]
    for program in programs:
        assert where_calls_of_two_bools(CompiledProgram(program)) == []
    for source in LISTEN_SET_IN_BOTH_BRANCHES:
        assert_steps_equal_the_interpreter(parse_source(source))
    iteration3 = CompiledProgram(controllers.builtin_program("iteration3")).source
    assert iteration3.count(" = ") - 1 == 16  # one line unpacks the state


def merging(depth, targets, extra=""):
    """``depth`` nested ifs whose conditions differ between poles around
    ``targets`` memory writes, each a value of its own: ``depth * targets``
    merges, then ``extra``."""
    body = " ".join(f"mem.m{i} = signal + {i}" for i in range(targets))
    return "if signal > 0.1 then " * depth + body + " end" * depth + extra


AT_THE_BOUND = {"wide": merging(10, MAX_BRANCH_MERGES // 10),
                "deep": merging(98, MAX_BRANCH_MERGES // 98)}
# one merge more, and far fewer tokens than the token limit
OVER_THE_BOUND = merging(10, MAX_BRANCH_MERGES // 10, " if motion then light = signal end")


@pytest.mark.parametrize("name", AT_THE_BOUND)
def test_a_program_at_the_merge_bound_compiles_to_bounded_source(name):
    program = parse_source(AT_THE_BOUND[name])
    assert validate(program) == []
    lines = len(CompiledProgram(program).source.splitlines())
    assert lines <= MAX_BRANCH_MERGES + 4 * len(tokenize(AT_THE_BOUND[name]))


def test_a_program_over_the_merge_bound_is_rejected_without_compiling(capsys, monkeypatch,
                                                                      tmp_path):
    message = f"ifs write {MAX_BRANCH_MERGES + 1} targets"
    with pytest.raises(ValidationError, match=message):
        validate_strict(parse_source(OVER_THE_BOUND))
    # the loop's repair path
    with pytest.raises(ValidationError, match=message):
        extract_program(f"```controller\n{OVER_THE_BOUND}\n```")

    def never(program):
        raise AssertionError("a rejected program was compiled")

    monkeypatch.setattr(controllers, "CompiledProgram", never)
    rules = tmp_path / "big.rules"
    rules.write_text(OVER_THE_BOUND, encoding="utf-8")
    code = main(["simulate", "--controller", str(rules),
                 "--manifest", str(tmp_path / "manifest.json")])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: 1:1: error: "), lines
    assert message in lines[0]
