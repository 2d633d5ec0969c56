"""Rule-language semantics: totality, clamping, retention, memory.

Every case runs through one helper, ``run``, which steps one pole of each
implementation in ``IMPLEMENTATIONS`` (the package's ``CompiledProgram``,
whose call gives a ``DslController``, and the tests' interpreter) over the
same readings, checks that the two give ``repr``-equal commands, and
returns them.
"""

import math
from dataclasses import replace

import pytest

from interpreter import interpreter_factory
from lumenloop.dsl.compiler import CompiledProgram
from lumenloop.dsl.nodes import Number
from lumenloop.dsl.parser import parse_source
from lumenloop.engine import ActuatorCommand, SensorReading

# name -> program -> a factory of one pole's controllers
IMPLEMENTATIONS = {
    "controller": CompiledProgram,
    "interpreter": interpreter_factory,
}


def reading(**kw):
    base = dict(
        ambient=0.0, motion=False, signal=0.0,
        current_light=0.0, ticks_since_motion=255, tick=0,
    )
    base.update(kw)
    return SensorReading(**base)


def run(source, *readings):
    """The commands one pole gives over ``readings`` (one default reading
    if none), the same from every implementation."""
    program = parse_source(source) if isinstance(source, str) else source
    readings = readings or (reading(),)
    runs = {}
    for name, factory in IMPLEMENTATIONS.items():
        pole = factory(program)()
        runs[name] = [pole.act(rd) for rd in readings]
    first, *others = runs.values()
    for name, commands in runs.items():
        assert repr(commands) == repr(first), name
    return first


def run_once(source, rd=None):
    return run(source, rd or reading())[0]


def test_plain_assignments():
    cmd = run_once("light = 0.7 listen = 0 broadcast = 0.3")
    assert cmd == ActuatorCommand(light=0.7, listen=False, broadcast=0.3)


def test_unassigned_actuators_keep_previous():
    # the previous command, not the light sensor, which reads 0.3 here
    first, second = run(
        "if tick == 0 then light = 0.9 listen = 0 broadcast = 0.4 end mem.x = 1",
        reading(tick=0), reading(tick=1, current_light=0.3),
    )
    assert first == second == ActuatorCommand(light=0.9, listen=False, broadcast=0.4)


def test_initial_previous_state():
    # before any tick: lamp off, listening, silent
    cmd = run_once("mem.x = 1", reading(current_light=0.6))
    assert cmd == ActuatorCommand(light=0.0, listen=True, broadcast=0.0)


def test_light_and_broadcast_clamped():
    cmd = run_once("light = 5 broadcast = -2")
    assert cmd.light == 1.0
    assert cmd.broadcast == 0.0


def test_listen_threshold():
    assert run_once("listen = 0.5").listen is True
    assert run_once("listen = 0.4999").listen is False
    assert run_once("listen = 1").listen is True


def test_division_by_zero_yields_zero():
    cmd = run_once("light = 0.9 light = 1 / 0")
    assert cmd.light == 0.0
    cmd = run_once("light = 1 / (signal - signal) + 0.25")
    assert cmd.light == 0.25


def test_overflow_collapses_to_zero():
    # the parser rejects a literal too large for a float, so plant an
    # infinite literal in the parsed program
    program = parse_source("mem.big = 1 broadcast = mem.big + 0.5")
    first = replace(program.statements[0], value=Number(math.inf))
    program = replace(program, statements=(first, *program.statements[1:]))
    assert run_once(program).broadcast == 0.5
    # overflow produced by arithmetic rather than a literal
    huge = "9" * 300
    assert run_once(f"mem.x = {huge} * {huge} broadcast = mem.x + 0.5").broadcast == 0.5


def test_unknown_ref_reads_zero():
    cmd = run_once("light = bogus + 0.25")
    assert cmd.light == 0.25


def test_unknown_target_is_noop():
    cmd = run_once("bogus = 0.9")
    assert cmd == ActuatorCommand(light=0.0, listen=True, broadcast=0.0)


def test_sensor_reads():
    rd = reading(ambient=0.25, motion=True, signal=0.5, current_light=0.3,
                 ticks_since_motion=7, tick=42)
    values = {"ambient": 0.25, "motion": 1.0, "signal": 0.5, "light": 0.3,
              "ticks_since_motion": 7.0, "tick": 42.0}
    for sensor, value in values.items():
        cmd = run_once(f"mem.v = {sensor} broadcast = mem.v / 100", rd)
        assert cmd.broadcast == value / 100, sensor
    # every sensor reads as a float, so negating a zero reading gives -0.0
    zero = reading(ticks_since_motion=0, tick=0)
    for sensor in values:
        cmd = run_once(f"broadcast = -{sensor}", zero)
        assert math.copysign(1.0, cmd.broadcast) == -1.0, sensor


def test_light_ref_reads_sensor_not_pending_output():
    # the second read still sees the pole's current lamp level
    rd = reading(current_light=0.3)
    cmd = run_once("mem.before = light light = 0.9 broadcast = light + mem.before", rd)
    assert cmd.broadcast == 0.3 + 0.3
    assert cmd.light == 0.9


def test_memory_persists_across_ticks():
    source = "mem.acc = mem.acc * 0.5 + 0.5 broadcast = mem.acc"
    levels = [cmd.broadcast for cmd in run(source, reading(), reading(), reading())]
    assert levels == [0.5, 0.75, 0.875]


def test_memory_isolated_between_contexts():
    # two poles from one factory share the program, not its memory
    program = parse_source("mem.n = mem.n + 1 light = mem.n / 10")
    for name, factory in IMPLEMENTATIONS.items():
        make = factory(program)
        a, b = make(), make()
        a.act(reading())
        assert a.act(reading()).light == 0.2, name
        assert b.act(reading()).light == 0.1, name


def test_if_branches():
    src = "if signal > 0.5 then light = 1 else light = 0.2 end"
    assert run_once(src, reading(signal=0.6)).light == 1.0
    assert run_once(src, reading(signal=0.5)).light == 0.2


def test_motion_condition():
    src = "if motion then light = 1 end"
    assert run_once(src, reading(motion=True)).light == 1.0
    assert run_once(src, reading(motion=False)).light == 0.0


def test_boolean_operators():
    src = "if motion and signal > 0.5 then light = 1 end"
    assert run_once(src, reading(motion=True, signal=0.6)).light == 1.0
    assert run_once(src, reading(motion=True, signal=0.4)).light == 0.0
    src = "if motion or signal > 0.5 then light = 1 end"
    assert run_once(src, reading(motion=False, signal=0.6)).light == 1.0
    src = "if not motion then light = 1 end"
    assert run_once(src, reading(motion=False)).light == 1.0


@pytest.mark.parametrize("op, low, high", [
    ("<", True, False), ("<=", True, False), (">", False, True),
    (">=", False, True), ("==", False, False), ("!=", True, True),
])
def test_comparators(op, low, high):
    src = f"if ambient {op} 0.5 then light = 1 end"
    assert (run_once(src, reading(ambient=0.2)).light == 1.0) is low
    assert (run_once(src, reading(ambient=0.8)).light == 1.0) is high


def test_comparator_equality_boundary():
    src = "if ambient == 0.5 then light = 1 end"
    assert run_once(src, reading(ambient=0.5)).light == 1.0


def test_empty_then_branch_runs_nothing():
    cmd = run_once("if motion then end light = 0.4", reading(motion=True))
    assert cmd.light == 0.4


def test_nested_if_state_updates():
    src = """
    if motion then
      if signal > 0.5 then
        mem.depth = 2
      else
        mem.depth = 1
      end
    else
      mem.depth = 0
    end
    broadcast = mem.depth / 2
    """
    assert run_once(src, reading(motion=True, signal=0.9)).broadcast == 1.0
    assert run_once(src, reading(motion=True, signal=0.1)).broadcast == 0.5
    assert run_once(src, reading(motion=False)).broadcast == 0.0


def test_each_command_is_the_next_ticks_previous():
    # each tick's command is the next tick's previous command
    source = "if tick == 0 then light = 0.6 else broadcast = light end"
    first, second = run(source, reading(tick=0), reading(tick=1, current_light=0.25))
    assert first == ActuatorCommand(light=0.6)
    assert second == ActuatorCommand(light=0.6, broadcast=0.25)
