"""Interpreter semantics: totality, clamping, retention, memory."""

import math
from dataclasses import replace

import pytest

from lumenloop.dsl.interpreter import EvalContext, evaluate
from lumenloop.dsl.nodes import Number
from lumenloop.dsl.parser import parse_source
from lumenloop.engine import ActuatorCommand, SensorReading


def reading(**kw):
    base = dict(
        ambient=0.0, motion=False, signal=0.0,
        current_light=0.0, ticks_since_motion=255, tick=0,
    )
    base.update(kw)
    return SensorReading(**base)


def run_once(source, rd=None, ctx=None):
    ctx = ctx or EvalContext()
    return evaluate(parse_source(source), rd or reading(), ctx), ctx


def test_plain_assignments():
    cmd, _ = run_once("light = 0.7 listen = 0 broadcast = 0.3")
    assert cmd == ActuatorCommand(light=0.7, listen=False, broadcast=0.3)


def test_unassigned_actuators_keep_previous():
    ctx = EvalContext(previous=ActuatorCommand(light=0.9, listen=False, broadcast=0.4))
    cmd, _ = run_once("mem.x = 1", ctx=ctx)
    assert cmd == ActuatorCommand(light=0.9, listen=False, broadcast=0.4)


def test_initial_previous_state():
    # before any tick: lamp off, listening, silent
    cmd, _ = run_once("mem.x = 1")
    assert cmd == ActuatorCommand(light=0.0, listen=True, broadcast=0.0)


def test_light_and_broadcast_clamped():
    cmd, _ = run_once("light = 5 broadcast = -2")
    assert cmd.light == 1.0
    assert cmd.broadcast == 0.0


def test_listen_threshold():
    assert run_once("listen = 0.5")[0].listen is True
    assert run_once("listen = 0.4999")[0].listen is False
    assert run_once("listen = 1")[0].listen is True


def test_division_by_zero_yields_zero():
    cmd, _ = run_once("light = 0.9 light = 1 / 0")
    assert cmd.light == 0.0
    cmd, _ = run_once("light = 1 / (signal - signal) + 0.25")
    assert cmd.light == 0.25


def test_overflow_collapses_to_zero():
    # the parser rejects a literal too large for a float, so plant an
    # infinite literal in the parsed program
    program = parse_source("mem.big = 1 broadcast = mem.big + 0.5")
    first = replace(program.statements[0], value=Number(math.inf))
    program = replace(program, statements=(first, *program.statements[1:]))
    ctx = EvalContext()
    cmd = evaluate(program, reading(), ctx)
    assert ctx.memory["big"] == 0.0
    assert cmd.broadcast == 0.5
    # overflow produced by arithmetic rather than a literal
    huge = "9" * 300
    _, ctx = run_once(f"mem.x = {huge} * {huge}")
    assert ctx.memory["x"] == 0.0


def test_unknown_ref_reads_zero():
    cmd, _ = run_once("light = bogus + 0.25")
    assert cmd.light == 0.25


def test_unknown_target_is_noop():
    cmd, _ = run_once("bogus = 0.9")
    assert cmd == ActuatorCommand(light=0.0, listen=True, broadcast=0.0)


def test_sensor_reads():
    rd = reading(ambient=0.25, motion=True, signal=0.5, current_light=0.3,
                 ticks_since_motion=7, tick=42)
    _, ctx = run_once(
        "mem.a = ambient mem.m = motion mem.s = signal "
        "mem.l = light mem.t = ticks_since_motion mem.k = tick",
        rd,
    )
    assert ctx.memory == {"a": 0.25, "m": 1.0, "s": 0.5, "l": 0.3, "t": 7.0, "k": 42.0}


def test_light_ref_reads_sensor_not_pending_output():
    # the second read still sees the pole's current lamp level
    rd = reading(current_light=0.3)
    cmd, ctx = run_once("mem.before = light light = 0.9 mem.after = light", rd)
    assert ctx.memory == {"before": 0.3, "after": 0.3}
    assert cmd.light == 0.9


def test_memory_persists_across_ticks():
    program = parse_source("mem.acc = mem.acc * 0.5 + 0.5 broadcast = mem.acc")
    ctx = EvalContext()
    levels = [evaluate(program, reading(), ctx).broadcast for _ in range(3)]
    assert levels == [0.5, 0.75, 0.875]


def test_memory_isolated_between_contexts():
    program = parse_source("mem.n = mem.n + 1 light = mem.n / 10")
    a, b = EvalContext(), EvalContext()
    evaluate(program, reading(), a)
    evaluate(program, reading(), a)
    evaluate(program, reading(), b)
    assert a.memory["n"] == 2.0
    assert b.memory["n"] == 1.0


def test_if_branches():
    src = "if signal > 0.5 then light = 1 else light = 0.2 end"
    assert run_once(src, reading(signal=0.6))[0].light == 1.0
    assert run_once(src, reading(signal=0.5))[0].light == 0.2


def test_motion_condition():
    src = "if motion then light = 1 end"
    assert run_once(src, reading(motion=True))[0].light == 1.0
    assert run_once(src, reading(motion=False))[0].light == 0.0


def test_boolean_operators():
    src = "if motion and signal > 0.5 then light = 1 end"
    assert run_once(src, reading(motion=True, signal=0.6))[0].light == 1.0
    assert run_once(src, reading(motion=True, signal=0.4))[0].light == 0.0
    src = "if motion or signal > 0.5 then light = 1 end"
    assert run_once(src, reading(motion=False, signal=0.6))[0].light == 1.0
    src = "if not motion then light = 1 end"
    assert run_once(src, reading(motion=False))[0].light == 1.0


@pytest.mark.parametrize("op, low, high", [
    ("<", True, False), ("<=", True, False), (">", False, True),
    (">=", False, True), ("==", False, False), ("!=", True, True),
])
def test_comparators(op, low, high):
    src = f"if ambient {op} 0.5 then light = 1 end"
    assert (run_once(src, reading(ambient=0.2))[0].light == 1.0) is low
    assert (run_once(src, reading(ambient=0.8))[0].light == 1.0) is high


def test_comparator_equality_boundary():
    src = "if ambient == 0.5 then light = 1 end"
    assert run_once(src, reading(ambient=0.5))[0].light == 1.0


def test_empty_then_branch_runs_nothing():
    cmd, _ = run_once("if motion then end light = 0.4", reading(motion=True))
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
    """
    _, ctx = run_once(src, reading(motion=True, signal=0.9))
    assert ctx.memory["depth"] == 2.0
    _, ctx = run_once(src, reading(motion=True, signal=0.1))
    assert ctx.memory["depth"] == 1.0
    _, ctx = run_once(src, reading(motion=False))
    assert ctx.memory["depth"] == 0.0


def test_ctx_previous_updated_after_evaluate():
    program = parse_source("light = 0.6")
    ctx = EvalContext()
    cmd = evaluate(program, reading(), ctx)
    assert ctx.previous is cmd
