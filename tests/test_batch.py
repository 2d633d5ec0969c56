"""The batched engine against the scalar oracle, bit for bit.

``scalar_engine.run_simulation``, one controller object per pole, is the
oracle: ``run_batch`` must give every lane exactly the metrics the oracle
gives that lane's controller (``==``, no tolerance), on the built-in
scenarios and on small generated ones, whatever the other lanes hold; and
``run_simulation``, one lane of ``run_batch``, must also give the oracle's
traces. Lanes run networks through ``network_batch_step``, rule programs
through their compiled step (``dsl.compiler``) and any other controller
through ``controller_step``'s per-pole adapter; the oracle runs every rule
program through the tests' tree-walking interpreter (``interpreter.py``)
and every genome through the tests' per-pole network
(``network_controller.py``), never through a package factory's
controller. Metamorphic relations over generated scenarios check what no
oracle can: ranges, monotonicity in the light level, and that pole ids
matter only through their order.
"""

import copy
import io
import random
from dataclasses import replace
from math import inf, isnan, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scalar_engine
from genprog import rand_program, rand_stateless_program
from interpreter import InterpreterController, interpreter_factory
from network_controller import NetworkController
from lumenloop import engine
from lumenloop.controllers import resolve_controller
from lumenloop.dsl.baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from lumenloop.dsl.compiler import CompiledProgram, DslController
from lumenloop.dsl.nodes import Assignment, BinOp, Number, Program, Ref
from lumenloop.dsl.parser import parse_source
from lumenloop.engine import (
    ActuatorCommand,
    SensorReading,
    controller_step,
    run_batch,
    run_simulation,
)
from lumenloop.errors import ControllerError
from lumenloop.fitness import DEFAULT_WEIGHTS, FitnessWeights
from lumenloop.neuro.evolution import score_rows, simulation_objective
from lumenloop.neuro.network import (
    DEFAULT_NETWORK,
    Genome,
    NetworkSpec,
    load_genome,
    network_batch_step,
    save_genome,
)
from lumenloop.scenario import PoleSpec, _grid_document, builtin_scenario, parse_scenario


def fixed(max_examples):
    """No shrinking: a failing generated scenario is reported as found, so a
    broken engine fails in seconds, not minutes."""
    return settings(max_examples=max_examples, suppress_health_check=[HealthCheck.too_slow],
                    phases=[phase for phase in Phase if phase is not Phase.shrink])


SCENARIO1 = builtin_scenario("scenario1")
SCENARIO2 = builtin_scenario("scenario2")


def oracle(scenario, genes, spec=DEFAULT_NETWORK, weights=DEFAULT_WEIGHTS):
    return [
        scalar_engine.run_simulation(
            scenario, lambda g=g: NetworkController(g, spec), weights=weights
        )
        for g in genes
    ]


def batched(scenario, genes, spec=DEFAULT_NETWORK, weights=DEFAULT_WEIGHTS):
    return run_batch(scenario, network_batch_step(genes, spec), len(genes), weights)


def genome_stacks(spec=DEFAULT_NETWORK, max_rows=4, scale=8.0):
    gene = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    return st.integers(1, max_rows).flatmap(
        lambda k: arrays(np.float64, (k, spec.genome_length), elements=gene)
    )


def random_genes(seed, rows, spec=DEFAULT_NETWORK):
    return np.random.default_rng(seed).normal(0.0, 2.0, size=(rows, spec.genome_length))


def scenario_from(people, side=3, max_ticks=30, ambient=((0, 0.0),), threshold=0.5,
                  isolated_pole=False):
    doc = _grid_document("generated", side, max_ticks, [
        {"id": i, "origin": o, "destination": d, "start_tick": t}
        for i, (o, d, t) in enumerate(people)
    ])
    doc["movement_threshold"] = threshold
    doc["ambient_schedule"] = [{"from_tick": f, "level": lv} for f, lv in ambient]
    if isolated_pole:
        doc["poles"].append({"id": side * side, "neighbors": []})
    return parse_scenario(doc)


@st.composite
def small_scenarios(draw):
    side = draw(st.integers(1, 4))
    max_ticks = draw(st.integers(1, 40))
    pole = st.integers(0, side * side - 1)
    people = draw(st.lists(
        st.tuples(pole, pole, st.integers(0, max_ticks - 1)), max_size=5
    ))
    starts = sorted(draw(st.sets(st.integers(0, max_ticks - 1), min_size=1, max_size=4)))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=len(starts), max_size=len(starts)))
    return scenario_from(
        people, side, max_ticks, ambient=list(zip(starts, levels)),
        threshold=draw(st.floats(0.0, 1.0)), isolated_pole=draw(st.booleans()),
    )


# -- the built-in scenarios ---------------------------------------------------


@fixed(20)
@given(genes=genome_stacks())
def test_scenario1_lanes_equal_the_scalar_engine(genes):
    assert batched(SCENARIO1, genes) == oracle(SCENARIO1, genes)


@fixed(5)
@given(genes=genome_stacks(max_rows=3))
def test_scenario2_lanes_equal_the_scalar_engine(genes):
    assert batched(SCENARIO2, genes) == oracle(SCENARIO2, genes)


@pytest.mark.parametrize("scenario", [SCENARIO1, SCENARIO2], ids=["scenario1", "scenario2"])
def test_objective_values_equal_the_scalar_fitness(scenario):
    genes = random_genes(7, 6)
    values = simulation_objective(scenario)(genes)
    assert values == [m.fitness for m in oracle(scenario, genes)]


@pytest.mark.parametrize("hidden", [0, 12])
def test_other_hidden_widths(hidden):
    spec = NetworkSpec(n_hidden=hidden)
    genes = random_genes(hidden, 6, spec)
    assert batched(SCENARIO1, genes, spec) == oracle(SCENARIO1, genes, spec)


@fixed(10)
@given(
    weights=st.builds(FitnessWeights, *[st.floats(-3.0, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_default_fitness_weights(weights, seed):
    genes = random_genes(seed, 3)
    assert batched(SCENARIO1, genes, weights=weights) == oracle(
        SCENARIO1, genes, weights=weights
    )


def test_duplicated_genomes_give_identical_lanes():
    genes = random_genes(3, 3)[[0, 1, 0, 2, 1, 0]]
    got = batched(SCENARIO1, genes)
    assert got == oracle(SCENARIO1, genes)
    assert got[0] == got[2] == got[5] and got[1] == got[4]


@fixed(10)
@given(genes=genome_stacks(max_rows=6), data=st.data())
def test_permuting_rows_permutes_results(genes, data):
    order = data.draw(st.permutations(range(len(genes))))
    objective = simulation_objective(SCENARIO1)
    values = objective(genes)
    assert objective(genes[order]) == [values[i] for i in order]


# -- generated scenarios and edge cases ----------------------------------------


@fixed(40)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1))
@example(scenario=scenario_from([]), seed=0)
@example(scenario=scenario_from([(4, 4, 0), (0, 8, 3)]), seed=1)
@example(scenario=scenario_from([(0, 8, 29), (8, 0, 28)]), seed=2)
def test_generated_scenarios(scenario, seed):
    genes = random_genes(seed, 3)
    assert batched(scenario, genes) == oracle(scenario, genes)


@pytest.mark.parametrize("people, expected_people_pct", [
    ([], 100.0),  # zero people: vacuously all home
    ([(4, 4, 0)], 100.0),  # origin == destination: home at the start tick
    ([(0, 8, 29)], 0.0),  # starts on the last tick, four hops from home
])
def test_edge_case_scenarios(people, expected_people_pct):
    scenario = scenario_from(people, isolated_pole=True)
    genes = random_genes(11, 4)
    got = batched(scenario, genes)
    assert got == oracle(scenario, genes)
    assert [m.people_pct for m in got] == [expected_people_pct] * 4


# Scenarios with many ticks on which no one can move: before anyone starts,
# and once everyone is home, where no one walks and the loop skips
# movement. A tick that differed from the oracle would show in the motion
# sensor, ticks_since_motion, or a person's moved/finished flags.
IDLE_SCENARIOS = {
    "everyone-starts-in-the-last-two-ticks": scenario_from(
        [(0, 8, 28), (8, 0, 29), (4, 5, 28)], isolated_pole=True
    ),
    # a bright ambient moves everyone every tick: all home by tick 2
    "everyone-home-by-tick-2": scenario_from(
        [(0, 1, 0), (4, 4, 1), (2, 5, 1)], ambient=((0, 1.0), (10, 0.0))
    ),
    "zero-people": scenario_from([], isolated_pole=True),
}
COUNTS_TICKS_SINCE_MOTION = parse_source("""\
if ticks_since_motion < 2 then
  light = 1 broadcast = 0.75
else
  light = ticks_since_motion / 300 broadcast = signal * 0.5
end
""")


@pytest.mark.parametrize("scenario", IDLE_SCENARIOS.values(), ids=IDLE_SCENARIOS)
@pytest.mark.parametrize("controller", ["network", "rule-program"])
def test_idle_ticks_equal_the_oracle(scenario, controller):
    if controller == "network":
        genes = random_genes(13, 1)[0]
        factory = Genome(genes, spec=DEFAULT_NETWORK)
        oracle_factory = lambda: NetworkController(genes)  # noqa: E731
    else:
        factory = CompiledProgram(COUNTS_TICKS_SINCE_MOTION)
        oracle_factory = interpreter_factory(COUNTS_TICKS_SINCE_MOTION)
    # == on the traces compares every reading, command and person flag
    want = scalar_engine.run_simulation(scenario, oracle_factory, trace=True)
    assert scalar_engine.traced_run(scenario, factory) == want
    assert run_batch(scenario, controller_step(scenario, [factory] * 3), 3) == [want[0]] * 3


def test_the_idle_scenarios_are_idle():
    late = IDLE_SCENARIOS["everyone-starts-in-the-last-two-ticks"]
    assert min(p.start_tick for p in late.people) == late.max_ticks - 2
    early = IDLE_SCENARIOS["everyone-home-by-tick-2"]
    _, traces = scalar_engine.run_simulation(early, lambda: ConstantLight(0.0), trace=True)
    assert all(person.finished for person in traces[1].people.values())


class Keeper:
    """Keeps every value it is shown beside a copy taken when it was shown."""

    def __init__(self):
        self.kept = []

    def keep(self, *values):
        self.kept += [(value, copy.copy(value)) for value in values]

    def changed(self):
        # repr tells -0.0 from 0.0 and shows nan, which == does not
        return [(repr(was), repr(value)) for value, was in self.kept
                if repr(value) != repr(was)]


def kept_by(keeper, step):
    """``step``, keeping every argument it is called with and every value it returns."""
    def recorded(*sensors):
        keeper.keep(*sensors)
        outputs = step(*sensors)
        keeper.keep(*outputs)
        return outputs

    return recorded


@pytest.mark.parametrize("scenario", [SCENARIO1, *IDLE_SCENARIOS.values()],
                         ids=["scenario1", *IDLE_SCENARIOS])
@pytest.mark.parametrize("steps", ["networks", "rule-programs", "one-rule-program"])
def test_the_loop_never_writes_into_what_it_hands_out(scenario, steps):
    # a step, and on_tick, may keep what they are given; a compiled rule
    # program keeps its sensors and its outputs
    programs = [COUNTS_TICKS_SINCE_MOTION, parse_source(EDGE_PROGRAMS["nested-if-memory"]),
                parse_source(EDGE_PROGRAMS["negative-zero-broadcast"])]
    if steps == "networks":
        step, lanes = network_batch_step(random_genes(5, 3)), 3
    elif steps == "rule-programs":
        step, lanes = controller_step(scenario, [CompiledProgram(p) for p in programs]), 3
    else:
        step, lanes = CompiledProgram(programs[0]).batch_step(), 1
    keeper = Keeper()

    def on_tick(tick, sensors, commands, people):
        keeper.keep(*sensors, *commands, *people)

    run_batch(scenario, kept_by(keeper, step), lanes, on_tick=on_tick)
    assert len(keeper.kept) == 17 * scenario.max_ticks  # 7 to and from the step, 10 to on_tick
    assert keeper.changed() == []


@pytest.mark.parametrize("trace", [False, True])
def test_run_simulation_enters_the_loop_through_one_run_batch_call(monkeypatch, trace):
    run = scalar_engine.traced_run if trace else run_simulation
    calls = []

    def counting(scenario, step, lanes, *args, **kwargs):
        calls.append(lanes)
        return run_batch(scenario, step, lanes, *args, **kwargs)

    monkeypatch.setattr(engine, "run_batch", counting)
    program = builtin_program("iteration3")
    got = run(SCENARIO1, CompiledProgram(program))
    assert calls == [1]
    assert got == scalar_engine.run_simulation(SCENARIO1, interpreter_factory(program), trace=trace)


GENOME = load_genome(Path(__file__).parent / "fixtures" / "genome.json")


@fixed(30)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1))
@example(scenario=SCENARIO1, seed=0)
def test_the_trace_writer_writes_the_scalar_loops_lines(scenario, seed):
    # the bytes against the scalar loop's own traces, not against
    # traced_run, which reads the same arrays as the writer; compared line
    # by line, as pytest's diff of two whole traces takes minutes
    program = rand_program(random.Random(seed))
    runs = [
        (CompiledProgram(program), interpreter_factory(program)),
        (GENOME, lambda: NetworkController(GENOME.genes, GENOME.spec)),
    ]
    for factory, oracle_factory in runs:
        fh = io.StringIO()
        metrics = run_simulation(scenario, factory, on_tick=engine.trace_writer(fh, scenario))
        want, traces = scalar_engine.run_simulation(scenario, oracle_factory, trace=True)
        assert fh.getvalue().splitlines(keepends=True) == list(scalar_engine.trace_lines(traces))
        assert metrics == want


# -- compiled rule programs ------------------------------------------------------


@fixed(40)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1))
@example(scenario=SCENARIO1, seed=0)
def test_rule_programs_equal_the_scalar_engine(scenario, seed):
    rng = random.Random(seed)
    programs = [rand_program(rng) for _ in range(3)]
    factories = [CompiledProgram(p) for p in programs]
    want = [scalar_engine.run_simulation(scenario, interpreter_factory(p), trace=True)
            for p in programs]
    assert [scalar_engine.traced_run(scenario, f) for f in factories] == want
    lanes = run_batch(scenario, controller_step(scenario, factories), len(factories))
    assert lanes == [metrics for metrics, _ in want]


# sensor readings no scenario gives: not-a-number, infinities, a signed
# zero, a value whose products overflow, and ordinary ones
UNUSUAL_READINGS = (nan, inf, -inf, -0.0, 0.0, 1e308, -1e308, 0.25, 0.5, 1.0, 3.0, 12.0)


def unusual_readings(shape):
    """Four ticks of (ambient, signal, light, ticks_since_motion, tick)
    readings, each (lanes, poles), and of motion flags."""
    readings = arrays(np.float64, (4, 5, *shape), elements=st.sampled_from(UNUSUAL_READINGS))
    motion = arrays(np.float64, (4, *shape), elements=st.sampled_from((0.0, 1.0)))
    return st.tuples(readings, motion)


@fixed(150)
@given(
    seed=st.integers(0, 2**32 - 1),
    ticks=st.sampled_from([(1, 1), (1, 5), (3, 4)]).flatmap(unusual_readings),
    tick_per_pole=st.booleans(),
)
def test_compiled_steps_equal_the_interpreter_on_unusual_readings(seed, ticks, tick_per_pole):
    # every pole runs the program on its own readings, so conditions differ
    # between poles and both branches of an if run and merge; the tick is
    # a reading per pole, or one value for all of them (as in a simulation,
    # where a condition on the tick alone takes one branch for every pole)
    program = rand_program(random.Random(seed))
    readings, motions = ticks
    shape = motions.shape[1:]
    step = CompiledProgram(program).batch_step()
    controllers = np.array([[InterpreterController(program) for _ in range(shape[1])]
                            for _ in range(shape[0])], dtype=object)
    for n, ((ambient, signal, light, since, tick), motion) in enumerate(zip(readings, motions)):
        tick = tick if tick_per_pole else tick[0, 0]
        got = [np.broadcast_to(value, shape)
               for value in step.run(ambient, motion, signal, light, since, tick)]
        memory = {name: np.broadcast_to(value, shape) for name, value in step.memory.items()}
        for (lane, pole), controller in np.ndenumerate(controllers):
            want = controller.act(SensorReading(
                ambient=float(ambient[lane, pole]), motion=bool(motion[lane, pole] == 1.0),
                signal=float(signal[lane, pole]), current_light=float(light[lane, pole]),
                ticks_since_motion=float(since[lane, pole]),
                tick=float(np.broadcast_to(tick, shape)[lane, pole]),
            ))
            where = (n, lane, pole)
            assert repr(float(got[0][lane, pole])) == repr(want.light), where
            assert bool(got[1][lane, pole]) is want.listen, where
            assert repr(float(got[2][lane, pole])) == repr(want.broadcast), where
            for name, value in memory.items():
                assert repr(float(value[lane, pole])) == repr(
                    controller.ctx.memory.get(name, 0.0)), (where, name)


def _with_unknown_ref():
    # a hand-built AST: the parser and validator never let `dusk` through
    return Program((
        Assignment("light", BinOp("+", Ref("dusk"), Number(0.75))),
        Assignment("broadcast", Ref("dusk")),
    ))


EDGE_PROGRAMS = {
    "negative-zero-light": "light = -0",
    "negative-zero-broadcast": "broadcast = -0",
    "negative-zero-products": "light = 0 * -1 broadcast = signal * -0",
    "listen-at-one-half": "listen = ambient + 0.5 broadcast = 0.5 * motion + 0.5",
    "divide-by-zero": "light = 1 / (signal - signal) + 0.25 broadcast = signal / 0",
    "overflow-to-inf": (
        "mem.a = mem.a * 1000000 + 1000000 "
        "light = mem.a / 1000000000 broadcast = mem.a / mem.a "
        "if mem.a < 1 then listen = 0 else listen = 1 end"
    ),
    "nested-if-memory": """\
if ticks_since_motion < 3 or signal > 0.5 then
  mem.seen = mem.seen + 1
  if mem.seen > 2 then
    mem.seen = mem.seen - 2
    light = mem.seen / 2
  else
    broadcast = mem.seen * 0.25
  end
else
  if not motion and tick > 10 then
    mem.seen = 0
  end
  light = light * 0.5
end
""",
    "negative-zero-through-memory": (
        "mem.z = -0 light = mem.z broadcast = mem.z * -1 if mem.z < 0 then listen = 0 end"
    ),
    "branch-rebinds-a-slot-to-itself": (
        "if signal > 0.5 then mem.a = mem.a else mem.a = mem.a + 1 end light = mem.a / 100"
    ),
    "same-constant-in-both-branches": "if motion then light = 0.5 else light = 0.5 end",
}


@pytest.mark.parametrize("program", [
    *(parse_source(source) for source in EDGE_PROGRAMS.values()), _with_unknown_ref(),
], ids=[*EDGE_PROGRAMS, "unknown-ref"])
@pytest.mark.parametrize("scenario", [SCENARIO1, SCENARIO2], ids=["scenario1", "scenario2"])
def test_edge_programs_equal_the_interpreter_sign_for_sign(program, scenario):
    # repr tells -0.0 from 0.0, which == does not
    want = scalar_engine.run_simulation(scenario, interpreter_factory(program), trace=True)
    got = scalar_engine.traced_run(scenario, CompiledProgram(program))
    assert repr(got[0]) == repr(want[0])
    scalar_engine.assert_same_ticks(got[1], want[1])


def test_the_overflow_program_does_overflow():
    # in the oracle, the slot grows a millionfold per tick until the product
    # is inf, which collapses to 0, so the slot starts again from 10**6
    program = parse_source(EDGE_PROGRAMS["overflow-to-inf"])
    _, traces = scalar_engine.run_simulation(
        SCENARIO1, interpreter_factory(program), trace=True
    )
    lights = [t.commands[0].light for t in traces]
    assert lights[0] == 0.001 and 0.001 in lights[1:]


def test_a_mixed_compare_stack_equals_the_per_lane_oracle():
    scenario = SCENARIO2
    path = Path(__file__).parent / "fixtures" / "genome.json"
    genome = load_genome(path)
    nested = parse_source(EDGE_PROGRAMS["nested-if-memory"])
    factories = [
        resolve_controller("iteration3").factory,
        resolve_controller(str(path)).factory,
        CompiledProgram(nested),
    ]
    oracles = [
        interpreter_factory(builtin_program("iteration3")),
        lambda: NetworkController(genome.genes, genome.spec),
        interpreter_factory(nested),
    ]
    want = [scalar_engine.run_simulation(scenario, f) for f in oracles]
    assert run_batch(scenario, controller_step(scenario, factories), 3) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_saturating_genome_runs_without_warnings(tmp_path):
    # finite genes whose sums pass the float range: each saturates to
    # +-inf, which sigmoid maps to exactly 1 or 0, with no overflow warning
    genes = np.random.default_rng(5).choice([-1e308, 1e308], DEFAULT_NETWORK.genome_length)
    path = tmp_path / "huge.json"
    save_genome(path, Genome(genes=genes))
    factory = resolve_controller(str(path)).factory
    want = scalar_engine.run_simulation(SCENARIO2, lambda: NetworkController(genes), trace=True)
    assert scalar_engine.traced_run(SCENARIO2, factory) == want
    lights = {c.light for t in want[1] for c in t.commands.values()}
    assert lights == {0.0, 1.0}


def test_dsl_controllers_through_act_equal_the_compiled_step():
    # a plain callable offers no batch step, so every pole runs
    # DslController.act through controller_step's per-pole adapter
    program = parse_source(EDGE_PROGRAMS["nested-if-memory"])
    factory = CompiledProgram(program)
    per_pole = scalar_engine.traced_run(SCENARIO2, lambda: factory())
    assert per_pole == scalar_engine.traced_run(SCENARIO2, factory)
    assert per_pole == scalar_engine.run_simulation(
        SCENARIO2, interpreter_factory(program), trace=True
    )


def test_rule_programs_never_run_through_act(monkeypatch):
    def act(self, reading):
        raise AssertionError("a rule program ran through DslController.act")

    monkeypatch.setattr(DslController, "act", act)
    factory = resolve_controller("iteration1").factory
    assert scalar_engine.traced_run(SCENARIO1, factory)[0] == run_simulation(
        SCENARIO1, factory
    )
    run_batch(SCENARIO1, controller_step(SCENARIO1, [factory, factory]), 2)


def test_constant_subtrees_fold_without_warnings():
    # folded at compile time: an overflowing product and a division by zero
    huge = "9" * 300
    program = parse_source(f"mem.a = {huge} * {huge} light = mem.a + 1 / 0 + 0.5")
    (metrics,) = run_batch(SCENARIO1, CompiledProgram(program).batch_step(), 1)
    assert metrics.energy_pct == 50.0


def test_controller_errors_name_the_tick_and_pole():
    class FailsAtTick3:
        def act(self, reading):
            if reading.tick == 3:
                raise ValueError("bad weights")
            return ActuatorCommand()

    # lane 1's fifth controller is the first to fail
    made = iter(range(len(SCENARIO1.poles)))
    factories = [
        lambda: ConstantLight(1.0),
        lambda: FailsAtTick3() if next(made) == 4 else ConstantLight(0.0),
    ]
    with pytest.raises(ControllerError, match=r"^tick 3, pole 4: bad weights$"):
        run_batch(SCENARIO1, controller_step(SCENARIO1, factories), 2)


class ConstantLight:
    def __init__(self, level):
        self.level = level

    def act(self, reading):
        return ActuatorCommand(light=self.level)


class Broadcasts:
    def __init__(self, level):
        self.level = level

    def act(self, reading):
        return ActuatorCommand(light=0.5, broadcast=self.level)


def test_signal_is_pythons_max_for_nan_and_signed_zero_broadcasts():
    # Python's max keeps the first value unless a later one is strictly
    # greater: a NaN counts only as a pole's first neighbour, and of -0.0
    # and 0.0 the first wins (pole 4 hears -0.0, 0.0, -0.0, 0.0); np.maximum
    # differs in both
    def factory():
        levels = iter([nan, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.75])
        return lambda: Broadcasts(next(levels))

    want = scalar_engine.run_simulation(SCENARIO1, factory(), trace=True)
    heard = [repr(r.signal) for r in want[1][1].readings.values()]
    assert heard == ["-0.0", "nan", "-0.0", "nan", "-0.0", "0.75", "0.0", "0.75", "-0.0"]
    got = scalar_engine.traced_run(SCENARIO1, factory())
    scalar_engine.assert_same_ticks(got[1], want[1])
    assert repr(got[0]) == repr(want[0])


class CyclingBroadcast:
    """Pole ``pole`` of a lane broadcasts ``pattern[(pole + tick) % len]``."""

    def __init__(self, pattern, pole):
        self.pattern = pattern
        self.pole = pole

    def act(self, reading):
        level = self.pattern[(self.pole + reading.tick) % len(self.pattern)]
        return ActuatorCommand(light=0.5, broadcast=level)


# one pattern per lane, over the ten poles of a side-3 grid with an
# isolated pole: NaN as a first and as a later neighbour, -0.0 and 0.0 in
# both orders, and 0.75
LANE_BROADCASTS = [
    (nan, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.75, 0.25),
    (-0.0, nan, 0.0, -0.0, 0.75, nan, 0.0, -0.0, nan, 0.0),
    (0.0, -0.0, nan, 0.75, -0.0, 0.0, nan, 0.0, -0.0, 0.75),
]


def test_each_lane_hears_the_signal_it_hears_alone():
    # run_batch gathers every lane's neighbours at once; each lane must
    # still hear Python's max over its own, sign for sign
    scenario = scenario_from([(0, 8, 0)], max_ticks=12, isolated_pole=True)

    def factory(pattern):
        poles = iter(range(len(scenario.poles)))
        return lambda: CyclingBroadcast(pattern, next(poles))

    def heard(patterns):
        """Each tick's signal as lists of lane rows of reprs."""
        ticks = []
        run_batch(scenario, controller_step(scenario, [factory(p) for p in patterns]),
                  len(patterns), on_tick=lambda tick, sensors, commands, people:
                  ticks.append([list(map(repr, row)) for row in sensors[2].tolist()]))
        return ticks

    together = heard(LANE_BROADCASTS)
    for lane, pattern in enumerate(LANE_BROADCASTS):
        alone = [rows[0] for rows in heard([pattern])]
        assert [rows[lane] for rows in together] == alone, lane
        oracle = scalar_engine.run_simulation(scenario, factory(pattern), trace=True)[1]
        assert alone == [[repr(r.signal) for r in t.readings.values()] for t in oracle], lane
    assert {rows[lane][-1] for rows in together for lane in range(3)} == {"0.0"}  # isolated
    assert {"nan", "-0.0", "0.0", "0.75"} <= {s for rows in together for row in rows for s in row}


@pytest.mark.parametrize("level", [-0.5, 1.5])
def test_light_is_clamped_before_the_threshold_for_any_step(level):
    # with threshold 0, a negative lamp level still moves people once
    # clamped to 0, and a level above 1 is clamped to 1
    for threshold in (0.0, 1.0):
        scenario = scenario_from([(0, 8, 0), (2, 6, 3)], threshold=threshold)
        want = scalar_engine.run_simulation(scenario, lambda: ConstantLight(level))

        def step(ambient, motion, signal, light):
            return np.full(light.shape, level), True, 0.0

        assert run_batch(scenario, step, 2) == [want, want]


class CyclingLight:
    """Lamp levels on each side of the clamp and the threshold, one per
    tick, from a place in the cycle given per pole."""

    LEVELS = (-1.0, -0.0, 0.0, 0.3, 1.0, 2.5, inf, -inf, nan)

    def __init__(self, offset):
        self.offset = offset

    def act(self, reading):
        return ActuatorCommand(light=self.LEVELS[(reading.tick + self.offset) % len(self.LEVELS)])


def cycling_lights():
    offsets = iter(range(1000))
    return lambda: CyclingLight(next(offsets))


@pytest.mark.parametrize("threshold", [0.0, -0.0, 0.25, 1.0, -0.5, 1.5])
def test_the_folded_threshold_equals_clamping_the_light(threshold):
    # the loop tests ambient + light against a threshold with the clamp to
    # [0, 1] folded in; a scenario file may not hold -0.5 or 1.5, so every
    # threshold is set on a parsed spec by hand
    scenario = replace(
        scenario_from([(0, 8, 0), (2, 6, 3), (6, 2, 1), (8, 0, 5), (4, 4, 2)],
                      ambient=((0, 0.0), (9, 0.2), (18, 1.0))),
        movement_threshold=threshold,
    )
    want = scalar_engine.run_simulation(scenario, cycling_lights(), trace=True)
    got = scalar_engine.traced_run(scenario, cycling_lights())
    assert repr(got[0]) == repr(want[0])
    scalar_engine.assert_same_ticks(got[1], want[1])
    assert any(p.moved for t in want[1] for p in t.people.values()) == (threshold <= 1)


UNUSUAL_ERRORS = {"divide": "raise", "over": "warn", "under": "print", "invalid": "raise"}
NO_WARNINGS = dict.fromkeys(UNUSUAL_ERRORS, "ignore")


def test_steps_run_without_warnings_and_the_error_state_comes_back():
    # the whole run is one errstate block, left as it was entered also
    # when a step or a per-pole act raises
    seen = []

    def step(ambient, motion, signal, light):
        seen.append(np.geterr())
        return light, True, 0.0

    def failing_step(ambient, motion, signal, light):
        seen.append(np.geterr())
        raise LookupError("a step failed")

    class FailsAtTick2:
        def act(self, reading):
            seen.append(np.geterr())
            if reading.tick == 2:
                raise ValueError("bad weights")
            return ActuatorCommand()

    with np.errstate(**UNUSUAL_ERRORS):
        run_batch(SCENARIO1, step, 1)
        assert np.geterr() == UNUSUAL_ERRORS
        with pytest.raises(ControllerError, match="^tick 2, pole 0: bad weights$"):
            run_batch(SCENARIO1, controller_step(SCENARIO1, [FailsAtTick2]), 1)
        assert np.geterr() == UNUSUAL_ERRORS
        with pytest.raises(LookupError, match="a step failed"):
            run_batch(SCENARIO1, failing_step, 1)
        assert np.geterr() == UNUSUAL_ERRORS
    assert len(seen) == SCENARIO1.max_ticks + 2 * len(SCENARIO1.poles) + 2
    assert all(state == NO_WARNINGS for state in seen)


def test_a_step_may_return_nested_lists():
    # a step's outputs need only be broadcastable to (lanes, poles); lists
    # of the full shape reach the next tick and the trace as arrays
    class ListFactory:
        def batch_step(self):
            def step(ambient, motion, signal, light):
                lanes, poles = light.shape
                return [[0.5] * poles] * lanes, [[True] * poles] * lanes, [[0.25] * poles] * lanes

            return step

    want = scalar_engine.run_simulation(SCENARIO1, lambda: Broadcasts(0.25), trace=True)
    assert scalar_engine.traced_run(SCENARIO1, ListFactory()) == want
    assert run_batch(SCENARIO1, ListFactory().batch_step(), 2) == [want[0]] * 2


def test_zero_lanes():
    assert batched(SCENARIO1, np.zeros((0, DEFAULT_NETWORK.genome_length))) == []


# -- metamorphic relations ------------------------------------------------------


def mixed_lanes(scenario, seed):
    """Three random rule programs, then three random networks."""
    rng = random.Random(seed)
    factories = [CompiledProgram(rand_program(rng)) for _ in range(3)]
    programs = run_batch(scenario, controller_step(scenario, factories), len(factories))
    return programs + batched(scenario, random_genes(seed, 3))


@fixed(40)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1))
@example(scenario=scenario_from([]), seed=0)
def test_metrics_stay_in_range(scenario, seed):
    people, max_ticks = len(scenario.people), scenario.max_ticks
    # a person walks at most from their start tick to the last tick
    walk_limit = sum(max_ticks - p.start_tick for p in scenario.people)
    for m in mixed_lanes(scenario, seed):
        for pct in (m.energy_pct, m.people_pct, m.trip_pct):
            assert 0.0 <= pct <= 100.0
        assert -100.0 <= m.fitness <= 100.0
        trip_ticks = round(m.trip_pct * people * max_ticks / 100.0)
        assert trip_ticks <= walk_limit <= people * max_ticks


@fixed(40)
@given(scenario=small_scenarios(),
       levels=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
def test_people_pct_never_falls_as_a_constant_light_rises(scenario, levels):
    levels = np.sort(levels)[:, None]

    def step(ambient, motion, signal, light):
        return levels, True, 0.0

    people_pct = [m.people_pct for m in run_batch(scenario, step, len(levels))]
    assert people_pct == sorted(people_pct)


@fixed(40)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_relabelling_pole_ids_in_order_keeps_the_metrics(scenario, seed, data):
    # ties break by the lowest id, so only a map that keeps the order counts
    ids = sorted(p.id for p in scenario.poles)
    new_ids = data.draw(st.sets(st.integers(-10**6, 10**6), min_size=len(ids),
                                max_size=len(ids)))
    label = dict(zip(ids, sorted(new_ids)))
    relabelled = replace(
        scenario,
        poles=tuple(PoleSpec(label[p.id], tuple(label[n] for n in p.neighbors))
                    for p in scenario.poles),
        people=tuple(replace(p, origin=label[p.origin], destination=label[p.destination])
                     for p in scenario.people),
    )
    assert mixed_lanes(relabelled, seed) == mixed_lanes(scenario, seed)


# -- one forward pass for both engines ------------------------------------------


def step_inputs(shape):
    """Three ticks of (motion, signal, light) inputs, each (lanes, poles)."""
    return arrays(np.float64, (3, *shape, 3), elements=st.floats(0.0, 1.0))


@fixed(50)
@given(
    hidden=st.sampled_from([0, 1, 6, 12]),
    seed=st.integers(0, 2**32 - 1),
    inputs=st.sampled_from([(1, 1), (1, 7), (5, 7)]).flatmap(step_inputs),
    ambients=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
@example(hidden=0, seed=0, inputs=np.full((3, 1, 1, 3), 0.25), ambients=[0.0, 0.5, 1.0])
@example(hidden=0, seed=1, inputs=np.linspace(0.0, 1.0, 63).reshape(3, 1, 7, 3),
         ambients=[1.0, 0.0, 0.5])
def test_batch_step_equals_controller_act_per_pole(hidden, seed, inputs, ambients):
    # one step over three ticks: the weight rows it lays out per pole at
    # its first call must serve every later call
    spec = NetworkSpec(n_hidden=hidden)
    lanes = inputs.shape[1]
    genes = random_genes(seed, lanes, spec)
    step = network_batch_step(genes, spec)
    controllers = [NetworkController(g, spec) for g in genes]
    for ambient, tick_inputs in zip(ambients, inputs):
        motion = (tick_inputs[..., 0] >= 0.5).astype(float)
        signal, light = tick_inputs[..., 1], tick_inputs[..., 2]
        out_light, out_listen, out_broadcast = (
            np.broadcast_to(a, motion.shape) for a in step(ambient, motion, signal, light)
        )
        for lane, controller in enumerate(controllers):
            for pole in range(motion.shape[1]):
                command = controller.act(SensorReading(
                    ambient=ambient, motion=bool(motion[lane, pole]),
                    signal=float(signal[lane, pole]), current_light=float(light[lane, pole]),
                    ticks_since_motion=0, tick=0,
                ))
                assert command.light == out_light[lane, pole]
                assert command.listen == out_listen[lane, pole]
                assert command.broadcast == out_broadcast[lane, pole]


# -- the GA's objective -----------------------------------------------------------


def test_score_rows_equals_the_scalar_engine():
    # a fresh scenario object, so that the objective builds scenario.compiled
    scenario = builtin_scenario("scenario1")
    genes = random_genes(5, 24)
    fitness = score_rows(genes, simulation_objective(scenario))
    assert fitness.tolist() == [m.fitness for m in oracle(SCENARIO1, genes)]


# -- stopping once every lane repeats itself ------------------------------------


def counting(step, stateless):
    """``step``, declared ``stateless`` or not, and a list that grows by one
    per call."""
    calls = []

    def counted(*sensors):
        calls.append(None)
        return step(*sensors)

    if stateless:
        counted.stateless = True
    return counted, calls


def genome(hidden=None, output=None):
    """Default-network genes, zero but for the weights given as {(unit, input):
    weight}: a hidden unit's inputs are ambient, motion, signal and light,
    then its bias; an output's (light, listen, broadcast) are the hidden
    units in order, then its bias."""
    w_hidden = np.zeros((DEFAULT_NETWORK.n_hidden, 5))
    w_output = np.zeros((3, DEFAULT_NETWORK.n_hidden + 1))
    for w, weights in ((w_hidden, hidden), (w_output, output)):
        for place, weight in (weights or {}).items():
            w[place] = weight
    return np.concatenate([w_hidden.ravel(), w_output.ravel()])


# every output is sigmoid(0) = 0.5 on every tick: light 0.5, listening
FIXED_POINT = genome()
# hidden unit 0 is near 1 when the pole hears the broadcast 1.0 of its
# neighbours and near 0 when it does not, and listen is its opposite: a
# pole hears on every other tick, and its light is 0.5 or about 0.88 in turn
LISTEN_2_CYCLE = genome(
    hidden={(0, 2): 20.0, (0, 4): -10.0},
    output={(0, 0): 2.0, (1, 0): -20.0, (1, 6): 10.0, (2, 6): 50.0},
)
# a NaN light on every tick, which never compares equal to itself
NAN_LIGHT = genome(output={(0, 6): nan})


def full_and_stopped(scenario, genes):
    """The metrics of ``genes`` on ``scenario`` stepped on every tick, and
    with the step declared stateless, and how many ticks that one stepped."""
    full, full_calls = counting(network_batch_step(genes), stateless=False)
    declared, calls = counting(network_batch_step(genes), stateless=True)
    want = run_batch(scenario, full, len(genes))
    got = run_batch(scenario, declared, len(genes))
    assert len(full_calls) == scenario.max_ticks
    return want, got, len(calls)


# the share of generated cases in which a declared step must stop early, so
# that the differential test below cannot pass by never stopping (55% of
# its 80 cases stop early; many small scenarios end too soon after their
# last ambient change or start tick)
STOPS_EARLY_AT_LEAST = 0.4


def test_stopping_early_keeps_every_metric():
    stopped = []

    @fixed(80)
    @given(scenario=st.one_of(small_scenarios(), st.sampled_from([SCENARIO1, SCENARIO2])),
           scale=st.sampled_from([0.3, 1.0, 3.0, 10.0, 50.0]),
           seed=st.integers(0, 2**32 - 1), lanes=st.integers(1, 4))
    @example(scenario=scenario_from([]), scale=0.3, seed=0, lanes=1)
    @example(scenario=scenario_from([(4, 4, 0), (0, 8, 3)], isolated_pole=True),
             scale=50.0, seed=1, lanes=4)
    def case(scenario, scale, seed, lanes):
        # from sigma 0.3, where lanes settle, to sigma 50, where sums saturate
        genes = np.random.default_rng(seed).normal(
            0.0, scale, (lanes, DEFAULT_NETWORK.genome_length))
        want, got, steps = full_and_stopped(scenario, genes)
        assert got == want
        stopped.append(steps < scenario.max_ticks)

    case()
    assert sum(stopped) >= STOPS_EARLY_AT_LEAST * len(stopped), (sum(stopped), len(stopped))


@pytest.mark.parametrize("scenario", [SCENARIO1, SCENARIO2], ids=["scenario1", "scenario2"])
def test_a_fixed_point_and_a_listen_2_cycle_stop_early(scenario):
    genes = np.stack([FIXED_POINT, LISTEN_2_CYCLE])
    want, got, steps = full_and_stopped(scenario, genes)
    assert got == want == oracle(scenario, genes)
    assert steps < scenario.max_ticks
    # the 2-cycle lane differs from the tick before on every tick, so only
    # a look two ticks back finds it repeating
    _, traces = scalar_engine.run_simulation(
        scenario, lambda: NetworkController(LISTEN_2_CYCLE), trace=True)
    listening = [t.commands[scenario.poles[0].id].listen for t in traces]
    assert listening == [True, False] * (scenario.max_ticks // 2)


def test_a_nan_lane_never_stops_early_and_keeps_its_metrics():
    # alone, and beside lanes that would stop early without it
    for genes in (NAN_LIGHT[None], np.stack([FIXED_POINT, NAN_LIGHT, LISTEN_2_CYCLE])):
        want, got, steps = full_and_stopped(SCENARIO1, genes)
        assert steps == SCENARIO1.max_ticks
        # repr, as a NaN metric is not == to itself
        assert repr(got) == repr(want) == repr(oracle(SCENARIO1, genes))
        assert [isnan(m.energy_pct) for m in got] == [bool(np.isnan(row).any()) for row in genes]


def stopped_steps(scenario, genes, **kwargs):
    """How many ticks a declared step of ``genes`` steps on ``scenario``."""
    step, calls = counting(network_batch_step(genes), stateless=True)
    run_batch(scenario, step, len(genes), **kwargs)
    return len(calls)


@pytest.mark.parametrize("late", ["ambient-change", "start"])
def test_a_change_on_the_last_tick_steps_every_tick(late):
    # the same scenario without the late change stops early
    genes = np.stack([FIXED_POINT, LISTEN_2_CYCLE])
    people, ambient = [(0, 8, 0), (6, 2, 4)], [(0, 0.0)]
    assert stopped_steps(scenario_from(people, ambient=ambient), genes) < 30
    if late == "ambient-change":
        ambient.append((29, 0.25))
    else:
        people.append((4, 5, 29))
    scenario = scenario_from(people, ambient=ambient)
    assert stopped_steps(scenario, genes) == 30
    assert full_and_stopped(scenario, genes)[:2] == (oracle(scenario, genes),) * 2


def test_a_run_with_on_tick_steps_every_tick():
    genes = FIXED_POINT[None]
    assert stopped_steps(SCENARIO1, genes) < SCENARIO1.max_ticks
    ticks = []
    on_tick = lambda tick, *arrays: ticks.append(tick)  # noqa: E731
    assert stopped_steps(SCENARIO1, genes, on_tick=on_tick) == SCENARIO1.max_ticks
    assert ticks == list(range(SCENARIO1.max_ticks))


# programs whose outputs follow from one tick's sensors and their last
# outputs: no memory slot, no tick, and ticks_since_motion only as a bare
# operand compared with a constant, which may be folded
STATELESS_SOURCES = {
    **{name: BUILTIN_PROGRAM_SOURCES[name]
       for name in ("always_on", "always_off", "iteration1", "iteration2")},
    "counter-compared-with-folded-constants": (
        "if ticks_since_motion > 2 * 4 or 0.5 == ticks_since_motion then light = 1 end"
    ),
    "tick-read-only-in-a-dead-branch": "if 1 > 2 then light = tick end",
}
# programs whose outputs settle as always_off's do, in a step that is not
# stateless: each keeps state the loop cannot see
NOT_STATELESS_SOURCES = {
    "memory-slot": "mem.a = 1 light = 0.5",
    "reads-tick": "if tick < 0 then light = 1 else light = 0.5 end",
    "counter-in-arithmetic": "light = ticks_since_motion * 0",
    "counter-compared-with-a-sensor": "if ticks_since_motion > signal then light = 1 end",
    "negated-counter": "if -ticks_since_motion < -8 then light = 1 end",
    "counter-compared-with-itself": (
        "light = 0.5 if ticks_since_motion < ticks_since_motion then light = 1 end"
    ),
}


def test_which_rule_program_steps_are_stateless():
    for name, source in STATELESS_SOURCES.items():
        assert CompiledProgram(parse_source(source)).batch_step().stateless is True, name
    # memory, the tick, or the counter other than against a constant: the
    # outputs depend on more than one tick's sensors and the last outputs
    rng = random.Random(0)
    programs = [builtin_program("iteration3"), *(rand_program(rng) for _ in range(5)),
                *map(parse_source, NOT_STATELESS_SOURCES.values())]
    for program in programs:
        assert CompiledProgram(program).batch_step().stateless is False
    genome_factory = Genome(FIXED_POINT, spec=DEFAULT_NETWORK)
    mixed = controller_step(SCENARIO1, [genome_factory, CompiledProgram(programs[0])])
    assert mixed.stateless is False
    per_pole = controller_step(SCENARIO1, [genome_factory, lambda: ConstantLight(0.5)])
    assert per_pole.stateless is False
    iteration2 = CompiledProgram(builtin_program("iteration2"))
    assert controller_step(SCENARIO1, [genome_factory, iteration2]).stateless is True


def test_a_compare_of_genomes_stops_early_and_equals_the_per_lane_oracle():
    genes = [FIXED_POINT, LISTEN_2_CYCLE, *np.random.default_rng(3).normal(
        0.0, 0.3, (3, DEFAULT_NETWORK.genome_length))]
    for scenario in (SCENARIO1, SCENARIO2):
        step = controller_step(scenario, [Genome(g, spec=DEFAULT_NETWORK) for g in genes])
        assert step.stateless is True
        counted, calls = counting(step, step.stateless)
        assert run_batch(scenario, counted, len(genes)) == oracle(scenario, genes)
        assert len(calls) < scenario.max_ticks


def light_4_cycle(ambient, motion, signal, light):
    """A stateless step whose light repeats every 2 ticks for a while but
    whose listen flag does not: a pole with neighbours (all broadcasting
    1.0) goes through light 0.25, 0.5, 0.25, 0.75 and listen on, off,
    off, on, so its state repeats only every 4 ticks."""
    heard = signal > 0
    cases = [heard & (light == 0.25), ~heard & (light == 0.5),
             ~heard & (light == 0.25), heard & (light == 0.75)]
    return (np.select(cases, [0.5, 0.25, 0.75, 0.25], 0.25),
            np.select(cases, [False, False, True, True], True), 1.0)


def test_a_state_repeats_only_when_its_listen_flags_do():
    # comparing the light and the broadcast alone would take an even tick
    # for a repeat of the one two before, and then add light 0.5 on the
    # ticks that light 0.75
    full, _ = counting(light_4_cycle, stateless=False)
    declared, calls = counting(light_4_cycle, stateless=True)
    assert run_batch(SCENARIO1, declared, 2) == run_batch(SCENARIO1, full, 2)
    assert len(calls) == SCENARIO1.max_ticks


# -- settling the lanes of a stack one by one -----------------------------------


class Recording:
    """A factory of one step, ``factory``'s, that declares what it declares
    and records each call's tick as ``clock`` reads it: the calls so far of
    a step the stack calls before this one (None without a clock)."""

    def __init__(self, factory, clock=None):
        self.step, self.clock, self.ticks = factory.batch_step(), clock, []
        self.stateless = getattr(self.step, "stateless", False)

    def batch_step(self):
        return self

    def repeats(self):
        return getattr(self.step, "repeats", lambda: True)()

    def __call__(self, *sensors):
        self.ticks.append(None if self.clock is None else len(self.clock.ticks) - 1)
        return self.step(*sensors)


class Undeclared:
    """A factory whose steps are ``factory``'s but declare nothing, so
    ``run_batch`` calls them on every tick."""

    def __init__(self, factory):
        self.factory = factory

    def batch_step(self):
        step = self.factory.batch_step()
        return lambda *sensors: step(*sensors)


def undeclared_run(scenario, factories):
    """The metrics of ``factories`` stacked on ``scenario``, every lane
    called on every tick."""
    step = controller_step(scenario, [Undeclared(f) for f in factories])
    return run_batch(scenario, step, len(factories))


FIXED_PROGRAMS = {
    # flips the sign of a zero light and a zero signal on every tick: it
    # outputs -0.0, which a kept output may stand for by an == +0.0
    "negative-zeros": parse_source(
        "light = -light broadcast = -signal if motion then light = 1 end"),
    # a pole with neighbours hears them every other tick, and its light
    # goes 0.25, 0.75 in turn: a 2-cycle, not a fixed point
    "listens-every-other-tick": parse_source(
        "broadcast = 1 if signal > 0.5 then listen = 0 light = 0.25 "
        "else listen = 1 light = 0.75 end"),
}
LANE_KINDS = ("builtin", "stateless", "random", "genome", *FIXED_PROGRAMS)


def lane_factory(kind, seed):
    rng = random.Random(seed)
    if kind == "builtin":
        return CompiledProgram(builtin_program(sorted(BUILTIN_PROGRAM_SOURCES)[seed % 5]))
    if kind == "stateless":
        return CompiledProgram(rand_stateless_program(rng))
    if kind == "random":
        return CompiledProgram(rand_program(rng))
    if kind == "genome":  # sigma 0.3, where network lanes settle
        genes = np.random.default_rng(seed).normal(0.0, 0.3, DEFAULT_NETWORK.genome_length)
        return Genome(genes, spec=DEFAULT_NETWORK)
    return CompiledProgram(FIXED_PROGRAMS[kind])


# the share of generated stacks in which some lane must settle, so that the
# test below cannot pass by never settling (48 of its 83 cases settle one)
SETTLES_AT_LEAST = 0.4


def test_settling_lanes_keeps_every_metric():
    settled = []

    @fixed(80)
    @given(scenario=st.one_of(small_scenarios(), st.sampled_from([SCENARIO1, SCENARIO2])),
           lanes=st.lists(st.tuples(st.sampled_from(LANE_KINDS), st.integers(0, 2**32 - 1)),
                          min_size=1, max_size=5))
    @example(scenario=SCENARIO2, lanes=[("negative-zeros", 0), ("genome", 1), ("builtin", 2),
                                        ("builtin", 3), ("builtin", 4)])
    @example(scenario=SCENARIO1, lanes=[("builtin", 2)])  # iteration1 alone
    # iteration3 keeps the run going while the 2-cycle lane is kept
    @example(scenario=SCENARIO1, lanes=[("listens-every-other-tick", 0), ("builtin", 4)])
    def case(scenario, lanes):
        factories = [lane_factory(*lane) for lane in lanes]
        recorded = [Recording(factory) for factory in factories]
        got = run_batch(scenario, controller_step(scenario, factories), len(lanes))
        counted = run_batch(scenario, controller_step(scenario, recorded), len(lanes))
        # repr, as it tells -0.0 from 0.0 and a NaN metric is not == to itself
        assert repr(got) == repr(counted) == repr(undeclared_run(scenario, factories))
        settled.append(any(len(r.ticks) < scenario.max_ticks for r in recorded))

    case()
    assert sum(settled) >= SETTLES_AT_LEAST * len(settled), (sum(settled), len(settled))


# each lane's calls in a default compare: a lane settles on the tick after
# its last call, the first tick whose state is == to the one two ticks
# before (always_off, always_on and iteration2 from ticks 12, 15 and 17 on
# scenario1, 27, 30 and 32 on scenario2); iteration1 waits until its
# counters, capped at 9, repeat too, and iteration3's light keeps halving
DEFAULT_COMPARE_CALLS = {
    "scenario1": [13, 16, 25, 18, 60],
    "scenario2": [28, 31, 40, 33, 100],
}


@pytest.mark.parametrize("scenario", [SCENARIO1, SCENARIO2], ids=["scenario1", "scenario2"])
def test_a_settled_lane_is_never_called_again(scenario):
    # the clock, a step that is not stateless, is called first on every tick
    clock = Recording(CompiledProgram(parse_source("mem.t = 0")))
    names = ["always_off", "always_on", "iteration1", "iteration2", "iteration3"]
    factories = [resolve_controller(name).factory for name in names]
    lanes = [Recording(factory, clock) for factory in factories]
    got = run_batch(scenario, controller_step(scenario, [clock, *lanes]), 1 + len(lanes))
    assert got[1:] == run_batch(scenario, controller_step(scenario, factories), len(lanes))
    assert repr(got[1:]) == repr(undeclared_run(scenario, factories))
    calls = DEFAULT_COMPARE_CALLS[scenario.name]
    assert [lane.ticks for lane in lanes] == [list(range(n)) for n in calls]


# light 0.5 for 20 ticks after a pole last saw motion, then 1: its outputs
# repeat long before its counters do
LIGHTS_UP_WHEN_QUIET = parse_source(
    "if ticks_since_motion > 20 then light = 1 else light = 0.5 end")


@pytest.mark.parametrize("alone", [True, False], ids=["alone", "stacked"])
def test_a_lane_settles_only_once_its_counters_repeat(alone):
    factory = CompiledProgram(LIGHTS_UP_WHEN_QUIET)
    lanes = [Recording(factory)] if alone else [Recording(factory), Recording(factory)]
    got = run_batch(SCENARIO2, controller_step(SCENARIO2, lanes), len(lanes))
    assert repr(got) == repr(undeclared_run(SCENARIO2, [factory] * len(lanes)))
    # the last motion is seen on tick 28, and the outputs repeat from tick
    # 30 on; the counters reach their cap of 21 on tick 49, where the lamps
    # that saw motion go from 0.5 to 1, and repeat from tick 51 on
    assert [len(lane.ticks) for lane in lanes] == [52] * len(lanes)


@pytest.mark.parametrize("source", NOT_STATELESS_SOURCES.values(), ids=NOT_STATELESS_SOURCES)
def test_a_lane_never_settles_when_its_program_is_not_stateless(source):
    factories = [CompiledProgram(parse_source(source)), resolve_controller("always_off").factory]
    lanes = [Recording(factory) for factory in factories]
    got = run_batch(SCENARIO1, controller_step(SCENARIO1, lanes), 2)
    assert repr(got) == repr(undeclared_run(SCENARIO1, factories))
    assert [len(lane.ticks) for lane in lanes] == [60, 13]


# -- quiet ticks: no one moved or started on the tick before -------------------
#
# On such a tick run_batch passes the last tick's motion array on again, the
# same object, and network_batch_step keeps the hidden sums' ambient and
# motion terms while the same ambient and motion objects come. These
# scenarios are built to hold long quiet stretches.
QUIET_SCENARIOS = {
    # dark throughout: an always_off lane's people never move
    "dark-scenario1": SCENARIO1,
    # starts after quiet stretches, the middle one on a zero-length route
    "starts-after-quiet-stretches": scenario_from(
        [(0, 2, 0), (4, 4, 9), (6, 8, 15)], ambient=((0, 0.0), (16, 1.0))
    ),
    # people wait in the dark, then a rising ambient moves them
    "waits-until-the-ambient-rises": scenario_from(
        [(0, 8, 0), (2, 6, 3)], ambient=((0, 0.0), (14, 0.3), (20, 1.0))
    ),
    # the last start tick is a zero-length route's: everyone is home there
    # with no move on that tick
    "home-at-the-last-start-tick": scenario_from(
        [(0, 2, 0), (3, 5, 2), (4, 4, 9)], ambient=((0, 1.0), (5, 0.0))
    ),
}
QUIET_PROGRAMS = [builtin_program("always_off"), builtin_program("iteration3"),
                  COUNTS_TICKS_SINCE_MOTION]
QUIET_GENES = random_genes(17, 2)


def quiet_ticks(scenario, moved):
    """The ticks t >= 1 such that neither t nor t - 1 is a start tick and
    ``moved[t - 1]`` is false."""
    starts = {person.start_tick for person in scenario.people}
    return [t for t in range(1, len(moved))
            if t not in starts and t - 1 not in starts and not moved[t - 1]]


@pytest.mark.parametrize("scenario", QUIET_SCENARIOS.values(), ids=QUIET_SCENARIOS)
def test_quiet_ticks_equal_the_scalar_engine(scenario):
    lanes = [(CompiledProgram(p), interpreter_factory(p)) for p in QUIET_PROGRAMS] + [
        (Genome(g, spec=DEFAULT_NETWORK), lambda g=g: NetworkController(g))
        for g in QUIET_GENES]
    want = [scalar_engine.run_simulation(scenario, oracle_factory, trace=True)
            for _, oracle_factory in lanes]
    for (factory, _), (metrics, ticks) in zip(lanes, want):
        got = scalar_engine.traced_run(scenario, factory)
        assert repr(got[0]) == repr(metrics)
        scalar_engine.assert_same_ticks(got[1], ticks)
    # one block of rule programs, always_off beside iteration3, and one of networks
    programs = controller_step(scenario, [factory for factory, _ in lanes[:3]])
    got = run_batch(scenario, programs, 3) + run_batch(scenario, network_batch_step(QUIET_GENES), 2)
    assert repr(got) == repr([metrics for metrics, _ in want])


def test_the_quiet_scenarios_are_what_they_say():
    _, dark = scalar_engine.run_simulation(SCENARIO1, interpreter_factory(QUIET_PROGRAMS[0]),
                                           trace=True)
    assert not any(p.moved for t in dark for p in t.people.values())
    assert {t.readings[0].ambient for t in dark} == {0.0}
    late = QUIET_SCENARIOS["home-at-the-last-start-tick"]
    _, ticks = scalar_engine.run_simulation(late, lambda: ConstantLight(0.0), trace=True)
    assert max(p.start_tick for p in late.people) == 9
    assert all(p.finished and not p.moved for p in ticks[9].people.values())
    assert not all(p.finished for p in ticks[8].people.values())
    for scenario in QUIET_SCENARIOS.values():
        _, ticks = scalar_engine.run_simulation(
            scenario, interpreter_factory(QUIET_PROGRAMS[1]), trace=True)
        moved = [any(p.moved for p in t.people.values()) for t in ticks]
        assert len(quiet_ticks(scenario, moved)) >= 10
    # a stretch with no walker between two walkers' ticks: the loop skips
    # movement in mid-run and resumes it at the next start
    middle = QUIET_SCENARIOS["starts-after-quiet-stretches"]
    _, ticks = scalar_engine.run_simulation(
        middle, interpreter_factory(QUIET_PROGRAMS[1]), trace=True)
    starts = {person.id: person.start_tick for person in middle.people}
    walks = "".join(
        "w" if any(p.moved or (starts[key] <= t.tick and not p.finished)
                   for key, p in t.people.items()) else "-"
        for t in ticks)
    assert "-" in walks.strip("-"), walks


@pytest.mark.parametrize("scenario", QUIET_SCENARIOS.values(), ids=QUIET_SCENARIOS)
@pytest.mark.parametrize("steps", ["networks", "rule-programs"])
def test_quiet_ticks_pass_the_same_motion_object_on(scenario, steps):
    if steps == "networks":
        step, lanes = network_batch_step(QUIET_GENES), len(QUIET_GENES)
    else:
        step = controller_step(scenario, [CompiledProgram(p) for p in QUIET_PROGRAMS])
        lanes = len(QUIET_PROGRAMS)
    motions, moved = [], []

    def on_tick(tick, sensors, commands, people):
        motions.append(sensors[1])
        moved.append(people[1].any())

    run_batch(scenario, step, lanes, on_tick=on_tick)
    quiet = quiet_ticks(scenario, moved)
    assert len(quiet) >= 10
    assert [t for t in quiet if motions[t] is not motions[t - 1]] == []


def test_a_network_step_gives_the_same_floats_for_a_kept_motion_and_a_copy():
    # the step keeps the ambient and motion terms of its hidden sums while
    # the same objects come; a fresh step for each call keeps nothing
    shape = (len(QUIET_GENES), 4)
    rng = np.random.default_rng(23)
    motions = [np.zeros(shape), (rng.random(shape) < 0.5) * 1.0]
    ambients = [0.0, 0.3, -0.0, nan]
    kept = network_batch_step(QUIET_GENES)
    calls = 0
    for ambient in [ambients[0]] * 3 + ambients + [ambients[1]] * 2:
        for motion in [motions[0]] * 3 + motions + [motions[1]] * 2:
            signal, light = rng.random(shape), rng.random(shape)
            signal[0, 0], light[1, 1] = -0.0, nan
            got = kept(ambient, motion, signal, light)
            want = network_batch_step(QUIET_GENES)(
                float(ambient), motion.copy(), signal.copy(), light.copy())
            for mine, theirs in zip(got, want):
                assert mine.tobytes() == theirs.tobytes()
            calls += 1
    assert calls == 63


class FollowsMotion:
    """A Python-API controller: lit by motion or half the heard signal,
    broadcasting its light, deaf every third tick."""

    def act(self, reading):
        light = 1.0 if reading.motion else reading.signal * 0.5
        return ActuatorCommand(light=light, listen=reading.tick % 3 != 0, broadcast=light)


def read_only(step):
    """``step``, setting every array it is given read-only before the call
    and every array it returns read-only after it."""
    def frozen(*sensors):
        for value in sensors:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        outputs = step(*sensors)
        for value in outputs:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return outputs

    frozen.stateless = getattr(step, "stateless", False)
    return frozen


@pytest.mark.parametrize("scenario", [SCENARIO2, *QUIET_SCENARIOS.values()],
                         ids=["scenario2", *QUIET_SCENARIOS])
@pytest.mark.parametrize("steps", ["networks", "one-rule-program", "five-rule-programs",
                                   "per-pole"])
def test_read_only_arrays_change_no_run(scenario, steps):
    # the loop never writes into an array once it has handed it over, so
    # it may pass one motion array on through quiet ticks and a step may
    # keep what it computed from it: runs whose arrays are all read-only
    # give the same metrics and the same trace bytes
    def make():
        if steps == "networks":
            return network_batch_step(QUIET_GENES), len(QUIET_GENES)
        if steps == "one-rule-program":
            return CompiledProgram(QUIET_PROGRAMS[1]).batch_step(), 1
        if steps == "five-rule-programs":
            programs = [*QUIET_PROGRAMS, builtin_program("always_on"),
                        builtin_program("iteration1")]
            return controller_step(scenario, [CompiledProgram(p) for p in programs]), 5
        return controller_step(scenario, [FollowsMotion] * 2), 2

    def run(wrap, traced):
        step, lanes = make()
        fh = io.StringIO()
        on_tick = engine.trace_writer(fh, scenario) if traced else None
        return run_batch(scenario, wrap(step), lanes, on_tick=on_tick), fh.getvalue()

    for traced in (False, True):
        want = run(lambda step: step, traced)
        got = run(read_only, traced)
        assert repr(got[0]) == repr(want[0])
        assert got[1] == want[1]
        assert (got[1].count("\n") == scenario.max_ticks) is traced
