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
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scalar_engine
from genprog import rand_program
from interpreter import InterpreterController, interpreter_factory
from network_controller import NetworkController
from lumenloop import engine
from lumenloop.controllers import (
    DslController,
    network_factory,
    program_factory,
    resolve_controller,
)
from lumenloop.dsl.baselines import builtin_program
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
    """Fixed example order and no example database: every run checks the same cases.

    No shrinking: a failing generated scenario is reported as found, so a
    broken engine fails in seconds, not minutes."""
    return settings(max_examples=max_examples, derandomize=True, database=None,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow],
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
# and once everyone is home, where the loop skips the people phase. A tick
# that differed from the oracle would show in the motion sensor,
# ticks_since_motion, or a person's moved/finished flags.
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
        factory = network_factory(genes, DEFAULT_NETWORK)
        oracle_factory = lambda: NetworkController(genes)  # noqa: E731
    else:
        factory = program_factory(COUNTS_TICKS_SINCE_MOTION)
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
        step, lanes = controller_step(scenario, [program_factory(p) for p in programs]), 3
    else:
        step, lanes = program_factory(programs[0]).batch_step(), 1
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
    got = run(SCENARIO1, program_factory(program))
    assert calls == [1]
    assert got == scalar_engine.run_simulation(SCENARIO1, interpreter_factory(program), trace=trace)


GENOME_SPEC, GENOME = load_genome(Path(__file__).parent / "fixtures" / "genome.json")


@fixed(30)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1))
@example(scenario=SCENARIO1, seed=0)
def test_the_trace_writer_writes_the_scalar_loops_lines(scenario, seed):
    # the bytes against the scalar loop's own traces, not against
    # traced_run, which reads the same arrays as the writer; compared line
    # by line, as pytest's diff of two whole traces takes minutes
    program = rand_program(random.Random(seed))
    runs = [
        (program_factory(program), interpreter_factory(program)),
        (network_factory(GENOME.genes, GENOME_SPEC),
         lambda: NetworkController(GENOME.genes, GENOME_SPEC)),
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
    factories = [program_factory(p) for p in programs]
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
    step = program_factory(program).batch_step()
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
    got = scalar_engine.traced_run(scenario, program_factory(program))
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
    spec, genome = load_genome(path)
    nested = parse_source(EDGE_PROGRAMS["nested-if-memory"])
    factories = [
        resolve_controller("iteration3").factory,
        resolve_controller(str(path)).factory,
        program_factory(nested),
    ]
    oracles = [
        interpreter_factory(builtin_program("iteration3")),
        lambda: NetworkController(genome.genes, spec),
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
    factory = program_factory(program)
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
    (metrics,) = run_batch(SCENARIO1, program_factory(program).batch_step(), 1)
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
    factories = [program_factory(rand_program(rng)) for _ in range(3)]
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
