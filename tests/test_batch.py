"""The batched engine against the scalar oracle, bit for bit.

``scalar_engine.run_simulation``, one controller object per pole, is the
oracle: ``run_batch`` must give every lane exactly the metrics the oracle
gives that lane's controller (``==``, no tolerance), on the built-in
scenarios and on small generated ones, whatever the other lanes hold; and
``run_simulation``, one lane of ``run_batch``, must also give the oracle's
traces. Lanes run networks through ``network_batch_step`` and rule programs
through ``controller_step``. Metamorphic relations over generated scenarios
check what no oracle can: ranges, monotonicity in the light level, and
that pole ids matter only through their order.
"""

import random
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scalar_engine
from genprog import rand_program
from lumenloop.controllers import program_factory
from lumenloop.engine import (
    ActuatorCommand,
    SensorReading,
    controller_step,
    run_batch,
    run_simulation,
)
from lumenloop.errors import ControllerError
from lumenloop.fitness import DEFAULT_WEIGHTS, FitnessWeights
from lumenloop.neuro.evolution import evaluate_population, simulation_objective
from lumenloop.neuro.network import (
    DEFAULT_NETWORK,
    Genome,
    NetworkController,
    NetworkSpec,
    network_batch_step,
)
from lumenloop.scenario import PoleSpec, _grid_document, builtin_scenario, parse_scenario


def fixed(max_examples):
    """Fixed example order and no example database: every run checks the same cases."""
    return settings(max_examples=max_examples, derandomize=True, database=None,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


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


@fixed(40)
@given(scenario=small_scenarios(), seed=st.integers(0, 2**32 - 1))
@example(scenario=SCENARIO1, seed=0)
def test_rule_programs_equal_the_scalar_engine(scenario, seed):
    rng = random.Random(seed)
    factories = [program_factory(rand_program(rng)) for _ in range(3)]
    want = [scalar_engine.run_simulation(scenario, f, trace=True) for f in factories]
    assert run_simulation(scenario, factories[0], trace=True) == want[0]
    lanes = run_batch(scenario, controller_step(scenario, factories), len(factories))
    assert lanes == [metrics for metrics, _ in want]


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


@fixed(50)
@given(
    hidden=st.sampled_from([0, 1, 6, 12]),
    seed=st.integers(0, 2**32 - 1),
    inputs=arrays(np.float64, (5, 7, 3), elements=st.floats(0.0, 1.0)),
    ambient=st.floats(0.0, 1.0),
)
def test_batch_step_equals_controller_act_per_pole(hidden, seed, inputs, ambient):
    spec = NetworkSpec(n_hidden=hidden)
    genes = random_genes(seed, 5, spec)
    motion = (inputs[..., 0] >= 0.5).astype(float)
    signal, light = inputs[..., 1], inputs[..., 2]
    out_light, out_listen, out_broadcast = (
        np.broadcast_to(a, motion.shape)
        for a in network_batch_step(genes, spec)(ambient, motion, signal, light)
    )
    for lane, g in enumerate(genes):
        controller = NetworkController(g, spec)
        for pole in range(motion.shape[1]):
            command = controller.act(SensorReading(
                ambient=ambient, motion=bool(motion[lane, pole]),
                signal=float(signal[lane, pole]), current_light=float(light[lane, pole]),
                ticks_since_motion=0, tick=0,
            ))
            assert command.light == out_light[lane, pole]
            assert command.listen == out_listen[lane, pole]
            assert command.broadcast == out_broadcast[lane, pole]


# -- workers ---------------------------------------------------------------------


def test_threaded_chunks_equal_the_scalar_engine():
    # more threads than cores, frequent thread switches, and a fresh
    # scenario object so that the threads race to build scenario.compiled
    scenario = builtin_scenario("scenario1")
    genes = random_genes(5, 24)
    population = [Genome(genes=g) for g in genes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        evaluate_population(population, simulation_objective(scenario), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert [g.fitness for g in population] == [m.fitness for m in oracle(SCENARIO1, genes)]
