"""Network encoding, GA operators, and evolution behavior."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from breeding import breed, mutate, one_point_crossover
from imitation import imitation_objective
from network_controller import NetworkController, reading_to_inputs
from lumenloop.engine import SensorReading
from lumenloop.errors import LengthMismatch, SchemaError
from lumenloop.fitness import FitnessWeights
from lumenloop.neuro.evolution import (
    BLOCK_FLOATS,
    EvolutionConfig,
    _breed,
    evolve,
    init_population,
    lane_floats,
    rng_for,
    run_evolution,
    score_rows,
    simulation_objective,
    tournament_select,
)
from lumenloop.neuro.network import (
    DEFAULT_NETWORK,
    Genome,
    NetworkSpec,
    load_genome,
    save_genome,
    sigmoid,
    split_genome,
)
from lumenloop.scenario import builtin_scenario


def reading(**kw):
    base = dict(
        ambient=0.0, motion=False, signal=0.0,
        current_light=0.0, ticks_since_motion=255, tick=0,
    )
    base.update(kw)
    return SensorReading(**base)


# --- network encoding ---

def test_default_genome_length():
    assert DEFAULT_NETWORK == NetworkSpec(n_hidden=6)
    # (4 inputs + bias) * 6 hidden + (6 hidden + bias) * 3 outputs
    assert DEFAULT_NETWORK.genome_length == 51


def test_split_genome_layout():
    spec = NetworkSpec(n_hidden=1)
    genes = np.arange(spec.genome_length, dtype=float)
    w_hidden, w_output = split_genome(spec, genes)
    assert w_hidden.shape == (1, 5)
    assert w_output.shape == (3, 2)
    # row-major: unit weights then bias, hidden layer first
    assert w_hidden[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert w_output[0].tolist() == [5.0, 6.0]
    assert w_output[1].tolist() == [7.0, 8.0]
    assert w_output[2].tolist() == [9.0, 10.0]


def test_split_genome_length_mismatch():
    with pytest.raises(LengthMismatch, match="50"):
        split_genome(DEFAULT_NETWORK, np.zeros(50))


def test_sigmoid_properties():
    assert sigmoid(np.array(0.0)) == 0.5
    values = sigmoid(np.array([-1000.0, -5.0, 0.0, 5.0, 1000.0]))
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= 0.0)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def where_sigmoid(x):
    """sigmoid with the numerator picked by np.where: the reference for
    the exp(min(x, 0)) numerator."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    signed = ~np.isnan(want)
    assert np.array_equal(np.signbit(got)[signed], np.signbit(want)[signed])


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-17, -1e-17,
                 709.78, -709.78, 745.2, -745.2, math.inf, -math.inf, math.nan]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [
    *(np.array(edge) for edge in SIGMOID_EDGES),
    np.array(SIGMOID_EDGES),
    np.array(SIGMOID_EDGES[:-1]).reshape(2, 7),
], ids=lambda x: f"{x.ndim}d-{x.flat[0] if x.ndim == 0 else x.size}")
def test_sigmoid_equals_the_where_formula_bit_for_bit(x):
    assert_same_bits(sigmoid(x), where_sigmoid(x))


@settings(max_examples=200)
@given(x=arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=6),
                elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_sigmoid_equals_the_where_formula_on_any_floats(x):
    assert_same_bits(sigmoid(x), where_sigmoid(x))


def test_forward_bounds_and_determinism():
    rng = np.random.default_rng(0)
    genes = rng.normal(0, 1, DEFAULT_NETWORK.genome_length)
    rd = reading(ambient=0.5, motion=True, signal=0.25, current_light=0.75)
    out1 = NetworkController(genes, DEFAULT_NETWORK).act(rd)
    out2 = NetworkController(genes, DEFAULT_NETWORK).act(rd)
    assert 0.0 <= out1.light <= 1.0
    assert 0.0 <= out1.broadcast <= 1.0
    assert out1 == out2


def test_reading_to_inputs():
    rd = reading(ambient=0.25, motion=True, signal=0.5, current_light=0.75)
    assert reading_to_inputs(rd).tolist() == [0.25, 1.0, 0.5, 0.75]


def test_zero_genome_controller():
    ctrl = NetworkController(np.zeros(51))
    cmd = ctrl.act(reading())
    assert cmd.light == 0.5
    assert cmd.listen is True  # exactly at the 0.5 threshold
    assert cmd.broadcast == 0.5


def test_genome_file_roundtrip(tmp_path):
    path = tmp_path / "g.json"
    genes = np.linspace(-1, 1, 51)
    save_genome(path, Genome(genes=genes, fitness=33.25), DEFAULT_NETWORK)
    spec, genome = load_genome(path)
    assert spec == DEFAULT_NETWORK
    assert genome.fitness == 33.25
    assert np.array_equal(genome.genes, genes)


def test_genome_file_schema_errors(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{]")
    with pytest.raises(SchemaError):
        load_genome(path)
    path.write_text(json.dumps({"genes": "oops"}))
    with pytest.raises(SchemaError):
        load_genome(path)
    path.write_text(json.dumps(
        {"network": {"n_inputs": 4, "n_hidden": 6, "n_outputs": 3}, "genes": [0.0] * 50}
    ))
    with pytest.raises(LengthMismatch):
        load_genome(path)


# --- GA operators ---

def test_init_population_deterministic():
    a = init_population(EvolutionConfig(population_size=5, seed=3), DEFAULT_NETWORK, rng_for(3, 0))
    b = init_population(EvolutionConfig(population_size=5, seed=3), DEFAULT_NETWORK, rng_for(3, 0))
    assert a.shape == (5, 51)
    assert np.array_equal(a, b)
    # one draw for the whole array takes the stream's values in the same
    # order as one draw per genome
    rng = rng_for(3, 0)
    assert np.array_equal(a, [rng.normal(0.0, 1.0, 51) for _ in range(5)])


def test_crossover_swaps_prefix_suffix():
    a = np.zeros(10)
    b = np.ones(10)
    rng = np.random.default_rng(5)
    c1, c2 = one_point_crossover(a, b, rng)
    cut = int(np.argmax(c1 != 0.0)) if c1.any() else 10
    assert 1 <= cut <= 9
    assert np.array_equal(c1, np.concatenate([a[:cut], b[cut:]]))
    assert np.array_equal(c2, np.concatenate([b[:cut], a[cut:]]))


def test_mutate_zero_rate_is_identity():
    genes = np.linspace(0, 1, 51)
    rng = np.random.default_rng(0)
    assert np.array_equal(mutate(genes, rng, 0.0, 0.3), genes)
    assert np.array_equal(mutate(genes, rng, 0.05, 0.0), genes)


def test_mutate_perturbation_statistics():
    # with rate 1 every gene moves; mean |delta| matches the half-normal mean
    genes = np.zeros(100_000)
    rng = np.random.default_rng(42)
    mutated = mutate(genes, rng, 1.0, 0.3)
    deltas = np.abs(mutated - genes)
    assert np.all(deltas > 0.0)
    expected = 0.3 * np.sqrt(2.0 / np.pi)
    assert np.mean(deltas) == pytest.approx(expected, rel=0.05)


def test_mutate_rate_hits_expected_fraction():
    genes = np.zeros(100_000)
    rng = np.random.default_rng(7)
    mutated = mutate(genes, rng, 0.05, 0.3)
    fraction = np.mean(mutated != 0.0)
    assert fraction == pytest.approx(0.05, rel=0.1)


def test_tournament_selects_best_of_sample():
    fitness = np.array([0.0, 1.0, 2.0])
    rng = np.random.default_rng(0)
    # tournament over the whole population must return the top row
    assert tournament_select(fitness, rng, 3) == 2


def test_tournament_tie_takes_lowest_index():
    rng = np.random.default_rng(0)
    assert tournament_select(np.full(3, 5.0), rng, 3) == 0


BREEDING = [
    dict(tournament_size=k, crossover_rate=crossover, mutation_rate=mutation)
    for k in (1, 3, 60) for crossover in (0.0, 0.9, 1.0) for mutation in (0.0, 0.05, 1.0)
] + [dict(mutation_rate=0.5, mutation_sigma=1e308)]  # children held at the float's edge


@pytest.mark.parametrize("population", [1, 2, 3, 50, 51])
@pytest.mark.parametrize("elitism", ["none", "one", "all"])
def test_breed_fills_its_rows_as_the_per_child_loop(population, elitism):
    # the children are the rows after the elites: with an odd count the
    # last pair's second child is dropped, after every draw but its mutation
    elites = {"none": 0, "one": 1, "all": population}[elitism]
    rng = np.random.default_rng(population)
    genes = rng.normal(0.0, 1.0, (population, DEFAULT_NETWORK.genome_length))
    fitness = rng.integers(0, 4, population).astype(float)  # ties
    fitness[-1] = -math.inf
    for i, rates in enumerate(BREEDING):
        cfg = EvolutionConfig(population_size=population, elitism=elites, **rates)
        want, got = (np.full((population - elites, genes.shape[1]), np.nan) for _ in range(2))
        oracle_rng, rng = rng_for(population, i), rng_for(population, i)
        breed(genes, fitness, want, cfg, oracle_rng)
        _breed(genes, fitness, got, cfg, rng)
        assert np.array_equal(got, want), rates
        assert rng.bit_generator.state == oracle_rng.bit_generator.state, rates


# --- evolution loop ---

def sphere(genes):
    return [-float(np.sum(g * g)) for g in genes]


def test_best_fitness_monotone_under_elitism():
    cfg = EvolutionConfig(population_size=12, generations=50, seed=0)
    result = evolve(cfg, DEFAULT_NETWORK, sphere)
    best_series = [s.best_fitness for s in result.history]
    assert len(best_series) == 50
    assert all(b <= a for b, a in zip(best_series, best_series[1:]))
    assert result.best.fitness == max(best_series)


def test_evolution_deterministic():
    cfg = EvolutionConfig(population_size=10, generations=8, seed=123)
    r1 = evolve(cfg, DEFAULT_NETWORK, sphere)
    r2 = evolve(cfg, DEFAULT_NETWORK, sphere)
    assert [s.best_fitness for s in r1.history] == [s.best_fitness for s in r2.history]
    assert np.array_equal(r1.best.genes, r2.best.genes)


def test_generation_stats_shape():
    cfg = EvolutionConfig(population_size=6, generations=3, seed=1)
    result = evolve(cfg, DEFAULT_NETWORK, sphere)
    assert [s.generation for s in result.history] == [1, 2, 3]
    for stat in result.history:
        assert stat.mean_fitness <= stat.best_fitness


def recording(*answers):
    """An objective that keeps a copy of each batch it scores; call i
    scores every row answers[min(i, len(answers) - 1)]."""
    calls = []

    def objective(genes):
        calls.append(genes.copy())
        return [answers[min(len(calls), len(answers)) - 1]] * len(genes)

    return objective, calls


def test_elite_tie_goes_to_the_lower_row():
    # all four first-generation genomes tie, so the elite is row 0; with
    # no crossover or mutation every tournament (over the whole
    # population) copies its winner, so generation 3 is all the elite
    objective, calls = recording(0.0, -1.0)
    cfg = EvolutionConfig(population_size=4, generations=3, tournament_size=4,
                          crossover_rate=0.0, mutation_rate=0.0, elitism=1)
    evolve(cfg, DEFAULT_NETWORK, objective)
    assert len(calls) == 3
    assert all(np.array_equal(row, calls[0][0]) for row in calls[2])


def test_best_so_far_needs_a_strictly_better_fitness():
    objective, calls = recording(1.0)
    cfg = EvolutionConfig(population_size=5, generations=3, mutation_rate=1.0, elitism=0)
    result = evolve(cfg, DEFAULT_NETWORK, objective)
    assert not any(np.array_equal(row, calls[0][0]) for row in calls[-1])
    assert np.array_equal(result.best.genes, calls[0][0])
    assert result.best.fitness == 1.0


def test_a_population_of_elites_is_scored_once():
    objective, calls = recording(1.0)
    cfg = EvolutionConfig(population_size=4, generations=5, elitism=4)
    result = evolve(cfg, DEFAULT_NETWORK, objective)
    assert len(calls) == 1
    assert len(result.history) == 5


def test_only_the_children_after_the_elites_are_scored():
    objective, calls = recording(1.0, 0.0)
    cfg = EvolutionConfig(population_size=7, generations=4, elitism=2)
    result = evolve(cfg, DEFAULT_NETWORK, objective)
    assert [len(genes) for genes in calls] == [7, 5, 5, 5]
    # the two elites keep the 1.0 they scored in generation 1
    assert [s.best_fitness for s in result.history] == [1.0] * 4
    assert [s.mean_fitness for s in result.history[1:]] == [2.0 / 7.0] * 3


def test_each_generation_is_bred_in_place():
    # evolve holds two gene arrays, the generation and the one bred into;
    # a separate children array and the concatenated next generation made
    # three at the peak
    spec = NetworkSpec(n_hidden=60)
    cfg = EvolutionConfig(population_size=500, generations=3)
    evolve(cfg, spec, sphere)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        evolve(cfg, spec, sphere)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * cfg.population_size * spec.genome_length * 8


def test_run_evolution_on_scenario():
    cfg = EvolutionConfig(population_size=8, generations=3, seed=1)
    sc = builtin_scenario("scenario1")
    result = run_evolution(cfg, sc)
    assert [s.generation for s in result.history] == [1, 2, 3]
    assert result.best.fitness == max(s.best_fitness for s in result.history)


def test_a_generation_is_scored_on_one_thread():
    # run_evolution keeps workers=1 for callers that still pass it; any
    # other count is refused, and the GA itself takes no worker count
    cfg = EvolutionConfig(population_size=4, generations=2, seed=1)
    sc = builtin_scenario("scenario1")
    with pytest.raises(ValueError, match="workers must be 1, got 2"):
        run_evolution(cfg, sc, workers=2)
    assert run_evolution(cfg, sc, workers=1).history == run_evolution(cfg, sc).history
    with pytest.raises(TypeError):
        evolve(cfg, DEFAULT_NETWORK, sphere, workers=1)
    with pytest.raises(TypeError):
        score_rows(np.zeros((2, 51)), sphere, workers=1)


def test_an_objective_must_give_one_value_per_genome():
    genes = np.zeros((3, DEFAULT_NETWORK.genome_length))
    with pytest.raises(ValueError, match=r"objective gave \(2,\) values for 3 genomes"):
        score_rows(genes, lambda rows: [0.0, 1.0])
    with pytest.raises(ValueError, match=r"objective gave \(3, 1\) values for 3 genomes"):
        score_rows(genes, lambda rows: [[0.0]] * len(rows))


SCENARIO2 = builtin_scenario("scenario2")


@settings(max_examples=20)
@given(population=st.integers(1, 12), lanes=st.integers(0, 14), seed=st.integers(0, 2**32 - 1))
@example(population=12, lanes=1, seed=0)  # one lane per block
@example(population=12, lanes=5, seed=0)  # a few, the last block short
@example(population=12, lanes=12, seed=0)  # the whole generation
def test_a_generation_scores_the_same_in_blocks_of_any_size(population, lanes, seed):
    # lanes are independent, so how the genomes are cut into blocks
    # changes no fitness; at the real budget all 12 are one block
    assert BLOCK_FLOATS // lane_floats(SCENARIO2, DEFAULT_NETWORK) >= 12
    genes = np.random.default_rng(seed).normal(
        0.0, 3.0, size=(population, DEFAULT_NETWORK.genome_length))
    one_block = simulation_objective(SCENARIO2)(genes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lumenloop.neuro.evolution.BLOCK_FLOATS",
                   lanes * lane_floats(SCENARIO2, DEFAULT_NETWORK))
        assert simulation_objective(SCENARIO2)(genes) == one_block


def test_a_non_finite_fitness_or_gene_is_not_saved(tmp_path):
    # weights near the float's edge overflow the fitness to -inf, which
    # save_genome wrote as -Infinity, a genome no command could then load
    huge = FitnessWeights(1e308, 1e308, 1e308)
    result = run_evolution(EvolutionConfig(generations=2, population_size=4),
                           builtin_scenario("scenario1"), weights=huge)
    assert result.best.fitness == -math.inf
    path = tmp_path / "g.json"
    with pytest.raises(SchemaError, match="^fitness: expected a finite number, got -inf"):
        save_genome(path, result.best)
    genes = np.zeros(DEFAULT_NETWORK.genome_length)
    genes[7] = math.nan
    with pytest.raises(SchemaError, match=r"^genes\[7\]: expected a finite number, got nan"):
        save_genome(path, Genome(genes=genes))
    assert list(tmp_path.iterdir()) == []


def test_a_mutation_past_the_float_range_leaves_every_gene_finite(tmp_path):
    # a sigma of 1e308 carries genes past the float range; the GA holds
    # them at its edge, as an infinite weight times a zero input is NaN
    cfg = EvolutionConfig(population_size=4, generations=3, seed=0,
                          mutation_rate=1.0, mutation_sigma=1e308)
    result = run_evolution(cfg, builtin_scenario("scenario1"))
    assert np.isfinite([(s.best_fitness, s.mean_fitness) for s in result.history]).all()
    path = tmp_path / "wide.json"
    save_genome(path, result.best)
    _, genome = load_genome(path)
    assert np.array_equal(genome.genes, result.best.genes)
    assert genome.fitness == result.best.fitness

    scored = []
    evolve(cfg, DEFAULT_NETWORK, lambda genes: scored.append(genes) or [0.0] * len(genes))
    children = np.concatenate(scored[1:])
    assert np.isfinite(children).all()
    assert (np.abs(children) == np.finfo(float).max).any()


def test_imitation_learns_motion_rule():
    objective = imitation_objective()
    cfg = EvolutionConfig(population_size=30, generations=20, seed=0)
    result = evolve(cfg, DEFAULT_NETWORK, objective)
    assert result.best.fitness >= 95.0
