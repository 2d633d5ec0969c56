"""Network encoding, GA operators, and evolution behavior."""

import json

import numpy as np
import pytest

from imitation import imitation_objective
from network_controller import NetworkController, reading_to_inputs
from lumenloop.engine import SensorReading
from lumenloop.errors import LengthMismatch, SchemaError
from lumenloop.neuro.evolution import (
    EvolutionConfig,
    evolve,
    init_population,
    mutate,
    one_point_crossover,
    rng_for,
    run_evolution,
    score_rows,
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
