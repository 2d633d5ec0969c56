"""Network encoding, GA operators, and evolution behavior."""

import json

import numpy as np
import pytest

from imitation import imitation_objective
from lumenloop.engine import SensorReading
from lumenloop.errors import LengthMismatch, SchemaError
from lumenloop.neuro.evolution import (
    EvolutionConfig,
    evaluate_population,
    evolve,
    init_population,
    mutate,
    one_point_crossover,
    rng_for,
    run_evolution,
    tournament_select,
)
from lumenloop.neuro.network import (
    DEFAULT_NETWORK,
    Genome,
    NetworkController,
    NetworkSpec,
    load_genome,
    reading_to_inputs,
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
    assert len(a) == 5
    assert all(g.genes.shape == (51,) for g in a)
    assert all(g.fitness is None for g in a)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.genes, gb.genes)


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
    population = [Genome(genes=np.full(3, float(i)), fitness=float(i)) for i in range(3)]
    rng = np.random.default_rng(0)
    # tournament over the whole population must return the top genome
    picked = tournament_select(population, rng, 3)
    assert picked.fitness == 2.0


def test_tournament_tie_takes_lowest_index():
    population = [Genome(genes=np.full(3, float(i)), fitness=5.0) for i in range(3)]
    rng = np.random.default_rng(0)
    picked = tournament_select(population, rng, 3)
    assert picked is population[0]


def test_evaluate_population_fills_only_missing():
    population = [
        Genome(genes=np.zeros(3), fitness=None),
        Genome(genes=np.ones(3), fitness=7.0),
    ]
    calls = []

    def objective(genes):
        calls.append(genes.copy())
        return [1.0] * len(genes)

    evaluate_population(population, objective)
    assert population[0].fitness == 1.0
    assert population[1].fitness == 7.0  # pre-scored elite untouched
    assert len(calls) == 1
    assert calls[0].tolist() == [[0.0, 0.0, 0.0]]  # one batch of the pending genomes


def test_parallel_evaluation_matches_sequential():
    rng = np.random.default_rng(11)
    seq = [Genome(genes=rng.normal(0, 1, 51)) for _ in range(16)]
    par = [Genome(genes=g.genes.copy()) for g in seq]
    objective = imitation_objective()
    evaluate_population(seq, objective, workers=1)
    evaluate_population(par, objective, workers=4)
    assert [g.fitness for g in seq] == [g.fitness for g in par]


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


def test_run_evolution_on_scenario():
    cfg = EvolutionConfig(population_size=8, generations=3, seed=1)
    sc = builtin_scenario("scenario1")
    seq = run_evolution(cfg, sc)
    par = run_evolution(cfg, sc, workers=4)
    assert seq.best.fitness == par.best.fitness
    assert [s.best_fitness for s in seq.history] == [s.best_fitness for s in par.history]


def test_imitation_learns_motion_rule():
    objective = imitation_objective()
    cfg = EvolutionConfig(population_size=30, generations=20, seed=0)
    result = evolve(cfg, DEFAULT_NETWORK, objective)
    assert result.best.fitness >= 95.0
