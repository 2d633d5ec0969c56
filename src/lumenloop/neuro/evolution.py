"""Generational GA over network genomes.

Tournament selection, one-point crossover, per-gene Gaussian mutation,
elitism. A generation is a (population_size, genome_length) genes array
and its fitness vector; the next one starts with the ``elitism`` fittest
rows, which keep their fitness, and only the children after them are
scored. Deterministic for a given master seed: every generation draws from
its own SeedSequence-derived stream.

An objective scores a (k, genome_length) array of genomes at once and
returns k fitness values; ``simulation_objective`` runs all k through one
``engine.run_batch`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..engine import run_batch
from ..engine import run_simulation  # noqa: F401  (benchmarks/tracing.py wraps this name)
from ..fitness import DEFAULT_WEIGHTS, FitnessWeights
from ..scenario import ScenarioSpec
from .network import DEFAULT_NETWORK, Genome, NetworkSpec, network_batch_step

# (k, genome_length) genomes -> k fitness values. A genome's value must not
# depend on the other rows: elites keep the fitness they were scored with,
# and later generations score only the children.
Objective = Callable[[np.ndarray], Sequence[float]]


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 50
    generations: int = 200
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    mutation_sigma: float = 0.3
    elitism: int = 1
    seed: int = 0


@dataclass(frozen=True)
class GenerationStat:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass
class EvolutionResult:
    best: Genome
    history: list[GenerationStat]


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for one stage of the run."""
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def init_population(
    config: EvolutionConfig, spec: NetworkSpec, rng: np.random.Generator
) -> np.ndarray:
    """A (population_size, genome_length) array of standard normal genes."""
    return rng.normal(0.0, 1.0, size=(config.population_size, spec.genome_length))


def tournament_select(fitness: np.ndarray, rng: np.random.Generator, k: int) -> int:
    """Row of the best of k distinct contestants; ties go to the lower row."""
    contestants = rng.choice(len(fitness), size=min(k, len(fitness)), replace=False)
    return int(min(contestants, key=lambda i: (-fitness[i], i)))


def one_point_crossover(
    a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    point = int(rng.integers(1, a.size))
    child_a = np.concatenate([a[:point], b[point:]])
    child_b = np.concatenate([b[:point], a[point:]])
    return child_a, child_b


def mutate(
    genes: np.ndarray, rng: np.random.Generator, rate: float, sigma: float
) -> np.ndarray:
    out = genes.copy()
    mask = rng.random(out.size) < rate
    hits = int(mask.sum())
    if hits:
        out[mask] += rng.normal(0.0, sigma, size=hits)
    return out


def score_rows(genes: np.ndarray, objective: Objective) -> np.ndarray:
    """Fitness of each row of ``genes``, from one objective call; no rows, no call."""
    if not len(genes):
        return np.empty(0)
    fitness = np.asarray(objective(genes), dtype=float)
    if fitness.shape != (len(genes),):
        raise ValueError(f"objective gave {fitness.shape} values for {len(genes)} genomes")
    return fitness


def _breed(
    genes: np.ndarray, fitness: np.ndarray, count: int,
    config: EvolutionConfig, rng: np.random.Generator,
) -> np.ndarray:
    """``count`` children of tournament winners, two per pair of parents.

    A gene that a mutation carries past the float range is held at the
    range's edge, so every gene stays finite (an infinite weight times a
    zero input is NaN)."""
    children = np.empty((count, genes.shape[1]))
    made = 0
    with np.errstate(over="ignore"):
        while made < count:
            a = genes[tournament_select(fitness, rng, config.tournament_size)]
            b = genes[tournament_select(fitness, rng, config.tournament_size)]
            if rng.random() < config.crossover_rate:
                a, b = one_point_crossover(a, b, rng)
            for child in (a, b)[: count - made]:
                children[made] = mutate(child, rng, config.mutation_rate, config.mutation_sigma)
                made += 1
    edge = np.finfo(float).max
    return np.clip(children, -edge, edge, out=children)


def evolve(
    config: EvolutionConfig,
    spec: NetworkSpec,
    objective: Objective,
    on_generation: Callable[[GenerationStat], None] | None = None,
) -> EvolutionResult:
    """Run the GA against an arbitrary objective (higher is better)."""
    genes = init_population(config, spec, rng_for(config.seed, 0))
    fitness = score_rows(genes, objective)
    history: list[GenerationStat] = []
    best: Genome | None = None
    for gen in range(1, config.generations + 1):
        order = np.argsort(-fitness, kind="stable")  # ties: the lower row first
        top = order[0]
        if best is None or fitness[top] > best.fitness:
            best = Genome(genes=genes[top].copy(), fitness=float(fitness[top]))
        stat = GenerationStat(gen, float(fitness[top]), float(np.mean(fitness)))
        history.append(stat)
        if on_generation is not None:
            on_generation(stat)
        if gen < config.generations:
            elites = order[: config.elitism]
            children = _breed(genes, fitness, len(genes) - len(elites), config,
                              rng_for(config.seed, 1, gen))
            genes = np.concatenate([genes[elites], children])
            fitness = np.concatenate([fitness[elites], score_rows(children, objective)])
    return EvolutionResult(best=best, history=history)


def simulation_objective(
    scenario: ScenarioSpec,
    spec: NetworkSpec = DEFAULT_NETWORK,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
) -> Objective:
    def objective(genes: np.ndarray) -> list[float]:
        step = network_batch_step(genes, spec)
        return [m.fitness for m in run_batch(scenario, step, len(genes), weights)]

    return objective


def run_evolution(
    config: EvolutionConfig,
    scenario: ScenarioSpec,
    spec: NetworkSpec = DEFAULT_NETWORK,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
    workers: int = 1,
    on_generation: Callable[[GenerationStat], None] | None = None,
) -> EvolutionResult:
    """Evolve controllers for one scenario, scored by collective fitness.

    ``workers`` must be 1: a generation is scored by one batch call on one
    thread. The parameter goes when ROADMAP item 1 drops ``workers=1`` from
    ``benchmarks/``.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    return evolve(config, spec, simulation_objective(scenario, spec, weights),
                  on_generation=on_generation)
