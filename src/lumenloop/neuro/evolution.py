"""Generational GA over network genomes.

Tournament selection, one-point crossover, per-gene Gaussian mutation,
elitism. Deterministic for a given master seed: every generation draws from
its own SeedSequence-derived stream, so results do not depend on worker
count or Python hash order.

An objective scores a (k, genome_length) array of genomes at once and
returns k fitness values; ``simulation_objective`` runs all k through one
``engine.run_batch`` call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..engine import run_batch
from ..engine import run_simulation  # noqa: F401  (benchmarks/tracing.py wraps this name)
from ..fitness import DEFAULT_WEIGHTS, FitnessWeights
from ..scenario import ScenarioSpec
from .network import DEFAULT_NETWORK, Genome, NetworkSpec, network_batch_step

# (k, genome_length) genomes -> k fitness values. A genome's value must not
# depend on the other rows, so that splitting the rows across workers
# changes nothing.
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
    spec: NetworkSpec
    config: EvolutionConfig


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for one stage of the run."""
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def init_population(
    config: EvolutionConfig, spec: NetworkSpec, rng: np.random.Generator
) -> list[Genome]:
    return [
        Genome(genes=rng.normal(0.0, 1.0, size=spec.genome_length))
        for _ in range(config.population_size)
    ]


def tournament_select(
    population: Sequence[Genome], rng: np.random.Generator, k: int
) -> Genome:
    """Best of k distinct contestants; ties go to the lower index."""
    contestants = rng.choice(len(population), size=min(k, len(population)), replace=False)
    best = min(contestants, key=lambda i: (-population[i].fitness, i))
    return population[best]


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


def evaluate_population(
    population: Sequence[Genome], objective: Objective, workers: int = 1
) -> None:
    """Fill in missing fitness values in place, with one objective call.

    With ``workers`` > 1 the pending genomes are cut into that many
    contiguous chunks, each scored by one objective call on its own thread.
    """
    pending = [g for g in population if g.fitness is None]
    if not pending:
        return
    genes = np.stack([g.genes for g in pending])
    if workers <= 1:
        values = objective(genes)
    else:
        chunks = np.array_split(genes, min(workers, len(pending)))
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            values = [v for chunk in pool.map(objective, chunks) for v in chunk]
    for genome, value in zip(pending, values, strict=True):
        genome.fitness = float(value)


def _breed(
    population: list[Genome],
    config: EvolutionConfig,
    rng: np.random.Generator,
) -> list[Genome]:
    order = sorted(
        range(len(population)), key=lambda i: (-population[i].fitness, i)
    )
    next_gen: list[Genome] = [
        # Elites carry their evaluated fitness forward unchanged.
        Genome(genes=population[i].genes.copy(), fitness=population[i].fitness)
        for i in order[: config.elitism]
    ]
    while len(next_gen) < config.population_size:
        pa = tournament_select(population, rng, config.tournament_size)
        pb = tournament_select(population, rng, config.tournament_size)
        if rng.random() < config.crossover_rate:
            ca, cb = one_point_crossover(pa.genes, pb.genes, rng)
        else:
            ca, cb = pa.genes.copy(), pb.genes.copy()
        for child in (ca, cb):
            if len(next_gen) >= config.population_size:
                break
            next_gen.append(
                Genome(genes=mutate(child, rng, config.mutation_rate, config.mutation_sigma))
            )
    return next_gen


def evolve(
    config: EvolutionConfig,
    spec: NetworkSpec,
    objective: Objective,
    workers: int = 1,
    on_generation: Callable[[GenerationStat], None] | None = None,
) -> EvolutionResult:
    """Run the GA against an arbitrary objective (higher is better)."""
    population = init_population(config, spec, rng_for(config.seed, 0))
    history: list[GenerationStat] = []
    best: Genome | None = None
    for gen in range(1, config.generations + 1):
        evaluate_population(population, objective, workers=workers)
        fitnesses = [g.fitness for g in population]
        top = min(range(len(population)), key=lambda i: (-fitnesses[i], i))
        if best is None or fitnesses[top] > best.fitness:
            best = Genome(genes=population[top].genes.copy(), fitness=fitnesses[top])
        stat = GenerationStat(
            generation=gen,
            best_fitness=float(fitnesses[top]),
            mean_fitness=float(np.mean(fitnesses)),
        )
        history.append(stat)
        if on_generation is not None:
            on_generation(stat)
        if gen < config.generations:
            population = _breed(population, config, rng_for(config.seed, 1, gen))
    return EvolutionResult(best=best, history=history, spec=spec, config=config)


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
    """Evolve controllers for one scenario, scored by collective fitness."""
    return evolve(
        config,
        spec,
        simulation_objective(scenario, spec, weights),
        workers=workers,
        on_generation=on_generation,
    )
