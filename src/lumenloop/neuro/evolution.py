"""Generational GA over network genomes.

Tournament selection, one-point crossover, per-gene Gaussian mutation,
elitism. A generation is a (population_size, genome_length) genes array
and its fitness vector; the next is bred into a second such array, the
``elitism`` fittest rows first, which keep their fitness, and only the
children after them are scored. Deterministic for a given master seed:
every generation draws from its own SeedSequence-derived stream.

An objective scores a (k, genome_length) array of genomes at once and
returns k fitness values; ``simulation_objective`` runs them through
``engine.run_batch`` in blocks of lanes, one call per block.
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
# and later generations score only the children. The rows are a view of
# the GA's buffer, overwritten two generations later: copy what you keep.
Objective = Callable[[np.ndarray], Sequence[float]]

# A block holds as many lanes as fit in this many floats, and at least one;
# set from the timings in README's evolve section.
BLOCK_FLOATS = 2_000_000

# evolve's size ceiling, measured in README's "Size ceilings". A generation
# holds one block of lanes (BLOCK_FLOATS, or one lane if that is more) and,
# per genome, two copies of its genes (the generation and the next) and
# about 8 floats of fitness: a Python float from the objective and indices.
MAX_GENERATION_FLOATS = 30_000_000


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


def tournament_select(fitness: Sequence[float], rng: np.random.Generator, k: int) -> int:
    """Row of the best of k distinct contestants; ties go to the lower row.

    ``fitness`` may be an array or a list; a list indexes faster."""
    contestants = rng.choice(len(fitness), size=min(k, len(fitness)), replace=False)
    return min(contestants.tolist(), key=lambda i: (-fitness[i], i))


def score_rows(genes: np.ndarray, objective: Objective) -> np.ndarray:
    """Fitness of each row of ``genes``, from one objective call; no rows, no call."""
    if not len(genes):
        return np.empty(0)
    fitness = np.asarray(objective(genes), dtype=float)
    if fitness.shape != (len(genes),):
        raise ValueError(f"objective gave {fitness.shape} values for {len(genes)} genomes")
    return fitness


def _breed(
    genes: np.ndarray, fitness: np.ndarray, out: np.ndarray,
    config: EvolutionConfig, rng: np.random.Generator,
) -> None:
    """Fill ``out`` with children of tournament winners, two per pair of parents.

    Each child is written straight into its row: with probability
    ``crossover_rate`` the pair swaps tails at one point drawn from
    [1, genome_length), then each gene of the child, with probability
    ``mutation_rate``, gains a normal(0, mutation_sigma) draw. The draws
    are taken per child in that order, so a seed fixes every child. A gene
    that a mutation carries past the float range is held at the range's
    edge, so every gene stays finite (an infinite weight times a zero
    input is NaN). ``out`` must not share memory with ``genes``."""
    keys = fitness.tolist()
    length = genes.shape[1]
    made = 0
    with np.errstate(over="ignore"):
        while made < len(out):
            a = genes[tournament_select(keys, rng, config.tournament_size)]
            b = genes[tournament_select(keys, rng, config.tournament_size)]
            pair = out[made:made + 2]
            crossed = rng.random() < config.crossover_rate
            point = int(rng.integers(1, length)) if crossed else length
            for child, (head, tail) in zip(pair, ((a, b), (b, a))):
                child[:point], child[point:] = head[:point], tail[point:]
                hit = rng.random(length) < config.mutation_rate
                hits = np.count_nonzero(hit)
                if hits:
                    child[hit] += rng.normal(0.0, config.mutation_sigma, size=hits)
            made += len(pair)
    edge = np.finfo(float).max
    np.clip(out, -edge, edge, out=out)


def evolve(
    config: EvolutionConfig,
    spec: NetworkSpec,
    objective: Objective,
    on_generation: Callable[[GenerationStat], None] | None = None,
) -> EvolutionResult:
    """Run the GA against an arbitrary objective (higher is better)."""
    genes = init_population(config, spec, rng_for(config.seed, 0))
    fitness = score_rows(genes, objective)
    spare = np.empty_like(genes)  # the next generation is bred into it
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
            spare[: len(elites)] = genes[elites]
            children = spare[len(elites):]
            _breed(genes, fitness, children, config, rng_for(config.seed, 1, gen))
            fitness = np.concatenate([fitness[elites], score_rows(children, objective)])
            genes, spare = spare, genes
    return EvolutionResult(best=best, history=history)


def lane_floats(scenario: ScenarioSpec, spec: NetworkSpec) -> int:
    """About how many floats one genome's lane holds: per pole, per person and
    once more, its weights per pole, their products and 40 of engine state,
    the two earlier ticks that ``run_batch`` keeps to see a lane repeat
    itself included; and the lane's copy of every route, one place per
    pole on it. A block's traced peak is 0.56-0.66 of the estimate on
    scenario1, scenario2 and grids of side 18 and 40, and 0.78 on a
    500-pole line whose 500 people each walk its whole length."""
    per_place = len(scenario.poles) + len(scenario.people) + 1
    return per_place * (2 * spec.genome_length + 40) + len(scenario.compiled.path)


def largest_population(scenario: ScenarioSpec, spec: NetworkSpec) -> int:
    """The most genomes a generation on ``scenario`` may hold; 0 if not one."""
    room = MAX_GENERATION_FLOATS - max(BLOCK_FLOATS, lane_floats(scenario, spec))
    return max(0, room // (2 * spec.genome_length + 8))


def simulation_objective(
    scenario: ScenarioSpec,
    spec: NetworkSpec = DEFAULT_NETWORK,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
) -> Objective:
    lanes = max(1, BLOCK_FLOATS // lane_floats(scenario, spec))

    def objective(genes: np.ndarray) -> list[float]:
        blocks = (genes[start:start + lanes] for start in range(0, len(genes), lanes))
        return [m.fitness for block in blocks for m in
                run_batch(scenario, network_batch_step(block, spec), len(block), weights)]

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

    ``workers`` must be 1: a generation is scored by batch calls on one
    thread. The parameter goes when ROADMAP item 1 drops ``workers=1`` from
    ``benchmarks/``.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    return evolve(config, spec, simulation_objective(scenario, spec, weights),
                  on_generation=on_generation)
