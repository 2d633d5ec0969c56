"""The GA's breeding one copied child at a time: the reference that
``lumenloop.neuro.evolution._breed`` is tested against.

Here each operator returns a new array, and ``breed`` copies each
finished child into its row of ``out``. ``_breed`` writes the children
into their rows directly with the same draws in the same order, so both
fill ``out`` with the same bits and leave the generator in the same
state.
"""

from __future__ import annotations

import numpy as np

from lumenloop.neuro.evolution import EvolutionConfig, tournament_select


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


def breed(
    genes: np.ndarray, fitness: np.ndarray, out: np.ndarray,
    config: EvolutionConfig, rng: np.random.Generator,
) -> None:
    """Fill ``out`` with children of tournament winners, two per pair of
    parents; a gene past the float range is held at the range's edge."""
    made = 0
    with np.errstate(over="ignore"):
        while made < len(out):
            a = genes[tournament_select(fitness, rng, config.tournament_size)]
            b = genes[tournament_select(fitness, rng, config.tournament_size)]
            if rng.random() < config.crossover_rate:
                a, b = one_point_crossover(a, b, rng)
            for child in (a, b)[: len(out) - made]:
                out[made] = mutate(child, rng, config.mutation_rate, config.mutation_sigma)
                made += 1
    edge = np.finfo(float).max
    np.clip(out, -edge, edge, out=out)
