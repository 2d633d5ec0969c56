"""Feedforward controller networks and the generational GA that tunes them."""

from .evolution import (
    EvolutionConfig,
    EvolutionResult,
    GenerationStat,
    evaluate_population,
    evolve,
    init_population,
    mutate,
    one_point_crossover,
    run_evolution,
    tournament_select,
)
from .network import (
    Genome,
    NetworkController,
    NetworkSpec,
    load_genome,
    reading_to_inputs,
    save_genome,
    sigmoid,
)

__all__ = [
    "EvolutionConfig",
    "EvolutionResult",
    "evaluate_population",
    "evolve",
    "GenerationStat",
    "Genome",
    "init_population",
    "load_genome",
    "mutate",
    "NetworkController",
    "NetworkSpec",
    "one_point_crossover",
    "reading_to_inputs",
    "run_evolution",
    "save_genome",
    "sigmoid",
    "tournament_select",
]
