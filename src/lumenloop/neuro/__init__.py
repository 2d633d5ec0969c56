"""Feedforward controller networks and the generational GA that tunes them."""

from .network import (
    Genome,
    NetworkSpec,
    load_genome,
    save_genome,
    sigmoid,
)

__all__ = [
    "EvolutionConfig",
    "EvolutionResult",
    "evolve",
    "GenerationStat",
    "Genome",
    "init_population",
    "load_genome",
    "mutate",
    "NetworkSpec",
    "one_point_crossover",
    "run_evolution",
    "save_genome",
    "score_rows",
    "sigmoid",
    "tournament_select",
]

# Running a network needs no GA, so the GA's names load on first use
# (PEP 562): controllers, simulate and compare import without it.
_EVOLUTION_NAMES = frozenset({
    "EvolutionConfig",
    "EvolutionResult",
    "GenerationStat",
    "evolve",
    "init_population",
    "mutate",
    "one_point_crossover",
    "run_evolution",
    "score_rows",
    "tournament_select",
})


def __getattr__(name: str):
    if name in _EVOLUTION_NAMES:
        from . import evolution

        return getattr(evolution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
