"""Deterministic streetlight-network simulator and controller synthesis.

Poles run identical controllers (hand-written rules, model-generated rules,
or evolved networks); pedestrians advance only across sufficiently lit
poles; runs are scored by one collective fitness scalar. The package also
ships the two synthesis harnesses: a generational GA over network weights
and a prompt-refinement loop against a chat-completion provider.
"""

__version__ = "0.1.0"

from .errors import LumenloopError
from .fitness import (
    DEFAULT_WEIGHTS,
    FitnessWeights,
    REFERENCE_RESULTS,
    SimulationMetrics,
    derive_fitness_weights,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    builtin_scenario,
    load_scenario,
    parse_scenario,
)

# The engine loads numpy, so its names are imported from lumenloop.engine:
# the package root imports without it.
__all__ = [
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
    "DEFAULT_WEIGHTS",
    "derive_fitness_weights",
    "FitnessWeights",
    "load_scenario",
    "LumenloopError",
    "parse_scenario",
    "REFERENCE_RESULTS",
    "ScenarioSpec",
    "SimulationMetrics",
    "__version__",
]
