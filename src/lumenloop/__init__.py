"""Deterministic streetlight-network simulator and controller synthesis.

Poles run identical controllers (hand-written rules, model-generated rules,
or evolved networks); pedestrians advance only across sufficiently lit
poles; runs are scored by one collective fitness scalar. The package also
ships the two synthesis harnesses: a generational GA over network weights
and a prompt-refinement loop against a chat-completion provider.
"""

__version__ = "0.1.0"

from .engine import (
    ActuatorCommand,
    Controller,
    ControllerFactory,
    SensorReading,
    TickTrace,
    compute_metrics,
    run_simulation,
)
from .errors import LumenloopError
from .fitness import (
    DEFAULT_WEIGHTS,
    FitnessWeights,
    REFERENCE_RESULTS,
    SimulationMetrics,
    compute_fitness,
    derive_fitness_weights,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    builtin_scenario,
    load_scenario,
    parse_scenario,
)

__all__ = [
    "ActuatorCommand",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
    "compute_fitness",
    "compute_metrics",
    "Controller",
    "ControllerFactory",
    "DEFAULT_WEIGHTS",
    "derive_fitness_weights",
    "FitnessWeights",
    "load_scenario",
    "LumenloopError",
    "parse_scenario",
    "REFERENCE_RESULTS",
    "run_simulation",
    "ScenarioSpec",
    "SensorReading",
    "SimulationMetrics",
    "TickTrace",
    "__version__",
]
