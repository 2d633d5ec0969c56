"""Collective fitness: metric aggregation weights and weight recovery.

The scalar score for a controller deployment is

    fitness = w_people * people_pct - w_energy * energy_pct - w_trip * trip_pct

The default weights (1.0, 0.4, 0.6) were recovered numerically from the
reference benchmark rows in ``REFERENCE_RESULTS`` (see
``derive_fitness_weights``); they are configuration, guarded by tests, not a
hard-coded truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateSystem


@dataclass(frozen=True)
class FitnessWeights:
    w_people: float = 1.0
    w_energy: float = 0.4
    w_trip: float = 0.6

    def score(self, people_pct: float, energy_pct: float, trip_pct: float) -> float:
        return (
            self.w_people * people_pct
            - self.w_energy * energy_pct
            - self.w_trip * trip_pct
        )


DEFAULT_WEIGHTS = FitnessWeights()

# The largest |weight| a command line accepts. Each percentage is in
# [0, 100], so a fitness is at most 3 * 100 * MAX_WEIGHT in size: finite.
MAX_WEIGHT = 1e300


@dataclass(frozen=True)
class SimulationMetrics:
    """Percentages for one run; ``fitness`` is None until weights are applied.

    energy_pct: lamp output as % of the maximum possible over the run.
    people_pct: % of pedestrians that reached their destination.
    trip_pct:   aggregate pedestrian travel time as % of the maximum.
    """

    energy_pct: float
    people_pct: float
    trip_pct: float
    fitness: float | None = None


def compute_fitness(m: SimulationMetrics, weights: FitnessWeights = DEFAULT_WEIGHTS) -> float:
    return weights.score(m.people_pct, m.energy_pct, m.trip_pct)


def derive_fitness_weights(rows) -> tuple[FitnessWeights, float]:
    """Recover fitness weights from benchmark rows by least squares.

    ``rows`` is a sequence of (energy_pct, people_pct, trip_pct, fitness)
    tuples. Solves fitness ~ w_p*people - w_e*energy - w_t*trip and returns
    the weights together with the maximum absolute residual.

    Raises DegenerateSystem when the rows do not pin down all three weights.
    """
    import numpy as np  # the only array code here; scoring a run needs none

    rows = list(rows)
    design = np.array([[p, -e, -t] for e, p, t, _ in rows], dtype=float)
    target = np.array([f for *_, f in rows], dtype=float)
    if len(rows) < 3 or np.linalg.matrix_rank(design) < 3:
        raise DegenerateSystem(
            f"need >= 3 linearly independent rows, got rank "
            f"{0 if not rows else int(np.linalg.matrix_rank(design))} from {len(rows)} rows"
        )
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)
    max_residual = float(np.max(np.abs(design @ solution - target)))
    w_p, w_e, w_t = (float(x) for x in solution)
    return FitnessWeights(w_p, w_e, w_t), max_residual


# Reference benchmark rows (scenario, solution, energy_pct, people_pct,
# trip_pct, fitness) that the default weights must reproduce within +/-0.03.
REFERENCE_RESULTS = (
    ("scenario1", "gpt_iteration_1", 4.03, 66.66, 59.25, 29.49),
    ("scenario1", "gpt_iteration_2", 15.02, 100.0, 54.62, 61.2),
    ("scenario1", "gpt_iteration_3", 11.92, 100.0, 54.62, 62.44),
    ("scenario1", "best_neuroevolution", 8.1, 100.0, 62.03, 59.53),
    ("scenario1", "best_participant", 9.46, 100.0, 55.55, 62.88),
    ("scenario2", "gpt_iteration_1", 2.08, 66.66, 48.51, 36.72),
    ("scenario2", "gpt_iteration_2", 11.29, 100.0, 41.10, 70.81),
    ("scenario2", "gpt_iteration_3", 9.76, 100.0, 41.10, 71.42),
    ("scenario2", "best_neuroevolution", 8.46, 100.0, 46.29, 68.83),
    ("scenario2", "best_participant", 50.52, 100.0, 38.14, 56.9),
)


def reference_rows() -> list[tuple[float, float, float, float]]:
    """The reference rows as (energy, people, trip, fitness) tuples."""
    return [(e, p, t, f) for _, _, e, p, t, f in REFERENCE_RESULTS]
