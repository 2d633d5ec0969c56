"""Regenerate ``reference.json`` from the program as it is now.

    python3 benchmarks/make_reference.py

The benchmark fails any unit whose output differs from this file, so run
this only when a change to lumenloop's outputs is intended, and review
the diff of ``reference.json`` with that change. Takes about a minute,
most of it the stored GA history.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile

from run import OUT, ROOT, use_source_tree
from workloads import (
    EVOLVE_POPULATION,
    EVOLVE_SEED,
    GRID_VARIANTS,
    REFERENCE_PATH,
    Compare,
    Grid,
    LoopReplay,
)

EVOLVE_GENERATIONS = 30  # stored generations; longer runs start over


def _observe(workload_cls, tmp, seed: int = 0):
    workload = workload_cls(ROOT, tmp, seed, reference={})
    workload.prepare()
    workload.setup()
    return workload.observe(workload.unit())


def _evolve_history() -> list[list[float]]:
    evolution = importlib.import_module("lumenloop.neuro.evolution")
    scenario = importlib.import_module("lumenloop.scenario").builtin_scenario("scenario1")
    config = evolution.EvolutionConfig(
        population_size=EVOLVE_POPULATION, generations=EVOLVE_GENERATIONS, seed=EVOLVE_SEED
    )
    result = evolution.run_evolution(config, scenario, workers=1)
    return [[stat.best_fitness, stat.mean_fitness] for stat in result.history]


def main() -> int:
    use_source_tree()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = OUT / tmp_name
        reference = {
            "compare": _observe(Compare, tmp),
            "grid": {str(v): _observe(Grid, tmp, v) for v in range(GRID_VARIANTS)},
            "loop-replay": _observe(LoopReplay, tmp),
            "evolve": _evolve_history(),
        }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
