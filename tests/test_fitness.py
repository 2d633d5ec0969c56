"""Fitness formula, reference-row reproduction, and weight recovery."""

import math

import pytest

from lumenloop.errors import DegenerateSystem
from lumenloop.fitness import (
    DEFAULT_WEIGHTS,
    REFERENCE_RESULTS,
    FitnessWeights,
    SimulationMetrics,
    compute_fitness,
    derive_fitness_weights,
    reference_rows,
)


def test_default_weights():
    assert DEFAULT_WEIGHTS == FitnessWeights(1.0, 0.4, 0.6)


def test_compute_fitness_hand_examples():
    # three spot checks against independently computed values
    assert compute_fitness(SimulationMetrics(11.92, 100.0, 54.62)) == pytest.approx(62.44, abs=0.03)
    assert compute_fitness(SimulationMetrics(8.46, 100.0, 46.29)) == pytest.approx(68.83, abs=0.03)
    assert compute_fitness(SimulationMetrics(4.03, 66.66, 59.25)) == pytest.approx(29.49, abs=0.03)


def test_compute_fitness_zero_metrics():
    assert compute_fitness(SimulationMetrics(0.0, 0.0, 0.0)) == 0.0
    assert compute_fitness(SimulationMetrics(100.0, 0.0, 0.0)) == -40.0
    assert compute_fitness(SimulationMetrics(0.0, 100.0, 0.0)) == 100.0
    assert compute_fitness(SimulationMetrics(0.0, 0.0, 100.0)) == -60.0


def test_custom_weights_applied():
    w = FitnessWeights(w_people=2.0, w_energy=1.0, w_trip=0.0)
    assert compute_fitness(SimulationMetrics(10.0, 50.0, 99.0), w) == 90.0


def test_all_reference_rows_reproduce():
    for scenario, label, energy, people, trip, expected in REFERENCE_RESULTS:
        got = compute_fitness(SimulationMetrics(energy, people, trip))
        assert got == pytest.approx(expected, abs=0.03), f"{scenario}/{label}"


def test_weight_recovery_from_reference_rows():
    weights, max_residual = derive_fitness_weights(reference_rows())
    assert weights.w_people == pytest.approx(1.0, abs=0.01)
    assert weights.w_energy == pytest.approx(0.4, abs=0.01)
    assert weights.w_trip == pytest.approx(0.6, abs=0.01)
    assert max_residual < 0.03


def test_closed_form_energy_weight():
    # rows 2 and 3 of the first scenario differ only in energy, so the
    # energy weight falls out of the score delta over the energy delta
    rows = {label: (e, p, t, f) for _, label, e, p, t, f in REFERENCE_RESULTS[:5]}
    e2, p2, t2, f2 = rows["gpt_iteration_2"]
    e3, p3, t3, f3 = rows["gpt_iteration_3"]
    assert (p2, t2) == (p3, t3)
    assert (f3 - f2) == pytest.approx(1.24, abs=1e-9)
    assert (e2 - e3) == pytest.approx(3.10, abs=1e-9)
    assert (f3 - f2) / (e2 - e3) == pytest.approx(0.4, abs=1e-9)


def test_recovery_exact_on_synthetic_rows():
    w = FitnessWeights(1.5, 0.25, 0.75)
    rows = []
    for e, p, t in [(10, 90, 5), (40, 60, 20), (5, 100, 50), (80, 10, 10)]:
        rows.append((e, p, t, compute_fitness(SimulationMetrics(e, p, t), w)))
    got, residual = derive_fitness_weights(rows)
    assert got.w_people == pytest.approx(1.5, abs=1e-9)
    assert got.w_energy == pytest.approx(0.25, abs=1e-9)
    assert got.w_trip == pytest.approx(0.75, abs=1e-9)
    assert residual < 1e-9


def test_recovery_rejects_too_few_rows():
    with pytest.raises(DegenerateSystem):
        derive_fitness_weights([(10.0, 90.0, 5.0, 80.0), (20.0, 80.0, 10.0, 66.0)])


def test_recovery_rejects_rank_deficient_rows():
    # identical rows repeated: rank 1
    row = (10.0, 90.0, 5.0, 83.0)
    with pytest.raises(DegenerateSystem):
        derive_fitness_weights([row, row, row, row])


def test_reference_rows_shape():
    rows = reference_rows()
    assert len(rows) == 10
    assert all(len(r) == 4 for r in rows)
    assert all(math.isfinite(x) for r in rows for x in r)
