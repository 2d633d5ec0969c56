"""Fitness formula, reference-row reproduction, and weight recovery."""

import math

import pytest

from lumenloop.errors import DegenerateSystem
from lumenloop.fitness import (
    DEFAULT_WEIGHTS,
    REFERENCE_RESULTS,
    FitnessWeights,
    SimulationMetrics,
    derive_fitness_weights,
)

# the (energy, people, trip, fitness) columns of the reference rows
REFERENCE_ROWS = [row[2:] for row in REFERENCE_RESULTS]


def test_default_weights():
    assert DEFAULT_WEIGHTS == FitnessWeights(1.0, 0.4, 0.6)


def test_score_hand_examples():
    # three spot checks against independently computed values
    w = DEFAULT_WEIGHTS
    assert w.score(energy_pct=11.92, people_pct=100.0, trip_pct=54.62) == pytest.approx(62.44, abs=0.03)
    assert w.score(energy_pct=8.46, people_pct=100.0, trip_pct=46.29) == pytest.approx(68.83, abs=0.03)
    assert w.score(energy_pct=4.03, people_pct=66.66, trip_pct=59.25) == pytest.approx(29.49, abs=0.03)


def test_score_zero_metrics():
    w = DEFAULT_WEIGHTS
    assert w.score(energy_pct=0.0, people_pct=0.0, trip_pct=0.0) == 0.0
    assert w.score(energy_pct=100.0, people_pct=0.0, trip_pct=0.0) == -40.0
    assert w.score(energy_pct=0.0, people_pct=100.0, trip_pct=0.0) == 100.0
    assert w.score(energy_pct=0.0, people_pct=0.0, trip_pct=100.0) == -60.0


def test_percentages_are_named():
    # (energy, people, trip) is the order of the metrics and the CSV but not
    # of the weights: no call may pass the percentages by position
    with pytest.raises(TypeError):
        DEFAULT_WEIGHTS.score(1.0, 2.0, 3.0)
    with pytest.raises(TypeError):
        SimulationMetrics(1.0, 2.0, 3.0)


def test_custom_weights_applied():
    w = FitnessWeights(w_people=2.0, w_energy=1.0, w_trip=0.0)
    assert w.score(energy_pct=10.0, people_pct=50.0, trip_pct=99.0) == 90.0


def test_all_reference_rows_reproduce():
    for scenario, label, energy, people, trip, expected in REFERENCE_RESULTS:
        got = DEFAULT_WEIGHTS.score(energy_pct=energy, people_pct=people, trip_pct=trip)
        assert got == pytest.approx(expected, abs=0.03), f"{scenario}/{label}"


def test_weight_recovery_from_reference_rows():
    weights, max_residual = derive_fitness_weights(REFERENCE_ROWS)
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
        rows.append((e, p, t, w.score(energy_pct=e, people_pct=p, trip_pct=t)))
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
    rows = REFERENCE_ROWS
    assert len(rows) == 10
    assert all(len(r) == 4 for r in rows)
    assert all(math.isfinite(x) for r in rows for x in r)
