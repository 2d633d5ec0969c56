"""Tests of the benchmark's own code: generator, tail rule, self times,
reference check, and agreement between BENCHMARK.json and run.py.

    python3 -m pytest benchmarks/tests
"""

import copy
import json
from collections import deque

import pytest

import run
import tracing
from gridgen import document_sha256, grid_document
from lumenloop.scenario import parse_scenario
from stats import TAIL_BEYOND, min_units, mismatches, tail
from tracing import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Grid, Phase, load_reference


def _reachable(doc, origin):
    neighbors = {p["id"]: p["neighbors"] for p in doc["poles"]}
    seen, queue = {origin}, deque([origin])
    while queue:
        for n in neighbors[queue.popleft()]:
            if n not in seen:
                seen.add(n)
                queue.append(n)
    return seen


# -- generator -------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert grid_document(7) == grid_document(7)
    assert document_sha256(grid_document(7)) == document_sha256(grid_document(7))
    assert document_sha256(grid_document(7)) != document_sha256(grid_document(8))


@pytest.mark.parametrize("seed", range(25))
def test_generator_people_are_reachable(seed):
    doc = grid_document(seed, side=8, max_ticks=40, people=30, closed_share=0.3)
    for person in doc["people"]:
        assert person["origin"] != person["destination"]
        assert person["destination"] in _reachable(doc, person["origin"])
    # The program's own validation (one BFS per person) accepts it too.
    assert len(parse_scenario(doc).people) == 30


def test_generator_shape():
    doc = grid_document(3)
    n = len(doc["poles"])
    full_edges = 2 * 18 * 17
    edges = sum(len(p["neighbors"]) for p in doc["poles"]) // 2
    assert n == 18 * 18 and edges < full_edges
    assert _reachable(doc, 0) == set(range(n))  # still connected
    levels = [e["level"] for e in doc["ambient_schedule"]]
    assert levels[0] > doc["movement_threshold"] and levels[-1] == 0.0
    assert all(a > b for a, b in zip(levels, levels[1:]))
    starts = sorted(p["start_tick"] for p in doc["people"])
    assert starts[0] < 5 and starts[-1] >= doc["max_ticks"] // 2 - 5
    assert all(0 <= t < doc["max_ticks"] for t in starts)


def test_stored_grid_reference_matches_generator():
    reference = load_reference()["grid"]
    for variant, entry in reference.items():
        assert document_sha256(grid_document(int(variant))) == entry["sha256"]


# -- tail rule -------------------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS.values()))
def test_tail_keeps_ten_samples_beyond(workload):
    percentile = workload.tail_percentile
    least = min_units(percentile)
    for n in range(least, least + 300):
        samples = [float((i * 7919) % n) for i in range(n)]  # shuffled 0..n-1
        value, beyond = tail(samples, percentile)
        assert beyond >= TAIL_BEYOND
        assert sum(1 for s in samples if s > value) == beyond
    assert tail([float(i) for i in range(least - 1)], percentile)[1] < TAIL_BEYOND


def test_tail_values():
    assert tail([float(i) for i in range(100)], 90.0) == (89.0, 10)
    assert tail([float(i) for i in range(20)], 50.0) == (9.0, 10)
    assert min_units(50.0) == 20 and min_units(90.0) == 100 and min_units(99.0) == 1000


def test_phase_runs_past_its_time_until_the_tail_exists():
    phase = Phase(0.0, min_units=5)
    assert not phase.done(0.0, 1.0, [], timed=False)  # warm-up
    stops = [phase.done(0.0, 1.0, [], timed=True) for _ in range(5)]
    assert stops == [False] * 4 + [True]
    assert len(phase.samples) == 5 and len(phase.scaled_samples) == 5


# -- self times ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "child", 1.0, 4.0, 0, 1),
        Span(2, "grandchild", 2.0, 3.0, 1, 1),
        Span(3, "child", 5.0, 6.0, 0, 1),
    ]
    aggregates = {(3, "dsl.act"): [4, 0.25]}
    own = self_times(spans, aggregates)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 0.75}


def test_layer_metrics_on_synthetic_run(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(tracing, "clock", lambda: float(next(ticks)))
    tracer = Tracer()
    tracer.unit = 0
    unit = tracer.begin("bench.unit")  # t=0
    engine = tracer.begin("engine.run_simulation", work=4)  # t=1
    path = tracer.begin("scenario.shortest_path")  # t=2
    tracer.finish(path)  # t=3
    tracer.aggregates[(engine, "dsl.act")] = [4, 2.0]
    tracer.finish(engine)  # t=4
    tracer.finish(unit)  # t=5
    metrics = layer_metrics(tracer, [0])
    # engine span 3 s, minus 1 s of shortest_path and 2 s of act
    assert metrics["engine.self_us_per_pole_tick"] == 0.0
    assert metrics["scenario.shortest_path_ms_per_sim"] == 1e3
    assert metrics["dsl.act_us_per_pole_tick"] == 0.5e6
    assert metrics["engine.controller_share"] == pytest.approx(2 / 3)
    assert metrics["engine.sims_per_unit"] == 1
    assert metrics["neuro.evolution.ga_ms_per_gen"] == 0.0  # no objective spans


def test_install_restores_every_original():
    import lumenloop.cli
    import lumenloop.engine

    before = (lumenloop.engine.run_simulation, lumenloop.cli.resolve_controller)
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == []
    assert lumenloop.engine.run_simulation is not before[0]
    tracer.uninstall()
    assert (lumenloop.engine.run_simulation, lumenloop.cli.resolve_controller) == before


# -- reference check -------------------------------------------------------------


def test_mismatches_follow_the_parity_contract():
    expected = {"finished": 80, "fitness": 88.1, "csv": "a,b\n", "hist": [[1.0, 2.0]]}
    assert mismatches(expected, copy.deepcopy(expected)) == []
    assert mismatches(expected, {**expected, "fitness": 88.1 + 1e-12}) == []
    assert mismatches(expected, {**expected, "fitness": 88.1 + 1e-6})
    assert mismatches(expected, {**expected, "finished": 79})
    assert mismatches(expected, {**expected, "finished": 80.0})  # counts stay integers
    assert mismatches(expected, {**expected, "csv": "a,c\n"})
    assert mismatches(expected, {**expected, "hist": [[1.0, 2.1]]})


def test_grid_check_flags_a_perturbed_metric(tmp_path):
    reference = load_reference()
    workload = Grid(run.ROOT, tmp_path, 5, reference)
    workload.prepare()
    workload.setup()
    metrics = workload.unit()
    assert workload.check(metrics) == []
    perturbed = copy.deepcopy(reference)
    perturbed["grid"]["5"]["energy_pct"] += 1e-6
    workload.reference = perturbed
    assert workload.check(metrics)


# -- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert spec["paths"] == ["benchmarks"]


def test_missing_sources_stop_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit):
        run.use_source_tree()
