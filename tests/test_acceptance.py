"""Acceptance gate: nine numbered criteria, each with pinned tolerances and,
where stated, a wall-clock budget. conftest prints a per-criterion PASS/FAIL
summary block after the run.
"""

import math
import random
import time
import zlib

import pytest

from dslcases import CORPUS
from genprog import rand_program, rand_reading
from imitation import imitation_objective
from oracles import ORACLES
from scalar_engine import traced_run

from lumenloop.cli import CSV_HEADER, main
from lumenloop.controllers import program_factory, resolve_controller
from lumenloop.dsl.baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from lumenloop.dsl.formatter import format_program
from lumenloop.dsl.parser import parse_source
from lumenloop.engine import ActuatorCommand, run_simulation
from lumenloop.fitness import DEFAULT_WEIGHTS, REFERENCE_RESULTS, derive_fitness_weights
from lumenloop.loop.providers import ReplayProvider, load_replay_script
from lumenloop.loop.runner import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_THRESHOLD_MET,
    LoopConfig,
    load_calibration,
    run_loop,
    stub_evaluator,
)
from lumenloop.neuro.evolution import EvolutionConfig, evolve, run_evolution
from lumenloop.neuro.network import DEFAULT_NETWORK
from lumenloop.scenario import builtin_scenario, parse_scenario

SCENARIO1 = builtin_scenario("scenario1")


class _Const:
    def __init__(self, light):
        self.cmd = ActuatorCommand(light=light, listen=True, broadcast=0.0)

    def act(self, reading):
        return self.cmd


def _line_scenario(n_poles, people, max_ticks=10):
    return parse_scenario({
        "name": "line",
        "max_ticks": max_ticks,
        "movement_threshold": 0.5,
        "rng_seed": 0,
        "ambient_schedule": [{"from_tick": 0, "level": 0.0}],
        "poles": [
            {"id": i, "neighbors": [j for j in (i - 1, i + 1) if 0 <= j < n_poles]}
            for i in range(n_poles)
        ],
        "people": people,
    })


def test_criterion_1_fitness_reproduction():
    """Default weights reproduce every reference benchmark row within 0.03."""
    start = time.perf_counter()
    for scenario, label, energy, people, trip, expected in REFERENCE_RESULTS:
        got = DEFAULT_WEIGHTS.score(energy_pct=energy, people_pct=people, trip_pct=trip)
        assert abs(got - expected) <= 0.03, f"{scenario}/{label}: {got} vs {expected}"
    assert len(REFERENCE_RESULTS) == 10
    assert time.perf_counter() - start < 1.0


def test_criterion_2_weight_recovery():
    """Least squares over the 10 rows recovers (1.0, 0.4, 0.6)."""
    weights, max_residual = derive_fitness_weights(
        [row[2:] for row in REFERENCE_RESULTS])
    assert abs(weights.w_people - 1.0) <= 0.01
    assert abs(weights.w_energy - 0.4) <= 0.01
    assert abs(weights.w_trip - 0.6) <= 0.01
    assert max_residual < 0.03

    # closed form: rows 2 and 3 of the first scenario differ only in energy,
    # so the fitness gap over the energy gap pins the energy weight exactly
    by_key = {(s, l): (e, p, t, f) for s, l, e, p, t, f in REFERENCE_RESULTS}
    e2, p2, t2, f2 = by_key[("scenario1", "gpt_iteration_2")]
    e3, p3, t3, f3 = by_key[("scenario1", "gpt_iteration_3")]
    assert (p2, t2) == (p3, t3)
    assert f3 - f2 == pytest.approx(1.24, abs=1e-9)
    assert e2 - e3 == pytest.approx(3.10, abs=1e-9)
    assert (f3 - f2) / (e2 - e3) == pytest.approx(0.4, abs=1e-9)


def test_criterion_3_qualitative_table_structure():
    """The reference table's absolute percentages come from network layouts
    and pedestrian schedules that are not part of this codebase, so they
    cannot be re-derived here number for number; the property suites in
    criteria 4-9 substitute for them. What is asserted instead: on the
    built-in layouts the five baselines keep the structural regularities the
    comparison relies on. Refinement improves fitness monotonically, dimmer
    variants spend monotonically less energy, and every lit variant serves
    everyone over the same shortest paths."""
    for name in ("scenario1", "scenario2"):
        scenario = builtin_scenario(name)
        metrics = {
            label: run_simulation(scenario, resolve_controller(label).factory)
            for label in ("always_off", "always_on",
                          "iteration1", "iteration2", "iteration3")
        }
        fitness = {k: m.fitness for k, m in metrics.items()}
        assert (fitness["iteration3"] > fitness["iteration2"]
                > fitness["iteration1"] > fitness["always_on"]
                > fitness["always_off"])
        energy = {k: m.energy_pct for k, m in metrics.items()}
        assert (energy["always_on"] > energy["iteration1"]
                > energy["iteration2"] > energy["iteration3"]
                > energy["always_off"])
        for label in ("always_on", "iteration1", "iteration2", "iteration3"):
            assert metrics[label].people_pct == 100.0
            # every lit variant walks people along the same shortest paths
            assert metrics[label].trip_pct == metrics["always_on"].trip_pct
        assert metrics["always_off"].people_pct == 0.0


def test_criterion_4_simulator_properties():
    start = time.perf_counter()

    # determinism: identical runs, identical metrics and traces
    factory = resolve_controller("iteration1").factory
    m1, t1 = traced_run(SCENARIO1, factory)
    m2, t2 = traced_run(SCENARIO1, factory)
    assert m1 == m2
    assert t1 == t2

    # energy responds monotonically to commanded level
    energies = [
        run_simulation(SCENARIO1, lambda lv=lv: _Const(lv)).energy_pct
        for lv in (0.2, 0.5, 1.0)
    ]
    assert energies == [
        pytest.approx(20.0), pytest.approx(50.0), pytest.approx(100.0)
    ]

    # a broadcast is audible exactly one tick later, and only to listeners
    class Beacon:
        def __init__(self, listen):
            self.listen = listen

        def act(self, r):
            return ActuatorCommand(
                light=0.0, listen=self.listen,
                broadcast=1.0 if r.tick == 2 else 0.0,
            )

    sc = _line_scenario(3, [])
    _, traces = traced_run(sc, lambda: Beacon(True))
    assert [traces[t].readings[1].signal for t in range(6)] == [0, 0, 0, 1, 0, 0]
    _, traces = traced_run(sc, lambda: Beacon(False))
    assert all(traces[t].readings[1].signal == 0.0 for t in range(10))

    # with every lamp at full the population always gets home
    for name in ("scenario1", "scenario2"):
        m = run_simulation(builtin_scenario(name), lambda: _Const(1.0))
        assert m.people_pct == 100.0

    # with no light and no ambient nobody moves: zero served, maximal trips
    sc = _line_scenario(4, [
        {"id": 0, "origin": 0, "destination": 3, "start_tick": 0},
        {"id": 1, "origin": 3, "destination": 0, "start_tick": 0},
    ])
    m = run_simulation(sc, resolve_controller("always_off").factory)
    assert m.people_pct == 0.0
    assert m.trip_pct == 100.0

    assert time.perf_counter() - start < 5.0


def test_criterion_5_rule_language_suite():
    start = time.perf_counter()

    # round trip: format(parse(format(parse(src)))) is a fixed point
    assert len(CORPUS) >= 20
    iteration_sources = [BUILTIN_PROGRAM_SOURCES[k]
                         for k in ("iteration1", "iteration2", "iteration3")]
    assert all(src in CORPUS for src in iteration_sources)
    for source in CORPUS:
        once = format_program(parse_source(source))
        twice = format_program(parse_source(once))
        assert once == twice

    # totality: 10^4 random program/reading pairs, no faults, clamped output
    rng = random.Random(1315)
    for _ in range(500):
        program = parse_source(format_program(rand_program(rng)))
        controller = program_factory(program)()
        for i in range(20):
            cmd = controller.act(rand_reading(rng, tick=i))
            assert 0.0 <= cmd.light <= 1.0
            assert 0.0 <= cmd.broadcast <= 1.0
            assert isinstance(cmd.listen, bool)
            assert all(math.isfinite(v) for v in controller.step.memory.values())

    # oracle equivalence: each builtin matches its hand-written restatement
    for name, oracle_cls in ORACLES.items():
        controller = program_factory(builtin_program(name))()
        oracle = oracle_cls()
        orng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for i in range(1000):
            reading = rand_reading(orng, tick=i)
            got = controller.act(reading)
            want = oracle.act(reading)
            assert got == want, (name, i)

    assert time.perf_counter() - start < 30.0


def test_criterion_6_neuroevolution_suite():
    start = time.perf_counter()

    # elitism makes the best score non-decreasing across 50 generations
    config = EvolutionConfig(population_size=12, generations=50, elitism=1, seed=5)
    result = run_evolution(config, SCENARIO1, DEFAULT_NETWORK)
    bests = [stat.best_fitness for stat in result.history]
    assert len(bests) == 50
    assert all(b >= a for a, b in zip(bests, bests[1:]))
    assert result.best.fitness == max(bests)

    # the GA can imitate "light = motion" to >= 95% agreement within 100
    # generations at population 30, in at least 4 of 5 fixed seeds
    objective = imitation_objective()
    hits = 0
    for seed in (0, 1, 2, 3, 4):
        config = EvolutionConfig(population_size=30, generations=100, seed=seed)
        result = evolve(config, DEFAULT_NETWORK, objective)
        hits += result.best.fitness >= 95.0
    assert hits >= 4

    assert time.perf_counter() - start < 60.0


def test_criterion_7_three_iteration_replay(fixture_dir):
    start = time.perf_counter()
    provider = load_replay_script(fixture_dir / "three_iter.jsonl")
    evaluator = stub_evaluator(load_calibration(fixture_dir / "calibration_stub.json"))
    transcript = run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator)

    assert transcript.status == STATUS_THRESHOLD_MET
    assert len(transcript.records) == 3
    assert [r.metrics.fitness for r in transcript.records] == [29.49, 61.2, 62.44]
    assert transcript.records[2].outcome == "accepted"

    # each follow-up prompt quotes the previous attempt's numbers verbatim
    for i in (1, 2):
        previous = transcript.records[i - 1]
        prompt = provider.requests[i][1]["content"]
        assert previous.program in prompt
        assert f"energy used:   {previous.metrics.energy_pct:.2f}%" in prompt
        assert f"people helped: {previous.metrics.people_pct:.2f}%" in prompt
        assert f"trip duration: {previous.metrics.trip_pct:.2f}%" in prompt
        assert f"score:         {previous.metrics.fitness:.2f}" in prompt

    assert time.perf_counter() - start < 1.0


def test_criterion_8_repair_bookkeeping():
    start = time.perf_counter()
    no_block = "Here is my controller, inline: light = 1.0"

    # malformed then valid: one repair attempt, same iteration, parsed program
    provider = ReplayProvider([
        no_block,
        "Fixed.\n\n```controller\nlight = 1.0\n```\n",
    ])
    transcript = run_loop(LoopConfig(max_iterations=1), provider, SCENARIO1)
    (record,) = transcript.records
    assert record.index == 1
    assert record.repair_attempts == 1
    assert record.program == "light = 1.0"
    assert record.metrics is not None

    # nothing but proseful refusals: repairs exhaust into a parse failure
    provider = ReplayProvider([no_block] * 6)
    transcript = run_loop(LoopConfig(max_iterations=2), provider, SCENARIO1)
    assert transcript.status == STATUS_BUDGET_EXHAUSTED
    assert [r.outcome for r in transcript.records] == ["parse-failed"] * 2
    assert all(r.repair_attempts == 2 for r in transcript.records)
    assert transcript.provider_calls == 6

    assert time.perf_counter() - start < 1.0


def test_criterion_9_offline_compare(tmp_path, monkeypatch, capsys):
    start = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    assert main(["compare"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10

    for scenario, label, energy, people, trip, fitness in rows:
        recomputed = (
            1.0 * float(people) - 0.4 * float(energy) - 0.6 * float(trip)
        )
        assert abs(float(fitness) - recomputed) <= 1e-9, (scenario, label)

    energy_of = {(r[0], r[1]): float(r[2]) for r in rows}
    for scenario in ("scenario1", "scenario2"):
        assert energy_of[(scenario, "always_on")] > energy_of[(scenario, "always_off")]

    assert time.perf_counter() - start < 10.0
