"""Hand-traced engine dynamics: movement, trip accounting, signals, energy."""

import itertools

import pytest
from scalar_engine import traced_run

from lumenloop.controllers import resolve_controller
from lumenloop.engine import (
    ActuatorCommand,
    compute_metrics,
    run_simulation,
)
from lumenloop.errors import ControllerError
from lumenloop.fitness import DEFAULT_WEIGHTS, FitnessWeights
from lumenloop.scenario import builtin_scenario, parse_scenario


def line_scenario(n_poles, people, max_ticks=10, threshold=0.5, ambient=None):
    return parse_scenario({
        "name": "line",
        "max_ticks": max_ticks,
        "movement_threshold": threshold,
        "rng_seed": 0,
        "ambient_schedule": ambient or [{"from_tick": 0, "level": 0.0}],
        "poles": [
            {"id": i, "neighbors": [j for j in (i - 1, i + 1) if 0 <= j < n_poles]}
            for i in range(n_poles)
        ],
        "people": people,
    })


class Const:
    """Constant actuator output."""

    def __init__(self, light=0.0, listen=True, broadcast=0.0):
        self.cmd = ActuatorCommand(light=light, listen=listen, broadcast=broadcast)

    def act(self, reading):
        return self.cmd


def const_factory(light=0.0, listen=True, broadcast=0.0):
    return lambda: Const(light, listen, broadcast)


def test_one_hop_trip_hand_trace():
    # person crosses a two-pole line in a single lit tick
    sc = line_scenario(2, [{"id": 0, "origin": 0, "destination": 1, "start_tick": 0}])
    m = run_simulation(sc, const_factory(light=1.0))
    assert m.energy_pct == 100.0
    assert m.people_pct == 100.0
    assert m.trip_pct == 10.0  # 1 trip tick out of 1 person * 10 ticks


def test_stuck_person_accrues_full_trip():
    sc = line_scenario(2, [{"id": 0, "origin": 0, "destination": 1, "start_tick": 0}])
    m = run_simulation(sc, const_factory(light=0.0))
    assert m.energy_pct == 0.0
    assert m.people_pct == 0.0
    assert m.trip_pct == 100.0
    assert m.fitness == pytest.approx(-60.0)


def test_movement_threshold_is_inclusive():
    sc = line_scenario(2, [{"id": 0, "origin": 0, "destination": 1, "start_tick": 0}])
    assert run_simulation(sc, const_factory(light=0.5)).people_pct == 100.0
    assert run_simulation(sc, const_factory(light=0.4999)).people_pct == 0.0


def test_ambient_adds_to_lamp_light():
    # 0.3 ambient + 0.2 lamp hits the 0.5 threshold exactly
    sc = line_scenario(
        2,
        [{"id": 0, "origin": 0, "destination": 1, "start_tick": 0}],
        ambient=[{"from_tick": 0, "level": 0.3}],
    )
    assert run_simulation(sc, const_factory(light=0.2)).people_pct == 100.0
    assert run_simulation(sc, const_factory(light=0.19)).people_pct == 0.0


def test_ambient_alone_can_move_people():
    sc = line_scenario(
        2,
        [{"id": 0, "origin": 0, "destination": 1, "start_tick": 0}],
        ambient=[{"from_tick": 0, "level": 0.5}],
    )
    m = run_simulation(sc, const_factory(light=0.0))
    assert (m.energy_pct, m.people_pct, m.trip_pct) == (0.0, 100.0, 10.0)


def test_delayed_start_tick():
    sc = line_scenario(2, [{"id": 0, "origin": 0, "destination": 1, "start_tick": 3}])
    m, traces = traced_run(sc, const_factory(light=1.0))
    assert m.trip_pct == 10.0
    assert not traces[2].people[0].moved
    assert traces[3].people[0].moved and traces[3].people[0].finished


def test_zero_length_route_finishes_without_trip():
    sc = line_scenario(2, [{"id": 0, "origin": 1, "destination": 1, "start_tick": 4}])
    m = run_simulation(sc, const_factory(light=0.0))
    assert m.people_pct == 100.0
    assert m.trip_pct == 0.0


def test_zero_people_scenario_is_vacuously_perfect():
    sc = line_scenario(3, [])
    m = run_simulation(sc, const_factory(light=1.0))
    assert m.people_pct == 100.0
    assert m.trip_pct == 0.0
    assert m.energy_pct == 100.0


def test_documented_trip_example():
    # one person finishes in 3 ticks, the other never moves: (3+10)/(2*10)
    sc = line_scenario(4, [
        {"id": 0, "origin": 0, "destination": 3, "start_tick": 0},
        {"id": 1, "origin": 3, "destination": 0, "start_tick": 0},
    ])
    ids = itertools.count()

    def factory():
        pid = next(ids)
        return Const(light=1.0 if pid <= 2 else 0.0)

    m = run_simulation(sc, factory)
    assert m.people_pct == 50.0
    assert m.trip_pct == pytest.approx(65.0)


def test_two_runs_bit_identical():
    sc = builtin_scenario("scenario1")
    factory = resolve_controller("iteration3").factory
    m1, t1 = traced_run(sc, factory)
    m2, t2 = traced_run(sc, factory)
    assert m1 == m2
    assert t1 == t2


def test_energy_monotone_in_constant_light():
    sc = builtin_scenario("scenario1")
    got = [run_simulation(sc, const_factory(light=lv)).energy_pct for lv in (0.2, 0.5, 1.0)]
    assert got[0] == pytest.approx(20.0)
    assert got[1] == pytest.approx(50.0)
    assert got[2] == pytest.approx(100.0)
    assert got[0] < got[1] < got[2]


def test_signal_arrives_one_tick_late():
    class Beacon:
        def act(self, r):
            return ActuatorCommand(
                light=0.0, listen=True, broadcast=1.0 if r.tick == 2 else 0.0
            )

    sc = line_scenario(3, [])
    _, traces = traced_run(sc, Beacon)
    mid = [traces[t].readings[1].signal for t in range(6)]
    # broadcast sent during tick 2 becomes visible in tick 3's reading only
    assert mid == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def test_signal_gated_by_previous_listen():
    class DeafBeacon:
        def act(self, r):
            return ActuatorCommand(
                light=0.0, listen=False, broadcast=1.0 if r.tick == 2 else 0.0
            )

    sc = line_scenario(3, [])
    _, traces = traced_run(sc, DeafBeacon)
    # the tick-2 broadcast is inaudible because listen was off from tick 0 on
    assert all(traces[t].readings[1].signal == 0.0 for t in range(6))


def test_signal_is_max_over_neighbors():
    ids = itertools.count()

    class Two:
        def __init__(self, pid):
            self.pid = pid

        def act(self, r):
            level = {0: 0.3, 2: 0.7}.get(self.pid, 0.0)
            return ActuatorCommand(light=0.0, listen=True, broadcast=level)

    sc = line_scenario(3, [])
    _, traces = traced_run(sc, lambda: Two(next(ids)))
    assert traces[1].readings[1].signal == 0.7
    assert traces[1].readings[0].signal == 0.0  # pole 1 broadcasts nothing


def test_full_light_feasibility_on_builtins():
    for name in ("scenario1", "scenario2"):
        m = run_simulation(builtin_scenario(name), const_factory(light=1.0))
        assert m.people_pct == 100.0


def test_all_off_people_never_finish_on_builtins():
    for name, expected_trip in (("scenario1", 165 / 180), ("scenario2", 525 / 600)):
        m = run_simulation(builtin_scenario(name), const_factory(light=0.0))
        assert m.people_pct == 0.0
        assert m.trip_pct == pytest.approx(100.0 * expected_trip)


def test_ticks_since_motion_trace():
    class LateLight:
        def act(self, r):
            return ActuatorCommand(light=1.0 if r.tick >= 3 else 0.0, listen=True)

    sc = line_scenario(2, [{"id": 0, "origin": 0, "destination": 1, "start_tick": 0}])
    _, traces = traced_run(sc, LateLight)
    # pole 0: occupied (motion) until the person leaves during tick 3
    assert [traces[t].readings[0].ticks_since_motion for t in range(6)] == [0, 0, 0, 0, 1, 2]
    assert [traces[t].readings[0].motion for t in range(5)] == [True, True, True, True, False]
    # pole 1: the counter starts saturated and stays there (a person who
    # finishes on arrival never occupies the destination)
    assert [traces[t].readings[1].ticks_since_motion for t in range(6)] == [255] * 6
    assert traces[3].people[0].finished


def test_person_not_present_before_start_tick():
    sc = line_scenario(2, [{"id": 0, "origin": 0, "destination": 1, "start_tick": 5}])
    _, traces = traced_run(sc, const_factory(light=0.0))
    assert [traces[t].readings[0].motion for t in (3, 4, 5, 6)] == [False, False, True, True]
    assert traces[4].readings[0].ticks_since_motion == 255
    assert traces[5].readings[0].ticks_since_motion == 0


def test_energy_counts_new_commands():
    class FirstTickOnly:
        def act(self, r):
            return ActuatorCommand(light=1.0 if r.tick == 0 else 0.0)

    sc = line_scenario(3, [], max_ticks=10)
    m = run_simulation(sc, FirstTickOnly)
    assert m.energy_pct == pytest.approx(10.0)


def test_controller_exception_wrapped():
    class Boom:
        def act(self, r):
            raise ValueError("bad weights")

    sc = line_scenario(2, [])
    with pytest.raises(ControllerError) as err:
        run_simulation(sc, Boom)
    assert "tick 0, pole 0" in str(err.value)
    assert "bad weights" in str(err.value)


def test_compute_metrics_formulas():
    sc = line_scenario(2, [
        {"id": 0, "origin": 0, "destination": 1, "start_tick": 0},
        {"id": 1, "origin": 1, "destination": 0, "start_tick": 0},
    ], max_ticks=10)
    m = compute_metrics(sc, light_sum=3.0, finished=1, trip_ticks=13)
    assert m.energy_pct == pytest.approx(15.0)
    assert m.people_pct == 50.0
    assert m.trip_pct == pytest.approx(65.0)
    percentages = {"energy_pct": m.energy_pct, "people_pct": m.people_pct,
                   "trip_pct": m.trip_pct}
    assert m.fitness == DEFAULT_WEIGHTS.score(**percentages)
    weights = FitnessWeights(2.0, 0.5, 0.25)
    assert compute_metrics(sc, 3.0, 1, 13, weights).fitness == weights.score(**percentages)
