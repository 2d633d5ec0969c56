"""The scalar tick loop: the reference that ``lumenloop.engine`` is tested against.

One controller object per pole, one Python loop over poles and people per
tick, following the phase order in the ``lumenloop.engine`` docstring. The
engine's ``run_simulation`` and ``run_batch`` must return exactly (``==``)
what ``run_simulation`` here returns, traces included;
``assert_same_ticks`` compares two trace lists sign for sign.
"""

from __future__ import annotations

from lumenloop.engine import (
    TICKS_SINCE_MOTION_CAP,
    ActuatorCommand,
    ControllerFactory,
    PersonTrace,
    SensorReading,
    TickTrace,
    compute_metrics,
)
from lumenloop.errors import ControllerError
from lumenloop.fitness import DEFAULT_WEIGHTS, FitnessWeights
from lumenloop.scenario import ScenarioSpec, shortest_path


class _Person:
    __slots__ = ("spec", "position", "path_next", "finished")

    def __init__(self, spec, path_next):
        self.spec = spec
        self.position = spec.origin
        self.finished = False
        self.path_next = path_next


def _route(scenario: ScenarioSpec, person) -> dict[int, int]:
    """Pole id -> next pole id on the person's shortest path."""
    path = shortest_path(scenario, person.origin, person.destination)
    return {path[i]: path[i + 1] for i in range(len(path) - 1)}


def assert_same_ticks(got: list[TickTrace], want: list[TickTrace]) -> None:
    """Two trace lists ``repr``-equal (so -0.0 differs from 0.0), tick by
    tick: a failure shows the first differing tick and its index, never a
    diff of two whole traces."""
    assert len(got) == len(want)
    for index, (mine, theirs) in enumerate(zip(got, want)):
        assert repr(mine) == repr(theirs), f"first difference at tick {index}"


def run_simulation(
    scenario: ScenarioSpec,
    controller_factory: ControllerFactory,
    trace: bool = False,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
):
    """Run the scenario to completion and score it.

    Returns SimulationMetrics, or (SimulationMetrics, list[TickTrace]) when
    ``trace`` is true.
    """
    controllers = {pole.id: controller_factory() for pole in scenario.poles}
    commands = {pole.id: ActuatorCommand() for pole in scenario.poles}
    # saturated start: no motion has been observed yet
    since_motion = {pole.id: TICKS_SINCE_MOTION_CAP for pole in scenario.poles}
    people = [_Person(p, _route(scenario, p)) for p in scenario.people]

    light_sum = 0.0
    trip_ticks = 0
    traces: list[TickTrace] = []

    for tick in range(scenario.max_ticks):
        ambient = scenario.ambient_at(tick)
        occupied = {p.position for p in people if p.spec.start_tick <= tick and not p.finished}

        readings: dict[int, SensorReading] = {}
        for pole in scenario.poles:
            motion = pole.id in occupied
            if motion:
                since_motion[pole.id] = 0
            else:
                since_motion[pole.id] = min(since_motion[pole.id] + 1, TICKS_SINCE_MOTION_CAP)
            if commands[pole.id].listen:
                signal = max((commands[n].broadcast for n in pole.neighbors), default=0.0)
            else:
                signal = 0.0
            readings[pole.id] = SensorReading(
                ambient=ambient,
                motion=motion,
                signal=signal,
                current_light=commands[pole.id].light,
                ticks_since_motion=since_motion[pole.id],
                tick=tick,
            )

        new_commands: dict[int, ActuatorCommand] = {}
        for pole in scenario.poles:
            try:
                new_commands[pole.id] = controllers[pole.id].act(readings[pole.id])
            except Exception as exc:
                raise ControllerError(str(exc), tick=tick, pole_id=pole.id) from exc
        commands = new_commands

        person_traces: dict[int, PersonTrace] = {}
        for person in people:
            moved = False
            if person.spec.start_tick <= tick and not person.finished:
                if person.position == person.spec.destination:
                    # degenerate zero-length route: finish without a trip tick
                    person.finished = True
                else:
                    trip_ticks += 1
                    lit = min(max(ambient + commands[person.position].light, 0.0), 1.0)
                    if lit >= scenario.movement_threshold:
                        person.position = person.path_next[person.position]
                        moved = True
                        if person.position == person.spec.destination:
                            person.finished = True
            if trace:
                person_traces[person.spec.id] = PersonTrace(
                    person.position, moved, person.finished
                )

        # a plain left-to-right sum: the built-in sum() of floats
        # compensates rounding from Python 3.12 on
        tick_light = 0.0
        for cmd in commands.values():
            tick_light += cmd.light
        light_sum += tick_light
        if trace:
            traces.append(TickTrace(tick, readings, dict(commands), person_traces))

    finished = sum(1 for p in people if p.finished)
    metrics = compute_metrics(scenario, light_sum, finished, trip_ticks, weights)
    return (metrics, traces) if trace else metrics
