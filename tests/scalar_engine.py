"""The scalar tick loop: the reference that ``lumenloop.engine`` is tested against.

One controller object per pole, one Python loop over poles and people per
tick, following the phase order in the ``lumenloop.engine`` docstring. The
engine's ``run_simulation`` and ``run_batch`` must return exactly (``==``)
the metrics that ``run_simulation`` here returns, and ``traced_run``, which
records the engine's ticks through ``run_simulation``'s ``on_tick``, the
traces too; ``assert_same_ticks`` compares two trace lists sign for sign.
``trace_lines`` is the ``simulate --trace`` format written from a trace
list, the oracle of ``engine.trace_writer``.

Routes, reachability and ambient levels are restated here too, one search
per person and one schedule scan per tick, so that the loop shares nothing
with ``scenario.next_hops`` or ``engine.compile_scenario``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from lumenloop import engine
from lumenloop.engine import (
    TICKS_SINCE_MOTION_CAP,
    ActuatorCommand,
    ControllerFactory,
    SensorReading,
    compute_metrics,
    count_since_motion,
)
from lumenloop.errors import ControllerError, ValidationError
from lumenloop.fitness import DEFAULT_WEIGHTS, FitnessWeights
from lumenloop.scenario import ScenarioSpec


@dataclass(frozen=True)
class PersonTrace:
    position: int
    moved: bool
    finished: bool


@dataclass(frozen=True)
class TickTrace:
    tick: int
    readings: dict[int, SensorReading]
    commands: dict[int, ActuatorCommand]
    people: dict[int, PersonTrace]


def traced_run(
    scenario: ScenarioSpec,
    controller_factory: ControllerFactory,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
) -> tuple:
    """(SimulationMetrics, list[TickTrace]) of the engine's
    ``run_simulation``, each tick recorded by its ``on_tick`` from the
    loop's arrays, whatever the step."""
    pole_ids = [pole.id for pole in scenario.poles]
    traces: list[TickTrace] = []
    since = TICKS_SINCE_MOTION_CAP

    def record(tick, sensors, commands, people):
        nonlocal since
        since = count_since_motion(since, sensors[1])
        position, moved, finished = (a[0].tolist() for a in people)
        traces.append(TickTrace(
            tick,
            dict(zip(pole_ids, engine._lane_readings(tick, sensors, since))),
            dict(zip(pole_ids, map(ActuatorCommand, *(a[0].tolist() for a in commands)))),
            {p.id: PersonTrace(pole_ids[c], m, f)
             for p, c, m, f in zip(scenario.people, position, moved, finished)},
        ))

    metrics = engine.run_simulation(scenario, controller_factory, weights, on_tick=record)
    return metrics, traces


def trace_lines(traces: list[TickTrace]):
    """The ``simulate --trace`` lines of a trace list: one JSON object per
    tick, keys sorted."""
    for tick in traces:
        obj = {
            "tick": tick.tick,
            "poles": {
                str(pid): {
                    "reading": {
                        "ambient": reading.ambient,
                        "motion": reading.motion,
                        "signal": reading.signal,
                        "light": reading.current_light,
                        "ticks_since_motion": reading.ticks_since_motion,
                    },
                    "command": {
                        "light": tick.commands[pid].light,
                        "listen": tick.commands[pid].listen,
                        "broadcast": tick.commands[pid].broadcast,
                    },
                }
                for pid, reading in tick.readings.items()
            },
            "people": {
                str(pid): {
                    "position": person.position,
                    "moved": person.moved,
                    "finished": person.finished,
                }
                for pid, person in tick.people.items()
            },
        }
        yield json.dumps(obj, sort_keys=True) + "\n"


class _Person:
    __slots__ = ("spec", "position", "path_next", "finished")

    def __init__(self, spec, path_next):
        self.spec = spec
        self.position = spec.origin
        self.finished = False
        self.path_next = path_next


def distances_to(scenario: ScenarioSpec, target: int) -> dict[int, int]:
    """BFS hop counts from every reachable pole to ``target``."""
    neighbors = scenario.neighbor_map()
    dist = {target: 0}
    queue = deque([target])
    while queue:
        node = queue.popleft()
        for n in sorted(neighbors[node]):
            if n not in dist:
                dist[n] = dist[node] + 1
                queue.append(n)
    return dist


def shortest_path(scenario: ScenarioSpec, origin: int, destination: int) -> list[int]:
    """Shortest path origin..destination; ties broken by lowest neighbor id.

    At each step the walk moves to the lowest-id neighbor that reduces the
    BFS distance to the destination.
    """
    dist = distances_to(scenario, destination)
    if origin not in dist:
        raise ValidationError(f"no path from {origin} to {destination}")
    neighbors = scenario.neighbor_map()
    path = [origin]
    current = origin
    while current != destination:
        current = min(n for n in neighbors[current] if dist.get(n) == dist[current] - 1)
        path.append(current)
    return path


def first_bad_person(scenario: ScenarioSpec) -> ValidationError | None:
    """The error scenario validation gives for the first bad person, checked
    field by field (origin, destination, start tick, then reachability), or
    None if every person is good. Pole and person ids are taken as valid."""
    pole_ids = {pole.id for pole in scenario.poles}
    for i, person in enumerate(scenario.people):
        for field in ("origin", "destination"):
            value = getattr(person, field)
            if value not in pole_ids:
                return ValidationError(
                    f"person {person.id}: unknown pole id {value}", path=f"people[{i}].{field}"
                )
        if not 0 <= person.start_tick < scenario.max_ticks:
            return ValidationError(
                f"person {person.id}: start_tick must satisfy 0 <= t < max_ticks",
                path=f"people[{i}].start_tick",
            )
        if distances_to(scenario, person.destination).get(person.origin) is None:
            return ValidationError(
                f"person {person.id}: no path from {person.origin} to {person.destination}",
                path=f"people[{i}].destination",
            )
    return None


def ambient_at(scenario: ScenarioSpec, tick: int) -> float:
    """Ambient level at ``tick``: last schedule entry in effect, else 0."""
    level = 0.0
    for entry in scenario.ambient_schedule:
        if entry.from_tick <= tick:
            level = entry.level
        else:
            break
    return level


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
        ambient = ambient_at(scenario, tick)
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
