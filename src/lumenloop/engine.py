"""Deterministic tick-based simulation of streetlight poles and pedestrians.

Phase order within a tick (all controllers see the same pre-tick state):

1. Build one SensorReading per pole from the previous tick's actuator
   state, current pedestrian occupancy, and the ambient schedule.
2. Evaluate every controller to a new ActuatorCommand (simultaneous update).
3. Pedestrians attempt movement using the NEW light levels.
4. Accumulate energy and trip-time counters.
5. Advance the tick.

A pedestrian becomes active at its start tick and may move that same tick;
every tick from the start tick through the arrival tick (inclusive) counts
toward trip time. The listen decision made at tick t governs whether the
pole hears its neighbors' broadcasts at tick t+1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol

from .errors import ControllerError
from .fitness import DEFAULT_WEIGHTS, FitnessWeights, SimulationMetrics, compute_fitness
from .scenario import ScenarioSpec, shortest_path

TICKS_SINCE_MOTION_CAP = 255


@dataclass(frozen=True)
class SensorReading:
    """What a pole perceives at the start of a tick."""

    ambient: float
    motion: bool
    signal: float
    current_light: float
    ticks_since_motion: int
    tick: int


@dataclass(frozen=True)
class ActuatorCommand:
    """A pole's actuator state. Defaults are the tick-0 state."""

    light: float = 0.0
    listen: bool = True
    broadcast: float = 0.0


class Controller(Protocol):
    """Per-pole decision engine; one independent instance per pole."""

    def act(self, reading: SensorReading) -> ActuatorCommand: ...


ControllerFactory = Callable[[], Controller]


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


@dataclass(frozen=True)
class RawTotals:
    """Accumulated counters from a completed run."""

    light_sum: float
    finished_count: int
    trip_tick_sum: int


def compute_metrics(raw: RawTotals, scenario: ScenarioSpec) -> SimulationMetrics:
    """Turn raw totals into percentages (fitness left unset).

    Zero-people scenarios define people_pct = 100 and trip_pct = 0.
    """
    n_poles = len(scenario.poles)
    n_people = len(scenario.people)
    energy_pct = 100.0 * raw.light_sum / (n_poles * scenario.max_ticks)
    if n_people == 0:
        people_pct, trip_pct = 100.0, 0.0
    else:
        people_pct = 100.0 * raw.finished_count / n_people
        trip_pct = 100.0 * raw.trip_tick_sum / (n_people * scenario.max_ticks)
    return SimulationMetrics(energy_pct, people_pct, trip_pct)


class _Person:
    __slots__ = ("spec", "position", "path_next", "finished")

    def __init__(self, spec, scenario):
        self.spec = spec
        self.position = spec.origin
        self.finished = False
        path = shortest_path(scenario, spec.origin, spec.destination)
        # next hop from each pole on the route
        self.path_next = {path[i]: path[i + 1] for i in range(len(path) - 1)}


def run_simulation(
    scenario: ScenarioSpec,
    controller_factory: ControllerFactory,
    trace: bool = False,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
):
    """Run the scenario to completion and score it.

    Returns SimulationMetrics, or (SimulationMetrics, list[TickTrace]) when
    ``trace`` is true. Identical inputs produce bit-identical outputs.
    """
    controllers = {pole.id: controller_factory() for pole in scenario.poles}
    commands = {pole.id: ActuatorCommand() for pole in scenario.poles}
    # saturated start: no motion has been observed yet
    since_motion = {pole.id: TICKS_SINCE_MOTION_CAP for pole in scenario.poles}
    people = [_Person(p, scenario) for p in scenario.people]

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

        light_sum += sum(cmd.light for cmd in commands.values())
        if trace:
            traces.append(TickTrace(tick, readings, dict(commands), person_traces))

    raw = RawTotals(light_sum, sum(1 for p in people if p.finished), trip_ticks)
    metrics = compute_metrics(raw, scenario)
    metrics = replace(metrics, fitness=compute_fitness(metrics, weights))
    return (metrics, traces) if trace else metrics
