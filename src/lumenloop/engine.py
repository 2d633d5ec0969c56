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

Two tick loops implement these rules. ``run_simulation`` runs one
controller instance per pole and can trace every tick. ``run_batch`` runs
many independent copies of a scenario at once (one lane per copy) over
(lanes, poles) arrays, for a controller given as one batch step; the GA
scores a whole generation with it. Both read the routes, neighbour lists
and ambient levels from ``scenario.compiled``, built once per scenario.

Parity contract: lane i of ``run_batch`` returns metrics equal (``==``,
not approximately) to ``run_simulation`` with a controller that computes
lane i's outputs, whatever the other lanes hold. That holds when the step
computes each lane and pole with the same floating-point operations in the
same order as the scalar controller, as ``neuro.network.forward`` does for
networks. Signal is Python's ``max`` over the neighbours in document order,
the light clamp and threshold are the same comparisons, and the energy sum
adds the poles of a tick left to right, then the ticks in order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

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


@dataclass(frozen=True, eq=False)
class CompiledScenario:
    """What both tick loops read from a scenario; see ``compile_scenario``.

    Array columns follow ``scenario.poles`` order, rows of the per-person
    arrays follow ``scenario.people``.
    """

    ambient: tuple[float, ...]  # ambient level per tick
    routes: tuple[dict[int, int], ...]  # per person: pole id -> next pole id on the route
    neighbor_index: np.ndarray  # (poles, max degree) columns, see compile_scenario
    next_hop: np.ndarray  # (people, poles) next column on the person's route, -1 off it
    origin: np.ndarray  # (people,) columns
    destination: np.ndarray  # (people,) columns
    start_tick: np.ndarray  # (people,)


def compile_scenario(scenario: ScenarioSpec) -> CompiledScenario:
    """Route table, neighbour matrix and ambient per tick, in one pass.

    Use ``scenario.compiled``, which caches this per ScenarioSpec. A row of
    ``neighbor_index`` shorter than the widest is padded with its first
    neighbour, which leaves a max over the row unchanged; a pole without
    neighbours points at column ``len(poles)``, which ``run_batch`` holds at
    a zero broadcast (the default of the scalar loop's ``max``).
    """
    column = {pole.id: j for j, pole in enumerate(scenario.poles)}
    n_poles = len(scenario.poles)
    width = max((len(pole.neighbors) for pole in scenario.poles), default=0) or 1
    neighbor_index = np.full((n_poles, width), n_poles, dtype=np.intp)
    for j, pole in enumerate(scenario.poles):
        if pole.neighbors:
            row = [column[n] for n in pole.neighbors]
            neighbor_index[j] = row + row[:1] * (width - len(row))

    routes = []
    next_hop = np.full((len(scenario.people), n_poles), -1, dtype=np.intp)
    for m, person in enumerate(scenario.people):
        path = shortest_path(scenario, person.origin, person.destination)
        route = {path[i]: path[i + 1] for i in range(len(path) - 1)}
        routes.append(route)
        for here, there in route.items():
            next_hop[m, column[here]] = column[there]

    def columns(field: str) -> np.ndarray:
        return np.array([column[getattr(p, field)] for p in scenario.people], dtype=np.intp)

    return CompiledScenario(
        ambient=tuple(scenario.ambient_at(tick) for tick in range(scenario.max_ticks)),
        routes=tuple(routes),
        neighbor_index=neighbor_index,
        next_hop=next_hop,
        origin=columns("origin"),
        destination=columns("destination"),
        start_tick=np.array([p.start_tick for p in scenario.people], dtype=np.int64),
    )


def _score(raw: RawTotals, scenario: ScenarioSpec, weights: FitnessWeights) -> SimulationMetrics:
    metrics = compute_metrics(raw, scenario)
    return replace(metrics, fitness=compute_fitness(metrics, weights))


class _Person:
    __slots__ = ("spec", "position", "path_next", "finished")

    def __init__(self, spec, path_next):
        self.spec = spec
        self.position = spec.origin
        self.finished = False
        self.path_next = path_next


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
    plan = scenario.compiled
    people = [_Person(p, route) for p, route in zip(scenario.people, plan.routes)]

    light_sum = 0.0
    trip_ticks = 0
    traces: list[TickTrace] = []

    for tick, ambient in enumerate(plan.ambient):
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

        # a plain left-to-right sum, as in run_batch: the built-in sum() of
        # floats compensates rounding from Python 3.12 on
        tick_light = 0.0
        for cmd in commands.values():
            tick_light += cmd.light
        light_sum += tick_light
        if trace:
            traces.append(TickTrace(tick, readings, dict(commands), person_traces))

    raw = RawTotals(light_sum, sum(1 for p in people if p.finished), trip_ticks)
    metrics = _score(raw, scenario, weights)
    return (metrics, traces) if trace else metrics


BatchStep = Callable[
    [float, np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
]
"""``step(ambient, motion, signal, light) -> (light, listen, broadcast)``.

Arguments after ``ambient`` are (lanes, poles) arrays: motion as 0.0/1.0,
the heard signal, and each pole's light from the previous tick. Returns
the new light and broadcast levels and the boolean listen flags, each
(lanes, poles) or broadcastable to it.
"""


def run_batch(
    scenario: ScenarioSpec,
    step: BatchStep,
    lanes: int,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
) -> list[SimulationMetrics]:
    """Run ``lanes`` independent copies of the scenario and score each.

    Same phases, movement rule, clamp and listen/broadcast semantics as
    ``run_simulation``, with every pole of every lane stepped by one call
    of ``step`` per tick; see the module docstring for the parity contract.
    """
    plan = scenario.compiled
    n_poles = len(scenario.poles)
    shape = (lanes, n_poles)
    light = np.zeros(shape)
    listen = np.ones(shape, dtype=bool)
    broadcast = np.zeros(shape)
    person = np.arange(len(scenario.people))
    position = np.tile(plan.origin, (lanes, 1))
    finished = np.zeros(position.shape, dtype=bool)
    trip_ticks = np.zeros(lanes, dtype=np.int64)
    light_sum = np.zeros(lanes)

    for tick, ambient in enumerate(plan.ambient):
        active = (plan.start_tick <= tick) & ~finished
        motion = np.zeros(shape)
        lane, who = np.nonzero(active)
        motion[lane, position[lane, who]] = 1.0

        # Python's max over the neighbours: the first value, replaced by
        # each later one only when strictly greater.
        heard = np.concatenate([broadcast, np.zeros((lanes, 1))], axis=1)
        signal = heard[:, plan.neighbor_index[:, 0]]
        for k in range(1, plan.neighbor_index.shape[1]):
            other = heard[:, plan.neighbor_index[:, k]]
            signal = np.where(other > signal, other, signal)
        signal = np.where(listen, signal, 0.0)

        light, listen, broadcast = (
            np.broadcast_to(out, shape) for out in step(ambient, motion, signal, light)
        )

        # degenerate zero-length route: finish without a trip tick
        walking = active & (position != plan.destination)
        finished |= active & ~walking
        trip_ticks += walking.sum(axis=1)
        lit = ambient + np.take_along_axis(light, position, axis=1)
        lit = np.minimum(np.maximum(lit, 0.0), 1.0)
        moves = walking & (lit >= scenario.movement_threshold)
        position = np.where(moves, plan.next_hop[person, position], position)
        finished |= moves & (position == plan.destination)

        # accumulate adds left to right, like the scalar loop
        light_sum += np.add.accumulate(light, axis=1)[:, -1]

    return [
        _score(
            RawTotals(float(light_sum[i]), int(finished[i].sum()), int(trip_ticks[i])),
            scenario,
            weights,
        )
        for i in range(lanes)
    ]
