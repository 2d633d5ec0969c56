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

One tick loop implements these rules. ``run_batch`` runs many independent
copies of a scenario at once (one lane per copy) over (lanes, poles)
arrays, stepping every pole of every lane with one batch step per tick:
``network_batch_step`` for networks, ``controller_step`` for one
controller object per pole. ``run_simulation`` is one lane of it and can
trace every tick. Routes, neighbours and ambient levels come from
``scenario.compiled``.

Parity contract: a lane's metrics do not depend on the other lanes and are
equal (``==``) to those of the per-pole scalar loop kept as the tests'
oracle in ``tests/scalar_engine.py``, given a step that computes each pole
with the scalar controller's floating-point operations in the same order
(``controller_step`` calls it; ``neuro.network.forward`` fixes the order).
Signal is Python's ``max`` over the neighbours in document order, the
light clamp and threshold are the same comparisons, and the energy sum
adds the poles of a tick left to right, then the ticks in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
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


def write_trace(path: str | Path, traces: list[TickTrace]) -> None:
    """Write one JSON object per tick (JSONL), keys sorted."""
    with Path(path).open("w", encoding="utf-8") as fh:
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
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


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
    """What the tick loop reads from a scenario; see ``compile_scenario``.

    Array columns follow ``scenario.poles`` order, rows of the per-person
    arrays follow ``scenario.people``.
    """

    ambient: tuple[float, ...]  # ambient level per tick
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
    a zero broadcast (what ``max`` over no neighbours defaults to).
    """
    column = {pole.id: j for j, pole in enumerate(scenario.poles)}
    n_poles = len(scenario.poles)
    width = max((len(pole.neighbors) for pole in scenario.poles), default=0) or 1
    neighbor_index = np.full((n_poles, width), n_poles, dtype=np.intp)
    for j, pole in enumerate(scenario.poles):
        if pole.neighbors:
            row = [column[n] for n in pole.neighbors]
            neighbor_index[j] = row + row[:1] * (width - len(row))

    next_hop = np.full((len(scenario.people), n_poles), -1, dtype=np.intp)
    for m, person in enumerate(scenario.people):
        path = shortest_path(scenario, person.origin, person.destination)
        for here, there in zip(path, path[1:]):
            next_hop[m, column[here]] = column[there]

    def columns(field: str) -> np.ndarray:
        return np.array([column[getattr(p, field)] for p in scenario.people], dtype=np.intp)

    return CompiledScenario(
        ambient=tuple(scenario.ambient_at(tick) for tick in range(scenario.max_ticks)),
        neighbor_index=neighbor_index,
        next_hop=next_hop,
        origin=columns("origin"),
        destination=columns("destination"),
        start_tick=np.array([p.start_tick for p in scenario.people], dtype=np.int64),
    )


BatchStep = Callable[
    [float, np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
]
"""``step(ambient, motion, signal, light) -> (light, listen, broadcast)``.

Arguments after ``ambient`` are (lanes, poles) arrays: motion as 0.0/1.0,
the heard signal, and each pole's light from the previous tick. Returns
the new light and broadcast levels and the boolean listen flags, each
(lanes, poles) or broadcastable to it. The loop calls it once per tick,
in tick order.
"""


class _ControllerStep:
    """``controller_step``; after each call, ``readings[i]`` and ``commands[i]``
    hold lane i's readings and commands of that tick in pole order."""

    def __init__(self, scenario: ScenarioSpec, factories: list[ControllerFactory]):
        self.pole_ids = [pole.id for pole in scenario.poles]
        self.controllers = [[factory() for _ in scenario.poles] for factory in factories]
        # saturated start: no motion has been observed yet
        self.since_motion = [[TICKS_SINCE_MOTION_CAP] * len(scenario.poles) for _ in factories]
        self.tick = 0

    def __call__(self, ambient, motion, signal, light):
        tick = self.tick
        self.tick += 1
        self.readings, self.commands = [], []
        for controllers, since, motion_row, signal_row, light_row in zip(
            self.controllers, self.since_motion, motion.tolist(), signal.tolist(), light.tolist()
        ):
            readings, commands = [], []
            for j, controller in enumerate(controllers):
                moving = motion_row[j] == 1.0
                since[j] = 0 if moving else min(since[j] + 1, TICKS_SINCE_MOTION_CAP)
                reading = SensorReading(ambient, moving, signal_row[j], light_row[j], since[j], tick)
                try:
                    commands.append(controller.act(reading))
                except Exception as exc:
                    raise ControllerError(str(exc), tick=tick, pole_id=self.pole_ids[j]) from exc
                readings.append(reading)
            self.readings.append(readings)
            self.commands.append(commands)
        return (
            np.array([[c.light for c in row] for row in self.commands], dtype=float),
            np.array([[c.listen for c in row] for row in self.commands], dtype=bool),
            np.array([[c.broadcast for c in row] for row in self.commands], dtype=float),
        )


def controller_step(scenario: ScenarioSpec, factories: list[ControllerFactory]) -> BatchStep:
    """``run_batch`` step in which every pole of lane i runs its own ``factories[i]()``.

    An exception from ``act`` becomes a ControllerError naming the tick and
    the pole. The step keeps per-pole state, so it serves one ``run_batch``.
    """
    return _ControllerStep(scenario, factories)


def _run_lanes(
    scenario: ScenarioSpec,
    step: BatchStep,
    lanes: int,
    weights: FitnessWeights,
    on_tick: Callable[[int, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> list[SimulationMetrics]:
    """The tick loop. After each tick it calls ``on_tick(tick, position, moved,
    finished)``, if given, with (lanes, people) arrays of pole columns and flags."""
    plan = scenario.compiled
    n_poles = len(scenario.poles)
    shape = (lanes, n_poles)
    light = np.zeros(shape)
    listen = np.ones(shape, dtype=bool)
    # the last broadcasts, and a zero column for poles without neighbours
    heard = np.zeros((lanes, n_poles + 1))
    rows = np.arange(lanes)[:, None]
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
        signal = heard[:, plan.neighbor_index[:, 0]]
        for k in range(1, plan.neighbor_index.shape[1]):
            other = heard[:, plan.neighbor_index[:, k]]
            signal = np.where(other > signal, other, signal)
        signal = np.where(listen, signal, 0.0)

        light, listen, broadcast = (
            np.broadcast_to(out, shape) for out in step(ambient, motion, signal, light)
        )
        heard[:, :n_poles] = broadcast

        # degenerate zero-length route: finish without a trip tick
        walking = active & (position != plan.destination)
        finished |= active & ~walking
        trip_ticks += walking.sum(axis=1)
        lit = np.minimum(np.maximum(ambient + light[rows, position], 0.0), 1.0)
        moves = walking & (lit >= scenario.movement_threshold)
        position = np.where(moves, plan.next_hop[person, position], position)
        finished |= moves & (position == plan.destination)

        # accumulate adds left to right; the built-in sum() of floats
        # compensates rounding from Python 3.12 on
        light_sum += np.add.accumulate(light, axis=1)[:, -1]
        if on_tick is not None:
            on_tick(tick, position, moves, finished)

    totals = zip(light_sum.tolist(), finished.sum(axis=1).tolist(), trip_ticks.tolist())
    metrics = [compute_metrics(RawTotals(*raw), scenario) for raw in totals]
    return [replace(m, fitness=compute_fitness(m, weights)) for m in metrics]


def run_batch(
    scenario: ScenarioSpec,
    step: BatchStep,
    lanes: int,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
) -> list[SimulationMetrics]:
    """Run ``lanes`` independent copies of the scenario and score each.

    Every pole of every lane is stepped by one call of ``step`` per tick;
    see the module docstring for the parity contract.
    """
    return _run_lanes(scenario, step, lanes, weights)


def run_simulation(
    scenario: ScenarioSpec,
    controller_factory: ControllerFactory,
    trace: bool = False,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
):
    """Run the scenario with one ``controller_factory()`` per pole and score it.

    Returns SimulationMetrics, or (SimulationMetrics, list[TickTrace]) when
    ``trace`` is true. Identical inputs produce bit-identical outputs.
    """
    step = controller_step(scenario, [controller_factory])
    pole_ids, traces = step.pole_ids, []

    def record(tick, position, moved, finished):
        people = zip(scenario.people, position[0].tolist(), moved[0].tolist(),
                     finished[0].tolist())
        traces.append(TickTrace(
            tick,
            dict(zip(pole_ids, step.readings[0])),
            dict(zip(pole_ids, step.commands[0])),
            {p.id: PersonTrace(pole_ids[c], m, f) for p, c, m, f in people},
        ))

    (metrics,) = _run_lanes(scenario, step, 1, weights, record if trace else None)
    return (metrics, traces) if trace else metrics
