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

One tick loop implements these rules, ``run_batch``, and every run enters
it there. It runs many independent copies of a scenario at once (one lane
per copy) over (lanes, poles) arrays, stepping every pole of every lane
with one batch step per tick: ``network_batch_step`` for a population of
networks, ``controller_step`` for one controller factory per lane.
``controller_step`` stacks one step per lane: the factory's own batch step
where it offers one (a ``dsl.compiler.CompiledProgram`` or a
``neuro.network.Genome``), else one ``factory()`` per pole stepped through
``act``. After each tick the loop hands its arrays to an optional
``on_tick``, and at the end it scores each lane with ``compute_metrics``.
``run_simulation`` is a one-lane ``run_batch`` call and passes its
``on_tick`` on; ``simulate --trace`` passes ``trace_writer``'s, which
writes each tick as one JSON line as the tick ends, so the trace is
never held whole. Routes (those of ``scenario.next_hops``, end to end in
one array of pole columns), neighbours and ambient levels come from
``scenario.compiled``.

A tick costs about as many microseconds as it makes numpy calls, however
many lanes it holds, so the loop makes few. A person's state is their
place on their route, whether they have started, recomputed only on a
tick that is someone's start tick, and whether they are away from the
route's end, recomputed only after a tick on which someone moved. Each
lane holds its own copy of the routes as flat places in a (lanes, poles)
array, so one ``take`` gives every person's pole. A person is home
exactly when started and not away: a walker stops at the destination, and a
zero-length route is home from its start tick on. So no per-person
``finished`` flag is kept: the people who walk are the started ones who
are away, and on a start tick those who start there also show motion,
which is how a zero-length route shows motion once, with no trip tick.
A tick that is no start tick and follows one on which no one moved or
started is quiet: who walks and where is as it was, so the loop rebuilds
nothing and passes the last tick's motion array on again, the same
object. A step may key what it computed on that object:
``network_batch_step`` keeps its hidden sums' ambient and motion terms.
While the last rebuild of who walks found no one (before the first start,
between one group's arrival and the next start, and once everyone is
home), the loop skips movement and trip time: no one moves.
Under a step that declares itself ``stateless`` (see
BatchStep), and with no ``on_tick``, lanes settle: once the ambient level
and the people who have started stop changing, a lane's state (its
light, listen and broadcast outputs and every person's place on their
route) follows from the one before by one function, so a state ``==`` to
the one two ticks before repeats every two ticks to the end. A stack of
steps, ``controller_step``'s, then calls a settled lane no more, and once
every lane has settled the loop stops stepping: it adds the last two
ticks' light sums in turn for the ticks left, and a trip tick for each of
them to whoever is still walking, and scores the lanes as if it had
stepped them. A lane holding NaN never compares equal, so it never
settles, and a block of lanes that holds it runs to the end. The loop
never writes into an array once it has
passed it to the step or to ``on_tick``: a step may keep references to
its sensors and outputs. The whole run is one ``np.errstate(all="ignore")``
block, so every step runs with numpy's floating-point warnings off (a rule
program's inf and NaN are values of the language, a network's sums may
overflow), and so does every ``act`` of a Python-API controller that
``controller_step`` runs pole by pole; the caller's state comes back when
the run ends or raises. A person moves when ambient + light, clamped to
[0, 1], reaches the movement threshold; the loop folds the clamp into the
threshold, once per run, and compares the unclamped sum (``run_batch``
shows why that is exact for every float, NaN and infinities included).

Parity contract: a lane's metrics do not depend on the other lanes and are
equal (``==``) to those of the per-pole scalar loop kept as the tests'
oracle in ``tests/scalar_engine.py``, given a step that computes each pole
with the scalar controller's floating-point operations in the same order
(``neuro.network.forward`` fixes the order for networks, as run on one
pole by ``tests/network_controller.py``, and ``dsl.compiler`` does the
operations of the tests' tree-walking interpreter, ``tests/interpreter.py``,
with numpy's float64 ones, on a lane or on one pole's ``DslController``). Signal is
Python's ``max`` over the neighbours in document order (the first value,
replaced only by a strictly greater one, which ``np.maximum`` is not for
NaN and signed zeros), the folded threshold decides every move as the
clamp and threshold do, and the energy sum adds the poles of a tick left
to right, then the ticks in order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Protocol, TextIO

import numpy as np

from .errors import ControllerError
from .fitness import DEFAULT_WEIGHTS, FitnessWeights, SimulationMetrics
from .scenario import ScenarioSpec, next_hops
from .scenario import shortest_path  # noqa: F401  (benchmarks/tracing.py wraps this name)

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
"""Makes one controller per pole, or offers ``batch_step()``: a fresh
BatchStep for one lane, which ``controller_step`` prefers. A loaded
controller is its own factory: a ``Genome`` offers only ``batch_step``;
a ``CompiledProgram`` is also callable, giving the same ``DslController``
with the same outputs, until ``benchmarks/tracing.py`` stops timing ``act``."""


def compute_metrics(
    scenario: ScenarioSpec,
    light_sum: float,
    finished: int,
    trip_ticks: int,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
) -> SimulationMetrics:
    """Score a run's totals: the light summed over poles and ticks, the
    people who reached their destination and the ticks they spent walking.

    Zero-people scenarios define people_pct = 100 and trip_pct = 0.
    """
    n_poles = len(scenario.poles)
    n_people = len(scenario.people)
    energy_pct = 100.0 * light_sum / (n_poles * scenario.max_ticks)
    if n_people == 0:
        people_pct, trip_pct = 100.0, 0.0
    else:
        people_pct = 100.0 * finished / n_people
        trip_pct = 100.0 * trip_ticks / (n_people * scenario.max_ticks)
    fitness = weights.score(people_pct=people_pct, energy_pct=energy_pct, trip_pct=trip_pct)
    return SimulationMetrics(energy_pct, people_pct, trip_pct, fitness)


@dataclass(frozen=True, eq=False)
class CompiledScenario:
    """What the tick loop reads from a scenario; see ``compile_scenario``.

    Pole columns follow ``scenario.poles`` order, the per-person arrays
    ``scenario.people``.
    """

    ambient: tuple[float, ...]  # ambient level per tick
    neighbor_index: np.ndarray  # (max degree, poles) columns, see compile_scenario
    path: np.ndarray  # every person's route, origin to destination, as pole columns
    path_start: np.ndarray  # (people,) where the person's route begins in path
    hops: np.ndarray  # (people,) moves on the route: it ends at path_start + hops
    start_tick: np.ndarray  # (people,)


def compile_scenario(scenario: ScenarioSpec) -> CompiledScenario:
    """Routes, neighbour matrix and ambient per tick, in one pass.

    Use ``scenario.compiled``, which caches this per ScenarioSpec. Column j
    of ``neighbor_index`` lists pole j's neighbours; one shorter than the
    widest is padded with its first neighbour, which leaves a max over it
    unchanged, and a pole without neighbours points at column
    ``len(poles)``, which ``run_batch`` holds at a zero broadcast (what
    ``max`` over no neighbours defaults to).
    """
    column = {pole.id: j for j, pole in enumerate(scenario.poles)}
    n_poles = len(scenario.poles)
    width = max((len(pole.neighbors) for pole in scenario.poles), default=0) or 1
    neighbor_index = np.full((width, n_poles), n_poles, dtype=np.intp)
    for j, pole in enumerate(scenario.poles):
        if pole.neighbors:
            row = [column[n] for n in pole.neighbors]
            neighbor_index[:, j] = row + row[:1] * (width - len(row))

    # people in destination order: one search per destination, one held at a time
    routes, searched, toward = [None] * len(scenario.people), None, {}
    for m, person in sorted(enumerate(scenario.people), key=lambda row: row[1].destination):
        if person.destination != searched:
            searched, toward = person.destination, next_hops(scenario, person.destination)
        route = [person.origin]
        while route[-1] != person.destination:
            route.append(toward[route[-1]])
        routes[m] = [column[here] for here in route]
    lengths = np.array([len(route) for route in routes], dtype=np.intp)

    # the ambient level per tick (0 before the first entry) in one walk: an
    # entry is reached only once the walk has passed every earlier one
    ambient, level = [], 0.0
    for entry in scenario.ambient_schedule:
        ambient += [level] * (min(entry.from_tick, scenario.max_ticks) - len(ambient))
        level = entry.level

    return CompiledScenario(
        ambient=tuple(ambient + [level] * (scenario.max_ticks - len(ambient))),
        neighbor_index=neighbor_index,
        path=np.array([j for route in routes for j in route], dtype=np.intp),
        path_start=np.cumsum(lengths) - lengths,
        hops=lengths - 1,
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
in tick order, though a stateless step (below) may miss the last ticks.
Neither side writes into an array once it has handed it over: the loop
passes the step's light back to it as the next tick's sensor.

A step may declare ``stateless = True``: then a tick's outputs depend
only on that tick's sensors and on the step's own last outputs, and
inputs that are ``==`` give outputs that are ``==``. ``network_batch_step``
does, and so does a rule program's ``DslController`` when its program
keeps no memory and reads no tick (``dsl.compiler``). A stateless step
that keeps other state the loop cannot see, as such a program's
ticks_since_motion counters, offers ``repeats()``: whether that state is
``==`` to the one two ticks before. ``run_batch`` settles a lane on the
first tick from ``check_from`` on whose light, listen and broadcast rows
and people's places are ``==`` to those two ticks before, and whose step
confirms it through ``repeats``; every later tick of the lane repeats the
one two before it. A step with ``settle`` (``controller_step``'s stack)
is told which lanes have settled and gives their last two outputs in
turn without calling them; any other step settles every lane on one tick
or none. Once every lane has settled, the loop stops and finishes the
run from the last two ticks. The metrics are the same either way, though
a kept output may be ``==`` but not bit-equal to the one it stands for: a
rule program's clamp keeps -0.0, and no metric sees the sign of a zero
(``light_sum`` starts at +0.0, a move compares ambient + light, and the
language turns a division by zero into 0). A step that keeps memory or
counts ticks, as ``iteration3`` does, must not declare it.
"""


def count_since_motion(since, motion: np.ndarray, cap: int = TICKS_SINCE_MOTION_CAP) -> np.ndarray:
    """Each pole's ticks_since_motion after a tick with ``motion`` (0.0/1.0):
    0 where motion is seen, else one more than ``since``, saturating at
    ``cap``, in ``since``'s type. A run starts from the cap (no motion seen
    yet)."""
    return np.where(motion == 1.0, 0, np.minimum(since + 1, cap))


def _lane_readings(tick: int, sensors: tuple, since: np.ndarray) -> list[SensorReading]:
    """Lane 0's readings in pole order, from a step's (ambient, motion,
    signal, light) arguments and the lane's ticks_since_motion counts."""
    ambient, motion, signal, light = sensors
    return [
        SensorReading(ambient, moving == 1.0, heard, lit, count, tick)
        for moving, heard, lit, count in zip(
            motion[0].tolist(), signal[0].tolist(), light[0].tolist(), since[0].tolist()
        )
    ]


class _PerPoleStep:
    """One lane of ``controller_step``: a ``factory()`` per pole, stepped
    through ``act`` on the lane's readings."""

    def __init__(self, scenario: ScenarioSpec, factory: ControllerFactory):
        self.pole_ids = [pole.id for pole in scenario.poles]
        self.controllers = [factory() for _ in scenario.poles]
        self.since = TICKS_SINCE_MOTION_CAP
        self.tick = 0

    def __call__(self, ambient, motion, signal, light):
        tick = self.tick
        self.tick += 1
        self.since = count_since_motion(self.since, motion)
        readings = _lane_readings(tick, (ambient, motion, signal, light), self.since)
        commands = []
        for pole_id, controller, reading in zip(self.pole_ids, self.controllers, readings):
            try:
                commands.append(controller.act(reading))
            except Exception as exc:
                raise ControllerError(str(exc), tick=tick, pole_id=pole_id) from exc
        return (
            np.array([[c.light for c in commands]], dtype=float),
            np.array([[c.listen for c in commands]], dtype=bool),
            np.array([[c.broadcast for c in commands]], dtype=float),
        )


class _Stack:
    """``controller_step``'s step for several lanes: each lane's own step,
    called on its rows, with its outputs written into its row of fresh
    arrays. A lane that ``run_batch`` has settled is not called again: its
    row is a copy of its outputs two ticks before, so it gives its last two
    outputs in turn."""

    def __init__(self, lanes: list):
        self.lanes = lanes
        self.stateless = all(getattr(lane, "stateless", False) for lane in lanes)
        self.called = list(range(len(lanes)))  # the lanes not settled
        # the lanes that may still settle: those whose step is stateless
        self.settling = [i for i in self.called if getattr(lanes[i], "stateless", False)]
        self.outputs = (None, None)  # its outputs two ticks back and one tick back

    def __call__(self, ambient, motion, signal, light):
        if len(self.called) < len(self.lanes):
            # a settled lane's row: its outputs two ticks back
            outputs = tuple(array.copy() for array in self.outputs[0])
        else:
            outputs = (np.empty(light.shape), np.empty(light.shape, dtype=bool),
                       np.empty(light.shape))
        lit, listening, sent = outputs
        for i in self.called:
            lit[i], listening[i], sent[i] = self.lanes[i](
                ambient, motion[i, None], signal[i, None], light[i, None])
        self.outputs = (self.outputs[1], outputs)
        return outputs

    def settle(self, repeating: np.ndarray) -> bool:
        """Settle each lane that may settle, whose rows repeat the tick two
        before (``repeating[i]``, from ``run_batch``) and whose step
        confirms it (BatchStep); return whether every lane has settled."""
        for i in [i for i in self.settling if repeating[i] and _confirms(self.lanes[i])]:
            self.settling.remove(i)
            self.called.remove(i)
        return not self.called


def controller_step(scenario: ScenarioSpec, factories: list[ControllerFactory]) -> BatchStep:
    """``run_batch`` step in which every pole of lane i runs ``factories[i]``.

    A factory that offers ``batch_step()``, as every resolved one does,
    runs its lane through that step; any other gets one ``factories[i]()``
    per pole, called through ``act``, and an exception from ``act`` becomes
    a ControllerError naming the tick and the pole. The step keeps
    per-pole state, so it serves one ``run_batch``. One lane is its own
    step; several are stacked, and their stack lets ``run_batch`` settle
    them one by one (BatchStep): a settled lane is not called, and its
    outputs, kept from the two ticks before, may be ``==`` but not
    bit-equal to those it would give. It is ``stateless`` when every
    lane's step is.
    """
    lanes = [
        factory.batch_step() if hasattr(factory, "batch_step")
        else _PerPoleStep(scenario, factory)
        for factory in factories
    ]
    return lanes[0] if len(lanes) == 1 else _Stack(lanes)


def _lane_array(out, shape: tuple[int, int]) -> np.ndarray:
    """A step's output as a (lanes, poles) array."""
    if isinstance(out, np.ndarray) and out.shape == shape:
        return out
    return np.broadcast_to(out, shape)


def _repeats(state: tuple, before: tuple) -> bool:
    """Whether every array of ``state`` is == to the one in ``before``,
    element by element; the light, which differs most often, comes first."""
    return all(now is then or (now == then).all() for now, then in zip(state, before))


def _lanes_repeat(state: tuple, before: tuple) -> np.ndarray:
    """Per lane, whether its row of every array of ``state`` is == to its
    row in ``before``: a (lanes,) bool array."""
    same = (state[0] == before[0]).all(axis=1)
    for now, then in zip(state[1:], before[1:]):
        if now is not then:
            same &= (now == then).all(axis=1)
    return same


def _confirms(step) -> bool:
    """Whether a stateless step's own state that the loop cannot see, if it
    keeps any, is == to the one two ticks before (BatchStep)."""
    repeats = getattr(step, "repeats", None)
    return repeats is None or repeats()


def run_batch(
    scenario: ScenarioSpec,
    step: BatchStep,
    lanes: int,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
    on_tick: Callable[[int, tuple, tuple, tuple], None] | None = None,
) -> list[SimulationMetrics]:
    """The tick loop: run ``lanes`` independent copies of the scenario and
    score each.

    Every pole of every lane is stepped by one call of ``step`` per tick,
    up to the tick from which a stateless step's lanes have all settled
    (module docstring and BatchStep, where a kept output may be ``==`` but
    not bit-equal); see there too for the parity contract.
    After each tick it calls ``on_tick(tick, sensors, commands, people)``,
    if given, and then steps every tick:
    ``sensors`` is (ambient, motion, signal, light) as passed to the step,
    ``commands`` the step's (light, listen, broadcast) as (lanes, poles)
    arrays, and ``people`` (position, moved, finished) as (lanes, people)
    arrays of pole columns and flags.
    """
    plan = scenario.compiled
    n_poles = len(scenario.poles)
    shape = (lanes, n_poles)
    light = np.zeros(shape)
    listen = np.ones(shape, dtype=bool)
    # the last broadcasts, and a zero column for poles without neighbours
    heard = np.zeros((lanes, n_poles + 1))
    # a pole column plus lane_base is its flat place in a (lanes, poles) array
    lane_base = np.arange(lanes)[:, None] * n_poles
    # plan.path once per lane, as flat places: each person's index into it,
    # on_path, steps one on a move, and their route ends at path_end
    flat_path = (plan.path + lane_base).ravel()
    on_path = plan.path_start + np.arange(lanes)[:, None] * len(plan.path)
    path_end = on_path + plan.hops
    here = flat_path.take(on_path)
    trip_ticks = np.zeros(here.shape, dtype=np.int64)
    light_sum = np.zeros(lanes)
    # home is started & ~away (module docstring): no finished flag is kept
    start_ticks = set(plan.start_tick.tolist())
    last_start = max(start_ticks, default=0)  # everyone has started from here on
    started = np.zeros(len(scenario.people), dtype=bool)
    away = on_path != path_end
    # Who walks, and the motion they show, change only on a start tick and
    # on the tick after a start or a move; every other tick passes the
    # last tick's motion on again, the same object. While no one walks,
    # no one moves and no trip tick is counted.
    changed = True
    # A person moves when the lamp's level, ambient + light clamped to
    # [0, 1] with NaN kept, is >= the threshold; the clamp is folded into
    # the threshold. NaN fails every test either way. A threshold <= 0
    # (-0.0 too) passes every clamped level, as every non-NaN sum, -inf
    # included, is >= -inf. One in (0, 1] is passed by a clamped level
    # exactly when by the sum: a sum >= 1 clamps to 1 >= threshold, a
    # sum <= 0 to 0 < threshold, and one in between is unchanged. One
    # above 1, or NaN, passes no clamped level, and no sum is >= nan.
    threshold = scenario.movement_threshold
    move_at = -np.inf if threshold <= 0 else threshold if threshold <= 1 else np.nan

    # Under a stateless step, from the last ambient change and the tick
    # after the last start tick on, every tick maps a lane's state (its
    # outputs and places on the routes) by one function of its state
    # before. A tick past that whose state is == to the one two ticks
    # before it starts a cycle of at most two ticks that lasts to the end:
    # the lane settles there, and once every lane has, the loop stops and
    # adds up the ticks it skips (see BatchStep). A stack's lanes are
    # checked one by one while some lane may still settle.
    settle = getattr(step, "settle", None)
    checking = on_tick is None and (
        bool(step.settling) if settle else getattr(step, "stateless", False))
    keep_from = check_from = len(plan.ambient)  # never: check nothing, keep nothing
    if checking:
        levels = plan.ambient
        last_change = max((t for t in range(1, len(levels)) if levels[t] != levels[t - 1]),
                          default=0)
        check_from = max(last_change, last_start + 1) + 1
        keep_from = check_from - 2
    two_back = one_back = last_sum = None

    # Steps run with numpy's floating-point warnings off: a rule program's
    # inf and NaN are values of the language, and a network's sums may
    # overflow. The with block restores the caller's state on a raise too.
    with np.errstate(all="ignore"):
        for tick, ambient in enumerate(plan.ambient):
            starting = tick in start_ticks
            if starting or changed:
                if starting:
                    started = plan.start_tick <= tick
                    walking = started & away
                    # a zero-length route shows motion at its start tick
                    active = walking | (plan.start_tick == tick)
                else:
                    walking = active = started & away
                # count_nonzero, a C call, costs a third of .any() at these sizes
                anyone_walking = np.count_nonzero(walking) > 0
                motion = np.zeros(shape)
                motion.put(here[active], 1.0)

            # Python's max over the neighbours: the first value, replaced by
            # each later one only when strictly greater. Gathered
            # neighbour-major, (width, poles, lanes), so each neighbour the
            # fold reads is one contiguous block.
            neighbors = heard.T.take(plan.neighbor_index, axis=0)
            signal = neighbors[0]
            for other in neighbors[1:]:
                np.copyto(signal, other, where=other > signal)
            signal = np.where(listen, signal.T, 0.0)

            sensors = (ambient, motion, signal, light)
            light, listen, broadcast = step(*sensors)
            light = _lane_array(light, shape)
            listen = _lane_array(listen, shape)
            broadcast = _lane_array(broadcast, shape)
            heard[:, :n_poles] = broadcast

            moves, moved = walking, False  # all False while no one walks
            if anyone_walking:
                trip_ticks += walking
                moves = walking & (ambient + light.take(here) >= move_at)
                moved = np.count_nonzero(moves) > 0
                if moved:
                    on_path = on_path + moves  # a new array: a kept state holds the old one
                    here = flat_path.take(on_path)
                    away = on_path != path_end
            changed = moved or starting

            # accumulate adds left to right; the built-in sum() of floats
            # compensates rounding from Python 3.12 on
            tick_sum = np.add.accumulate(light, axis=1)[:, -1]
            light_sum += tick_sum
            if on_tick is not None:
                people = (here - lane_base, moves, started & ~away)
                on_tick(tick, sensors, (light, listen, broadcast), people)

            if checking and tick >= keep_from:
                state = (light, listen, broadcast, on_path)
                if tick >= check_from:
                    if settle is None:  # every lane at once, or none
                        done = _repeats(state, two_back) and _confirms(step)
                    else:
                        done = settle(_lanes_repeat(state, two_back))
                        checking = bool(step.settling)
                    if done:
                        # every later tick repeats the tick two before it:
                        # the next adds the light of the tick before this one
                        remaining = len(plan.ambient) - 1 - tick
                        for later in range(remaining):
                            light_sum += last_sum if later % 2 == 0 else tick_sum
                        trip_ticks += remaining * (started & away)  # no one moves any more
                        break
                two_back, one_back, last_sum = one_back, state, tick_sum

    finished = started & ~away
    totals = zip(
        light_sum.tolist(), finished.sum(axis=1).tolist(), trip_ticks.sum(axis=1).tolist()
    )
    return [compute_metrics(scenario, *raw, weights) for raw in totals]


def run_simulation(
    scenario: ScenarioSpec,
    controller_factory: ControllerFactory,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
    on_tick: Callable[[int, tuple, tuple, tuple], None] | None = None,
) -> SimulationMetrics:
    """Run the scenario with ``controller_factory`` on every pole and score it.

    The run is one ``run_batch`` lane of ``controller_step``, so a factory
    that offers a batch step runs through it, and any other is called once
    per pole; ``on_tick`` goes to that ``run_batch`` call. Identical inputs
    produce bit-identical outputs.
    """
    step = controller_step(scenario, [controller_factory])
    (metrics,) = run_batch(scenario, step, 1, weights, on_tick)
    return metrics


def trace_writer(fh: TextIO, scenario: ScenarioSpec) -> Callable[[int, tuple, tuple, tuple], None]:
    """An ``on_tick`` for ``run_batch`` that writes lane 0's tick to ``fh``
    as one JSON object per line (JSONL), keys sorted, floats by ``repr``:
    each pole's reading and command, keyed by pole id, and each person's
    position (a pole id), moved and finished flags, keyed by person id.

    Each line is written as its tick ends, so a run that raises leaves the
    ticks before the fault. Between ticks it holds only the poles'
    ticks_since_motion counts.
    """
    pole_keys = [str(pole.id) for pole in scenario.poles]
    pole_ids = [pole.id for pole in scenario.poles]
    person_keys = [str(person.id) for person in scenario.people]
    since = TICKS_SINCE_MOTION_CAP

    def write(tick, sensors, commands, people):
        nonlocal since
        ambient, motion, signal, light = sensors
        since = count_since_motion(since, motion)
        readings = zip(*(a[0].tolist() for a in (motion, signal, light, since)))
        position, moved, finished = (a[0].tolist() for a in people)
        obj = {
            "tick": tick,
            "poles": {
                key: {
                    "reading": {
                        "ambient": ambient,
                        "motion": moving == 1.0,
                        "signal": heard,
                        "light": lit,
                        "ticks_since_motion": count,
                    },
                    "command": {"light": new_light, "listen": listening, "broadcast": sent},
                }
                for key, (moving, heard, lit, count), new_light, listening, sent
                in zip(pole_keys, readings, *(a[0].tolist() for a in commands))
            },
            "people": {
                key: {"position": pole_ids[column], "moved": m, "finished": f}
                for key, column, m, f in zip(person_keys, position, moved, finished)
            },
        }
        fh.write(json.dumps(obj, sort_keys=True) + "\n")

    return write
