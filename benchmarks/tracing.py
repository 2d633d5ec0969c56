"""Outside-in tracing of lumenloop's layers.

``Tracer.install`` replaces public functions in lumenloop's modules with
wrappers that record a span per call; ``Tracer.uninstall`` puts the
originals back. Nothing inside the package changes. A span holds its
name, start, end, parent span and unit id. Calls made once per pole per
tick (a controller's ``act``) and once per pole per run (constructing a
controller) are too many to keep one by one; they are summed per parent
span and name into an aggregate of count and total time.

Spans stay in memory until ``write`` dumps them as JSON lines. Self
times and per-layer metrics are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: object
    work: int = 0  # pole-ticks for engine spans

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, span name): every reference through which lumenloop
# calls into a layer, so each call is seen once.
PATCH_POINTS = (
    ("lumenloop.scenario", "parse_scenario", "scenario.parse"),
    ("lumenloop.engine", "shortest_path", "scenario.shortest_path"),
    ("lumenloop.controllers", "resolve_controller", "controllers.resolve"),
    ("lumenloop.cli", "resolve_controller", "controllers.resolve"),
    ("lumenloop.controllers", "parse_source", "dsl.parse"),
    ("lumenloop.dsl.baselines", "parse_source", "dsl.parse"),
    ("lumenloop.loop.extraction", "parse_source", "dsl.parse"),
    ("lumenloop.loop.runner", "parse_source", "dsl.parse"),
    ("lumenloop.controllers", "validate_strict", "dsl.validate"),
    ("lumenloop.loop.extraction", "validate", "dsl.validate"),
    ("lumenloop.dsl.validator", "format_program", "dsl.format"),
    ("lumenloop.loop.runner", "format_program", "dsl.format"),
    ("lumenloop.loop.runner", "extract_program", "loop.extract"),
)
ENGINE_CALLERS = (
    "lumenloop.engine", "lumenloop.cli", "lumenloop.neuro.evolution", "lumenloop.loop.runner",
)
OBJECTIVE_MAKER = ("lumenloop.neuro.evolution", "simulation_objective")

# Controller class name -> layer that owns its act().
CONTROLLER_LAYERS = {"DslController": "dsl", "NetworkController": "neuro.network"}


class _TracedController:
    __slots__ = ("_act", "_acc")

    def __init__(self, controller, acc: list):
        self._act = controller.act
        self._acc = acc

    def act(self, reading):
        start = clock()
        command = self._act(reading)
        acc = self._acc
        acc[0] += 1
        acc[1] += clock() - start
        return command


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (parent span id, name) -> [count, total seconds]
        self.aggregates: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.unit: object = None
        self.missing: list[str] = []  # patch points not found in the package
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, work: int = 0) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, clock(), 0.0, self.current(), self.unit, work))
        self._stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self._stack.pop()
        span = self.spans[sid]
        self.spans[sid] = Span(sid, span.name, span.start, clock(), span.parent, span.unit, span.work)

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid)

        return traced

    def _wrap_engine(self, run_simulation):
        @functools.wraps(run_simulation)
        def traced(scenario, controller_factory, *args, **kwargs):
            sid = self.begin(
                "engine.run_simulation", work=len(scenario.poles) * scenario.max_ticks
            )
            try:
                factory = self._traced_factory(controller_factory, sid)
                return run_simulation(scenario, factory, *args, **kwargs)
            finally:
                self.finish(sid)

        return traced

    def _traced_factory(self, controller_factory, sid: int):
        def factory():
            start = clock()
            controller = controller_factory()
            elapsed = clock() - start
            layer = CONTROLLER_LAYERS.get(type(controller).__name__, "controllers.other")
            construct = self.aggregates[(sid, f"{layer}.construct")]
            construct[0] += 1
            construct[1] += elapsed
            return _TracedController(controller, self.aggregates[(sid, f"{layer}.act")])

        return factory

    def _wrap_objective_maker(self, make):
        @functools.wraps(make)
        def traced(*args, **kwargs):
            return self.wrap("neuro.evolution.objective", make(*args, **kwargs))

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, module_name: str, attr: str, wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def install(self) -> None:
        for module_name, attr, name in PATCH_POINTS:
            self._patch(module_name, attr, functools.partial(self.wrap, name))
        for module_name in ENGINE_CALLERS:
            self._patch(module_name, "run_simulation", self._wrap_engine)
        self._patch(*OBJECTIVE_MAKER, self._wrap_objective_maker)
        self.missing = sorted(set(self.missing))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "unit": span.unit,
                    "work": span.work,
                }) + "\n")
            for (parent, name), (count, total) in self.aggregates.items():
                fh.write(json.dumps({
                    "aggregate": name, "parent": parent, "count": count, "total": total,
                }) + "\n")


def self_times(spans: list[Span], aggregates: dict[tuple[int, str], list]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Children are spans whose parent is the span, and aggregates recorded
    under it. Spans nest strictly (one thread, stack discipline), so the
    direct children never overlap and their durations add up.
    """
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    for (parent, _), (_, total) in aggregates.items():
        own[parent] -= total
    return own


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, timed_units: list) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced phase.

    Means per call of ``per_call`` layers (scenario parsing, controller
    resolution, the dsl front end, the loop's extraction and evaluator)
    use every span, set-up included, because some of them run only in
    set-up. Everything else uses the timed units only. A layer the
    workload never reaches reads 0.
    """
    units = set(timed_units)
    spans = tracer.spans
    own = self_times(spans, tracer.aggregates)
    timed = [s for s in spans if s.unit in units]
    n_units = len(units)

    def named(name: str, pool: list[Span]) -> list[Span]:
        return [s for s in pool if s.name == name]

    def per_call(name: str, scale: float) -> float:
        durations = [s.duration for s in named(name, spans)]
        return scale * _ratio(sum(durations), len(durations))

    def own_per_unit(name: str, scale: float) -> float:
        return scale * _ratio(sum(own[s.id] for s in named(name, timed)), n_units)

    engine = named("engine.run_simulation", timed)
    engine_ids = {s.id for s in engine}
    # Controller work summed over the timed engine runs: name -> [count, seconds]
    controller: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (parent, name), (count, total) in tracer.aggregates.items():
        if parent in engine_ids:
            controller[name][0] += count
            controller[name][1] += total
    pole_ticks = sum(s.work for s in engine)
    objective = named("neuro.evolution.objective", timed)

    def per_item(name: str, scale: float) -> float:
        count, total = controller.get(name, (0, 0.0))
        return scale * _ratio(total, count)

    return {
        "scenario.parse_ms": per_call("scenario.parse", 1e3),
        "scenario.shortest_path_ms_per_sim": 1e3 * _ratio(
            sum(s.duration for s in named("scenario.shortest_path", timed)), len(engine)
        ),
        "engine.self_us_per_pole_tick": 1e6 * _ratio(sum(own[i] for i in engine_ids), pole_ticks),
        "engine.sims_per_unit": _ratio(len(engine), n_units),
        "engine.controller_share": _ratio(
            sum(total for _, total in controller.values()), sum(s.duration for s in engine)
        ),
        "controllers.resolve_us": per_call("controllers.resolve", 1e6),
        "dsl.parse_us": per_call("dsl.parse", 1e6),
        "dsl.validate_us": per_call("dsl.validate", 1e6),
        "dsl.format_us": per_call("dsl.format", 1e6),
        "dsl.act_us_per_pole_tick": per_item("dsl.act", 1e6),
        "neuro.network.act_us_per_pole_tick": per_item("neuro.network.act", 1e6),
        "neuro.network.construct_us": per_item("neuro.network.construct", 1e6),
        # A generation's time outside the objective: selection, crossover,
        # mutation and bookkeeping.
        "neuro.evolution.ga_ms_per_gen": own_per_unit("bench.unit", 1e3) if objective else 0.0,
        "neuro.evolution.evals_per_gen": _ratio(len(objective), n_units),
        "loop.provider_calls": _ratio(len(named("loop.provider", timed)), n_units),
        "loop.extract_us": per_call("loop.extract", 1e6),
        "loop.evaluator_us": per_call("loop.evaluator", 1e6),
        "loop.self_ms_per_session": own_per_unit("loop.run_loop", 1e3),
        "cli.self_ms_per_unit": own_per_unit("cli.main", 1e3),
    }
