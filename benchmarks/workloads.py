"""The four workloads: what one unit is, how it is set up and checked.

Every workload is a closed loop: the next unit starts when the previous
one has ended. ``prepare`` makes the inputs from the seed and is not
timed; ``setup`` is what ``setup_s`` times (importing lumenloop, loading
and validating the scenario, resolving or constructing the controllers);
``run`` drives units until the phase says stop. The first unit of a run
is a warm-up: it is checked but not timed.

lumenloop is imported inside ``setup``, never at module level, so that a
fresh process pays for the import inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
from pathlib import Path

from gridgen import document_sha256, grid_document
from stats import CALIBRATION_REFERENCE_S, calibrate, mismatches
from tracing import Tracer, clock

REFERENCE_PATH = Path(__file__).with_name("reference.json")
GRID_VARIANTS = 16  # grid scenario = seed mod 16; one stored reference each
EVOLVE_SEED = 0  # one fixed GA seed: unit times then differ only by machine noise
EVOLVE_POPULATION = 50
LOOP_SCRIPT = "tests/fixtures/three_iter.jsonl"
LOOP_CALIBRATION = "tests/fixtures/calibration_stub.json"
HARD_STOP_S = 120.0  # a phase never runs longer than this past its deadline
CALIBRATION_INTERVAL_S = 0.25


class Phase:
    """One closed-loop measuring window and what happened in it.

    The speed kernel runs when the warm-up ends, then between units at
    most every ``CALIBRATION_INTERVAL_S``, and once more at the end. Each
    unit's time is scaled by the mean of the two kernel times around it.
    """

    def __init__(self, seconds: float, min_units: int):
        self.seconds = seconds
        self.min_units = min_units
        self.deadline = math.inf
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed_units: list[int] = []  # ids of the timed, correct units
        # blocks[i]: wall seconds of the timed, correct units between
        # kernel runs speeds[i] and speeds[i + 1]
        self.blocks: list[list[float]] = []
        self.speeds: list[float] = []
        self._calibrated_at = -math.inf

    def done(self, start: float, end: float, errors: list[str], timed: bool) -> bool:
        """Account one unit; True when the phase should stop."""
        unit = self.attempted
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        if self.deadline == math.inf:
            # The clock starts when the first (warm-up) unit ends.
            self.deadline = clock() + self.seconds
            self._calibrate()
        if timed and not errors:
            self.blocks[-1].append(end - start)
            self.timed_units.append(unit)
        now = clock()
        stop = now >= self.deadline + HARD_STOP_S or (
            now >= self.deadline and (len(self.timed_units) >= self.min_units or self.failed > 0)
        )
        if stop or now - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            self._calibrate()
        return stop

    def _calibrate(self) -> None:
        self.speeds.append(calibrate())
        self.blocks.append([])
        self._calibrated_at = clock()

    @property
    def samples(self) -> list[float]:
        """Wall seconds per timed, correct unit."""
        return [s for block in self.blocks for s in block]

    @property
    def scaled_samples(self) -> list[float]:
        """Seconds per unit at the kernel's reference speed."""
        return [
            s * CALIBRATION_REFERENCE_S * 2.0 / (self.speeds[i] + self.speeds[i + 1])
            for i, block in enumerate(self.blocks)
            for s in block
        ]


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Workload:
    """A workload whose units are independent calls."""

    name = ""
    # unit_tail_ms reports this percentile: the highest of p50/p75/p90/p99
    # with at least ten samples beyond it in a 20 s run at the baseline
    # (loop-replay excepted, see there).
    tail_percentile = 50.0
    pole_ticks_per_unit = 0

    def __init__(self, root: Path, tmp: Path, seed: int, reference: dict):
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.reference = reference
        self.tracer: Tracer | None = None
        self.inputs: dict = {}  # facts about the generated inputs, for the results

    def prepare(self) -> None:
        """Make the inputs from the seed (not timed)."""

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def observe(self, output):
        """The part of a unit's output that the stored reference pins."""
        raise NotImplementedError

    def expected(self):
        return self.reference[self.name]

    def check(self, output) -> list[str]:
        return mismatches(self.expected(), self.observe(output), self.name)

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values only the workload itself can see."""
        return {"loop.transcript_bytes": 0.0}  # no session, no transcript

    def _traced(self, name: str, fn):
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def run(self, phase: Phase, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        while True:
            timed = phase.attempted > 0
            sid = None
            if tracer is not None:
                tracer.unit = phase.attempted
                sid = tracer.begin("bench.unit")
            start = clock()
            try:
                output, error = self.unit(), None
            except Exception as exc:  # a failing unit is counted, not fatal
                output, error = None, _describe(exc)
            end = clock()
            if sid is not None:
                tracer.finish(sid)
            errors = [error] if error else self.check(output)
            if phase.done(start, end, errors, timed):
                return


class Compare(Workload):
    name = "compare"
    tail_percentile = 90.0

    def setup(self) -> None:
        self.cli = importlib.import_module("lumenloop.cli")
        scenario = importlib.import_module("lumenloop.scenario")
        controllers = importlib.import_module("lumenloop.controllers")
        scenarios = [scenario.builtin_scenario(ref) for ref in scenario.BUILTIN_SCENARIOS]
        for ref in self.cli.DEFAULT_COMPARE_CONTROLLERS:
            controllers.resolve_controller(ref)
        self.pole_ticks_per_unit = len(self.cli.DEFAULT_COMPARE_CONTROLLERS) * sum(
            len(s.poles) * s.max_ticks for s in scenarios
        )
        self.argv = ["compare", "--manifest", str(self.tmp / "compare-manifest.json")]

    def unit(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self._traced("cli.main", self.cli.main)(self.argv)
        return code, out.getvalue()

    def observe(self, output) -> dict:
        code, csv = output
        return {"exit_code": code, "csv": csv}


class Grid(Workload):
    name = "grid"
    tail_percentile = 75.0

    def prepare(self) -> None:
        self.variant = self.seed % GRID_VARIANTS
        self.document = grid_document(self.variant)
        self.sha256 = document_sha256(self.document)
        self.inputs = {"grid_variant": self.variant, "scenario_sha256": self.sha256}

    def setup(self) -> None:
        scenario = importlib.import_module("lumenloop.scenario")
        controllers = importlib.import_module("lumenloop.controllers")
        self.engine = importlib.import_module("lumenloop.engine")
        self.scenario = scenario.parse_scenario(self.document)
        self.factory = controllers.resolve_controller("iteration3").factory
        self.pole_ticks_per_unit = len(self.scenario.poles) * self.scenario.max_ticks

    def unit(self):
        return self.engine.run_simulation(self.scenario, self.factory)

    def observe(self, metrics) -> dict:
        """Exact finished-people and trip-tick counts, floats to 1e-9."""
        n_people = len(self.scenario.people)
        return {
            "sha256": self.sha256,
            "finished": round(metrics.people_pct * n_people / 100.0),
            "trip_ticks": round(metrics.trip_pct * n_people * self.scenario.max_ticks / 100.0),
            "energy_pct": metrics.energy_pct,
            "fitness": metrics.fitness,
        }

    def expected(self) -> dict:
        return self.reference["grid"][str(self.variant)]


class _PhaseDone(Exception):
    pass


class Evolve(Workload):
    name = "evolve"

    def prepare(self) -> None:
        self.history = self.reference["evolve"]
        self.inputs = {"ga_seed": EVOLVE_SEED}

    def setup(self) -> None:
        self.evolution = importlib.import_module("lumenloop.neuro.evolution")
        scenario = importlib.import_module("lumenloop.scenario")
        self.scenario = scenario.builtin_scenario("scenario1")
        self.config = self.evolution.EvolutionConfig(
            population_size=EVOLVE_POPULATION, generations=len(self.history), seed=EVOLVE_SEED
        )
        # Every generation after the first evaluates all but the elites.
        evaluations = EVOLVE_POPULATION - self.config.elitism
        self.pole_ticks_per_unit = evaluations * len(self.scenario.poles) * self.scenario.max_ticks

    def run(self, phase: Phase, tracer: Tracer | None = None) -> None:
        """Units are generations, delimited by ``on_generation`` callbacks.

        The first generation of each evolution run (initial population,
        every genome evaluated) is checked but not timed; a run that uses
        up the stored history starts over.
        """
        self.tracer = tracer
        while True:
            try:
                self._evolve_once(phase, tracer)
            except _PhaseDone:
                return

    def _evolve_once(self, phase: Phase, tracer: Tracer | None) -> None:
        state = {"start": 0.0, "sid": None}

        def open_unit() -> None:
            if tracer is not None:
                tracer.unit = phase.attempted
                state["sid"] = tracer.begin("bench.unit")
            state["start"] = clock()

        def close_unit(errors: list[str], timed: bool) -> None:
            end = clock()
            if state["sid"] is not None:
                tracer.finish(state["sid"])
                state["sid"] = None
            if phase.done(state["start"], end, errors, timed):
                raise _PhaseDone

        def on_generation(stat) -> None:
            gen = stat.generation
            errors = mismatches(
                self.history[gen - 1], [stat.best_fitness, stat.mean_fitness],
                f"generation {gen} [best, mean]",
            )
            close_unit(errors, timed=gen > 1)
            if gen < self.config.generations:
                open_unit()

        open_unit()
        try:
            self.evolution.run_evolution(
                self.config, self.scenario, workers=1, on_generation=on_generation
            )
        except _PhaseDone:
            raise
        except Exception as exc:  # a failing generation is counted, not fatal
            close_unit([_describe(exc)], timed=True)


class LoopReplay(Workload):
    name = "loop-replay"
    # p99 here is set by filesystem write latency for the transcript, which
    # swung by 2x from run to run on a shared disk; p90 is steady.
    tail_percentile = 90.0

    def setup(self) -> None:
        self.loop = importlib.import_module("lumenloop.loop")
        scenario = importlib.import_module("lumenloop.scenario")
        self.scenario = scenario.builtin_scenario("scenario1")
        self.responses = self.loop.load_replay_script(self.root / LOOP_SCRIPT).responses
        self.bindings = self.loop.load_calibration(self.root / LOOP_CALIBRATION)
        self.config = self.loop.LoopConfig()
        self.transcript_path = self.tmp / "transcript.jsonl"
        self.transcript_bytes: list[int] = []

    def unit(self):
        provider = self.loop.ReplayProvider(self.responses)
        provider.complete = self._traced("loop.provider", provider.complete)
        evaluator = self._traced("loop.evaluator", self.loop.stub_evaluator(self.bindings))
        return self._traced("loop.run_loop", self.loop.run_loop)(
            self.config, provider, self.scenario, evaluator=evaluator,
            transcript_path=self.transcript_path,
        )

    def observe(self, transcript) -> dict:
        data = self.transcript_path.read_bytes()
        self.transcript_bytes.append(len(data))
        best = transcript.best_record
        return {
            "status": transcript.status,
            "iterations": len(transcript.records),
            "provider_calls": transcript.provider_calls,
            "best_fitness": None if best is None else best.metrics.fitness,
            "transcript_sha256": hashlib.sha256(data).hexdigest(),
        }

    def layer_extras(self) -> dict[str, float]:
        sizes = self.transcript_bytes
        return {"loop.transcript_bytes": sum(sizes) / len(sizes) if sizes else 0.0}


WORKLOADS = {w.name: w for w in (Compare, Evolve, Grid, LoopReplay)}
