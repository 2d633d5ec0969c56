"""The refinement loop itself.

Iteration i sends the initial prompt (i = 1) or a feedback prompt built
from the last scored iteration, extracts and checks the replied program
(with up to max_repair_attempts immediate repair exchanges that never
carry metrics), simulates it, and stops once the fitness threshold is met
(inclusive). Each exchange is fresh: the model sees the problem statement
plus at most the latest program and metrics, never the whole history.

Transcripts are JSONL: a header line with the LoopConfig fields, one
line per iteration record, and a status trailer, written incrementally so
a crash loses at most the in-flight iteration. They contain no timestamps,
so a replayed run writes byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, TextIO

from ..documents import as_number, parse_json, read_text
from ..dsl.formatter import format_program
from ..dsl.nodes import Program
from ..dsl.parser import parse_source
from ..engine import run_simulation
from ..errors import (
    LexError,
    MissingMetrics,
    NoCodeBlock,
    ParseError,
    ProviderError,
    SchemaError,
    TranscriptWriteError,
    ValidationError,
)
from ..fitness import DEFAULT_WEIGHTS, FitnessWeights, SimulationMetrics
from ..scenario import ScenarioSpec
from .extraction import Extraction, extract_program, find_last_block
from .prompts import (
    build_feedback_prompt,
    build_initial_prompt,
    build_problem_statement,
    build_repair_prompt,
)
from .providers import DEFAULT_MODEL, Message, Provider

STATUS_THRESHOLD_MET = "threshold-met"
STATUS_BUDGET_EXHAUSTED = "iteration-budget-exhausted"
STATUS_PROVIDER_FAILURE = "provider-failure"

OUTCOME_ACCEPTED = "accepted"
OUTCOME_BELOW_THRESHOLD = "below-threshold"
OUTCOME_PARSE_FAILED = "parse-failed"

Evaluator = Callable[[Program], SimulationMetrics]


@dataclass(frozen=True)
class LoopConfig:
    fitness_threshold: float = 62.0
    max_iterations: int = 10
    max_repair_attempts: int = 2
    provider: str = "replay"  # descriptive selector: "http" | "replay"
    model: str = DEFAULT_MODEL
    temperature: float = 0.0
    timeout: float = 60.0
    scenario: str = "scenario1"
    weights: FitnessWeights = DEFAULT_WEIGHTS


@dataclass
class IterationRecord:
    index: int  # 1-based
    prompt: str
    response: str  # last raw response of the iteration
    rationale: str  # response minus its code block
    program: str | None  # canonical source, None only when parse-failed
    metrics: SimulationMetrics | None
    repair_attempts: int
    outcome: str  # accepted | below-threshold | parse-failed
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class Transcript:
    config: LoopConfig
    records: list[IterationRecord]
    status: str
    failure: str | None = None
    provider_calls: int = 0

    @property
    def best_record(self) -> IterationRecord | None:
        best = None
        for record in self.records:
            if record.metrics is None:
                continue
            if best is None or record.metrics.fitness > best.metrics.fitness:
                best = record
        return best


class _TranscriptWriter:
    def __init__(self, path: str | Path | None):
        self._fh: TextIO | None = None
        if path is not None:
            try:
                self._fh = Path(path).open("w", encoding="utf-8")
            except OSError as exc:
                raise TranscriptWriteError(f"cannot open transcript: {exc}") from exc

    def write(self, obj: dict) -> None:
        if self._fh is None:
            return
        try:
            self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
            self._fh.flush()
        except OSError as exc:
            raise TranscriptWriteError(f"cannot write transcript: {exc}") from exc

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _try_extract(response: str) -> tuple[Extraction | None, list[str]]:
    try:
        return extract_program(response), []
    except (NoCodeBlock, LexError, ParseError) as exc:
        return None, [str(exc)]
    except ValidationError as exc:
        return None, list(getattr(exc, "diagnostics", None) or [str(exc)])


def _rationale_of(response: str) -> str:
    try:
        _, rationale = find_last_block(response)
        return rationale
    except NoCodeBlock:
        return response.strip()


def simulation_evaluator(
    scenario: ScenarioSpec, weights: FitnessWeights = DEFAULT_WEIGHTS
) -> Evaluator:
    from ..controllers import program_factory

    def evaluate(program: Program) -> SimulationMetrics:
        return run_simulation(scenario, program_factory(program), weights=weights)

    return evaluate


def run_loop(
    config: LoopConfig,
    provider: Provider,
    scenario: ScenarioSpec,
    evaluator: Evaluator | None = None,
    transcript_path: str | Path | None = None,
) -> Transcript:
    if evaluator is None:
        evaluator = simulation_evaluator(scenario, config.weights)
    problem = build_problem_statement(
        scenario, config.weights, config.fitness_threshold
    )
    initial_prompt = build_initial_prompt(problem)
    system_msg: Message = {"role": "system", "content": initial_prompt}
    transcript = Transcript(
        config=config, records=[], status=STATUS_BUDGET_EXHAUSTED
    )
    writer = _TranscriptWriter(transcript_path)

    def call(messages: list[Message]) -> str:
        response = provider.complete(messages)
        transcript.provider_calls += 1
        return response

    try:
        writer.write(
            {
                "kind": "loop-transcript",
                "version": 1,
                "config": asdict(config),
                # Each exchange resends the problem statement plus only the
                # latest program/metrics; no conversation history.
                "context_mode": "problem-plus-latest-feedback",
                "initial_prompt": initial_prompt,
            }
        )
        feedback_source: IterationRecord | None = None
        for index in range(1, config.max_iterations + 1):
            if feedback_source is None:
                main_prompt = initial_prompt
                messages = [system_msg]
            else:
                main_prompt = build_feedback_prompt(
                    feedback_source, config.fitness_threshold
                )
                messages = [system_msg, {"role": "user", "content": main_prompt}]
            try:
                response = call(messages)
                extraction, diagnostics = _try_extract(response)
                attempts = 0
                while (
                    extraction is None and attempts < config.max_repair_attempts
                ):
                    attempts += 1
                    repair = build_repair_prompt(response, diagnostics)
                    response = call(
                        [system_msg, {"role": "user", "content": repair}]
                    )
                    extraction, diagnostics = _try_extract(response)
            except ProviderError as exc:
                transcript.status = STATUS_PROVIDER_FAILURE
                transcript.failure = str(exc)
                return transcript
            if extraction is None:
                record = IterationRecord(
                    index=index,
                    prompt=main_prompt,
                    response=response,
                    rationale=_rationale_of(response),
                    program=None,
                    metrics=None,
                    repair_attempts=attempts,
                    outcome=OUTCOME_PARSE_FAILED,
                    diagnostics=diagnostics,
                )
                transcript.records.append(record)
                writer.write(asdict(record))
                # Nothing was scored; the next iteration falls back to the
                # last scored record, or starts over from the top.
                continue
            metrics = evaluator(extraction.program)
            accepted = metrics.fitness >= config.fitness_threshold
            record = IterationRecord(
                index=index,
                prompt=main_prompt,
                response=response,
                rationale=extraction.rationale,
                program=format_program(extraction.program),
                metrics=metrics,
                repair_attempts=attempts,
                outcome=OUTCOME_ACCEPTED if accepted else OUTCOME_BELOW_THRESHOLD,
            )
            transcript.records.append(record)
            writer.write(asdict(record))
            if accepted:
                transcript.status = STATUS_THRESHOLD_MET
                return transcript
            feedback_source = record
        transcript.status = STATUS_BUDGET_EXHAUSTED
        return transcript
    finally:
        best = transcript.best_record
        writer.write(
            {
                "status": transcript.status,
                "iterations": len(transcript.records),
                "provider_calls": transcript.provider_calls,
                "best_fitness": None if best is None else best.metrics.fitness,
                "best_program": None if best is None else best.program,
                "failure": transcript.failure,
            }
        )
        writer.close()


def parse_transcript(text: str) -> tuple[dict, list[dict], dict]:
    """Split transcript JSONL into (header, records, trailer)."""
    lines = [parse_json(line, "transcript") for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise SchemaError("transcript needs at least a header and a trailer")
    header, trailer = lines[0], lines[-1]
    if not isinstance(header, dict) or header.get("kind") != "loop-transcript":
        raise SchemaError("first transcript line is not a header")
    if not isinstance(trailer, dict) or "status" not in trailer:
        raise SchemaError("last transcript line is not a status trailer")
    return header, lines[1:-1], trailer


def load_calibration(path: str | Path) -> dict[str, SimulationMetrics]:
    """Offline calibration stub: canonical program text -> pinned metrics.

    The fitness in each entry is stored, not recomputed, so stubs can pin
    externally reported scores exactly.
    """
    doc = parse_json(read_text(path), path)
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise SchemaError("calibration file must have an 'entries' list")
    bindings: dict[str, SimulationMetrics] = {}
    for i, entry in enumerate(entries):
        try:
            program = parse_source(entry["program"])
            m = entry["metrics"]
            metrics = SimulationMetrics(**{
                key: as_number(m[key], f"calibration entry {i}: {key}")
                for key in ("energy_pct", "people_pct", "trip_pct", "fitness")
            })
        except (KeyError, TypeError, LexError, ParseError) as exc:
            raise SchemaError(f"calibration entry {i} is malformed: {exc}") from exc
        bindings[format_program(program)] = metrics
    return bindings


def stub_evaluator(bindings: dict[str, SimulationMetrics]) -> Evaluator:
    def evaluate(program: Program) -> SimulationMetrics:
        key = format_program(program)
        try:
            return bindings[key]
        except KeyError:
            raise MissingMetrics(
                "program is not in the calibration stub:\n" + key
            ) from None

    return evaluate
