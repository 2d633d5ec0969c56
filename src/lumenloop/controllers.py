"""Controller construction and name/path resolution.

A controller source is one of:
  * a builtin name ("always_on", "always_off", "iteration1"..."iteration3"),
  * a path to a rule-program source file,
  * a path to a genome JSON file (an object with a "genes" list).

Builtin names win unless the string is an explicit path (contains a
separator or names an existing file).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .dsl.baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from .dsl.interpreter import EvalContext, evaluate
from .dsl.nodes import Program
from .dsl.parser import parse_source
from .dsl.validator import validate_strict
from .documents import parse_json, read_text
from .engine import ActuatorCommand, ControllerFactory, SensorReading
from .errors import UnknownBaseline
from .neuro.network import NetworkController, NetworkSpec, parse_genome_document


class DslController:
    """Runs a rule program with fresh per-pole memory."""

    def __init__(self, program: Program):
        self.program = program
        self.ctx = EvalContext()

    def act(self, reading: SensorReading) -> ActuatorCommand:
        return evaluate(self.program, reading, self.ctx)


def program_factory(program: Program) -> ControllerFactory:
    return lambda: DslController(program)


def network_factory(genes, spec: NetworkSpec) -> ControllerFactory:
    return lambda: NetworkController(genes, spec)


@dataclass(frozen=True)
class ResolvedController:
    label: str
    factory: ControllerFactory


def _looks_like_path(text: str) -> bool:
    return (
        os.sep in text
        or (os.altsep is not None and os.altsep in text)
        or text.startswith(".")
        or text.endswith((".rules", ".txt", ".json"))
    )


def resolve_controller(source: str) -> ResolvedController:
    """Turn a CLI controller argument into a ready factory.

    Raises UnknownBaseline, SchemaError, LexError, ParseError,
    ValidationError, or OSError depending on what goes wrong.
    """
    if source in BUILTIN_PROGRAM_SOURCES and not _looks_like_path(source):
        return ResolvedController(
            label=source, factory=program_factory(builtin_program(source))
        )
    path = Path(source)
    try:
        text = read_text(path)
    except FileNotFoundError:
        if _looks_like_path(source):
            raise
        known = ", ".join(sorted(BUILTIN_PROGRAM_SOURCES))
        raise UnknownBaseline(
            f"unknown controller {source!r}: not a builtin ({known}) "
            "and no such file"
        ) from None
    if text.lstrip().startswith("{"):
        spec, genome = parse_genome_document(parse_json(text, path))
        return ResolvedController(
            label=path.stem, factory=network_factory(genome.genes, spec)
        )
    program = validate_strict(parse_source(text))
    return ResolvedController(label=path.stem, factory=program_factory(program))
