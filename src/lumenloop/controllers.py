"""Controller construction and name/path resolution.

A controller source is one of:
  * a builtin name ("always_on", "always_off", "iteration1"..."iteration3"),
  * a path to a rule-program source file,
  * a path to a genome JSON file (an object with a "genes" list); any
    file named ``*.json``, or whose text starts with ``{``, is read as one.

Builtin names win unless the string is an explicit path (contains a
separator or names an existing file).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsl.baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from .dsl.compiler import CompiledProgram
from .dsl.nodes import Program
from .dsl.parser import parse_source
from .dsl.validator import validate_strict
from .documents import parse_json, read_text
from .engine import ActuatorCommand, BatchStep, ControllerFactory, SensorReading
from .errors import UnknownBaseline
from .neuro.network import (
    NetworkController,
    NetworkSpec,
    network_batch_step,
    parse_genome_document,
)


class DslController:
    """Runs a compiled rule program on one pole, with fresh per-pole memory."""

    def __init__(self, program: CompiledProgram):
        self.step = program.batch_step()

    def act(self, reading: SensorReading) -> ActuatorCommand:
        light, listen, broadcast = self.step.run(
            reading.ambient,
            1.0 if reading.motion else 0.0,
            reading.signal,
            reading.current_light,
            float(reading.ticks_since_motion),
            float(reading.tick),
        )
        return ActuatorCommand(float(light), bool(listen), float(broadcast))


class _ProgramFactory:
    def __init__(self, program: Program):
        self.compiled = CompiledProgram(program)

    def __call__(self) -> DslController:
        return DslController(self.compiled)

    def batch_step(self) -> BatchStep:
        return self.compiled.batch_step()


class _NetworkFactory:
    def __init__(self, genes, spec: NetworkSpec):
        self.genes = np.asarray(genes, dtype=float)
        self.spec = spec

    def __call__(self) -> NetworkController:
        return NetworkController(self.genes, self.spec)

    def batch_step(self) -> BatchStep:
        return network_batch_step(self.genes[None], self.spec)


def program_factory(program: Program) -> ControllerFactory:
    """A factory of DslControllers over one compiled program, whose batch
    step runs that program on a whole lane."""
    return _ProgramFactory(program)


def network_factory(genes, spec: NetworkSpec) -> ControllerFactory:
    """A factory of NetworkControllers whose batch step is ``network_batch_step``."""
    return _NetworkFactory(genes, spec)


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
    # A .json file is a genome even when empty, never an empty rule program.
    if path.name.endswith(".json") or text.lstrip().startswith("{"):
        spec, genome = parse_genome_document(parse_json(text, path))
        return ResolvedController(
            label=path.stem, factory=network_factory(genome.genes, spec)
        )
    program = validate_strict(parse_source(text))
    return ResolvedController(label=path.stem, factory=program_factory(program))
