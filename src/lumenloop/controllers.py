"""Controller name and path resolution.

A controller source is one of:
  * a builtin name ("always_on", "always_off", "iteration1"..."iteration3"),
  * a path to a rule-program source file,
  * a path to a genome JSON file (an object with a "genes" list); any
    file named ``*.json``, or whose text starts with ``{``, is read as one.

A builtin name always means the builtin, even where a file of that name
exists (as ``load_scenario`` treats scenario names); to run such a file,
name it as a path, such as ``./iteration1``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .dsl.baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from .dsl.compiler import CompiledProgram
from .dsl.parser import parse_source
from .dsl.validator import validate_strict
from .documents import parse_json, read_text
from .errors import UnknownBaseline
from .neuro.network import Genome, parse_genome_document


@dataclass(frozen=True)
class ResolvedController:
    label: str
    factory: CompiledProgram | Genome


def _looks_like_path(text: str) -> bool:
    return (
        os.sep in text
        or (os.altsep is not None and os.altsep in text)
        or text.startswith(".")
        or text.endswith((".rules", ".txt", ".json"))
    )


def resolve_controller(source: str) -> ResolvedController:
    """Turn a CLI controller argument into a ready factory: a
    ``CompiledProgram`` for a rule program, a ``Genome`` for a genome file.

    Raises UnknownBaseline, SchemaError, LexError, ParseError,
    ValidationError, or OSError depending on what goes wrong.
    """
    if source in BUILTIN_PROGRAM_SOURCES:
        return ResolvedController(source, CompiledProgram(builtin_program(source)))
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
        return ResolvedController(path.stem, parse_genome_document(parse_json(text, path)))
    program = validate_strict(parse_source(text))
    return ResolvedController(path.stem, CompiledProgram(program))
