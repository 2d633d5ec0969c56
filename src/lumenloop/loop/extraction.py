"""Pulling a controller program out of a model reply."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..dsl.nodes import Program
from ..dsl.parser import parse_source
from ..dsl.validator import raise_errors, validate
from ..errors import NoCodeBlock

# Opening fence with optional info string ("```controller"), then anything
# up to a closing fence at line start.
_FENCE = re.compile(r"```[^\n]*\n(.*?)^```", re.DOTALL | re.MULTILINE)


@dataclass(frozen=True)
class Extraction:
    program: Program
    code: str  # block contents as replied, fences stripped
    rationale: str  # response minus the chosen block


def find_last_block(response: str) -> tuple[str, str]:
    """Return (code, rationale) of the last fenced block.

    Models narrate around the block, and when a reply shows intermediate
    snippets the final block is the complete program. Raises NoCodeBlock.
    """
    matches = list(_FENCE.finditer(response))
    if not matches:
        raise NoCodeBlock("reply contains no fenced code block")
    last = matches[-1]
    rationale = (response[: last.start()] + response[last.end() :]).strip()
    return last.group(1).strip("\n"), rationale


def extract_program(response: str) -> Extraction:
    """Extract, parse, and statically check the replied program.

    Raises NoCodeBlock, LexError, ParseError (positions relative to the
    block), or ValidationError, whose ``diagnostics`` list every error in
    source order; warnings do not block extraction.
    """
    code, rationale = find_last_block(response)
    program = parse_source(code)
    raise_errors(validate(program))
    return Extraction(program=program, code=code, rationale=rationale)
