"""Reading input files, and the one rule for the numbers in them.

A file that is not UTF-8, or not JSON where JSON is due, is a SchemaError
(exit 2), never a traceback. A number in a JSON document is a JSON number,
not a string or a boolean, and it is finite.
"""

import json
import sys
from pathlib import Path

from .errors import SchemaError


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8: {exc}") from exc


def parse_json(text: str, where: object):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"{where}: not valid JSON: {exc}") from exc


def _shown(value) -> str:
    # a container's repr could be as deep as the document
    return repr(value) if not isinstance(value, (list, dict)) else type(value).__name__


def as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {_shown(value)}")
    return value


def as_number(value, where: str) -> float:
    # int vs float comparison is exact, so a huge int fails before float() overflows
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise SchemaError(f"{where}: expected a finite number, got {_shown(value)}")
    return float(value)
