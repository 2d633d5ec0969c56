"""The sandboxed streetlight rule language.

Controllers are small if-else programs over pole sensors, actuators, and
per-pole memory variables. The language is total: evaluation never raises,
division by zero yields 0, and actuator outputs are clamped to [0, 1].
A program runs compiled (``dsl.compiler``): as a batch step over a lane of
poles, or on one pole through ``controllers.DslController``.
"""

from .baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from .formatter import format_program
from .nodes import (
    Assignment,
    BinOp,
    BoolOp,
    Comparison,
    If,
    MemRef,
    MotionCond,
    Neg,
    Not,
    Number,
    Program,
    Ref,
)
from .parser import parse_source
from .reference import LANGUAGE_REFERENCE
from .tokens import Token, tokenize
from .validator import Diagnostic, validate, validate_strict

__all__ = [
    "Assignment",
    "BinOp",
    "BoolOp",
    "BUILTIN_PROGRAM_SOURCES",
    "builtin_program",
    "Comparison",
    "Diagnostic",
    "format_program",
    "If",
    "LANGUAGE_REFERENCE",
    "MemRef",
    "MotionCond",
    "Neg",
    "Not",
    "Number",
    "parse_source",
    "Program",
    "Ref",
    "Token",
    "tokenize",
    "validate",
    "validate_strict",
]
