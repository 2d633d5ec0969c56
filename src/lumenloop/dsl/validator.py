"""Static checks over parsed programs.

validate() returns diagnostics instead of raising so callers (the repair
loop, the CLI) can report every problem at once. validate_strict() and
the repair loop's extraction both raise through raise_errors(): one
ValidationError that carries every error-severity diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .formatter import format_program
from .nodes import (
    ACTUATOR_NAMES,
    READ_ONLY_NAMES,
    SENSOR_NAMES,
    Assignment,
    BinOp,
    BoolOp,
    Comparison,
    Cond,
    Expr,
    MemRef,
    MotionCond,
    Neg,
    Not,
    Number,
    Program,
    Ref,
    Statement,
)
from .tokens import tokenize

MAX_EXPR_DEPTH = 64
MAX_PROGRAM_TOKENS = 10_000
# An ``if`` compiles to at most one merge per distinct slot written beneath
# it, so this bounds the merges the compiler can emit over all ifs.
MAX_BRANCH_MERGES = 10_000

_SENSOR_SET = frozenset(SENSOR_NAMES)
_ACTUATOR_SET = frozenset(ACTUATOR_NAMES)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


def _literal_value(node: Expr) -> float | None:
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Neg) and isinstance(node.operand, Number):
        return -node.operand.value
    return None


class _Checker:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.merges = 0  # distinct slots written beneath each if, summed

    def report(self, severity: str, message: str, node) -> None:
        self.diagnostics.append(
            Diagnostic(severity, message, node.pos.line, node.pos.column)
        )

    def check_root_expr(self, node: Expr) -> None:
        if self.check_expr(node) > MAX_EXPR_DEPTH:
            self.report(
                "error",
                f"expression nesting exceeds {MAX_EXPR_DEPTH} levels",
                node,
            )

    def check_expr(self, node: Expr) -> int:
        """Check an expression tree and return its depth."""
        if isinstance(node, Neg):
            return 1 + self.check_expr(node.operand)
        if isinstance(node, BinOp):
            depth = 1 + max(self.check_expr(node.left), self.check_expr(node.right))
            if node.op == "/" and _literal_value(node.right) == 0:
                self.report(
                    "warning", "division by the constant 0 always yields 0", node
                )
            return depth
        if isinstance(node, Ref) and node.name not in _SENSOR_SET:
            self.report("error", f"unknown identifier '{node.name}'", node)
        return 1

    def check_cond(self, node: Cond) -> None:
        if isinstance(node, Comparison):
            self.check_root_expr(node.left)
            self.check_root_expr(node.right)
        elif isinstance(node, BoolOp):
            self.check_cond(node.left)
            self.check_cond(node.right)
        elif isinstance(node, Not):
            self.check_cond(node.operand)
        # MotionCond needs no checks.

    def check_statement(self, node: Statement) -> set[str]:
        """Check a statement and return the slots (memory and actuators)
        it writes."""
        if isinstance(node, Assignment):
            target = node.target
            if target.startswith("mem."):
                pass
            elif target in READ_ONLY_NAMES:
                self.report("error", f"cannot assign to sensor '{target}'", node)
            elif target not in _ACTUATOR_SET:
                self.report("error", f"unknown identifier '{target}'", node)
            else:
                literal = _literal_value(node.value)
                if literal is not None and not 0.0 <= literal <= 1.0:
                    self.report(
                        "warning",
                        f"constant {literal:g} assigned to '{target}' "
                        "will be clamped to [0, 1]",
                        node,
                    )
            self.check_root_expr(node.value)
            slot = target.startswith("mem.") or target in _ACTUATOR_SET
            return {target} if slot else set()
        self.check_cond(node.condition)
        written = set()
        for stmt in (*node.then_body, *(node.else_body or ())):
            written |= self.check_statement(stmt)
        self.merges += len(written)
        return written


def validate(program: Program, canonical: str | None = None) -> list[Diagnostic]:
    """Return all diagnostics for a program, errors and warnings mixed,
    in source order. ``canonical`` is ``format_program(program)``, when
    the caller has already rendered it."""
    checker = _Checker()
    for stmt in program.statements:
        checker.check_statement(stmt)
    # Size limit is measured over the canonical rendering so it cannot be
    # gamed with comments or whitespace.
    if canonical is None:
        canonical = format_program(program)
    token_count = len(tokenize(canonical))
    if token_count > MAX_PROGRAM_TOKENS:
        checker.diagnostics.append(
            Diagnostic(
                "error",
                f"program has {token_count} tokens "
                f"(limit {MAX_PROGRAM_TOKENS})",
                1,
                1,
            )
        )
    if checker.merges > MAX_BRANCH_MERGES:
        checker.diagnostics.append(
            Diagnostic(
                "error",
                f"program's ifs write {checker.merges} targets, each counted "
                f"once per enclosing if (limit {MAX_BRANCH_MERGES})",
                1,
                1,
            )
        )
    checker.diagnostics.sort(key=lambda d: (d.line, d.column))
    return checker.diagnostics


def errors_only(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity == "error"]


def raise_errors(diagnostics: list[Diagnostic]) -> None:
    """Raise one ValidationError whose message is the first error and whose
    ``diagnostics`` are every error, in source order; warnings pass."""
    problems = [str(d) for d in errors_only(diagnostics)]
    if problems:
        raise ValidationError(problems[0], diagnostics=problems)


def validate_strict(program: Program) -> Program:
    raise_errors(validate(program))
    return program
