"""Static checks over parsed programs.

validate() returns diagnostics instead of raising so callers (the repair
loop, the CLI) can report every problem at once. validate_strict() and
the repair loop's extraction both raise through raise_errors(): one
ValidationError that carries every diagnostic. Every diagnostic is an
error; clamping an actuator to [0, 1] and dividing by zero (which yields
0) are rules of the language, not mistakes to report.

The token limit is defined on the canonical text (format_program), so
comments and whitespace cannot game it. validate() renders and lexes that
text only when the count could matter. A node writes at most four tokens
of its own (``mem . x =``, ``if ... then ... else ... end``) and one pair
of parentheses, so when every name and number the checker met has a known
text, the canonical text lexes and has at most six tokens per node. The
text is lexed when six per node could pass the limit, or when the checker
met a name it reported (an unknown identifier, or a memory name that is
not one identifier) or a ``Number`` whose value is not a ``float``; and
never when an operator is unknown, for then there is no canonical text.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError, ValidationError
from .formatter import format_program
from .nodes import (
    ACTUATOR_NAMES,
    COND_LEVELS,
    EXPR_LEVELS,
    READ_ONLY_NAMES,
    SENSOR_NAMES,
    Assignment,
    BinOp,
    BoolOp,
    Comparison,
    Cond,
    Expr,
    If,
    MemRef,
    MotionCond,
    Neg,
    Not,
    Number,
    Program,
    Ref,
    Statement,
)
from .tokens import COMPARATORS, is_identifier, tokenize

MAX_EXPR_DEPTH = 64
MAX_PROGRAM_TOKENS = 10_000
# Most tokens one node adds to the canonical text: four of its own and a
# pair of parentheses around it.
TOKENS_PER_NODE = 6
# An ``if`` compiles to at most one merge per distinct slot written beneath
# it, so this bounds the merges the compiler can emit over all ifs.
MAX_BRANCH_MERGES = 10_000

_SENSOR_SET = frozenset(SENSOR_NAMES)
_ACTUATOR_SET = frozenset(ACTUATOR_NAMES)
_COMPARISON_OPS = frozenset(COMPARATORS)
_ARITHMETIC_OPS = frozenset(op for ops in EXPR_LEVELS for op in ops)
_BOOLEAN_OPS = frozenset(op for ops in COND_LEVELS for op in ops)


@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class _Checker:
    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.merges = 0  # distinct slots written beneath each if, summed
        self.nodes = 0  # nodes checked, statements and their parts
        self.unknown_op = False  # then the program has no canonical text
        # A reported name or a non-float number: its text has no bound.
        self.unbounded = False

    def report(self, message: str, node) -> None:
        self.diagnostics.append(Diagnostic(message, node.pos.line, node.pos.column))

    def report_name(self, message: str, node) -> None:
        self.report(message, node)
        self.unbounded = True

    def check_op(self, node, known: frozenset[str]) -> None:
        # The parser only builds operators of the grammar; format_program
        # cannot render any other, and the compiler cannot lower it.
        if node.op not in known:
            self.report(f"unknown operator {node.op!r}", node)
            self.unknown_op = True

    def check_root_expr(self, node: Expr) -> None:
        if self.check_expr(node) > MAX_EXPR_DEPTH:
            self.report(f"expression nesting exceeds {MAX_EXPR_DEPTH} levels", node)

    def check_expr(self, node: Expr) -> int:
        """Check an expression tree and return its depth."""
        self.nodes += 1
        if isinstance(node, BinOp):
            self.check_op(node, _ARITHMETIC_OPS)
            return 1 + max(self.check_expr(node.left), self.check_expr(node.right))
        if isinstance(node, Number):
            # The formatter writes a value's repr, which only a float's
            # bounds: a subclass may override it.
            if type(node.value) is not float:
                self.unbounded = True
        elif isinstance(node, Ref):
            if node.name not in _SENSOR_SET:
                self.report_name(f"unknown identifier '{node.name}'", node)
        elif isinstance(node, MemRef):
            self.check_mem_name(node.name, node)
        elif isinstance(node, Neg):
            return 1 + self.check_expr(node.operand)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return 1

    def check_mem_name(self, name: str, node) -> None:
        # The parser only builds names the lexer reads as one identifier,
        # so any other name has no source text that parses back to it.
        if not is_identifier(name):
            self.report_name(f"memory name '{name}' is not an identifier", node)

    def check_cond(self, node: Cond) -> None:
        self.nodes += 1
        if isinstance(node, Comparison):
            self.check_op(node, _COMPARISON_OPS)
            self.check_root_expr(node.left)
            self.check_root_expr(node.right)
        elif isinstance(node, BoolOp):
            self.check_op(node, _BOOLEAN_OPS)
            self.check_cond(node.left)
            self.check_cond(node.right)
        elif isinstance(node, Not):
            self.check_cond(node.operand)
        elif not isinstance(node, MotionCond):  # which needs no checks
            raise TypeError(f"not a condition node: {node!r}")

    def check_statement(self, node: Statement) -> set[str]:
        """Check a statement and return the slots (memory and actuators)
        it writes."""
        self.nodes += 1
        if isinstance(node, Assignment):
            target = node.target
            if target.startswith("mem."):
                self.check_mem_name(target[len("mem."):], node)
            elif target in READ_ONLY_NAMES:
                self.report(f"cannot assign to sensor '{target}'", node)
            elif target not in _ACTUATOR_SET:
                self.report_name(f"unknown identifier '{target}'", node)
            self.check_root_expr(node.value)
            slot = target.startswith("mem.") or target in _ACTUATOR_SET
            return {target} if slot else set()
        if not isinstance(node, If):
            raise TypeError(f"not a statement node: {node!r}")
        self.check_cond(node.condition)
        written = set()
        for stmt in (*node.then_body, *(node.else_body or ())):
            written |= self.check_statement(stmt)
        self.merges += len(written)
        return written


def validate(program: Program, canonical: str | None = None) -> list[Diagnostic]:
    """Return all diagnostics for a program, in source order. ``canonical``
    is ``format_program(program)``, when the caller has already rendered it."""
    checker = _Checker()
    for stmt in program.statements:
        checker.check_statement(stmt)
    # Below the bound the canonical text lexes within the limit (see the
    # module docstring), so rendering and lexing it could report nothing.
    token_count = 0
    lex = checker.unbounded or TOKENS_PER_NODE * checker.nodes > MAX_PROGRAM_TOKENS
    if lex and not checker.unknown_op:
        if canonical is None:
            canonical = format_program(program)
        try:
            token_count = len(tokenize(canonical))
        except LexError as exc:
            # Only a hand-built AST gets here: a name, or the repr of a
            # number that is not a float, holds a character that no token
            # can start with.
            checker.diagnostics.append(
                Diagnostic(f"canonical text does not lex: {exc}", 1, 1)
            )
    if token_count > MAX_PROGRAM_TOKENS:
        message = f"program has {token_count} tokens (limit {MAX_PROGRAM_TOKENS})"
        checker.diagnostics.append(Diagnostic(message, 1, 1))
    if checker.merges > MAX_BRANCH_MERGES:
        message = (
            f"program's ifs write {checker.merges} targets, each counted "
            f"once per enclosing if (limit {MAX_BRANCH_MERGES})"
        )
        checker.diagnostics.append(Diagnostic(message, 1, 1))
    checker.diagnostics.sort(key=lambda d: (d.line, d.column))
    return checker.diagnostics


def raise_errors(diagnostics: list[Diagnostic]) -> None:
    """Raise one ValidationError whose message is the first diagnostic and
    whose ``diagnostics`` are every one, in source order."""
    problems = [str(d) for d in diagnostics]
    if problems:
        raise ValidationError(problems[0], diagnostics=problems)


def validate_strict(program: Program) -> Program:
    raise_errors(validate(program))
    return program
