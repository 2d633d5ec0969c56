"""Canonical pretty-printer.

format_program is the inverse of parse up to positions: parsing the output
of format_program yields a structurally equal AST. Parentheses are emitted
only where precedence or associativity requires them.
"""

from __future__ import annotations

from .nodes import (
    BINARY_LEVEL,
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

_INDENT = "  "

# Binding strength of non-binary nodes: a prefix node ("-", "not") binds
# tighter than every binary level, an atom tighter still.
_PREFIX = max(BINARY_LEVEL.values()) + 1
_ATOM = _PREFIX + 1


def _format_number(value: float) -> str:
    s = repr(value)
    if "e" in s or "E" in s:
        # repr switches to scientific notation outside ~[1e-4, 1e16); the
        # language has no exponent literals, so expand to fixed point with
        # however many digits it takes to parse back to the same float
        # (tiny magnitudes need far more than 17 fractional digits).
        for precision in range(17, 1080, 8):
            s = f"{value:.{precision}f}"
            if float(s) == value:
                break
        s = s.rstrip("0").rstrip(".")
        if s in ("", "-"):
            s = s + "0"
    return s


def _binding(node: Expr | Cond) -> int:
    if isinstance(node, (BinOp, BoolOp)):
        return BINARY_LEVEL[node.op]
    if isinstance(node, (Neg, Not)):
        return _PREFIX
    return _ATOM


def _operand(node, fmt, binding: int) -> str:
    """Format a child in a slot that needs at least ``binding``; a child
    that binds looser is parenthesized. This is the one precedence rule."""
    text = fmt(node)
    return f"({text})" if _binding(node) < binding else text


def _format_binary(node: BinOp | BoolOp, fmt) -> str:
    level = BINARY_LEVEL[node.op]
    # A same-level right child needs parens to survive left-associative
    # reparsing: a - (b - c).
    left = _operand(node.left, fmt, level)
    right = _operand(node.right, fmt, level + 1)
    return f"{left} {node.op} {right}"


def format_expr(node: Expr) -> str:
    if isinstance(node, Number):
        return _format_number(node.value)
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, MemRef):
        return f"mem.{node.name}"
    if isinstance(node, Neg):
        # "-" takes any factor, so only a binary operand needs parens.
        return "-" + _operand(node.operand, format_expr, _PREFIX)
    if isinstance(node, BinOp):
        return _format_binary(node, format_expr)
    raise TypeError(f"not an expression node: {node!r}")


def format_cond(node: Cond) -> str:
    if isinstance(node, MotionCond):
        return "motion"
    if isinstance(node, Comparison):
        return f"{format_expr(node.left)} {node.op} {format_expr(node.right)}"
    if isinstance(node, Not):
        # "not" takes only an atom: not (not x).
        return "not " + _operand(node.operand, format_cond, _ATOM)
    if isinstance(node, BoolOp):
        return _format_binary(node, format_cond)
    raise TypeError(f"not a condition node: {node!r}")


def _format_statement(node: Statement, depth: int, out: list[str]) -> None:
    pad = _INDENT * depth
    if isinstance(node, Assignment):
        out.append(f"{pad}{node.target} = {format_expr(node.value)}")
        return
    if isinstance(node, If):
        out.append(f"{pad}if {format_cond(node.condition)} then")
        for stmt in node.then_body:
            _format_statement(stmt, depth + 1, out)
        if node.else_body:
            out.append(f"{pad}else")
            for stmt in node.else_body:
                _format_statement(stmt, depth + 1, out)
        out.append(f"{pad}end")
        return
    raise TypeError(f"not a statement node: {node!r}")


def format_program(program: Program) -> str:
    """Render a program as canonical source text (no trailing newline)."""
    out: list[str] = []
    for stmt in program.statements:
        _format_statement(stmt, 0, out)
    return "\n".join(out)
