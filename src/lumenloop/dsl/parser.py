"""One-pass parser for the rule language.

Grammar (statements are juxtaposed; newlines are not significant):

    program    := { statement }
    statement  := assignment | if_stmt
    assignment := target "=" expr
    target     := identifier | "mem" "." identifier
    if_stmt    := "if" cond "then" { statement } [ "else" { statement } ] "end"
    cond       := or_cond
    or_cond    := and_cond { "or" and_cond }
    and_cond   := not_cond { "and" not_cond }
    not_cond   := [ "not" ] cond_atom
    cond_atom  := comparison | "(" cond ")" | "motion"
    comparison := expr comparator expr
    expr       := term { ("+" | "-") term }
    term       := factor { ("*" | "/") factor }
    factor     := number | "-" factor | "(" expr ")" | identifier
                | "mem" "." identifier

The or/and and the +-/*/ rules are not written out in code here: one
precedence-climbing loop (Pratt 1973, "Top down operator precedence")
builds both from nodes.COND_LEVELS and nodes.EXPR_LEVELS, the table the
formatter also reads. The parser reads the token list by index, and an
end-of-input token after the last one stands where a token is missing.

The parser is deliberately lenient about identifier names (any identifier
may appear as a target or operand); the validator reports unknown names
with positions. Structural nesting is capped well above the validator's
advertised limit purely to bound recursion: an ``if``, a ``-``, a
parenthesis and each operator held in a chain take one level.
"""

from __future__ import annotations

from ..errors import ParseError
from .nodes import (
    COND_LEVELS,
    EXPR_LEVELS,
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
    Pos,
    Program,
    Ref,
    Statement,
)
from .tokens import COMPARATORS, Token, tokenize

MAX_NESTING = 100

# Tokens that can extend an expression after a complete operand. Used to
# decide whether a bare ``motion`` is a condition or the start of a
# comparison such as ``motion + 1 > 0``.
_EXPR_CONTINUATIONS = frozenset({"+", "-", "*", "/", *COMPARATORS})
_COMPARATORS = frozenset(COMPARATORS)
# operator -> its level, loosest first
_COND_LEVEL = {op: level for level, ops in enumerate(COND_LEVELS) for op in ops}
_EXPR_LEVEL = {op: level for level, ops in enumerate(EXPR_LEVELS) for op in ops}

_END = "end of input"  # the kind of the token after the last one
_INF = float("inf")
# tuple.__new__ skips the NamedTuple's Python-level __new__
_new_tuple = tuple.__new__


def _pos(tok: Token) -> Pos:
    return _new_tuple(Pos, (tok.line, tok.column))


class _Parser:
    __slots__ = ("tokens", "i", "chain_too_deep")

    def __init__(self, tokens: list[Token]):
        """``tokens`` ends with the end-of-input token."""
        self.tokens = tokens
        self.i = 0
        # Set by a chained operator found too deep; read by the "(" fallback.
        self.chain_too_deep = False

    def fail(self, message: str) -> ParseError:
        tok = self.tokens[self.i]
        found = _END if tok.kind == _END else repr(tok.lexeme)
        return ParseError(f"{message}, found {found}", line=tok.line, column=tok.column)

    def too_deep(self) -> ParseError:
        tok = self.tokens[self.i]
        return ParseError("nesting too deep", line=tok.line, column=tok.column)

    def expect(self, lexeme: str) -> None:
        # A keyword's or a symbol's lexeme fixes its kind.
        if self.tokens[self.i].lexeme != lexeme:
            raise self.fail(f"expected {lexeme!r}")
        self.i += 1

    def mem_name(self, ident: Token) -> str | None:
        """The name in ``mem.<name>`` after the identifier ``ident`` was
        consumed, or None when no '.' follows it."""
        if self.tokens[self.i].lexeme != ".":
            return None
        if ident.lexeme != "mem":
            raise self.fail("'.' may only follow 'mem'")
        self.i += 1
        name = self.tokens[self.i]
        if name.kind != "identifier":
            raise self.fail("expected a memory variable name after 'mem.'")
        self.i += 1
        return name.lexeme

    # -- grammar: each rule takes the nesting depth it starts at ------------

    def program(self) -> Program:
        statements: list[Statement] = []
        end = len(self.tokens) - 1
        while self.i < end:
            statements.append(self.statement(0))
        return Program(tuple(statements))

    def statement(self, depth: int) -> Statement:
        tok = self.tokens[self.i]
        if tok.lexeme == "if":
            return self.if_statement(depth)
        if tok.kind == "identifier":
            return self.assignment(depth)
        raise self.fail("expected a statement")

    def assignment(self, depth: int) -> Assignment:
        tok = self.tokens[self.i]
        self.i += 1
        name = self.mem_name(tok)
        target = tok.lexeme if name is None else f"mem.{name}"
        self.expect("=")
        return Assignment(target, self.expr(depth), pos=_pos(tok))

    def if_statement(self, depth: int) -> If:
        tok = self.tokens[self.i]
        depth += 1
        if depth > MAX_NESTING:
            raise self.too_deep()
        self.i += 1
        condition = self.cond(depth)
        self.expect("then")
        then_body = self.block(depth)
        else_body: tuple[Statement, ...] | None = None
        if self.tokens[self.i].lexeme == "else":
            self.i += 1
            else_body = self.block(depth) or None
        self.expect("end")
        return If(condition, then_body, else_body, pos=_pos(tok))

    def block(self, depth: int) -> tuple[Statement, ...]:
        body: list[Statement] = []
        while True:
            tok = self.tokens[self.i]
            if tok.kind == _END:
                raise self.fail("expected 'end'")
            if tok.lexeme == "else" or tok.lexeme == "end":
                return tuple(body)
            body.append(self.statement(depth))

    def binary(self, depth: int, min_level: int, levels: dict, node_type, operand):
        """Operands joined by the operators of ``levels`` at ``min_level``
        or tighter, each level left-associative (precedence climbing).

        Each operator holds a nesting level while its right operand parses,
        until an operator of a looser level ends its chain, so the depth
        follows the AST and keeps the recursive formatter and checker
        stack-safe later."""
        left = operand(depth)
        tokens = self.tokens
        held = 0  # operators held, all of level ``at``
        at = None
        while True:
            tok = tokens[self.i]
            level = levels.get(tok.lexeme)
            if level is None or level < min_level:
                return left
            # Only a looser level can follow: the right operands took the
            # tighter ones.
            if level != at:
                at = level
                held = 0
            held += 1
            self.i += 1
            if depth + held > MAX_NESTING:
                self.chain_too_deep = True
                raise self.too_deep()
            right = self.binary(depth + held, level + 1, levels, node_type, operand)
            left = node_type(tok.lexeme, left, right, pos=_pos(tok))

    def cond(self, depth: int) -> Cond:
        return self.binary(depth, 0, _COND_LEVEL, BoolOp, self.not_cond)

    def not_cond(self, depth: int) -> Cond:
        tok = self.tokens[self.i]
        if tok.lexeme == "not":
            self.i += 1
            return Not(self.cond_atom(depth), pos=_pos(tok))
        return self.cond_atom(depth)

    def cond_atom(self, depth: int) -> Cond:
        tok = self.tokens[self.i]
        if tok.kind == _END:
            raise self.fail("expected a condition")
        if tok.lexeme == "motion":
            if self.tokens[self.i + 1].lexeme not in _EXPR_CONTINUATIONS:
                self.i += 1
                return MotionCond(pos=_pos(tok))
        elif tok.lexeme == "(":
            return self.paren_cond_atom(depth)
        return self.comparison(depth)

    def paren_cond_atom(self, depth: int) -> Cond:
        # "(" is ambiguous: it may open a parenthesized condition or the
        # left expression of a comparison. Try the comparison first and
        # fall back; keep whichever error made it further.
        start = self.i
        self.chain_too_deep = False
        try:
            return self.comparison(depth)
        except ParseError as cmp_err:
            self.i = start
            # A chained operator the comparison found too deep still
            # holds its level here. That decides which error a few inputs
            # at the limit report, and the reference parser in the tests
            # (descent_parser.py) holds it too.
            depth += 1
            if self.chain_too_deep:
                depth += 1
            if depth > MAX_NESTING:
                raise self.too_deep() from None
            self.i += 1
            try:
                inner = self.cond(depth)
                self.expect(")")
                return inner
            except ParseError as paren_err:
                if (cmp_err.line, cmp_err.column) > (paren_err.line, paren_err.column):
                    raise cmp_err from None
                raise paren_err from None

    def comparison(self, depth: int) -> Comparison:
        left = self.expr(depth)
        tok = self.tokens[self.i]
        if tok.lexeme not in _COMPARATORS:
            raise self.fail("expected a comparator")
        self.i += 1
        right = self.expr(depth)
        return Comparison(tok.lexeme, left, right, pos=_pos(tok))

    def expr(self, depth: int) -> Expr:
        return self.binary(depth, 0, _EXPR_LEVEL, BinOp, self.factor)

    def factor(self, depth: int) -> Expr:
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind == "number":
            value = float(tok.lexeme)
            if value == _INF:
                raise ParseError("number too large", line=tok.line, column=tok.column)
            self.i += 1
            return Number(value, pos=_pos(tok))
        if kind == "identifier":
            self.i += 1
            name = self.mem_name(tok)
            if name is not None:
                return MemRef(name, pos=_pos(tok))
            return Ref(tok.lexeme, pos=_pos(tok))
        lexeme = tok.lexeme
        if lexeme == "-":
            if depth + 1 > MAX_NESTING:
                raise self.too_deep()
            self.i += 1
            return Neg(self.factor(depth + 1), pos=_pos(tok))
        if lexeme == "(":
            if depth + 1 > MAX_NESTING:
                raise self.too_deep()
            self.i += 1
            inner = self.expr(depth + 1)
            self.expect(")")
            return inner
        raise self.fail("expected an expression")


def parse_source(source: str) -> Program:
    """Tokenize and parse in one step."""
    tokens = tokenize(source)
    if tokens:
        last = tokens[-1]
        end = Token(_END, "", last.line, last.column + len(last.lexeme))
    else:  # an empty program parses without error
        end = Token(_END, "", 1, 1)
    tokens.append(end)
    return _Parser(tokens).program()
