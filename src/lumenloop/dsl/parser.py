"""Recursive-descent parser for the rule language.

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

The parser is deliberately lenient about identifier names (any identifier
may appear as a target or operand); the validator reports unknown names
with positions. Structural nesting is capped well above the validator's
advertised limit purely to bound recursion.
"""

from __future__ import annotations

from ..errors import ParseError
from .nodes import (
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
from .tokens import Token, tokenize

MAX_NESTING = 100

# Tokens that can extend an expression after a complete operand. Used to
# decide whether a bare ``motion`` is a condition or the start of a
# comparison such as ``motion + 1 > 0``.
_EXPR_CONTINUATIONS = frozenset({"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="})


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def error_pos(self) -> tuple[int, int]:
        tok = self.peek()
        if tok is not None:
            return tok.line, tok.column
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.column + len(last.lexeme)
        return 1, 1

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        line, column = self.error_pos()
        tok = self.peek()
        found = "end of input" if tok is None else repr(tok.lexeme)
        return ParseError(
            f"{message}, found {found}", line=line, column=column, expected=expected
        )

    def expect(self, kind: str, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or tok.lexeme != lexeme:
            raise self.fail(f"expected {lexeme!r}", expected=(lexeme,))
        return self.advance()

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            line, column = self.error_pos()
            raise ParseError("nesting too deep", line=line, column=column)

    def _exit(self) -> None:
        self.depth -= 1

    def _mem_name(self, ident: Token) -> str | None:
        """The name in ``mem.<name>`` after the identifier ``ident`` was
        consumed, or None when no '.' follows it."""
        nxt = self.peek()
        if nxt is None or nxt.kind != "punct" or nxt.lexeme != ".":
            return None
        if ident.lexeme != "mem":
            raise self.fail("'.' may only follow 'mem'")
        self.advance()
        name = self.peek()
        if name is None or name.kind != "identifier":
            raise self.fail("expected a memory variable name after 'mem.'")
        self.advance()
        return name.lexeme

    # -- grammar -----------------------------------------------------------

    def parse_program(self) -> Program:
        statements: list[Statement] = []
        while not self.at_end():
            statements.append(self.parse_statement())
        return Program(tuple(statements))

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok is None:
            raise self.fail("expected a statement")
        if tok.kind == "keyword" and tok.lexeme == "if":
            return self.parse_if()
        if tok.kind == "identifier":
            return self.parse_assignment()
        raise self.fail("expected a statement", expected=("if", "identifier"))

    def parse_assignment(self) -> Assignment:
        tok = self.advance()
        pos = Pos(tok.line, tok.column)
        name = self._mem_name(tok)
        target = tok.lexeme if name is None else f"mem.{name}"
        self.expect("operator", "=")
        value = self.parse_expr()
        return Assignment(target, value, pos=pos)

    def parse_if(self) -> If:
        self._enter()
        try:
            tok = self.expect("keyword", "if")
            pos = Pos(tok.line, tok.column)
            condition = self.parse_cond()
            self.expect("keyword", "then")
            then_body = self.parse_block()
            else_body: tuple[Statement, ...] | None = None
            nxt = self.peek()
            if nxt is not None and nxt.kind == "keyword" and nxt.lexeme == "else":
                self.advance()
                else_body = self.parse_block()
                if not else_body:
                    else_body = None
            self.expect("keyword", "end")
            return If(condition, then_body, else_body, pos=pos)
        finally:
            self._exit()

    def parse_block(self) -> tuple[Statement, ...]:
        body: list[Statement] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self.fail("expected 'end'", expected=("end",))
            if tok.kind == "keyword" and tok.lexeme in ("else", "end"):
                return tuple(body)
            body.append(self.parse_statement())

    def parse_cond(self) -> Cond:
        return self._parse_bool_chain("or", self.parse_and_cond)

    def parse_and_cond(self) -> Cond:
        return self._parse_bool_chain("and", self.parse_not_cond)

    def _parse_bool_chain(self, op: str, parse_operand) -> Cond:
        # Each chained operator holds a nesting slot while its right
        # operand parses, so self.depth tracks true AST depth and keeps
        # the recursive formatter/checker stack-safe later.
        left = parse_operand()
        entered = 0
        try:
            while True:
                tok = self.peek()
                if tok is None or tok.kind != "keyword" or tok.lexeme != op:
                    return left
                pos = Pos(tok.line, tok.column)
                self.advance()
                self._enter()
                entered += 1
                right = parse_operand()
                left = BoolOp(op, left, right, pos=pos)
        finally:
            for _ in range(entered):
                self._exit()

    def parse_not_cond(self) -> Cond:
        tok = self.peek()
        if tok is not None and tok.kind == "keyword" and tok.lexeme == "not":
            pos = Pos(tok.line, tok.column)
            self.advance()
            operand = self.parse_cond_atom()
            return Not(operand, pos=pos)
        return self.parse_cond_atom()

    def parse_cond_atom(self) -> Cond:
        tok = self.peek()
        if tok is None:
            raise self.fail("expected a condition")
        if tok.kind == "identifier" and tok.lexeme == "motion":
            after = self.peek(1)
            if after is None or after.lexeme not in _EXPR_CONTINUATIONS:
                self.advance()
                return MotionCond(pos=Pos(tok.line, tok.column))
        if tok.kind == "punct" and tok.lexeme == "(":
            return self.parse_paren_cond_atom()
        return self.parse_comparison()

    def parse_paren_cond_atom(self) -> Cond:
        # "(" is ambiguous: it may open a parenthesized condition or the
        # left expression of a comparison. Try the comparison first and
        # fall back; keep whichever error made it further.
        start = self.i
        try:
            return self.parse_comparison()
        except ParseError as cmp_err:
            cmp_progress = self.i
            self.i = start
            self._enter()
            try:
                self.expect("punct", "(")
                inner = self.parse_cond()
                self.expect("punct", ")")
                return inner
            except ParseError as paren_err:
                if cmp_progress > self.i:
                    raise cmp_err from None
                raise paren_err from None
            finally:
                self._exit()

    def parse_comparison(self) -> Comparison:
        left = self.parse_expr()
        tok = self.peek()
        if tok is None or tok.kind != "comparator":
            raise self.fail("expected a comparator")
        self.advance()
        right = self.parse_expr()
        return Comparison(tok.lexeme, left, right, pos=Pos(tok.line, tok.column))

    def parse_expr(self) -> Expr:
        return self._parse_binop_chain(("+", "-"), self.parse_term)

    def parse_term(self) -> Expr:
        return self._parse_binop_chain(("*", "/"), self.parse_factor)

    def _parse_binop_chain(self, ops: tuple[str, ...], parse_operand) -> Expr:
        left = parse_operand()
        entered = 0
        try:
            while True:
                tok = self.peek()
                if tok is None or tok.kind != "operator" or tok.lexeme not in ops:
                    return left
                pos = Pos(tok.line, tok.column)
                self.advance()
                self._enter()
                entered += 1
                right = parse_operand()
                left = BinOp(tok.lexeme, left, right, pos=pos)
        finally:
            for _ in range(entered):
                self._exit()

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise self.fail("expected an expression")
        pos = Pos(tok.line, tok.column)
        if tok.kind == "number":
            value = float(tok.lexeme)
            if value == float("inf"):
                raise ParseError("number too large", line=tok.line, column=tok.column)
            self.advance()
            return Number(value, pos=pos)
        if tok.kind == "operator" and tok.lexeme == "-":
            self._enter()
            try:
                self.advance()
                return Neg(self.parse_factor(), pos=pos)
            finally:
                self._exit()
        if tok.kind == "punct" and tok.lexeme == "(":
            self._enter()
            try:
                self.advance()
                inner = self.parse_expr()
                self.expect("punct", ")")
                return inner
            finally:
                self._exit()
        if tok.kind == "identifier":
            self.advance()
            name = self._mem_name(tok)
            if name is not None:
                return MemRef(name, pos=pos)
            return Ref(tok.lexeme, pos=pos)
        raise self.fail("expected an expression")


def parse(tokens: list[Token]) -> Program:
    return _Parser(tokens).parse_program()


def parse_source(source: str) -> Program:
    """Tokenize and parse in one step."""
    return parse(tokenize(source))
