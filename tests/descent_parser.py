"""The recursive-descent parser: the reference that the package's one-pass
parser (``lumenloop.dsl.parser.parse_source``) is tested against.

It has one method per grammar rule, builds the or/and and the +-/*/
levels as one chain per level from nodes.COND_LEVELS and
nodes.EXPR_LEVELS, and reads tokens through ``peek()``, which returns
None past the end. The package's parser must give an equal AST with
every node's ``pos`` equal, or the same ``ParseError`` message, line and
column.
"""

from __future__ import annotations

from lumenloop.dsl.nodes import (
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
from lumenloop.dsl.parser import MAX_NESTING
from lumenloop.dsl.tokens import Token, tokenize
from lumenloop.errors import ParseError

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
        last = self.tokens[-1]  # an empty program parses without error
        return last.line, last.column + len(last.lexeme)

    def fail(self, message: str) -> ParseError:
        line, column = self.error_pos()
        tok = self.peek()
        found = "end of input" if tok is None else repr(tok.lexeme)
        return ParseError(f"{message}, found {found}", line=line, column=column)

    def expect(self, kind: str, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or tok.lexeme != lexeme:
            raise self.fail(f"expected {lexeme!r}")
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
        tok = self.peek()  # never past the end: its callers check that first
        if tok.kind == "keyword" and tok.lexeme == "if":
            return self.parse_if()
        if tok.kind == "identifier":
            return self.parse_assignment()
        raise self.fail("expected a statement")

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
                raise self.fail("expected 'end'")
            if tok.kind == "keyword" and tok.lexeme in ("else", "end"):
                return tuple(body)
            body.append(self.parse_statement())

    def parse_cond(self) -> Cond:
        return self._parse_chain(COND_LEVELS, 0, BoolOp, self.parse_not_cond)

    def _parse_chain(self, levels, level: int, node_type, parse_operand):
        """One left-associative chain of ``levels[level]`` operators whose
        operands are chains of the tighter levels (or, past the last level,
        ``parse_operand``)."""
        if level == len(levels):
            return parse_operand()
        ops = levels[level]
        left = self._parse_chain(levels, level + 1, node_type, parse_operand)
        # Each chained operator holds a nesting slot while its right
        # operand parses, so self.depth tracks true AST depth and keeps
        # the recursive formatter/checker stack-safe later.
        entered = 0
        try:
            while True:
                tok = self.peek()
                if tok is None or tok.lexeme not in ops:
                    return left
                pos = Pos(tok.line, tok.column)
                self.advance()
                self._enter()
                entered += 1
                right = self._parse_chain(levels, level + 1, node_type, parse_operand)
                left = node_type(tok.lexeme, left, right, pos=pos)
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
            self.i = start
            self._enter()
            try:
                self.expect("punct", "(")
                inner = self.parse_cond()
                self.expect("punct", ")")
                return inner
            except ParseError as paren_err:
                if (cmp_err.line, cmp_err.column) > (paren_err.line, paren_err.column):
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
        return self._parse_chain(EXPR_LEVELS, 0, BinOp, self.parse_factor)

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


def parse_source(source: str) -> Program:
    """Tokenize and parse in one step."""
    return _Parser(tokenize(source)).parse_program()
