"""Lexer for the rule language."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError

KEYWORDS = frozenset({"if", "then", "else", "end", "and", "or", "not"})

# Longest match first so "<=" is not split into "<", "=".
_COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")
_OPERATORS = ("+", "-", "*", "/", "=")
_PUNCTUATION = ("(", ")", ".")


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | identifier | number | comparator | operator | punct
    lexeme: str
    line: int
    column: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens.

    Comments run from ``#`` to end of line. Lines and columns are 1-based.
    Raises LexError at the first character that cannot start a token.
    """
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():
            start = i
            start_col = col
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdecimal():
                i += 1
                while i < n and source[i].isdecimal():
                    i += 1
            lexeme = source[start:i]
            col += len(lexeme)
            tokens.append(Token("number", lexeme, line, start_col))
            continue
        if _is_ident_start(ch):
            start = i
            start_col = col
            while i < n and _is_ident_char(source[i]):
                i += 1
            lexeme = source[start:i]
            col += len(lexeme)
            kind = "keyword" if lexeme in KEYWORDS else "identifier"
            tokens.append(Token(kind, lexeme, line, start_col))
            continue
        two = source[i : i + 2]
        if two in _COMPARATORS:
            tokens.append(Token("comparator", two, line, col))
            i += 2
            col += 2
            continue
        if ch in ("<", ">"):
            tokens.append(Token("comparator", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _OPERATORS:
            tokens.append(Token("operator", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line=line, column=col)
    return tokens
