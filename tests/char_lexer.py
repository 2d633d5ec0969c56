"""The character-by-character lexer: the reference that the package's
one-pattern lexer (``lumenloop.dsl.tokens.tokenize``) is tested against.

It walks the source one character at a time with ``str`` predicates:
``isdecimal`` for digits, ``isalpha`` or ``_`` to start an identifier,
``isalnum`` or ``_`` to continue one. It must give the same tokens, and
the same ``LexError`` message, line and column, as the package's lexer.
"""

from __future__ import annotations

from lumenloop.dsl.tokens import KEYWORDS, Token
from lumenloop.errors import LexError

_COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")
_OPERATORS = ("+", "-", "*", "/", "=")
_PUNCTUATION = ("(", ")", ".")
# symbol -> token kind; tokenize tries two characters before one, so "<="
# is not split into "<", "="
_SYMBOLS = {
    **dict.fromkeys(_COMPARATORS, "comparator"),
    **dict.fromkeys(_OPERATORS, "operator"),
    **dict.fromkeys(_PUNCTUATION, "punct"),
}


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0  # index of the line's first character
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start, col = i, i - line_start + 1
        if ch.isdecimal():
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdecimal():
                i += 1
                while i < n and source[i].isdecimal():
                    i += 1
            tokens.append(Token("number", source[start:i], line, col))
            continue
        if _is_ident_start(ch):
            while i < n and _is_ident_char(source[i]):
                i += 1
            lexeme = source[start:i]
            kind = "keyword" if lexeme in KEYWORDS else "identifier"
            tokens.append(Token(kind, lexeme, line, col))
            continue
        symbol = source[i : i + 2] if source[i : i + 2] in _SYMBOLS else ch
        if symbol not in _SYMBOLS:
            raise LexError(f"unexpected character {ch!r}", line=line, column=col)
        tokens.append(Token(_SYMBOLS[symbol], symbol, line, col))
        i += len(symbol)
    return tokens
