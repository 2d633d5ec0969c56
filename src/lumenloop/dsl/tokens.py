"""Lexer for the rule language.

One compiled pattern reads one token per match, after skipping the blanks
and the comment before it. In Python's ``re``, ``\\d`` is exactly
``str.isdecimal`` and ``\\w`` exactly ``str.isalnum`` or ``_``, so a word
is an identifier's characters; it must also start with an ``isalpha``
character or ``_``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import LexError

KEYWORDS = frozenset({"if", "then", "else", "end", "and", "or", "not"})
# Two characters before one: the pattern tries its alternatives in order,
# so "<=" is not split into "<", "=".
COMPARATORS = ("<=", ">=", "==", "!=", "<", ">")

_TOKEN = re.compile(
    r"[ \t\r]*(?:#[^\n]*)?"  # blanks and a comment, skipped
    r"(?:(?P<newline>\n)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<word>\w+)"
    rf"|(?P<comparator>{'|'.join(COMPARATORS)})"
    r"|(?P<operator>[-+*/=])"
    r"|(?P<punct>[().]))?"
)


class Token(NamedTuple):
    kind: str  # keyword | identifier | number | comparator | operator | punct
    lexeme: str
    line: int
    column: int


_new_tuple = tuple.__new__


def is_identifier(text: str) -> bool:
    """Whether ``text`` lexes as exactly one identifier token."""
    try:
        tokens = tokenize(text)
    except LexError:
        return False
    return len(tokens) == 1 and tokens[0].kind == "identifier" and tokens[0].lexeme == text


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens.

    Comments run from ``#`` to end of line. Lines and columns are 1-based.
    Raises LexError at the first character that cannot start a token.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the line's first character
    # The pattern matches, maybe empty, wherever the last match ended, so
    # the matches tile the source and the first without a token ends it.
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            end = m.end()
            if end < len(source):
                raise LexError(
                    f"unexpected character {source[end]!r}",
                    line=line, column=end - line_start + 1,
                )
            break
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        start, end = m.span(kind)
        lexeme = source[start:end]
        if kind == "word":
            if lexeme in KEYWORDS:
                kind = "keyword"
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                kind = "identifier"
            else:  # a digit that is not decimal, such as '²', starts no token
                raise LexError(
                    f"unexpected character {lexeme[0]!r}",
                    line=line, column=start - line_start + 1,
                )
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        append(_new_tuple(Token, (kind, lexeme, line, start - line_start + 1)))
    return tokens
