"""The package's lexer against the character-by-character lexer in
char_lexer.py: the same tokens, or the same LexError, for any text.

Which characters are letters, digits or neither comes from the running
Python's Unicode database, so these tests check each Python they run on.
"""

import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import char_lexer
from lumenloop.dsl.tokens import Token, is_identifier, tokenize
from lumenloop.errors import LexError


def lexed(lex, text):
    """``(kind, lexeme, line, column)`` of every token, or the LexError's
    message, line and column."""
    try:
        return [(t.kind, t.lexeme, t.line, t.column) for t in lex(text)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


# ASCII syntax, blanks, comments, then letters of each kind, a decimal
# digit, digits and numerals that are not decimal, and a combining mark.
PIECES = [
    *"abxz_019 .()+-*/=<>!$@#\r\t\n",
    "if", "then", "else", "end", "and", "or", "not", "mem", "<=", "==", "1.5",
    "é", "ǅ", "ʰ", "一", "٣", "²", "½", "Ⅻ", "\u0301",
]


@settings(max_examples=2000)
@given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
def test_the_lexer_matches_the_character_lexer(text):
    assert lexed(tokenize, text) == lexed(char_lexer.tokenize, text)


# One code point of each Unicode general category.
BY_CATEGORY = {
    "Lu": "É", "Ll": "é", "Lt": "ǅ", "Lm": "ʰ", "Lo": "一",
    "Mn": "\u0301", "Mc": "\u0903", "Me": "\u20dd",
    "Nd": "٣", "Nl": "Ⅻ", "No": "²",
    "Pc": "‿", "Pd": "‐", "Ps": "「", "Pe": "」",
    "Pi": "«", "Pf": "»", "Po": "¡",
    "Sm": "±", "Sc": "$", "Sk": "^", "So": "©",
    "Zs": "\u00a0", "Zl": "\u2028", "Zp": "\u2029",
    "Cc": "\x0c", "Cf": "\u200b", "Cs": "\ud800", "Co": "\ue000", "Cn": "\u0378",
}


@pytest.mark.parametrize("category", BY_CATEGORY)
def test_each_unicode_category_lexes_as_the_character_lexer_does(category):
    ch = BY_CATEGORY[category]
    assert unicodedata.category(ch) == category
    # at a token's start, and inside an identifier
    for text in (ch, f"light = {ch}x", f"mem.x{ch}y = 1", f"1{ch}"):
        assert lexed(tokenize, text) == lexed(char_lexer.tokenize, text), text


def test_what_each_kind_of_character_does():
    # letters start and continue a name; a decimal digit is a number
    assert lexed(tokenize, "ǅʰ一é_x٣ = ٣.٣") == [
        ("identifier", "ǅʰ一é_x٣", 1, 1),
        ("operator", "=", 1, 9),
        ("number", "٣.٣", 1, 11),
    ]
    # a digit or numeral that is not decimal continues a name only
    assert lexed(tokenize, "x²½Ⅻ") == [("identifier", "x²½Ⅻ", 1, 1)]
    for ch in "²½Ⅻ":
        assert lexed(tokenize, f"a\n  {ch}x") == (
            "LexError", f"line 2, column 3: unexpected character {ch!r}", 2, 3
        )
    # a combining mark neither starts nor continues a name
    assert lexed(tokenize, "x\u0301") == (
        "LexError", "line 1, column 2: unexpected character '\u0301'", 1, 2
    )


def test_a_token_is_a_named_tuple_of_four_fields():
    (token,) = tokenize("\n  light")
    assert token == Token("identifier", "light", 2, 3)
    assert token._fields == ("kind", "lexeme", "line", "column")


@pytest.mark.parametrize("text, want", [
    ("x", True), ("_", True), ("é٣²", True), ("mem", True),
    ("if", False), ("", False), ("1a", False), ("²x", False), ("x y", False),
    (" x", False), ("x ", False), ("x#", False), ("x\n", False), ("a$", False),
])
def test_is_identifier(text, want):
    assert is_identifier(text) is want
