"""A corpus of valid controller programs exercising the grammar corners.

Used for round-trip (parse -> format -> parse structural identity) and
validator smoke tests. All five built-in programs are included. Below it,
sources that do not parse, for the parser's error tests.
"""

from lumenloop.dsl.baselines import BUILTIN_PROGRAM_SOURCES

CRAFTED = [
    # single assignment, integer literal
    "light = 1",
    # chained arithmetic, left associative
    "light = ambient + signal + 0.25 - 0.5",
    # precedence: term binds tighter
    "light = ambient + signal * 0.5",
    # parenthesized subexpression
    "light = (ambient + signal) * 0.5",
    # unary minus stacking
    "mem.x = --0.5",
    # division and multiplication chain
    "broadcast = signal / 2 / 2 * 4",
    # bare motion condition
    "if motion then light = 1 end",
    # motion used as a value in a comparison
    "if motion + 0 > 0.5 then light = 1 end",
    # empty then branch
    "if motion then end",
    # empty then with else
    "if motion then else light = 0.5 end",
    # not over a parenthesized boolean pair
    "if not (motion or signal > 0.5) then light = 0 end",
    # and/or precedence: and binds tighter
    "if motion or signal > 0.5 and ambient < 0.2 then light = 1 end",
    # explicit parens overriding boolean precedence
    "if (motion or signal > 0.5) and ambient < 0.2 then light = 1 end",
    # comparison both directions plus equality forms
    "if 0.5 <= signal then light = 0.6 end if signal != 1 then light = 0.7 end",
    # nested ifs three deep
    """
    if ambient < 0.1 then
      if motion then
        if signal > 0.9 then
          light = 1
        else
          light = 0.8
        end
      end
    else
      light = 0
    end
    """,
    # memory recurrence
    "mem.acc = mem.acc * 0.9 + signal * 0.1 broadcast = mem.acc",
    # every sensor read once
    "mem.s = ambient + signal + light + ticks_since_motion + tick if motion then mem.s = mem.s + 1 end",
    # listen toggling via comparison chain
    "if light >= 0.5 then listen = 0 else listen = 1 end",
    # comment handling and blank lines
    "# a comment line\nlight = 0.5 # trailing comment\n\nbroadcast = 0.25\n",
    # deep arithmetic nesting with negation
    "light = -(-(ambient - (signal - 0.125)) / 4)",
    # equality against computed value
    "if ticks_since_motion == 0 then broadcast = 1 else broadcast = 0 end",
    # multi-statement body mixing mem and actuators
    """
    if motion and not mem.seen > 0.5 then
      mem.seen = 1
      broadcast = 1
      light = 1
    else
      mem.seen = mem.seen * 0.5
      broadcast = 0
    end
    """,
]

CORPUS = CRAFTED + list(BUILTIN_PROGRAM_SOURCES.values())

# Sources that do not parse, each with a fragment of its ParseError.
PARSE_ERRORS = [
    ("light =", "expected"),
    ("if motion light = 1 end", "then"),
    ("if motion then light = 1", "end"),
    ("mem. = 1", "memory variable"),
    ("foo.bar = 1", "mem"),
    ("1.5 = light", "statement"),
    ("light = )", "expected"),
    ("light = (1 + 2", ")"),
    ("if then light = 1 end", "expected"),
    ("if", "line 1, column 3: expected a condition, found end of input"),
    # "(" opens a comparison or a condition; the error that got further wins
    ("if (a + 1) < then end", "line 1, column 14: expected an expression, found 'then'"),
    ("if (a < 1 and) then end", "line 1, column 14: expected an expression, found ')'"),
    ("if ((a) < ) then end", "line 1, column 11: expected an expression, found ')'"),
    # a tie goes to the condition's error
    ("if (1 then end", "line 1, column 7: expected a comparator, found 'then'"),
]
