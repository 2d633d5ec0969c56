"""Lexer, parser, formatter, and validator behavior."""

import pytest

from dslcases import CORPUS, PARSE_ERRORS
from lumenloop.dsl.baselines import BUILTIN_PROGRAM_SOURCES, builtin_program
from lumenloop.dsl.compiler import CompiledProgram
from lumenloop.dsl.formatter import format_expr, format_program
from lumenloop.dsl.nodes import (
    Assignment,
    BinOp,
    BoolOp,
    Comparison,
    If,
    MemRef,
    MotionCond,
    Neg,
    Not,
    Number,
    Pos,
    Program,
    Ref,
)
from lumenloop.dsl.parser import MAX_NESTING, parse_source
from lumenloop.dsl.tokens import tokenize
from lumenloop.dsl.validator import (
    MAX_EXPR_DEPTH,
    MAX_PROGRAM_TOKENS,
    validate,
    validate_strict,
)
from lumenloop.errors import LexError, ParseError, UnknownBaseline, ValidationError


# --- lexer ---

def test_token_positions_and_kinds():
    toks = tokenize("light = 0.5\n  if x");
    assert [(t.kind, t.lexeme, t.line, t.column) for t in toks] == [
        ("identifier", "light", 1, 1),
        ("operator", "=", 1, 7),
        ("number", "0.5", 1, 9),
        ("keyword", "if", 2, 3),
        ("identifier", "x", 2, 6),
    ]


def test_comments_and_blank_lines_skipped():
    toks = tokenize("# full line\nlight = 1 # trailing\n\n# another\n")
    assert [t.lexeme for t in toks] == ["light", "=", "1"]


def test_two_char_comparators_win():
    toks = tokenize("a<=b>=c==d!=e<f>g")
    assert [t.lexeme for t in toks if t.kind == "comparator"] == [
        "<=", ">=", "==", "!=", "<", ">",
    ]


def test_number_forms():
    assert [t.lexeme for t in tokenize("0 12 3.5 0.25")] == ["0", "12", "3.5", "0.25"]
    # a dot not followed by a digit is punctuation, not part of the number
    assert [t.kind for t in tokenize("1.x")] == ["number", "punct", "identifier"]


def test_lex_error_position():
    with pytest.raises(LexError) as err:
        tokenize("light = 1\nbroadcast = @")
    assert "line 2, column 13" in str(err.value)


def test_numbers_are_decimal_and_finite():
    # "²" passes str.isdigit, but float() cannot read it
    with pytest.raises(LexError, match="column 9: unexpected character '²'"):
        parse_source("light = ²")
    # an infinite literal would format as "inf", which no parser reads back
    with pytest.raises(ParseError, match="line 1, column 9: number too large"):
        parse_source("light = 1" + "0" * 400)
    assert parse_source("light = " + "9" * 308).statements[0].value.value == 1e308


# --- parser ---

def test_canonical_example():
    program = parse_source("if motion then light=1.0 end")
    assert format_program(program) == "if motion then\n  light = 1.0\nend"


def test_assignment_ast():
    program = parse_source("light = ambient + signal * 0.5")
    (stmt,) = program.statements
    assert stmt == Assignment(
        "light", BinOp("+", Ref("ambient"), BinOp("*", Ref("signal"), Number(0.5)))
    )


def test_mem_target_and_ref():
    program = parse_source("mem.x = mem.y + 1")
    (stmt,) = program.statements
    assert stmt.target == "mem.x"
    assert stmt.value == BinOp("+", MemRef("y"), Number(1.0))


def test_if_else_ast():
    program = parse_source("if not motion and signal > 0.5 then light = 1 else light = 0 end")
    (stmt,) = program.statements
    assert isinstance(stmt, If)
    assert stmt.condition == BoolOp(
        "and", Not(MotionCond()), Comparison(">", Ref("signal"), Number(0.5))
    )
    assert stmt.else_body is not None


def test_empty_else_becomes_none():
    program = parse_source("if motion then light = 1 else end")
    assert program.statements[0].else_body is None


def test_empty_then_allowed():
    program = parse_source("if motion then end")
    assert program.statements[0].then_body == ()


def test_bare_motion_vs_comparison():
    bare = parse_source("if motion then end").statements[0].condition
    assert bare == MotionCond()
    cmp_ = parse_source("if motion > 0.5 then end").statements[0].condition
    assert cmp_ == Comparison(">", Ref("motion"), Number(0.5))
    arith = parse_source("if motion + 1 > 0.5 then end").statements[0].condition
    assert arith == Comparison(">", BinOp("+", Ref("motion"), Number(1.0)), Number(0.5))


def test_left_associative_arithmetic():
    value = parse_source("light = 1 - 2 - 3").statements[0].value
    assert value == BinOp("-", BinOp("-", Number(1.0), Number(2.0)), Number(3.0))


def test_unary_minus_binds_tighter_than_binop():
    value = parse_source("light = -ambient * 2").statements[0].value
    assert value == BinOp("*", Neg(Ref("ambient")), Number(2.0))


def test_boolean_precedence_and_over_or():
    cond = parse_source("if motion or motion and motion then end").statements[0].condition
    assert cond == BoolOp("or", MotionCond(), BoolOp("and", MotionCond(), MotionCond()))


def test_parenthesized_condition_grouping():
    cond = parse_source("if (motion or motion) and motion then end").statements[0].condition
    assert cond == BoolOp("and", BoolOp("or", MotionCond(), MotionCond()), MotionCond())


def test_statement_positions():
    program = parse_source("light = 1\n  broadcast = 0")
    first, second = program.statements
    assert (first.pos.line, first.pos.column) == (1, 1)
    assert (second.pos.line, second.pos.column) == (2, 3)


@pytest.mark.parametrize("source, fragment", PARSE_ERRORS)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_source(source)
    assert fragment in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_source("light = 1\nbroadcast =")
    assert err.value.line == 2


def test_nesting_guard_trips():
    deep = "light = " + "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nest"):
        parse_source(deep)


def test_nesting_guard_spares_legal_depth():
    ok = "light = " + "(" * 50 + "1" + ")" * 50
    parse_source(ok)


def test_long_operator_chain_parses_and_formats():
    # iteratively built chains must survive the recursive formatter
    n = 90
    source = "light = " + " + ".join(["0.001"] * n)
    program = parse_source(source)
    assert format_program(program).count("+") == n - 1


# --- formatter ---

def test_format_idempotent_on_corpus():
    for source in CORPUS:
        once = format_program(parse_source(source))
        twice = format_program(parse_source(once))
        assert once == twice, source


def test_roundtrip_structural_identity_on_corpus():
    assert len(CORPUS) >= 20
    for source in CORPUS:
        program = parse_source(source)
        assert parse_source(format_program(program)) == program, source


def test_minimal_parens():
    assert_fmt = lambda src, out: format_program(parse_source(src)) == out
    assert assert_fmt("light = ((ambient))", "light = ambient")
    assert assert_fmt("light = (ambient + signal) + 0.1", "light = ambient + signal + 0.1")
    assert assert_fmt("light = ambient - (signal - 0.1)", "light = ambient - (signal - 0.1)")
    assert assert_fmt("light = (ambient + signal) * 0.5", "light = (ambient + signal) * 0.5")
    assert assert_fmt("if ((motion)) then end", "if motion then\nend")


def test_format_negation():
    assert format_program(parse_source("light = -(ambient + 1)")) == "light = -(ambient + 1.0)"
    assert format_program(parse_source("mem.x = --0.5")) == "mem.x = --0.5"


def test_format_not_parenthesizes_compound():
    out = format_program(parse_source("if not (motion or motion) then end"))
    assert out == "if not (motion or motion) then\nend"


def test_format_indentation_depth():
    src = "if motion then if motion then light = 1 end end"
    assert format_program(parse_source(src)) == (
        "if motion then\n  if motion then\n    light = 1.0\n  end\nend"
    )


@pytest.mark.parametrize("walk", [CompiledProgram, format_program, validate],
                         ids=["compiler", "formatter", "validator"])
@pytest.mark.parametrize("program, kind", [
    (Program((Assignment("light", "stray"),)), "an expression"),
    (Program((If("stray", (), None),)), "a condition"),
    (Program(("stray",)), "a statement"),
], ids=["expression", "condition", "statement"])
def test_a_non_node_is_a_type_error_that_names_it(walk, program, kind):
    with pytest.raises(TypeError, match=f"^not {kind} node: 'stray'$"):
        walk(program)


def test_number_rendering():
    assert format_expr(Number(1.0)) == "1.0"
    assert format_expr(Number(0.5)) == "0.5"
    assert format_expr(Number(255.0)) == "255.0"
    # scientific repr expands to an exact fixed-point literal
    for value in (4e-06, 1.2345678901234567e-05, 5e-324, 1e22):
        rendered = format_expr(Number(value))
        assert "e" not in rendered and "E" not in rendered
        assert float(rendered) == value


# --- validator ---

def d_strings(source):
    return [str(d) for d in validate(parse_source(source))]


def test_assign_to_sensor_is_error():
    assert d_strings("ambient = 1") == ["1:1: error: cannot assign to sensor 'ambient'"]
    assert d_strings("tick = 0")[0].endswith("cannot assign to sensor 'tick'")
    # light is both sensor and actuator, so assigning it is fine
    assert d_strings("light = 1") == []


def test_unknown_target_is_error():
    assert d_strings("lite = 1") == ["1:1: error: unknown identifier 'lite'"]


def test_unknown_ref_is_error():
    msgs = d_strings("light = brightness")
    assert msgs == ["1:9: error: unknown identifier 'brightness'"]


def test_mem_names_are_free():
    assert d_strings("mem.anything = mem.other + 1") == []


BAD_MEM_NAMES = ["a$", "x y", "if", "", "1a"]


@pytest.mark.parametrize("name", BAD_MEM_NAMES)
def test_a_mem_name_that_is_not_one_identifier_is_an_error(name):
    read = MemRef(name, pos=Pos(2, 9))
    write = Assignment(f"mem.{name}", Number(1.0), pos=Pos(1, 1))
    for program, where in [(Program((Assignment("light", read),)), "2:9"),
                           (Program((write,)), "1:1")]:
        got = [str(d) for d in validate(program)]
        assert f"{where}: error: memory name '{name}' is not an identifier" in got
        with pytest.raises(ValidationError) as raised:
            validate_strict(program)
        assert list(raised.value.diagnostics) == got


def test_a_name_that_does_not_lex_is_a_diagnostic_not_a_lex_error():
    program = Program((Assignment("light", Ref("a$", pos=Pos(1, 9))),))
    want = [
        "1:1: error: canonical text does not lex: line 1, column 10: unexpected character '$'",
        "1:9: error: unknown identifier 'a$'",
    ]
    assert [str(d) for d in validate(program)] == want
    with pytest.raises(ValidationError) as raised:
        validate_strict(program)
    assert list(raised.value.diagnostics) == want


def unknown_operator_diagnostics(program):
    """validate's diagnostics, which validate_strict raises as one error."""
    got = [str(d) for d in validate(program)]
    with pytest.raises(ValidationError) as raised:
        validate_strict(program)
    assert list(raised.value.diagnostics) == got
    return got


def test_an_unknown_comparator_is_an_error():
    # "=" is an operator, so "if 1 = 2 then" has no comparator to parse
    cond = Comparison("=", Number(1.0), Number(2.0), pos=Pos(1, 6))
    program = Program((If(cond, (Assignment("light", Number(1.0)),), None),))
    with pytest.raises(ParseError, match="expected a comparator"):
        parse_source(format_program(program))
    assert unknown_operator_diagnostics(program) == ["1:6: error: unknown operator '='"]


def test_an_unknown_arithmetic_operator_is_an_error():
    value = BinOp("%", Ref("signal"), BinOp("^", Number(2.0), Number(0.0), pos=Pos(1, 26)),
                  pos=Pos(1, 16))
    program = Program((Assignment("light", value, pos=Pos(1, 1)),))
    assert unknown_operator_diagnostics(program) == [
        "1:16: error: unknown operator '%'",
        "1:26: error: unknown operator '^'",
    ]


def test_an_unknown_boolean_operator_is_an_error():
    cond = BoolOp("xor", MotionCond(), Not(MotionCond()), pos=Pos(1, 11))
    program = Program((If(cond, (Assignment("light", Number(1.0)),), None),))
    assert unknown_operator_diagnostics(program) == ["1:11: error: unknown operator 'xor'"]


def test_diagnostics_sorted_by_position():
    source = "bogus = 1\nambient = 2"
    lines = [d.line for d in validate(parse_source(source))]
    assert lines == sorted(lines)


def test_expr_depth_limit():
    # a literal is depth 1, so MAX_EXPR_DEPTH - 1 negations reach the cap
    ok = "light = " + "-" * (MAX_EXPR_DEPTH - 1) + "0.5"
    assert validate(parse_source(ok)) == []
    deep = "light = " + "-" * MAX_EXPR_DEPTH + "0.5"
    msgs = d_strings(deep)
    assert len(msgs) == 1 and "nesting exceeds" in msgs[0]


def test_token_budget_limit():
    small = parse_source("light = 0.5\n" * 100)
    assert validate(small) == []
    big = parse_source("light = 0.5\n" * (MAX_PROGRAM_TOKENS // 3 + 10))
    msgs = [d.message for d in validate(big)]
    assert len(msgs) == 1 and "tokens" in msgs[0]


def test_validate_strict():
    # clamping to [0, 1] and dividing by zero are rules of the language
    for source in ("light = 2", "broadcast = -0.5", "light = 1 / 0"):
        program = parse_source(source)
        assert validate(program) == []
        assert validate_strict(program) is program
    with pytest.raises(ValidationError, match="cannot assign to sensor"):
        validate_strict(parse_source("signal = 1"))


# --- built-in programs ---

def test_builtin_programs_parse_clean():
    assert set(BUILTIN_PROGRAM_SOURCES) == {
        "always_on", "always_off", "iteration1", "iteration2", "iteration3",
    }
    for name in BUILTIN_PROGRAM_SOURCES:
        program = builtin_program(name)
        assert validate(program) == [], name


def test_builtin_program_unknown_name():
    with pytest.raises(UnknownBaseline, match="iteration2"):
        builtin_program("iteration99")
