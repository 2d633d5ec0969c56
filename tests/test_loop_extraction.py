"""Pulling programs out of model replies."""

import pytest

from lumenloop.errors import NoCodeBlock, ParseError, ValidationError
from lumenloop.loop.extraction import extract_program, find_last_block


def test_single_block():
    code, rationale = find_last_block("Reasoning first.\n```controller\nlight = 1\n```\n")
    assert code == "light = 1"
    assert rationale == "Reasoning first."


def test_last_block_wins():
    response = (
        "Draft:\n```controller\nlight = 0\n```\n"
        "Final version:\n```controller\nlight = 1\n```\n"
    )
    code, rationale = find_last_block(response)
    assert code == "light = 1"
    assert "Draft" in rationale and "light = 0" in rationale


def test_unlabeled_fence_accepted():
    code, _ = find_last_block("```\nlight = 0.5\n```")
    assert code == "light = 0.5"


def test_no_block_raises():
    with pytest.raises(NoCodeBlock):
        find_last_block("just words, no code")


def test_rationale_reassembles_response():
    response = "I keep it minimal.\n\n```controller\nlight = 0.5\nlisten = 1\n```\n"
    code, rationale = find_last_block(response)
    reassembled = rationale + "\n```controller\n" + code + "\n```"
    normalize = lambda text: " ".join(text.split())
    assert normalize(reassembled) == normalize(response)


def test_rationale_keeps_text_after_block():
    response = "Before.\n```controller\nlight = 1\n```\nAfter."
    code, rationale = find_last_block(response)
    assert "Before." in rationale and "After." in rationale
    # every token of the response survives in rationale + fences + code
    normalize = lambda text: sorted(text.split())
    assert normalize(response) == normalize(rationale + " ```controller\n ``` " + code)


def test_extract_program_parses_and_validates():
    response = "ok\n```controller\nif motion then light = 1 end\n```"
    extraction = extract_program(response)
    assert find_last_block(response)[0] == "if motion then light = 1 end"
    assert extraction.rationale == "ok"
    assert len(extraction.program.statements) == 1


def test_extract_program_parse_error_positions():
    with pytest.raises(ParseError) as err:
        extract_program("```controller\nlight = 1\nif motion light = 1 end\n```")
    # positions are relative to the block text
    assert err.value.line == 2


def test_extract_program_validation_error_carries_diagnostics():
    response = "```controller\nambient = 1\nbogus = 2\n```"
    with pytest.raises(ValidationError) as err:
        extract_program(response)
    diagnostics = err.value.diagnostics
    assert len(diagnostics) == 2
    assert "cannot assign to sensor 'ambient'" in diagnostics[0]
    assert "unknown identifier 'bogus'" in diagnostics[1]


def test_extract_program_warnings_pass():
    # a constant out of [0, 1] is clamped when it runs; it is not an error
    extraction = extract_program("```controller\nlight = 2\n```")
    assert extraction.program is not None
