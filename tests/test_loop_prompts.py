"""Prompt builders: content, ordering, and byte stability."""

import pytest

from lumenloop.dsl.nodes import SENSOR_NAMES
from lumenloop.errors import MissingMetrics
from lumenloop.fitness import SimulationMetrics
from lumenloop.loop.prompts import (
    build_feedback_prompt,
    build_initial_prompt,
    build_problem_statement,
    build_repair_prompt,
)
from lumenloop.loop.runner import IterationRecord
from lumenloop.scenario import builtin_scenario


def scored_record(fitness=29.49):
    return IterationRecord(
        index=1,
        prompt="p",
        response="r",
        rationale="why",
        program="light = 1.0",
        metrics=SimulationMetrics(4.03, 66.66, 59.25, fitness),
        repair_attempts=0,
        outcome="below-threshold",
    )


def test_problem_statement_mentions_environment():
    sc = builtin_scenario("scenario1")
    text = build_problem_statement(sc, threshold=62.0)
    assert "9-pole" in text
    assert "3 pedestrians" in text
    assert "60 ticks" in text
    assert "score of at least 62.00" in text
    assert "1 * people_finished_pct - 0.4 * energy_used_pct - 0.6 * trip_time_pct" in text


def test_initial_prompt_sections_in_order():
    sc = builtin_scenario("scenario1")
    prompt = build_initial_prompt(build_problem_statement(sc))
    # required literals
    assert "fenced" in prompt
    assert "if_stmt" in prompt
    for sensor in SENSOR_NAMES:
        assert sensor in prompt
    assert "```controller" in prompt
    # problem first, then sensors, then grammar, then the format instruction
    problem_at = prompt.index("streetlight pole")
    sensors_at = prompt.index("Sensors (read-only")
    grammar_at = prompt.index("Grammar:")
    retained_at = prompt.index("keep their previous value")
    format_at = prompt.index("exactly one fenced code block")
    assert problem_at < sensors_at < grammar_at < retained_at < format_at


def test_initial_prompt_is_byte_stable():
    sc = builtin_scenario("scenario2")
    a = build_initial_prompt(build_problem_statement(sc))
    b = build_initial_prompt(build_problem_statement(sc))
    assert a == b


def test_initial_prompt_rejects_empty_sections():
    with pytest.raises(ValueError):
        build_initial_prompt("")


def test_feedback_prompt_embeds_program_and_metrics():
    prompt = build_feedback_prompt(scored_record(), threshold=62.0)
    assert "```controller\nlight = 1.0\n```" in prompt
    assert "energy used:   4.03%" in prompt
    assert "people helped: 66.66%" in prompt
    assert "trip duration: 59.25%" in prompt
    assert "score:         29.49" in prompt
    # shortfall called out at two decimals
    assert "32.51 short of the 62.00 target" in prompt


def test_feedback_prompt_above_threshold_has_no_shortfall():
    prompt = build_feedback_prompt(scored_record(fitness=70.0), threshold=62.0)
    assert "short of" not in prompt
    assert "62.00" in prompt


def test_feedback_prompt_requires_metrics():
    record = scored_record()
    record.metrics = None
    with pytest.raises(MissingMetrics):
        build_feedback_prompt(record, threshold=62.0)
    record = scored_record()
    record.program = None
    with pytest.raises(MissingMetrics):
        build_feedback_prompt(record, threshold=62.0)


def test_repair_prompt_echoes_block_and_diagnostics():
    response = "Here you go.\n```controller\nlight = \n```\n"
    diagnostics = [
        "1:9: error: expected an expression",
        "2:1: error: unknown identifier 'foo'",
    ]
    prompt = build_repair_prompt(response, diagnostics)
    assert "light =" in prompt
    at1 = prompt.index(diagnostics[0])
    at2 = prompt.index(diagnostics[1])
    assert at1 < at2
    # repairs never include simulation numbers
    assert "energy" not in prompt
    assert "score" not in prompt


def test_repair_prompt_without_block_echoes_reply():
    prompt = build_repair_prompt("no code at all", ["1:1: error: x"])
    assert "no code at all" in prompt


def test_repair_prompt_requires_diagnostics():
    with pytest.raises(ValueError):
        build_repair_prompt("response", [])
