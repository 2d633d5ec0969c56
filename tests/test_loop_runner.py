"""run_loop control flow, transcripts, and the calibration stub."""

import json

import pytest

from lumenloop.dsl.baselines import ITERATION_1_SOURCE, ITERATION_2_SOURCE
from lumenloop.errors import MissingMetrics, SchemaError
from lumenloop.fitness import SimulationMetrics
from lumenloop.loop.providers import ReplayProvider, load_replay_script
from lumenloop.loop.runner import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_PROVIDER_FAILURE,
    STATUS_THRESHOLD_MET,
    LoopConfig,
    load_calibration,
    parse_transcript,
    run_loop,
    simulation_evaluator,
    stub_evaluator,
)
from lumenloop.scenario import builtin_scenario


def wrap(source, rationale="Because reasons."):
    return f"{rationale}\n\n```controller\n{source}```\n"


BAD_RESPONSE = "I forgot the code block entirely."
SCENARIO1 = builtin_scenario("scenario1")


def test_three_iteration_narrative(fixture_dir):
    provider = load_replay_script(fixture_dir / "three_iter.jsonl")
    evaluator = stub_evaluator(load_calibration(fixture_dir / "calibration_stub.json"))
    transcript = run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator)

    assert transcript.status == STATUS_THRESHOLD_MET
    assert transcript.provider_calls == 3
    assert [r.outcome for r in transcript.records] == [
        "below-threshold", "below-threshold", "accepted",
    ]
    assert [r.index for r in transcript.records] == [1, 2, 3]
    assert [r.metrics.fitness for r in transcript.records] == [29.49, 61.2, 62.44]
    assert all(r.repair_attempts == 0 for r in transcript.records)
    assert transcript.best_record is transcript.records[2]


def test_exchanges_are_fresh_not_accumulated(fixture_dir):
    provider = load_replay_script(fixture_dir / "three_iter.jsonl")
    evaluator = stub_evaluator(load_calibration(fixture_dir / "calibration_stub.json"))
    run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator)

    assert [len(msgs) for msgs in provider.requests] == [1, 2, 2]
    first = provider.requests[0][0]
    assert first["role"] == "system"
    # every later exchange reuses the same system prompt, never grows history
    for msgs in provider.requests[1:]:
        assert msgs[0] == first
        assert msgs[1]["role"] == "user"


def test_feedback_carries_previous_metrics_verbatim(fixture_dir):
    provider = load_replay_script(fixture_dir / "three_iter.jsonl")
    evaluator = stub_evaluator(load_calibration(fixture_dir / "calibration_stub.json"))
    transcript = run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator)

    feedback2 = provider.requests[1][1]["content"]
    assert "energy used:   4.03%" in feedback2
    assert "people helped: 66.66%" in feedback2
    assert "trip duration: 59.25%" in feedback2
    assert "score:         29.49" in feedback2
    assert transcript.records[0].program in feedback2
    feedback3 = provider.requests[2][1]["content"]
    assert "score:         61.20" in feedback3
    assert transcript.records[1].program in feedback3


def test_repair_recovers_within_iteration():
    provider = ReplayProvider([BAD_RESPONSE, wrap("light = 1.0\n")])
    transcript = run_loop(
        LoopConfig(max_iterations=1), provider, SCENARIO1,
        evaluator=lambda p: SimulationMetrics(0, 100, 0, 100.0),
    )
    assert transcript.status == STATUS_THRESHOLD_MET
    (record,) = transcript.records
    assert record.repair_attempts == 1
    assert record.outcome == "accepted"
    assert record.program == "light = 1.0"
    # the second call was a repair prompt naming the problem
    repair_msg = provider.requests[1][1]["content"]
    assert "could not be used" in repair_msg
    assert "no fenced code block" in repair_msg
    assert "%" not in repair_msg  # repairs never cite metrics


def test_repair_prompt_carries_positioned_diagnostics():
    provider = ReplayProvider([
        wrap("ambient = 1\n"),  # validation error with a position
        wrap("light = 1.0\n"),
    ])
    run_loop(
        LoopConfig(max_iterations=1), provider, SCENARIO1,
        evaluator=lambda p: SimulationMetrics(0, 100, 0, 100.0),
    )
    repair_msg = provider.requests[1][1]["content"]
    assert "1:1: error: cannot assign to sensor 'ambient'" in repair_msg


def test_repairs_exhaust_to_parse_failed():
    provider = ReplayProvider([BAD_RESPONSE] * 3)
    transcript = run_loop(LoopConfig(max_iterations=1), provider, SCENARIO1)
    assert transcript.status == STATUS_BUDGET_EXHAUSTED
    (record,) = transcript.records
    assert record.outcome == "parse-failed"
    assert record.repair_attempts == 2
    assert record.program is None and record.metrics is None
    assert record.diagnostics and "no fenced code block" in record.diagnostics[0]
    assert transcript.provider_calls == 3


def test_call_budget_bound():
    # every reply malformed: exactly max_iterations * (1 + max_repair_attempts)
    provider = ReplayProvider([BAD_RESPONSE] * 100)
    transcript = run_loop(LoopConfig(max_iterations=3), provider, SCENARIO1)
    assert transcript.provider_calls == 9
    assert len(transcript.records) == 3
    assert transcript.status == STATUS_BUDGET_EXHAUSTED
    assert transcript.best_record is None


def test_parse_failure_falls_back_to_last_scored_feedback():
    low = wrap(ITERATION_1_SOURCE)
    good = wrap(ITERATION_2_SOURCE)
    provider = ReplayProvider([low, BAD_RESPONSE, BAD_RESPONSE, good])
    bindings = load_calibration_from_sources()
    transcript = run_loop(
        LoopConfig(max_iterations=3, max_repair_attempts=1),
        provider,
        SCENARIO1,
        evaluator=stub_evaluator(bindings),
    )
    assert [r.outcome for r in transcript.records] == [
        "below-threshold", "parse-failed", "below-threshold",
    ]
    # iteration 3 reuses the feedback built from iteration 1's record
    assert provider.requests[3][1]["content"] == provider.requests[1][1]["content"]


def load_calibration_from_sources():
    from lumenloop.dsl.formatter import format_program
    from lumenloop.dsl.parser import parse_source

    key = lambda src: format_program(parse_source(src))
    return {
        key(ITERATION_1_SOURCE): SimulationMetrics(4.03, 66.66, 59.25, 29.49),
        key(ITERATION_2_SOURCE): SimulationMetrics(15.02, 100.0, 54.62, 61.2),
    }


def test_provider_failure_mid_loop():
    provider = ReplayProvider([wrap(ITERATION_1_SOURCE)])
    transcript = run_loop(
        LoopConfig(), provider, SCENARIO1,
        evaluator=stub_evaluator(load_calibration_from_sources()),
    )
    assert transcript.status == STATUS_PROVIDER_FAILURE
    assert "exhausted" in transcript.failure
    assert len(transcript.records) == 1


def test_simulation_evaluator_scores_programs():
    from lumenloop.dsl.parser import parse_source

    evaluate = simulation_evaluator(SCENARIO1)
    metrics = evaluate(parse_source("light = 1.0"))
    assert metrics.energy_pct == 100.0
    assert metrics.people_pct == 100.0
    assert metrics.fitness == pytest.approx(56.0)


def test_stub_evaluator_uses_stored_fitness():
    from lumenloop.dsl.parser import parse_source

    bindings = load_calibration_from_sources()
    evaluate = stub_evaluator(bindings)
    metrics = evaluate(parse_source(ITERATION_2_SOURCE))
    # the stored score stands even though recomputing would give 61.218
    assert metrics.fitness == 61.2
    with pytest.raises(MissingMetrics):
        evaluate(parse_source("light = 0.123"))


def test_calibration_stub_keys_are_canonical(fixture_dir, tmp_path):
    bindings = load_calibration(fixture_dir / "calibration_stub.json")
    assert len(bindings) == 3
    # keys are canonical renderings (e.g. integer literals normalized)
    assert all("listen = 1.0" in key or "listen" not in key for key in bindings)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [{"program": "if motion", "metrics": {}}]}))
    with pytest.raises(SchemaError):
        load_calibration(bad)
    bad.write_text(json.dumps({"wrong": []}))
    with pytest.raises(SchemaError):
        load_calibration(bad)


def test_transcript_file_roundtrip(fixture_dir, tmp_path):
    provider = load_replay_script(fixture_dir / "three_iter.jsonl")
    evaluator = stub_evaluator(load_calibration(fixture_dir / "calibration_stub.json"))
    path = tmp_path / "t.jsonl"
    run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator, transcript_path=path)

    header, records, trailer = parse_transcript(path.read_text())
    assert header["kind"] == "loop-transcript"
    assert header["context_mode"] == "problem-plus-latest-feedback"
    assert header["config"]["fitness_threshold"] == 62.0
    assert header["config"]["weights"] == {"w_people": 1.0, "w_energy": 0.4, "w_trip": 0.6}
    assert "streetlight" in header["initial_prompt"]
    assert len(records) == 3
    assert records[0]["metrics"]["fitness"] == 29.49
    assert records[2]["outcome"] == "accepted"
    assert trailer["status"] == STATUS_THRESHOLD_MET
    assert trailer["best_fitness"] == 62.44
    assert trailer["provider_calls"] == 3
    assert trailer["failure"] is None


def test_transcript_bytes_reproducible(fixture_dir, tmp_path):
    paths = []
    for run in range(2):
        provider = load_replay_script(fixture_dir / "three_iter.jsonl")
        evaluator = stub_evaluator(load_calibration(fixture_dir / "calibration_stub.json"))
        path = tmp_path / f"t{run}.jsonl"
        run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator, transcript_path=path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_transcript_written_even_on_provider_failure(tmp_path):
    provider = ReplayProvider([wrap(ITERATION_1_SOURCE)])
    path = tmp_path / "t.jsonl"
    run_loop(
        LoopConfig(), provider, SCENARIO1,
        evaluator=stub_evaluator(load_calibration_from_sources()),
        transcript_path=path,
    )
    header, records, trailer = parse_transcript(path.read_text())
    assert trailer["status"] == STATUS_PROVIDER_FAILURE
    assert trailer["failure"]
    assert len(records) == 1


@pytest.mark.parametrize("scored_before_raise", [0, 1])
def test_transcript_has_no_trailer_when_evaluator_raises(
        fixture_dir, tmp_path, scored_before_raise):
    stub = load_calibration(fixture_dir / "calibration_stub.json")
    scored = []

    def evaluator(program):
        if len(scored) == scored_before_raise:
            raise MissingMetrics("not in the stub")
        scored.append(program)
        return stub_evaluator(stub)(program)

    provider = load_replay_script(fixture_dir / "three_iter.jsonl")
    path = tmp_path / "t.jsonl"
    with pytest.raises(MissingMetrics):
        run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator,
                 transcript_path=path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["kind"] == "loop-transcript"
    # the header and every finished record, then no trailer
    assert [line["index"] for line in lines[1:]] == list(range(1, scored_before_raise + 1))
    with pytest.raises(SchemaError):
        parse_transcript(path.read_text())


def test_parse_transcript_schema_errors():
    with pytest.raises(SchemaError):
        parse_transcript("")
    with pytest.raises(SchemaError):
        parse_transcript('{"kind": "other"}\n{"status": "x"}\n')
    with pytest.raises(SchemaError):
        parse_transcript('{"kind": "loop-transcript"}\n{"nope": 1}\n')


def test_rationale_and_block_reassemble_response(fixture_dir):
    from lumenloop.loop.extraction import find_last_block

    provider = load_replay_script(fixture_dir / "three_iter.jsonl")
    evaluator = stub_evaluator(load_calibration(fixture_dir / "calibration_stub.json"))
    transcript = run_loop(LoopConfig(), provider, SCENARIO1, evaluator=evaluator)
    normalize = lambda text: " ".join(text.split())
    for record in transcript.records:
        code, rationale = find_last_block(record.response)
        assert rationale == record.rationale
        reassembled = f"{rationale}\n```controller\n{code}\n```"
        assert normalize(reassembled) == normalize(record.response)
