"""Golden outputs: manifest configs, the compare CSV, traces and the replayed transcript.

Every literal below was captured from a run of the CLI and must not drift:
a manifest is the recipe for a byte-identical rerun, and the transcript of a
replayed session is compared byte for byte.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from lumenloop.cli import main

WEIGHTS = {"w_energy": 0.4, "w_people": 1.0, "w_trip": 0.6}

CONFIGS = {
    "simulate": (
        ["simulate", "--controller", "iteration1", "--trace", "trace.jsonl"],
        {
            "controller": "iteration1",
            "scenario": "scenario1",
            "trace": "trace.jsonl",
            "weights": WEIGHTS,
        },
    ),
    "evolve": (
        ["evolve", "--generations", "1", "--population", "4", "--seed", "1"],
        {
            "crossover_rate": 0.9,
            "elitism": 1,
            "generations": 1,
            "mutation_rate": 0.05,
            "mutation_sigma": 0.3,
            "n_hidden": 6,
            "population_size": 4,
            "scenario": "scenario1",
            "seed": 1,
            "tournament_size": 3,
            "weights": WEIGHTS,
            "workers": 1,
        },
    ),
    "gpt-loop": (
        ["gpt-loop", "--replay", "three_iter.jsonl",
         "--stub-metrics", "calibration_stub.json"],
        {
            "fitness_threshold": 62.0,
            "max_iterations": 10,
            "max_repair_attempts": 2,
            "model": "gpt-4",
            "provider": "replay",
            "replay": "three_iter.jsonl",
            "scenario": "scenario1",
            "stub_metrics": "calibration_stub.json",
            "temperature": 0.0,
            "timeout": 60.0,
            "weights": WEIGHTS,
        },
    ),
    "compare": (
        ["compare"],
        {
            "controllers": ["always_off", "always_on", "iteration1",
                            "iteration2", "iteration3"],
            "scenarios": ["scenario1", "scenario2"],
            "weights": WEIGHTS,
        },
    ),
    "fitness-check": (
        ["fitness-check"],
        {"table": None, "tolerance": 0.03, "weights": WEIGHTS},
    ),
}

COMPARE_CSV = """\
scenario,solution,energy,people,trip,fitness
scenario1,always_off,0.00,0.00,91.67,-55.002
scenario1,always_on,100.00,100.00,6.67,55.998
scenario1,iteration1,95.70,100.00,6.67,57.718
scenario1,iteration2,33.50,100.00,6.67,82.598
scenario1,iteration3,6.72,100.00,6.67,93.31
scenario2,always_off,0.00,0.00,87.50,-52.5
scenario2,always_on,100.00,100.00,6.67,55.998
scenario2,iteration1,95.55,100.00,6.67,57.778
scenario2,iteration2,32.80,100.00,6.67,82.878
scenario2,iteration3,5.39,100.00,6.67,93.842
"""

# sha256 of the ``simulate --trace`` JSONL; genome.json is a fixed 4-6-3
# network under which some people get home and some stay in the dark
TRACE_SHA256 = {
    ("scenario1", "iteration3"):
        "d6e53d361855164dee49f50028bfef63b9fa4d5affb33d0bcf70c6a67b48256c",
    ("scenario2", "genome.json"):
        "60f03c69ba2e539c8707d2eb1382dee0d311323fd30fe2b83226a0a8d88d8040",
}

TRANSCRIPT_HEADER = {
    "config": {
        "fitness_threshold": 62.0,
        "max_iterations": 10,
        "max_repair_attempts": 2,
        "model": "gpt-4",
        "provider": "replay",
        "scenario": "scenario1",
        "temperature": 0.0,
        "timeout": 60.0,
        "weights": WEIGHTS,
    },
    "context_mode": "problem-plus-latest-feedback",
    "kind": "loop-transcript",
    "version": 1,
}
TRANSCRIPT_SHA256 = "21769d3f6ab5b687b11a7849685d4fd77306785b0ef0f0c11cbefb2e12cdb065"


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch, fixture_dir):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LUMENLOOP_API_KEY", raising=False)
    # relative paths keep the recorded configs independent of the checkout
    for name in ("three_iter.jsonl", "calibration_stub.json", "genome.json"):
        shutil.copy(fixture_dir / name, tmp_path / name)


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_manifest_config(capsys, command):
    argv, expected = CONFIGS[command]
    assert main(argv) == 0
    capsys.readouterr()
    manifest = json.loads(Path(f"{command}-manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["config"] == expected


def test_compare_csv(capsys):
    assert main(["compare"]) == 0
    assert capsys.readouterr().out == COMPARE_CSV


@pytest.mark.parametrize("scenario, controller", sorted(TRACE_SHA256))
def test_simulate_trace(capsys, scenario, controller):
    argv = ["simulate", "--scenario", scenario, "--controller", controller,
            "--trace", "trace.jsonl"]
    assert main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256(Path("trace.jsonl").read_bytes()).hexdigest()
    assert digest == TRACE_SHA256[scenario, controller]


def test_replayed_transcript(capsys):
    argv, _ = CONFIGS["gpt-loop"]
    assert main(argv) == 0
    capsys.readouterr()
    data = Path("transcript.jsonl").read_bytes()
    header = json.loads(data.splitlines()[0])
    assert "streetlight" in header.pop("initial_prompt")
    assert header == TRANSCRIPT_HEADER
    assert hashlib.sha256(data).hexdigest() == TRANSCRIPT_SHA256
