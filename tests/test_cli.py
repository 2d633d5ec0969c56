"""End-to-end CLI behavior through main(argv), including exit codes."""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumenloop.cli import (
    CSV_HEADER,
    EXIT_BUDGET_EXHAUSTED,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PROVIDER_FAILURE,
    EXIT_USAGE,
    main,
)
from lumenloop.controllers import ResolvedController
from lumenloop.engine import ActuatorCommand
from lumenloop.fitness import DEFAULT_WEIGHTS, MAX_WEIGHT, FitnessWeights
from lumenloop.loop import DEFAULT_MODEL, load_replay_script
from lumenloop.neuro import Genome, NetworkSpec, save_genome
from lumenloop.neuro.evolution import lane_floats
from lumenloop.scenario import (
    BUILTIN_SCENARIOS,
    _grid_document,
    builtin_scenario,
    builtin_scenario_document,
)


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LUMENLOOP_API_KEY", raising=False)
    return tmp_path


def read_manifest(name):
    return json.loads(Path(name).read_text())


def recomputed_fitness(row):
    _, _, energy, people, trip, _ = row.split(",")
    return (
        DEFAULT_WEIGHTS.w_people * float(people)
        - DEFAULT_WEIGHTS.w_energy * float(energy)
        - DEFAULT_WEIGHTS.w_trip * float(trip)
    )


# -- simulate ----------------------------------------------------------------


def test_simulate_default(capsys):
    assert main(["simulate"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert out[1] == "scenario1,always_on,100.00,100.00,6.67,55.998"
    manifest = read_manifest("simulate-manifest.json")
    assert manifest["kind"] == "run-manifest"
    assert manifest["command"] == "simulate"
    assert manifest["config"]["controller"] == "always_on"


def test_simulate_rule_file(capsys, tmp_path):
    rules = tmp_path / "dimmer.rules"
    rules.write_text("light = 0.5\n")
    assert main(["simulate", "--controller", str(rules)]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("scenario1,dimmer,50.00,")


def test_a_builtin_name_wins_over_a_file_of_that_name(capsys, tmp_path):
    # as for scenarios: the file runs only when named as a path
    (tmp_path / "iteration1").write_text("light = 0.25\n")
    assert main(["simulate", "--controller", "iteration1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("scenario1,iteration1,95.70,")
    assert main(["simulate", "--controller", "./iteration1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("scenario1,iteration1,25.00,")


def test_simulate_parse_error_positions(capsys, tmp_path):
    rules = tmp_path / "broken.rules"
    rules.write_text("light = = 1\n")
    assert main(["simulate", "--controller", str(rules)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1" in err and "column" in err


def test_simulate_unknown_controller(capsys):
    assert main(["simulate", "--controller", "nope"]) == EXIT_USAGE
    assert "always_on" in capsys.readouterr().err


def test_simulate_unknown_scenario_file(capsys):
    assert main(["simulate", "--scenario", "missing.json"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_simulate_trace_and_determinism(capsys, tmp_path):
    argv = ["simulate", "--controller", "iteration1",
            "--trace", str(tmp_path / "trace.jsonl")]
    assert main(argv) == EXIT_OK
    first_out = capsys.readouterr().out
    first_trace = (tmp_path / "trace.jsonl").read_bytes()

    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first_out
    assert (tmp_path / "trace.jsonl").read_bytes() == first_trace

    lines = first_trace.decode().splitlines()
    assert len(lines) == 60  # one record per tick
    record = json.loads(lines[0])
    assert record["tick"] == 0
    assert set(record["poles"]["0"]) == {"reading", "command"}


def test_simulate_trace_of_a_genome_writes_every_tick(capsys, tmp_path):
    # an all-zero genome's ticks repeat from early on, so an untraced run
    # stops stepping there; a traced one steps, and writes, every tick
    path = tmp_path / "still.json"
    save_genome(path, Genome(genes=[0.0] * NetworkSpec().genome_length))
    assert main(["simulate", "--controller", str(path)]) == EXIT_OK
    plain = capsys.readouterr().out
    trace = tmp_path / "g.jsonl"
    assert main(["simulate", "--controller", str(path), "--trace", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out == plain
    assert len(trace.read_text().splitlines()) == 60


def test_simulate_bad_weights(capsys):
    assert main(["simulate", "--weights", "1,2"]) == EXIT_USAGE
    assert "three comma-separated" in capsys.readouterr().err


REPLAY = str(Path(__file__).parent / "fixtures" / "three_iter.jsonl")
# a side-50 grid (2,500 poles, no people), written beside the run's directory
GRID50 = "../grid50.json"


@pytest.mark.parametrize("argv", [
    ["simulate", "--weights", "nan,0.4,0.6"],
    ["simulate", "--weights", "1,inf,0"],
    # finite, but past the ceiling a fitness may overflow to -inf or nan
    ["simulate", "--weights", "1e308,1e308,1e308"],
    ["compare", "--weights", "1,-1.0000001e300,0"],
    ["evolve", "--generations", "1", "--population", "2", "--weights", "0,0,1e301"],
    ["gpt-loop", "--replay", REPLAY, "--weights", "1,-1e308,0.6"],
    *(
        # a one-generation, two-genome run would finish if the value passed
        ["evolve", "--generations", "1", "--population", "2", flag, value]
        for flag, value in [
            ("--population", "0"),
            ("--generations", "0"),
            ("--tournament", "0"),
            ("--hidden", "-1"),
            # past the ceilings: at 1e9, numpy failed to allocate once the
            # manifest was written; then one over each on scenario1
            ("--hidden", "1000000000"),
            ("--hidden", "1001"),
            ("--population", "1000000000"),
            ("--population", "254546"),
            ("--seed", "-1"),
            ("--elitism", "-1"),
            ("--elitism", "3"),
            ("--crossover-rate", "-0.5"),
            ("--mutation-rate", "7"),
            ("--mutation-sigma", "-0.1"),
            ("--mutation-sigma", "nan"),
            ("--mutation-sigma", "inf"),
        ]
    ),
    *(
        # the replayed session would run to its end if the value passed
        ["gpt-loop", "--replay", REPLAY, flag, value]
        for flag, value in [
            ("--threshold", "nan"),
            ("--max-iterations", "0"),
            ("--max-repair-attempts", "-3"),
            ("--timeout", "-1"),
            ("--timeout", "0"),
            ("--timeout", "nan"),
            ("--timeout", "inf"),
            ("--temperature", "nan"),
            ("--temperature", "inf"),
            ("--temperature", "-0.5"),
        ]
    ),
    # a generation is scored in blocks, so the population bound is
    # scenario1's; one genome's lane at --hidden 746 fits, at 747 it does not
    *(
        ["evolve", "--scenario", GRID50, "--generations", "1", flag, value]
        for flag, value in [("--population", "254546"), ("--hidden", "747")]
    ),
    ["fitness-check", "--tolerance", "nan"],
    ["fitness-check", "--tolerance", "-1"],
    ["simulate", "--weights", "a,b,c"],
])
def test_out_of_range_numbers_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    if GRID50 in argv:
        (tmp_path / "grid50.json").write_text(json.dumps(_grid_document("grid50", 50, 60, [])))
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert argv[-2] in err[0]
    # checked before any work starts: no manifest or other output
    assert list(run.iterdir()) == []


def test_evolve_runs_at_its_size_ceilings(capsys, monkeypatch, tmp_path):
    # lowered so that a run at them is quick: two genomes of the default
    # width on scenario1, in blocks of one lane
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("lumenloop.cli.MAX_HIDDEN", 7)
    spec = NetworkSpec(6)
    lane = lane_floats(builtin_scenario("scenario1"), spec)
    monkeypatch.setattr("lumenloop.neuro.evolution.BLOCK_FLOATS", lane)
    per_genome = 2 * spec.genome_length + 8
    monkeypatch.setattr("lumenloop.neuro.evolution.MAX_GENERATION_FLOATS", lane + 2 * per_genome)
    assert main(["evolve", "--generations", "1", "--population", "2", "--hidden", "6"]) == EXIT_OK
    capsys.readouterr()
    for flag, value, rule in [("--hidden", "8", "in [0, 7]"),
                              ("--hidden", "7", "small enough"),  # a lane wider than the block
                              ("--population", "3", "at most 2")]:
        argv = ["evolve", "--generations", "1", "--population", "2", flag, value]
        assert main(argv + ["--manifest", "over.json"]) == EXIT_USAGE
        assert f"{flag} must be {rule}" in capsys.readouterr().err
    assert not (tmp_path / "over.json").exists()


def test_weights_at_the_ceiling_give_finite_fitness(capsys, tmp_path):
    # each term as large as it gets, all three of one sign
    worst = FitnessWeights(MAX_WEIGHT, -MAX_WEIGHT, -MAX_WEIGHT)
    assert math.isfinite(worst.score(people_pct=100.0, energy_pct=100.0, trip_pct=100.0))
    at_ceiling = f"{MAX_WEIGHT!r},{-MAX_WEIGHT!r},{-MAX_WEIGHT!r}"
    assert main(["simulate", "--controller", "always_on", "--weights", at_ceiling]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[-1]
    assert math.isfinite(float(row.split(",")[-1]))
    argv = ["evolve", "--generations", "2", "--population", "4", "--weights", at_ceiling,
            "--out", str(tmp_path / "genome.json"), "--log", str(tmp_path / "log.csv")]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert math.isfinite(json.loads((tmp_path / "genome.json").read_text())["fitness"])


def test_a_faulting_controller_is_a_usage_error(capsys, monkeypatch):
    # built-in, rule and genome controllers never raise; a controller from
    # the Python API can, so one stands in for the resolved controller
    class Faulty:
        def act(self, reading):
            raise ArithmeticError("bad weights")

    monkeypatch.setattr("lumenloop.cli.resolve_controller",
                        lambda ref: ResolvedController("faulty", Faulty))
    assert main(["simulate"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tick 0, pole 0: bad weights\n"


def test_a_fault_leaves_the_ticks_before_it_in_the_trace(capsys, monkeypatch, tmp_path):
    # the trace is written tick by tick, so a controller that raises at
    # tick 3 leaves exactly the complete lines of ticks 0-2
    class FailsAtTick3:
        def act(self, reading):
            if reading.tick == 3:
                raise ArithmeticError("bad weights")
            return ActuatorCommand(light=0.5)

    monkeypatch.setattr("lumenloop.cli.resolve_controller",
                        lambda ref: ResolvedController("faulty", FailsAtTick3))
    assert main(["simulate", "--trace", "trace.jsonl"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tick 3, pole 0: bad weights\n"
    text = (tmp_path / "trace.jsonl").read_text()
    assert text.endswith("\n")
    assert [json.loads(line)["tick"] for line in text.splitlines()] == [0, 1, 2]


def test_a_trace_naming_a_directory_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "out").mkdir()
    assert main(["simulate", "--trace", "out"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert list((tmp_path / "out").iterdir()) == []


# -- evolve ------------------------------------------------------------------


def test_evolve_small_run(capsys, tmp_path):
    argv = [
        "evolve", "--generations", "2", "--population", "6", "--seed", "3",
        "--out", str(tmp_path / "genome.json"),
        "--log", str(tmp_path / "log.csv"),
    ]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["generations"] == 2
    assert isinstance(summary["best_fitness"], float)
    assert "generation 1: best" in captured.err

    log = (tmp_path / "log.csv").read_text().splitlines()
    assert log[0] == "generation,best_fitness,mean_fitness"
    assert len(log) == 3
    genome = json.loads((tmp_path / "genome.json").read_text())
    assert len(genome["genes"]) == 51

    manifest = read_manifest("evolve-manifest.json")
    assert manifest["command"] == "evolve"
    assert manifest["config"]["generations"] == 2
    assert manifest["outputs"] == [str(tmp_path / "genome.json"),
                                   str(tmp_path / "log.csv")]

    # identical flags reproduce the genome byte for byte
    first = (tmp_path / "genome.json").read_bytes()
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "genome.json").read_bytes() == first


def test_evolve_has_no_workers_flag(capsys, tmp_path):
    # a generation is scored on one thread
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--generations", "1", "--population", "2", "--workers", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_genes_are_usage_errors(capsys, tmp_path, bad):
    genes = ["0.5"] * 51
    genes[7] = bad
    path = tmp_path / "bad.json"
    path.write_text('{"genes": [' + ", ".join(genes) + "]}")
    argv = ["simulate", "--scenario", "scenario1", "--controller", str(path)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "finite" in err[0]


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("n_inputs, n_outputs", [(4, 4), (4, 2), (5, 3)])
def test_genomes_of_another_shape_are_usage_errors(capsys, command, n_inputs, n_outputs):
    # the engine feeds 4 inputs and reads 3 outputs: a 4-6-4 network used
    # to run with its fourth output dropped, the others to fail mid-run
    network = {"n_inputs": n_inputs, "n_hidden": 6, "n_outputs": n_outputs}
    genes = [0.5] * ((n_inputs + 1) * 6 + 7 * n_outputs)
    Path("odd.json").write_text(json.dumps({"network": network, "genes": genes}))
    assert main([command, "--controller", "odd.json"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"got {n_inputs}-6-{n_outputs}" in err[0]
    assert not Path(f"{command}-manifest.json").exists()


def test_evolved_genome_feeds_simulate(capsys, tmp_path):
    genome_path = tmp_path / "champ.json"
    assert main([
        "evolve", "--generations", "1", "--population", "4", "--seed", "1",
        "--out", str(genome_path), "--log", str(tmp_path / "log.csv"),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main(["simulate", "--controller", str(genome_path)]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("scenario1,champ,")


# -- gpt-loop ----------------------------------------------------------------


def test_gpt_loop_replay_threshold_met(capsys, tmp_path, fixture_dir):
    argv = [
        "gpt-loop",
        "--replay", str(fixture_dir / "three_iter.jsonl"),
        "--stub-metrics", str(fixture_dir / "calibration_stub.json"),
        "--transcript", str(tmp_path / "t.jsonl"),
        "--out", str(tmp_path / "best.rules"),
    ]
    assert main(argv) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "threshold-met"
    assert summary["iterations"] == 3
    assert summary["provider_calls"] == 3
    assert summary["best_fitness"] == 62.44
    assert (tmp_path / "t.jsonl").exists()
    program = (tmp_path / "best.rules").read_text()
    assert "if motion" in program
    assert read_manifest("gpt-loop-manifest.json")["config"]["replay"] == str(
        fixture_dir / "three_iter.jsonl")


def test_gpt_loop_budget_exhausted(capsys, tmp_path, fixture_dir):
    # one low-scoring scripted reply, one iteration allowed
    assert main([
        "gpt-loop", "--replay", str(fixture_dir / "low_score.jsonl"),
        "--max-iterations", "1",
        "--transcript", str(tmp_path / "t.jsonl"),
        "--out", str(tmp_path / "best.rules"),
    ]) == EXIT_BUDGET_EXHAUSTED
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "iteration-budget-exhausted"
    assert summary["best_fitness"] == pytest.approx(56.0)


def test_gpt_loop_script_runs_dry(capsys, tmp_path, fixture_dir):
    # script has one reply but the loop wants a second iteration
    assert main([
        "gpt-loop", "--replay", str(fixture_dir / "low_score.jsonl"),
        "--transcript", str(tmp_path / "t.jsonl"),
        "--out", str(tmp_path / "best.rules"),
    ]) == EXIT_PROVIDER_FAILURE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "provider-failure"
    assert "provider failure" in captured.err


def test_gpt_loop_program_missing_from_the_stub(capsys, tmp_path, fixture_dir):
    # the stub names the missing program in one line, not its whole text
    stub = tmp_path / "empty.json"
    stub.write_text('{"entries": []}')
    assert main([
        "gpt-loop", "--replay", str(fixture_dir / "three_iter.jsonl"),
        "--stub-metrics", str(stub),
        "--transcript", str(tmp_path / "t.jsonl"),
        "--out", str(tmp_path / "best.rules"),
    ]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "not in the calibration stub" in err and "sha256" in err


def test_gpt_loop_without_provider(capsys):
    assert main(["gpt-loop"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "LUMENLOOP_API_KEY" in err
    assert "--replay" in err


def test_gpt_loop_model_flag_reaches_the_manifest(capsys, fixture_dir):
    # the default model is pinned by the golden transcript header
    assert main(["gpt-loop", "--replay", str(fixture_dir / "three_iter.jsonl"),
                 "--stub-metrics", str(fixture_dir / "calibration_stub.json"),
                 "--model", "other"]) == EXIT_OK
    capsys.readouterr()
    assert read_manifest("gpt-loop-manifest.json")["config"]["model"] == "other"


def test_gpt_loop_goes_live_with_a_key_and_no_replay(capsys, monkeypatch, fixture_dir):
    monkeypatch.setenv("LUMENLOOP_API_KEY", "sk-test")
    built = []

    def from_env(**kwargs):
        built.append(kwargs)
        return load_replay_script(fixture_dir / "three_iter.jsonl")

    monkeypatch.setattr("lumenloop.loop.HttpProvider.from_env", from_env)
    assert main(["gpt-loop", "--stub-metrics", str(fixture_dir / "calibration_stub.json"),
                 "--temperature", "0.5"]) == EXIT_OK
    capsys.readouterr()
    assert built == [{"model": DEFAULT_MODEL, "temperature": 0.5, "timeout": 60.0}]
    assert read_manifest("gpt-loop-manifest.json")["config"]["replay"] is None


def test_gpt_loop_manifest_written_before_work(capsys):
    # replay path is bad, but the manifest must already be on disk
    assert main(["gpt-loop", "--replay", "no-such-script.jsonl"]) == EXIT_USAGE
    capsys.readouterr()
    assert read_manifest("gpt-loop-manifest.json")["config"]["replay"] == (
        "no-such-script.jsonl"
    )


def test_gpt_loop_out_holds_only_this_runs_program(capsys, fixture_dir):
    # a run that scores no program leaves no earlier run's program at --out,
    # which its manifest's outputs would claim
    stub = ["--stub-metrics", str(fixture_dir / "calibration_stub.json"), "--out", "best.rules"]
    Path("best.rules").write_text("light = 1\n")
    assert main(["gpt-loop", "--replay", str(fixture_dir / "low_score.jsonl"), *stub]) == EXIT_USAGE
    assert not Path("best.rules").exists()
    assert "best.rules" in read_manifest("gpt-loop-manifest.json")["outputs"]
    assert main(["gpt-loop", "--replay", str(fixture_dir / "three_iter.jsonl"), *stub]) == EXIT_OK
    capsys.readouterr()
    assert "if motion" in Path("best.rules").read_text()


# -- compare -----------------------------------------------------------------


def test_compare_default_table(capsys):
    assert main(["compare"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    rows = lines[1:]
    assert len(rows) == 10

    for row in rows:
        printed = float(row.split(",")[5])
        assert abs(printed - recomputed_fitness(row)) <= 1e-9

    by_key = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}
    for scenario in ("scenario1", "scenario2"):
        assert by_key[(scenario, "always_on")] > by_key[(scenario, "always_off")]
    assert read_manifest("compare-manifest.json")["command"] == "compare"


def rows_printed(argv):
    """The CSV rows a successful run prints, header left out."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue().splitlines()[1:]


@settings(max_examples=50)
@given(weights=st.tuples(*[st.floats(-1e6, 1e6)] * 3),
       scenario=st.sampled_from(BUILTIN_SCENARIOS))
def test_compare_rows_follow_any_weights(weights, scenario):
    # under any weights, a row's fitness is the weights applied to the
    # printed columns, and simulate prints the row compare prints
    flags = ["--scenario", scenario, "--weights=" + ",".join(map(repr, weights))]
    w_people, w_energy, w_trip = weights
    for row in rows_printed(["compare", *flags]):
        _, label, energy, people, trip, fitness = row.split(",")
        recomputed = w_people * float(people) - w_energy * float(energy) - w_trip * float(trip)
        assert math.isclose(float(fitness), recomputed, rel_tol=1e-9), row
        assert rows_printed(["simulate", "--controller", label, *flags]) == [row]


def test_compare_explicit_selection(capsys):
    assert main([
        "compare", "--scenario", "scenario2", "--controller", "iteration3",
    ]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("scenario2,iteration3,")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_a_name_holding_csv_syntax_is_quoted(capsys, tmp_path, command):
    rules = tmp_path / 'dim,"half.rules'
    rules.write_text("light = 0.5\n")
    doc = builtin_scenario_document("scenario1")
    doc["name"] = "x\ny,z"
    scenario = tmp_path / "odd.json"
    scenario.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(scenario), "--controller", str(rules)]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == 2
    assert rows[1][:3] == ["x\ny,z", 'dim,"half', "50.00"]
    assert len(rows[1]) == 6


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_a_name_holding_a_carriage_return_is_quoted(capsys, tmp_path, command):
    # a reader on a newline='' file ends a row at an unquoted "\r" too
    rules = tmp_path / "dim\rhalf.rules"
    rules.write_text("light = 0.5\n")
    doc = builtin_scenario_document("scenario1")
    doc["name"] = "x\ry"
    scenario = tmp_path / "odd.json"
    scenario.write_text(json.dumps(doc))
    assert main([command, "--scenario", str(scenario), "--controller", str(rules)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER + "\n") and out.count("\n") == 2
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[1][:3] == ["x\ry", "dim\rhalf", "50.00"]
    assert len(rows) == 2 and len(rows[1]) == 6


# -- every command ---------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", ""],
    ["simulate", "--controller", ""],
    ["evolve", "--scenario", ""],
    ["gpt-loop", "--scenario", ""],
    ["gpt-loop", "--replay", ""],
    ["gpt-loop", "--replay", str(Path(__file__).parent / "fixtures" / "three_iter.jsonl"),
     "--stub-metrics", ""],
    ["compare", "--scenario", ""],
    ["compare", "--controller", "always_on", "--controller", ""],
    ["fitness-check", "--table", ""],
    # every command writes a manifest, and checks its path with the others
    *([command, "--manifest", ""]
      for command in ("simulate", "evolve", "gpt-loop", "compare", "fitness-check")),
])
def test_empty_names_and_paths_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    # Path("") is ".", which used to surface as "Is a directory: '.'"; and
    # with a key set, an empty --replay went live and an empty
    # --stub-metrics fell back to simulation
    monkeypatch.setenv("LUMENLOOP_API_KEY", "sk-test")
    built = []
    monkeypatch.setattr("lumenloop.loop.HttpProvider.from_env",
                        lambda **kwargs: built.append("http"))
    monkeypatch.setattr("lumenloop.loop.load_replay_script",
                        lambda path: built.append("replay"))
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {argv[-2]} must be a non-empty name or path, got ''"]
    assert built == []
    assert list(tmp_path.iterdir()) == []


REPLAYED = ["gpt-loop", "--replay", str(Path(__file__).parent / "fixtures" / "three_iter.jsonl"),
            "--stub-metrics", str(Path(__file__).parent / "fixtures" / "calibration_stub.json")]
EVOLVED = ["evolve", "--generations", "1", "--population", "2"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--trace", ""],
    ["simulate", "--manifest", ""],
    [*EVOLVED, "--out", ""],
    [*EVOLVED, "--log", ""],
    [*EVOLVED, "--manifest", ""],
    [*REPLAYED, "--transcript", ""],
    [*REPLAYED, "--out", ""],
    [*REPLAYED, "--manifest", ""],
    ["compare", "--manifest", ""],
    ["fitness-check", "--manifest", ""],
])
def test_empty_output_paths_are_usage_errors(capsys, tmp_path, argv):
    # Path("") is ".": evolve ran the whole GA and wrote its manifest and
    # log before failing on "Is a directory: '.'", and an empty --trace
    # wrote no trace with exit 0
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""  # nothing ran: no CSV row, summary or generation line
    assert err.splitlines() == [f"error: {argv[-2]} must be a non-empty name or path, got ''"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flags, path", [
    (["simulate", "--trace", "m.json", "--manifest", "m.json"], ("--trace", "--manifest"), "m.json"),
    (["simulate", "--trace", "simulate-manifest.json"], ("--trace", "--manifest"),
     "simulate-manifest.json"),
    ([*EVOLVED, "--out", "x.json", "--log", "x.json"], ("--out", "--log"), "x.json"),
    ([*EVOLVED, "--out", "x.json", "--manifest", "./sub/../x.json"], ("--out", "--manifest"),
     "./sub/../x.json"),
    ([*EVOLVED, "--log", "evolve-manifest.json"], ("--log", "--manifest"), "evolve-manifest.json"),
    ([*REPLAYED, "--transcript", "t.txt", "--out", "t.txt"], ("--transcript", "--out"), "t.txt"),
    ([*REPLAYED, "--transcript", "t.txt", "--manifest", "t.txt"], ("--transcript", "--manifest"),
     "t.txt"),
    ([*REPLAYED, "--out", "gpt-loop-manifest.json"], ("--out", "--manifest"),
     "gpt-loop-manifest.json"),
])
def test_two_outputs_naming_one_file_are_usage_errors(capsys, tmp_path, argv, flags, path):
    # evolve --out x --log x wrote the genome over the log and exited 0;
    # simulate --trace m --manifest m left a trace where the manifest was
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {flags[0]} and {flags[1]} name the same file: {path}"]
    assert list(tmp_path.iterdir()) == []


def test_an_absolute_and_a_relative_path_to_one_file_collide(capsys, tmp_path):
    argv = [*EVOLVED, "--out", "g.json", "--log", str(tmp_path / "g.json")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --out and --log name the same file")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--trace"],
    ["simulate", "--manifest"],
    [*EVOLVED, "--out"],
    [*EVOLVED, "--log"],
    [*EVOLVED, "--manifest"],
    [*REPLAYED, "--transcript"],
    [*REPLAYED, "--out"],
    [*REPLAYED, "--manifest"],
    ["compare", "--manifest"],
    ["fitness-check", "--manifest"],
], ids=lambda argv: f"{argv[0]} {argv[-1]}")
@pytest.mark.parametrize("value", ["missing/x.out", "d"])
def test_an_output_outside_an_existing_directory_is_a_usage_error(capsys, monkeypatch, tmp_path,
                                                                   argv, value):
    # evolve --out missing/g.json ran every generation, then exited 2 and
    # left its log and manifest; gpt-loop --out made every provider call
    # first; simulate --trace left a manifest naming a trace never written
    Path("d").mkdir()
    loaded = []
    monkeypatch.setattr("lumenloop.loop.load_replay_script",
                        lambda path: loaded.append(path))
    assert main([*argv, value]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: {argv[-1]} must be a file in an existing directory, got {value}"
    ]
    assert loaded == []
    assert list(tmp_path.iterdir()) == [tmp_path / "d"]
    assert list((tmp_path / "d").iterdir()) == []


FIXTURES = Path(__file__).parent / "fixtures"
INPUT_BYTES = {
    "s.json": json.dumps(builtin_scenario_document("scenario1")).encode(),
    "c.rules": b"light = 0.5\n",
    "r.jsonl": (FIXTURES / "three_iter.jsonl").read_bytes(),
    "m.json": (FIXTURES / "calibration_stub.json").read_bytes(),
    "t.csv": (FIXTURES / "reference_scores.csv").read_bytes(),
}


@pytest.mark.parametrize("argv, flags, name", [
    (["simulate", "--scenario", "s.json", "--manifest", "s.json"],
     ("--scenario", "--manifest"), "s.json"),
    (["simulate", "--controller", "c.rules", "--trace", "./c.rules"],
     ("--controller", "--trace"), "c.rules"),
    ([*EVOLVED, "--scenario", "s.json", "--out", "s.json"], ("--scenario", "--out"), "s.json"),
    ([*EVOLVED, "--scenario", "s.json", "--log", "s.json"], ("--scenario", "--log"), "s.json"),
    (["gpt-loop", "--replay", "r.jsonl", "--transcript", "r.jsonl"],
     ("--replay", "--transcript"), "r.jsonl"),
    (["gpt-loop", "--scenario", "s.json", "--replay", str(FIXTURES / "three_iter.jsonl"),
      "--out", "s.json"], ("--scenario", "--out"), "s.json"),
    (["gpt-loop", "--replay", str(FIXTURES / "three_iter.jsonl"), "--stub-metrics", "m.json",
      "--manifest", "m.json"], ("--stub-metrics", "--manifest"), "m.json"),
    (["compare", "--scenario", "scenario1", "--scenario", "s.json", "--manifest", "s.json"],
     ("--scenario", "--manifest"), "s.json"),
    (["compare", "--controller", "always_on", "--controller", "c.rules",
      "--manifest", "c.rules"], ("--controller", "--manifest"), "c.rules"),
    (["fitness-check", "--table", "t.csv", "--manifest", "t.csv"],
     ("--table", "--manifest"), "t.csv"),
])
def test_an_output_naming_an_input_file_is_a_usage_error(capsys, tmp_path, argv, flags, name):
    # simulate --scenario s.json --manifest s.json wrote the manifest over
    # the scenario and exited 0, so the rerun from that manifest exited 2
    Path(name).write_bytes(INPUT_BYTES[name])
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: {flags[0]} and {flags[1]} name the same file: {argv[-1]}"]
    assert Path(name).read_bytes() == INPUT_BYTES[name]
    assert list(tmp_path.iterdir()) == [tmp_path / name]


@pytest.mark.parametrize("argv, flags", [
    (["simulate", "--trace", "always_on"], ("--controller", "--trace")),
    (["simulate", "--manifest", "scenario1"], ("--scenario", "--manifest")),
    ([*EVOLVED, "--log", "scenario1"], ("--scenario", "--log")),
    (["compare", "--manifest", "iteration2"], ("--controller", "--manifest")),
])
def test_a_builtin_name_compares_as_a_path(capsys, tmp_path, argv, flags):
    # the check does not know which names are built-ins, so a built-in
    # name is compared as the path it spells; a flag's default counts
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flags[0]} and {flags[1]} name the same file: {argv[-1]}"
    ]
    assert list(tmp_path.iterdir()) == []


def test_two_inputs_may_name_one_file(capsys):
    Path("s.json").write_bytes(INPUT_BYTES["s.json"])
    argv = ["compare", "--scenario", "s.json", "--scenario", "./s.json",
            "--controller", "always_on"]
    assert main(argv) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and rows[0] == rows[1]
    assert Path("s.json").read_bytes() == INPUT_BYTES["s.json"]


# -- fitness-check -----------------------------------------------------------


def test_fitness_check_reference_rows(capsys):
    assert main(["fitness-check"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["rows"] == 10
    assert report["max_residual"] < 0.03


def test_fitness_check_perturbed_table(capsys, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(
        "label,energy,people,trip,expected_fitness\n"
        "fine,10.0,100.0,50.0,66.0\n"
        "drifted,10.0,100.0,50.0,67.5\n"
    )
    assert main(["fitness-check", "--table", str(table)]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["pass"] is False
    assert report["worst"] == "drifted"
    assert "drifted" in captured.err


@pytest.mark.parametrize("content", [
    "",
    "wrong,header,row,here,now\nfine,1,2,3,4\n",
    "label,energy,people,trip,expected_fitness\n",
    "label,energy,people,trip,expected_fitness\nbad,1,2,3\n",
    "label,energy,people,trip,expected_fitness\nbad,x,2,3,4\n",
])
def test_fitness_check_rejects_malformed_tables(capsys, tmp_path, content):
    table = tmp_path / "table.csv"
    table.write_text(content)
    assert main(["fitness-check", "--table", str(table)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


# -- misc --------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
