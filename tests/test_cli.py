"""End-to-end CLI behavior through main(argv), including exit codes."""

import json
from pathlib import Path

import pytest

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
from lumenloop.fitness import DEFAULT_WEIGHTS


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


def test_simulate_bad_weights(capsys):
    assert main(["simulate", "--weights", "1,2"]) == EXIT_USAGE
    assert "three comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--weights", "nan,0.4,0.6"],
    ["simulate", "--weights", "1,inf,0"],
    *(
        # a one-generation, two-genome run would finish if the value passed
        ["evolve", "--generations", "1", "--population", "2", flag, value]
        for flag, value in [
            ("--population", "0"),
            ("--generations", "0"),
            ("--tournament", "0"),
            ("--hidden", "-1"),
            ("--elitism", "-1"),
            ("--elitism", "3"),
            ("--crossover-rate", "-0.5"),
            ("--mutation-rate", "7"),
            ("--mutation-sigma", "-0.1"),
            ("--mutation-sigma", "nan"),
            ("--mutation-sigma", "inf"),
            ("--workers", "0"),
            ("--workers", "-4"),
        ]
    ),
    *(
        # the replayed session would run to its end if the value passed
        ["gpt-loop", "--replay", str(Path(__file__).parent / "fixtures" / "three_iter.jsonl"),
         flag, value]
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
    ["fitness-check", "--tolerance", "nan"],
    ["fitness-check", "--tolerance", "-1"],
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert argv[-2] in err[0]


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


def test_evolve_outputs_do_not_depend_on_workers(capsys, tmp_path):
    argv = [
        "evolve", "--generations", "3", "--population", "9", "--seed", "4",
        "--out", "genome.json", "--log", "log.csv",
    ]
    runs = []
    for workers in ("1", "4"):
        assert main([*argv, "--workers", workers]) == EXIT_OK
        runs.append({
            name: Path(name).read_bytes()
            for name in ("genome.json", "log.csv", "evolve-manifest.json")
        })
    capsys.readouterr()
    one, four = runs
    assert one["genome.json"] == four["genome.json"]
    assert one["log.csv"] == four["log.csv"]
    # the manifest records the flag itself and nothing else that differs
    assert one["evolve-manifest.json"] == four["evolve-manifest.json"].replace(
        b'"workers": 4', b'"workers": 1'
    )


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
    assert read_manifest("gpt-loop-manifest.json")["config"]["provider"] == "replay"


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


def test_gpt_loop_without_provider(capsys):
    assert main(["gpt-loop"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "LUMENLOOP_API_KEY" in err
    assert "--replay" in err


def test_gpt_loop_manifest_written_before_work(capsys):
    # replay path is bad, but the manifest must already be on disk
    assert main(["gpt-loop", "--replay", "no-such-script.jsonl"]) == EXIT_USAGE
    capsys.readouterr()
    assert read_manifest("gpt-loop-manifest.json")["config"]["replay"] == (
        "no-such-script.jsonl"
    )


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


def test_compare_explicit_selection(capsys):
    assert main([
        "compare", "--scenario", "scenario2", "--controller", "iteration3",
    ]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("scenario2,iteration3,")


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
