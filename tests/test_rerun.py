"""The rerun contract as a property: an argv rebuilt from a run's manifest
reproduces the run byte for byte.

Each drawn argv runs ``cli.main`` in one directory. The argv is then rebuilt
from the manifest by README's rule alone (the command, then one
``--NAME=VALUE`` per config key, one per item of a list, none for null) and
run in a fresh directory. Both runs must give the same exit code and stdout,
and every file either writes, manifest included, must hold the same bytes.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from lumenloop.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
INPUTS = ("three_iter.jsonl", "low_score.jsonl", "calibration_stub.json", "genome.json",
          "reference_scores.csv")
CONTROLLERS = ("always_off", "always_on", "iteration1", "iteration2", "iteration3",
               "genome.json")
SCENARIOS = ("scenario1", "scenario2")


def rebuild(manifest: dict) -> list[str]:
    """README's rule: the argv a manifest records."""
    argv = [manifest["command"]]
    for name, value in manifest["config"].items():
        for item in value if isinstance(value, list) else [value]:
            if item is not None:
                argv.append(f"--{name.replace('_', '-')}={item}")
    return argv


@contextlib.contextmanager
def run_dir():
    """A fresh working directory holding the input fixtures."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            shutil.copy(FIXTURES / name, tmp)
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def run(argv: list[str]) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stdout and every file the run wrote, in a fresh directory."""
    out = io.StringIO()
    with run_dir() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
        files = {path.name: path.read_bytes() for path in tmp.iterdir()
                 if path.name not in INPUTS}
    return code, out.getvalue(), files


def tokens(**flags) -> list[str]:
    """argv tokens for drawn flags: none for None, one flag per item of a
    list, and "--flag=value" where the value starts with "-"."""
    argv = []
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is not None:
                text = str(item)
                argv += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    return argv


def maybe(strategy):
    return st.none() | strategy


def paths(name):
    """A default, the name, or the name behind a leading '-'."""
    return st.sampled_from([None, name, "-" + name])


UNIT_FLOATS = st.sampled_from(["1e-05", "0", "1"]) | st.floats(0.0, 1.0)
WEIGHTS = maybe(
    st.sampled_from(["1.0,0.4,0.6", "-1,0,2.5", "1e-05,3,0"])
    | st.tuples(*[st.floats(-100.0, 100.0)] * 3).map(lambda w: ",".join(map(str, w)))
)


@st.composite
def simulate_argvs(draw):
    return ["simulate", *tokens(
        scenario=draw(maybe(st.sampled_from(SCENARIOS))),
        controller=draw(maybe(st.sampled_from(CONTROLLERS))),
        trace=draw(paths("t.jsonl")),
        weights=draw(WEIGHTS),
        manifest=draw(paths("m.json")),
    )]


@st.composite
def evolve_argvs(draw):
    population = draw(st.integers(1, 6))
    return ["evolve", *tokens(
        scenario=draw(maybe(st.sampled_from(SCENARIOS))),
        generations=draw(st.integers(1, 3)),
        population=population,
        tournament=draw(maybe(st.integers(1, 4))),
        crossover_rate=draw(maybe(UNIT_FLOATS)),
        mutation_rate=draw(maybe(UNIT_FLOATS)),
        mutation_sigma=draw(maybe(st.sampled_from(["1e-05", "2"]) | st.floats(0.0, 3.0))),
        elitism=draw(maybe(st.integers(0, population))),
        hidden=draw(maybe(st.integers(0, 4))),
        seed=draw(maybe(st.integers(0, 9))),
        out=draw(paths("g.json")),
        log=draw(paths("e.csv")),
        weights=draw(WEIGHTS),
        manifest=draw(paths("m.json")),
    )]


@st.composite
def gpt_loop_argvs(draw):
    return ["gpt-loop", *tokens(
        scenario=draw(maybe(st.sampled_from(SCENARIOS))),
        replay=draw(st.sampled_from(["three_iter.jsonl", "low_score.jsonl"])),
        stub_metrics=draw(maybe(st.just("calibration_stub.json"))),
        model=draw(maybe(st.just("other"))),
        temperature=draw(maybe(st.floats(0.0, 2.0))),
        timeout=draw(maybe(st.sampled_from(["1e-05", "30"]))),
        threshold=draw(maybe(st.sampled_from(["-5", "62"]) | st.floats(-100.0, 100.0))),
        max_iterations=draw(maybe(st.integers(1, 3))),
        max_repair_attempts=draw(maybe(st.integers(0, 2))),
        transcript=draw(paths("t.jsonl")),
        out=draw(paths("best.rules")),
        weights=draw(WEIGHTS),
        manifest=draw(paths("m.json")),
    )]


@st.composite
def compare_argvs(draw):
    return ["compare", *tokens(
        scenario=draw(st.lists(st.sampled_from(SCENARIOS), max_size=2)),
        controller=draw(st.lists(st.sampled_from(CONTROLLERS), max_size=3)),
        weights=draw(WEIGHTS),
        manifest=draw(paths("m.json")),
    )]


@st.composite
def fitness_check_argvs(draw):
    return ["fitness-check", *tokens(
        table=draw(maybe(st.just("reference_scores.csv"))),
        tolerance=draw(maybe(st.sampled_from(["1e-05", "0.5"]) | st.floats(0.0, 1.0))),
        manifest=draw(paths("m.json")),
    )]


@settings(max_examples=150, phases=[Phase.explicit, Phase.generate])
@given(argv=st.one_of(simulate_argvs(), evolve_argvs(), gpt_loop_argvs(), compare_argvs(),
                      fitness_check_argvs()))
@example(argv=["simulate", "--controller", "iteration3", "--trace=-t.jsonl"])
@example(argv=["evolve", "--generations", "3", "--population", "6",
               "--mutation-sigma", "1e-05", "--out=-g.json"])
@example(argv=["gpt-loop", "--replay", "three_iter.jsonl",
               "--stub-metrics", "calibration_stub.json", "--threshold=-5"])
@example(argv=["gpt-loop", "--replay", "three_iter.jsonl", "--max-iterations", "2"])
@example(argv=["compare", "--scenario", "scenario1", "--scenario", "scenario2",
               "--controller", "iteration2", "--controller", "genome.json",
               "--weights=-1,0,2.5"])
@example(argv=["fitness-check", "--table", "reference_scores.csv", "--tolerance", "1e-05"])
def test_argv_rebuilt_from_the_manifest_reruns_byte_for_byte(argv):
    code, out, files = run(argv)
    name = build_parser().parse_args(argv).manifest
    manifest = json.loads(files[name])
    # outputs lists every file the run wrote besides its manifest
    assert set(files) - {name} <= set(manifest["outputs"])
    assert run(rebuild(manifest)) == (code, out, files)
