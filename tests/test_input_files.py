"""A malformed input file ends in exit 2 and one ``error:`` line, never a traceback.

Each generated case starts from a valid file of one kind (scenario, genome,
rule program, replay script, calibration stub, fitness table) and breaks
it once: a value of another type, a missing key, a number written as a
string, NaN, ±inf, 1e400, deep nesting, a bad rule statement, a bad table
cell, or bytes that are not UTF-8. The command that reads that kind of
file must reject it through ``cli.main`` before it does any work.
"""

import contextlib
import copy
import io
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lumenloop.cli import EXIT_USAGE, main
from lumenloop.dsl.baselines import BUILTIN_PROGRAM_SOURCES
from lumenloop.dsl.parser import MAX_NESTING
from lumenloop.dsl.validator import MAX_PROGRAM_TOKENS
from lumenloop.neuro.network import DEFAULT_NETWORK, Genome, genome_document
from lumenloop.scenario import builtin_scenario_document

FIXTURES = Path(__file__).parent / "fixtures"
STUB = FIXTURES / "calibration_stub.json"
SCRIPT = FIXTURES / "three_iter.jsonl"

# valid documents; every case breaks one of them
SCENARIO = builtin_scenario_document("scenario1")
GENOME = genome_document(Genome(np.zeros(DEFAULT_NETWORK.genome_length), fitness=1.0))
CALIBRATION = json.loads(STUB.read_text(encoding="utf-8"))
REPLAY = [json.loads(line) for line in SCRIPT.read_text(encoding="utf-8").splitlines()]
RULES = BUILTIN_PROGRAM_SOURCES["iteration3"]
TABLE = (FIXTURES / "reference_scores.csv").read_text(encoding="utf-8")
JSON_DOCUMENTS = {"scenario": SCENARIO, "genome": GENOME, "calibration": CALIBRATION}
SUFFIX = {"scenario": ".json", "genome": ".json", "rule": ".rules", "replay": ".jsonl",
          "calibration": ".json", "table": ".csv"}

# a genome file may leave these out and get the defaults
OPTIONAL_KEYS = {"genome": {"network", "fitness", "n_inputs", "n_hidden", "n_outputs"}}
DEEP = 200_000
# stand-ins that json.dumps cannot write, put into the text after dumping
HUGE, NESTED = "@1e400@", "@nested@"
NOT_NUMBERS = ["abc", "0.5", True, [1], {"x": 1}, float("nan"), float("inf"),
               float("-inf"), HUGE, NESTED]
NOT_STRINGS = [7, True, [1], {"x": 1}, NESTED]
NEST = 10 * MAX_NESTING
BAD_STATEMENTS = ["light = ²", "light = ½", "light = 1" + "0" * 400, "light = @",
                  "light = " + "(" * NEST + "1" + ")" * NEST, "light = " + "-" * NEST + "1",
                  "if motion then " * NEST, "light = 1 " * MAX_PROGRAM_TOKENS,
                  "if motion light = 1 end", "ambient = 1", "bogus = 1"]
BAD_CELLS = ["abc", "nan", "NaN", "inf", "-Infinity", "1e400", "", "0x10", "[1]"]


def check_rejected(kind: str, data: bytes) -> str:
    """Run the command that reads ``kind`` on ``data``: exit 2, one error line,
    which it returns."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / f"input{SUFFIX[kind]}"
        path.write_bytes(data)
        loop = ["gpt-loop", "--transcript", str(tmp / "t.jsonl"), "--out", str(tmp / "best.rules")]
        argv = {
            "scenario": ["simulate", "--scenario", str(path)],
            "genome": ["simulate", "--controller", str(path)],
            "rule": ["simulate", "--controller", str(path)],
            "replay": [*loop, "--replay", str(path), "--stub-metrics", str(STUB)],
            "calibration": [*loop, "--replay", str(SCRIPT), "--stub-metrics", str(path)],
            "table": ["fitness-check", "--table", str(path)],
        }[kind] + ["--manifest", str(tmp / "manifest.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in err.getvalue()
    return lines[0]


def dumps(doc, depth: int = DEEP) -> str:
    text = json.dumps(doc)
    return (text.replace(json.dumps(HUGE), "1e400")
                .replace(json.dumps(NESTED), "[" * depth + "]" * depth))


def with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    reduce(getitem, head, doc)[last] = value
    return doc


def paths(node, at=()):
    """Every position in a JSON value, the value itself first."""
    yield at
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from paths(child, (*at, key))


@st.composite
def broken_json(draw, kind):
    """One value of a JSON document (one line of a replay script) replaced or removed."""
    holder = copy.deepcopy(REPLAY if kind == "replay" else [JSON_DOCUMENTS[kind]])
    line = draw(st.integers(0, len(holder) - 1))
    *head, last = (line, *draw(st.sampled_from(list(paths(holder[line])))))
    parent = reduce(getitem, head, holder)
    value = parent[last]
    if (isinstance(parent, dict) and last not in OPTIONAL_KEYS.get(kind, ())
            and draw(st.booleans())):
        del parent[last]
    elif isinstance(value, (int, float)):
        parent[last] = draw(st.sampled_from(NOT_NUMBERS))
    elif isinstance(value, str):
        parent[last] = draw(st.sampled_from(NOT_STRINGS))
    else:  # an object or an array becomes a value of another type
        parent[last] = draw(st.sampled_from(["abc", 7, NESTED, [1] if isinstance(value, dict)
                                             else {"x": 1}]))
    depth = draw(st.sampled_from([300, DEEP]))
    if kind == "replay":
        return "".join(dumps(doc, depth) + "\n" for doc in holder)
    return dumps(holder[0], depth)


@st.composite
def broken_rules(draw):
    lines = RULES.splitlines()
    at = draw(st.integers(0, len(lines)))
    return "\n".join([*lines[:at], draw(st.sampled_from(BAD_STATEMENTS)), *lines[at:]])


@st.composite
def broken_table(draw):
    rows = [line.split(",") for line in TABLE.splitlines()]
    row = draw(st.integers(1, len(rows) - 1))
    rows[row][draw(st.integers(1, 4))] = draw(st.sampled_from(BAD_CELLS))
    return "\n".join(",".join(cells) for cells in rows)


def truncated(text: str):
    return st.integers(0, len(text) - 1).map(lambda cut: text[:cut])


@st.composite
def not_utf8(draw, text: str):
    data = text.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + data[at:]


def broken_files():
    text = {
        "scenario": broken_json("scenario") | truncated(json.dumps(SCENARIO)),
        "genome": broken_json("genome") | truncated(json.dumps(GENOME)),
        "calibration": broken_json("calibration") | truncated(json.dumps(CALIBRATION)),
        "replay": broken_json("replay"),
        "rule": broken_rules(),
        "table": broken_table(),
    }
    valid = {"scenario": json.dumps(SCENARIO), "genome": json.dumps(GENOME),
             "calibration": json.dumps(CALIBRATION), "replay": SCRIPT.read_text(encoding="utf-8"),
             "rule": RULES, "table": TABLE}
    return st.one_of(*(
        st.tuples(st.just(kind), strategy.map(str.encode) | not_utf8(valid[kind]))
        for kind, strategy in text.items()
    ))


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(case=broken_files())
# the faults below each used to end in a traceback or exit 0
@example(case=("genome", dumps(with_value(GENOME, ["fitness"], "abc")).encode()))
@example(case=("genome", dumps(with_value(GENOME, ["fitness"], [1])).encode()))
@example(case=("genome", dumps(with_value(GENOME, ["network", "n_hidden"], HUGE)).encode()))
@example(case=("genome", dumps(with_value(GENOME, ["network", "n_hidden"], -1)).encode()))
@example(case=("scenario", b"\xff" + json.dumps(SCENARIO).encode()))
@example(case=("genome", b"\xff" + json.dumps(GENOME).encode()))
@example(case=("rule", b"\xff" + RULES.encode()))
@example(case=("replay", b"\xff" + SCRIPT.read_bytes()))
@example(case=("calibration", b"\xff" + STUB.read_bytes()))
@example(case=("table", b"\xff" + TABLE.encode()))
@example(case=("scenario", ("[" * DEEP + "]" * DEEP).encode()))
@example(case=("table", TABLE.replace("29.49", "nan").encode()))
@example(case=("calibration", dumps(
    with_value(CALIBRATION, ["entries", 0, "metrics", "fitness"], "nan")).encode()))
@example(case=("rule", b"light = \xc2\xb2\n"))
@example(case=("rule", ("light = 1" + "0" * 400).encode()))
# an empty .json controller file once ran as an empty rule program
@example(case=("genome", b""))
@example(case=("genome", b" \n\t "))
def test_malformed_input_files_exit_2(case):
    check_rejected(*case)


def test_a_negative_hidden_width_is_named():
    # it once fell through to a gene count check: "expected -5"
    genome = dumps(with_value(GENOME, ["network", "n_hidden"], -1))
    error = check_rejected("genome", genome.encode())
    assert error == "error: network.n_hidden: expected an integer >= 0, got -1"


@pytest.mark.parametrize("kind, path, value, error", [
    ("scenario", ["ambient_schedule"], {"x": 1}, "ambient_schedule: expected an array"),
    ("scenario", ["poles"], "abc", "poles: expected an array"),
    ("scenario", ["people"], 7, "people: expected an array"),
    ("scenario", ["poles", 0, "neighbors"], {"x": 1}, "poles[0].neighbors: expected an array"),
    ("scenario", ["ambient_schedule", 0, "from_tick"], -1,
     "ambient_schedule[0].from_tick: must be >= 0"),
    ("scenario", ["poles"], [], "poles: at least one pole required"),
    ("scenario", ["poles", 0, "neighbors"], [1, 1], "poles[0].neighbors: duplicate neighbor ids"),
    ("genome", ["network"], 7, "'network' must be an object"),
])
def test_each_malformed_field_is_named(kind, path, value, error):
    # one value of a valid file replaced; each case reaches its own check
    doc = dumps(with_value(JSON_DOCUMENTS[kind], path, value))
    assert check_rejected(kind, doc.encode()) == f"error: {error}"
