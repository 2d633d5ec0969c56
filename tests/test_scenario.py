"""Scenario schema, validation, graph helpers, and the built-in grids."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumenloop.engine import compile_scenario
from lumenloop.errors import SchemaError, ValidationError
from lumenloop.scenario import (
    BUILTIN_SCENARIOS,
    MAX_TICKS,
    AmbientEntry,
    builtin_scenario,
    builtin_scenario_document,
    distances_to,
    load_scenario,
    parse_scenario,
    shortest_path,
)


def doc1():
    return builtin_scenario_document("scenario1")


def test_builtin_docs_parse():
    for name in BUILTIN_SCENARIOS:
        spec = builtin_scenario(name)
        assert spec.name == name


def test_scenario1_shape():
    spec = builtin_scenario("scenario1")
    assert len(spec.poles) == 9
    assert spec.max_ticks == 60
    assert spec.movement_threshold == 0.5
    assert len(spec.people) == 3
    # center pole of the 3x3 grid touches all four sides
    assert spec.neighbor_map()[4] == (1, 3, 5, 7)
    # corner poles have exactly two neighbors
    assert set(spec.neighbor_map()[0]) == {1, 3}


def test_scenario2_shape():
    spec = builtin_scenario("scenario2")
    assert len(spec.poles) == 25
    assert spec.max_ticks == 100
    assert len(spec.people) == 6
    assert set(spec.neighbor_map()[12]) == {7, 11, 13, 17}


def test_unknown_builtin_rejected():
    with pytest.raises(ValidationError):
        builtin_scenario_document("scenario99")


def test_unknown_top_level_key():
    doc = doc1()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_scenario(doc)


def test_missing_top_level_key():
    doc = doc1()
    del doc["poles"]
    with pytest.raises(SchemaError, match="missing keys"):
        parse_scenario(doc)


def test_bool_is_not_an_int():
    doc = doc1()
    doc["max_ticks"] = True
    with pytest.raises(SchemaError, match="max_ticks"):
        parse_scenario(doc)


def test_rng_seed_is_required_and_an_integer():
    # reserved key: the dynamics ignore it, but the schema still checks it
    doc = doc1()
    doc["rng_seed"] = 7.5
    with pytest.raises(SchemaError, match="rng_seed"):
        parse_scenario(doc)
    del doc["rng_seed"]
    with pytest.raises(SchemaError, match="missing keys"):
        parse_scenario(doc)


def test_empty_name_rejected():
    doc = doc1()
    doc["name"] = ""
    with pytest.raises(SchemaError, match="name"):
        parse_scenario(doc)


def test_nonpositive_max_ticks():
    doc = doc1()
    doc["max_ticks"] = 0
    # start ticks are range-checked against max_ticks after the sign check
    with pytest.raises(ValidationError, match="max_ticks"):
        parse_scenario(doc)


@pytest.mark.parametrize("max_ticks", [MAX_TICKS + 1, 10**12])
def test_max_ticks_above_bound_rejected(max_ticks):
    # checked before any per-tick table is built; never simulated here
    doc = doc1()
    doc["max_ticks"] = max_ticks
    with pytest.raises(ValidationError) as err:
        parse_scenario(doc)
    assert err.value.path == "max_ticks"


def test_max_ticks_at_bound_parses():
    doc = doc1()
    doc["max_ticks"] = MAX_TICKS
    assert parse_scenario(doc).max_ticks == MAX_TICKS


def test_threshold_out_of_range():
    doc = doc1()
    doc["movement_threshold"] = 1.5
    with pytest.raises(ValidationError, match="movement_threshold"):
        parse_scenario(doc)


def test_ambient_schedule_must_increase():
    doc = doc1()
    doc["ambient_schedule"] = [
        {"from_tick": 0, "level": 0.0},
        {"from_tick": 0, "level": 0.5},
    ]
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_scenario(doc)


def test_ambient_level_out_of_range():
    doc = doc1()
    doc["ambient_schedule"] = [{"from_tick": 0, "level": 2.0}]
    with pytest.raises(ValidationError, match="level"):
        parse_scenario(doc)


def test_duplicate_pole_ids():
    doc = doc1()
    doc["poles"].append(dict(doc["poles"][0]))
    with pytest.raises(ValidationError, match="duplicate pole ids"):
        parse_scenario(doc)


def test_self_neighbor_rejected():
    doc = doc1()
    doc["poles"][0]["neighbors"] = [0, 1, 3]
    with pytest.raises(ValidationError, match="itself"):
        parse_scenario(doc)


def test_unknown_neighbor_rejected():
    doc = doc1()
    doc["poles"][0]["neighbors"] = [1, 3, 99]
    with pytest.raises(ValidationError, match="unknown pole id 99"):
        parse_scenario(doc)


def test_asymmetric_edge_rejected():
    doc = doc1()
    # 0 -> 4 without the reverse edge
    doc["poles"][0]["neighbors"] = [1, 3, 4]
    with pytest.raises(ValidationError, match="asymmetric"):
        parse_scenario(doc)


def test_duplicate_person_ids():
    doc = doc1()
    doc["people"][1]["id"] = doc["people"][0]["id"]
    with pytest.raises(ValidationError, match="duplicate person ids"):
        parse_scenario(doc)


def test_person_origin_must_exist():
    doc = doc1()
    doc["people"][0]["origin"] = 77
    with pytest.raises(ValidationError, match="unknown pole id 77"):
        parse_scenario(doc)


def test_start_tick_in_range():
    doc = doc1()
    doc["people"][0]["start_tick"] = 60
    with pytest.raises(ValidationError, match="start_tick"):
        parse_scenario(doc)


def test_unreachable_destination():
    doc = doc1()
    # an isolated pole pair disconnected from the grid
    doc["poles"].append({"id": 100, "neighbors": [101]})
    doc["poles"].append({"id": 101, "neighbors": [100]})
    doc["people"][0]["destination"] = 100
    with pytest.raises(ValidationError, match="no path"):
        parse_scenario(doc)


def test_ambient_at_steps():
    doc = doc1()
    doc["ambient_schedule"] = [
        {"from_tick": 5, "level": 0.3},
        {"from_tick": 10, "level": 0.8},
    ]
    spec = parse_scenario(doc)
    assert spec.ambient_at(0) == 0.0
    assert spec.ambient_at(4) == 0.0
    assert spec.ambient_at(5) == 0.3
    assert spec.ambient_at(9) == 0.3
    assert spec.ambient_at(10) == 0.8
    assert spec.ambient_at(59) == 0.8


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    max_ticks=st.integers(1, 60),
    schedule=st.lists(
        st.builds(AmbientEntry, st.integers(-2, 70), st.floats(0.0, 1.0)), max_size=8
    ),
    ordered=st.booleans(),
)
def test_compiled_ambient_equals_ambient_at(max_ticks, schedule, ordered):
    # ambient_at defines the level per tick; the engine's table is built in
    # one walk. Unordered and repeated from_ticks, which validation
    # rejects, are checked too: the walk must stop where ambient_at stops.
    if ordered:
        schedule.sort(key=lambda entry: entry.from_tick)
    spec = replace(builtin_scenario("scenario1"), max_ticks=max_ticks,
                   ambient_schedule=tuple(schedule))
    assert compile_scenario(spec).ambient == tuple(
        spec.ambient_at(tick) for tick in range(max_ticks)
    )


def test_distances_and_paths():
    spec = builtin_scenario("scenario1")
    dist = distances_to(spec, 8)
    assert dist[8] == 0
    assert dist[0] == 4
    assert dist[4] == 2
    # lowest-id tie-breaking gives the top-row-then-right-edge route
    assert shortest_path(spec, 0, 8) == [0, 1, 2, 5, 8]
    assert shortest_path(spec, 8, 0) == [8, 5, 2, 1, 0]
    assert shortest_path(spec, 4, 4) == [4]


def test_shortest_path_unreachable():
    doc = doc1()
    doc["poles"].append({"id": 100, "neighbors": [101]})
    doc["poles"].append({"id": 101, "neighbors": [100]})
    spec = parse_scenario(doc)
    with pytest.raises(ValidationError, match="no path"):
        shortest_path(spec, 0, 100)


def test_load_scenario_sources(tmp_path):
    # an already parsed document goes to parse_scenario
    assert parse_scenario(doc1()).name == "scenario1"
    # built-in name form
    assert load_scenario("scenario2").name == "scenario2"
    # file form
    path = tmp_path / "custom.json"
    doc = doc1()
    doc["name"] = "custom"
    path.write_text(json.dumps(doc))
    assert load_scenario(path).name == "custom"
    assert load_scenario(str(path)).name == "custom"


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_scenario(path)
