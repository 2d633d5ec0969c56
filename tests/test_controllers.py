"""Controller resolution from names, program files, and genome files."""

import json

import numpy as np
import pytest

from lumenloop.controllers import DslController, resolve_controller
from lumenloop.dsl.parser import parse_source
from lumenloop.engine import SensorReading
from lumenloop.errors import ParseError, UnknownBaseline, ValidationError
from lumenloop.neuro.network import (
    DEFAULT_NETWORK,
    Genome,
    NetworkController,
    save_genome,
)


def reading(**kw):
    base = dict(
        ambient=0.0, motion=False, signal=0.0,
        current_light=0.0, ticks_since_motion=255, tick=0,
    )
    base.update(kw)
    return SensorReading(**base)


def test_builtin_names_resolve():
    for name in ("always_on", "always_off", "iteration1", "iteration2", "iteration3"):
        resolved = resolve_controller(name)
        assert resolved.label == name
        controller = resolved.factory()
        assert isinstance(controller, DslController)
        controller.act(reading())


def test_unknown_name_lists_builtins():
    with pytest.raises(UnknownBaseline) as err:
        resolve_controller("nonsense")
    message = str(err.value)
    assert "always_on" in message and "iteration3" in message


def test_program_file_resolves(tmp_path):
    path = tmp_path / "dimmer.rules"
    path.write_text("if motion then light = 1 else light = 0.1 end")
    resolved = resolve_controller(str(path))
    assert isinstance(resolved.factory(), DslController)
    assert resolved.label == "dimmer"
    assert resolved.factory().act(reading(motion=True)).light == 1.0


def test_program_file_with_parse_error(tmp_path):
    path = tmp_path / "broken.rules"
    path.write_text("if motion light = 1 end")
    with pytest.raises(ParseError):
        resolve_controller(str(path))


def test_program_file_with_validation_error(tmp_path):
    path = tmp_path / "bad.rules"
    path.write_text("ambient = 1")
    with pytest.raises(ValidationError):
        resolve_controller(str(path))


def test_genome_file_resolves(tmp_path):
    path = tmp_path / "net.json"
    genes = np.zeros(DEFAULT_NETWORK.genome_length)
    save_genome(path, Genome(genes=genes, fitness=12.5), DEFAULT_NETWORK)
    resolved = resolve_controller(str(path))
    assert resolved.label == "net"
    controller = resolved.factory()
    assert isinstance(controller, NetworkController)
    cmd = controller.act(reading())
    assert cmd.light == 0.5  # all-zero weights sigmoid to exactly one half


def test_missing_pathlike_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        resolve_controller(str(tmp_path / "absent.rules"))


def test_file_named_like_builtin_wins_with_path(tmp_path):
    # an explicit path is never treated as a builtin name
    path = tmp_path / "always_on"
    path.write_text("light = 0.25")
    resolved = resolve_controller(str(path))
    controller = resolved.factory()
    assert isinstance(controller, DslController)
    assert controller.act(reading()).light == 0.25


def test_genome_file_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"genes": [0.0] * 10}))
    with pytest.raises(Exception):
        resolve_controller(str(path))


def test_dsl_controller_instances_are_isolated():
    program = parse_source("mem.n = mem.n + 1 broadcast = mem.n / 4")
    a, b = DslController(program), DslController(program)
    a.act(reading())
    a.act(reading())
    assert a.act(reading()).broadcast == 0.75
    assert b.act(reading()).broadcast == 0.25
