"""Start-up cost: a command imports only the code it runs.

Each check imports a module in a fresh interpreter, so modules that other
tests have already loaded cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lumenloop

PACKAGE_ROOT = str(Path(lumenloop.__file__).resolve().parent.parent)


def modules_after_import(module: str, then: str = "") -> set[str]:
    """The modules loaded once ``module`` is imported and the statements
    ``then`` have run in the same fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    code = f"import sys, {module}\n{then}\nprint('\\n'.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_the_cli_leaves_out_requests_and_the_loop_package():
    loaded = modules_after_import("lumenloop.cli")
    assert "lumenloop.cli" in loaded
    assert "requests" not in loaded
    assert sorted(m for m in loaded if m.startswith("lumenloop.loop")) == []


@pytest.mark.parametrize("module", ["lumenloop.loop", "lumenloop"])
def test_only_a_live_provider_imports_requests(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert "requests" not in loaded


@pytest.mark.parametrize("module", ["lumenloop.cli", "lumenloop.neuro"])
def test_evolution_runs_without_a_thread_pool(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert sorted(m for m in loaded if m.startswith("concurrent")) == []


@pytest.mark.parametrize("module", [
    "lumenloop", "lumenloop.scenario", "lumenloop.dsl", "lumenloop.fitness", "lumenloop.loop",
])
def test_the_rule_language_scenarios_and_the_loop_load_without_numpy(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert "numpy" not in loaded
    assert "lumenloop.engine" not in loaded


@pytest.mark.parametrize("module", ["lumenloop.cli", "lumenloop.controllers"])
def test_only_evolve_loads_the_ga(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert "lumenloop.neuro.network" in loaded
    assert "lumenloop.neuro.evolution" not in loaded


def test_a_stub_scored_session_runs_without_numpy():
    fixtures = Path(__file__).parent / "fixtures"
    session = f"""
from lumenloop.scenario import builtin_scenario
provider = lumenloop.loop.load_replay_script({str(fixtures / "three_iter.jsonl")!r})
stub = lumenloop.loop.load_calibration({str(fixtures / "calibration_stub.json")!r})
transcript = lumenloop.loop.run_loop(lumenloop.loop.LoopConfig(), provider,
                                     builtin_scenario("scenario1"),
                                     evaluator=lumenloop.loop.stub_evaluator(stub))
assert transcript.status == lumenloop.loop.STATUS_THRESHOLD_MET, transcript.status
"""
    loaded = modules_after_import("lumenloop.loop", then=session)
    assert "lumenloop.loop.runner" in loaded
    assert "numpy" not in loaded


EXPORTS_RESOLVE = """
import importlib
for package, homes in [
    ("lumenloop", ["errors", "fitness", "scenario"]),
    ("lumenloop.neuro", ["network"]),
]:
    pkg = importlib.import_module(package)
    unbound = [name for name in pkg.__all__ if name not in vars(pkg)]
    assert not unbound, (package, unbound)
    got = {name: getattr(pkg, name) for name in pkg.__all__ if name != "__version__"}
    homes = [importlib.import_module(f"{package}.{home}") for home in homes]
    for name, obj in got.items():
        owners = [home for home in homes if name in vars(home)]
        assert owners and all(vars(home)[name] is obj for home in owners), name
    try:
        pkg.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError(f"{package}.no_such_name resolved")
"""


def test_every_exported_name_is_its_defining_modules_object():
    modules_after_import("lumenloop", then=EXPORTS_RESOLVE)
