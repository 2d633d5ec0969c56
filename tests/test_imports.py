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


def modules_after_import(module: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print('\\n'.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
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
