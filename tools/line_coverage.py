"""Line coverage of src/lumenloop/ under the tier-1 tests, with no package.

Runs the tier-1 suite in this process under ``sys.settrace`` and finds
each line of a function in src/lumenloop/ that no test runs. Module and
class bodies run when a module is imported, so their lines are not
counted. Tests that start a subprocess are not traced into it. Line
tables differ between Python versions; the list below is for 3.11.

Exits 1 when an unrun line is missing from UNRUN, or when a line on
UNRUN now runs (or no longer holds code), and prints each such line;
otherwise exits with pytest's status. Extra arguments go to pytest.
Takes two to three times as long as the suite alone (88-126 s against
39-51 s on a shared 2-CPU VM):

    python tools/line_coverage.py -q
"""

from __future__ import annotations

import linecache
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "lumenloop"
CO_OPTIMIZED = 0x1  # set on functions, lambdas and comprehensions, not on bodies

# (file under src/lumenloop/, line) -> why no in-process test runs it
TRACER = "only benchmarks/tracing.py reads run_simulation off loop.runner"
UNRUN = {
    ("loop/runner.py", 337): TRACER,
    ("loop/runner.py", 339): TRACER,
}


def function_lines(code) -> set[int]:
    """The lines that hold code in the functions under ``code``."""
    lines = set()
    if code.co_flags & CO_OPTIMIZED:
        lines.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= function_lines(const)
    return lines


def main(pytest_args: list[str]) -> int:
    files = {str(path): path.relative_to(PACKAGE).as_posix()
             for path in PACKAGE.rglob("*.py")}
    run: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            run.add((files[frame.f_code.co_filename], frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = files.get(frame.f_code.co_filename)
        if name is None:
            return None
        run.add((name, frame.f_lineno))  # the def line: its RESUME traces no line
        return trace_lines

    sys.path.insert(0, str(SOURCE))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)

    unrun = {(name, line) for path, name in files.items()
             for line in function_lines(compile(Path(path).read_text(encoding="utf-8"),
                                                path, "exec"))
             if (name, line) not in run}

    def show(key) -> str:
        name, line = key
        code = linecache.getline(str(PACKAGE / name), line).strip()
        return f"  src/lumenloop/{name}:{line}: {code}"

    missing = sorted(unrun - UNRUN.keys())
    stale = sorted(UNRUN.keys() - unrun)
    if missing:
        print("lines no test runs, not on tools/line_coverage.py's UNRUN list:")
        print("\n".join(map(show, missing)))
    if stale:
        print("lines on UNRUN that now run or hold no code:")
        print("\n".join(map(show, stale)))
    if missing or stale:
        return 1
    print(f"line coverage: every function line runs but the {len(UNRUN)} on UNRUN")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
