"""Machine-speed calibration, summaries of unit times, the reference check.

A shared machine runs at a speed that drifts by a quarter or more within
seconds, as other tenants come and go; thread CPU time drifts the same
way, so it is the cycles, not the scheduler. The benchmark therefore runs
a fixed pure-Python kernel between units and scales each unit's wall
time by ``CALIBRATION_REFERENCE_S / kernel time``: the time the unit
would have taken with the kernel at its reference speed. The raw wall
times are reported beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
FLOAT_TOLERANCE = 1e-9  # parity contract: floats within 1e-9, counts exact
CALIBRATION_REFERENCE_S = 0.003  # kernel time at the reference speed
CALIBRATION_REPEATS = 3


class _Cell:
    __slots__ = ("level", "count")

    def __init__(self, level: float):
        self.level = level
        self.count = 0

    def bump(self, amount: float) -> float:
        self.count += 1
        self.level = min(max(self.level + amount, 0.0), 1.0)
        return self.level


def _kernel() -> float:
    """Dict lookups, float arithmetic, small objects and method calls,
    the mix the engine and the rule interpreter spend their time on."""
    start = time.perf_counter()
    cells = {i: _Cell(i / 64.0) for i in range(64)}
    total = 0.0
    for i in range(6000):
        cell = cells[(i * 7) & 63]
        total += cell.bump(0.01 if i % 3 else -0.02)
        if total > 1e6:
            total = 0.0
    return time.perf_counter() - start


def calibrate() -> float:
    """Median time of the fixed kernel, in seconds: the current speed."""
    return statistics.median(_kernel() for _ in range(CALIBRATION_REPEATS))


def min_units(percentile: float) -> int:
    """Fewest samples that leave ``TAIL_BEYOND`` beyond ``percentile``."""
    n = TAIL_BEYOND + 1
    while n - math.ceil(percentile * n / 100.0) < TAIL_BEYOND:
        n += 1
    return n


def tail(samples: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of ``samples`` and how many lie beyond it.

    With ``n`` samples sorted ascending the value has rank
    ``ceil(percentile * n / 100)``; the samples of higher rank are beyond.
    """
    n = len(samples)
    rank = max(1, math.ceil(percentile * n / 100.0))
    return sorted(samples)[rank - 1], n - rank


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Differences between a stored reference and an observed output.

    Strings, booleans and integers must match exactly, floats within
    ``FLOAT_TOLERANCE``; dicts and lists are compared element by element.
    """
    where = path or "output"
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return [f"{where}: keys differ"]
        return [m for key in expected for m in mismatches(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: lengths differ"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if abs(expected - actual) <= FLOAT_TOLERANCE:
            return []
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []
