"""Shared fixtures plus a terminal summary for the acceptance suite."""

import pytest
from hypothesis import settings

# A property test checks the same examples on every run: a fixed example
# order, no example database and no deadline on a slow machine. A test's own
# @settings adds only what differs for it.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

FIXTURES = {
    "three_iter": "three_iter.jsonl",
    "calibration": "calibration_stub.json",
    "low_score": "low_score.jsonl",
    "reference_csv": "reference_scores.csv",
}

# criterion number -> short label for the summary block
_CRITERIA = {
    1: "fitness formula reproduces all 10 reference rows within 0.03",
    2: "weight recovery within 0.01 per weight, residual < 0.03",
    3: "reference absolute metrics out of scope; structure asserted instead",
    4: "simulator properties (determinism, monotonicity, causality, feasibility)",
    5: "rule-language suite (round-trip corpus, totality fuzz, oracle match)",
    6: "neuroevolution suite (monotone elitism, imitation)",
    7: "three-iteration replay reaches threshold with verbatim feedback",
    8: "repair path records attempts and parse failures",
    9: "offline compare CSV is self-consistent end to end",
}


@pytest.fixture(scope="session")
def fixture_dir():
    from pathlib import Path

    return Path(__file__).parent / "fixtures"


def _criterion_of(nodeid: str):
    marker = "test_acceptance.py::test_criterion_"
    at = nodeid.find(marker)
    if at < 0:
        return None
    tail = nodeid[at + len(marker):]
    digits = ""
    for ch in tail:
        if not ch.isdigit():
            break
        digits += ch
    return int(digits) if digits else None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            num = _criterion_of(getattr(report, "nodeid", ""))
            if num is not None:
                outcomes[num] = status
    if not outcomes:
        return
    lines = ["", "acceptance criteria:"]
    for num in sorted(_CRITERIA):
        status = outcomes.get(num)
        if status is None:
            continue
        verdict = "PASS" if status == "passed" else "FAIL"
        lines.append(f"  criterion {num}: {verdict} - {_CRITERIA[num]}")
    terminalreporter.write_line("\n".join(lines))
