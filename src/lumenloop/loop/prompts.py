"""Prompt builders.

Prompts are plain deterministic strings: same inputs, same bytes. Metrics
are always rendered at two decimals so transcripts and feedback stay stable
across platforms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..dsl.reference import LANGUAGE_REFERENCE
from ..errors import MissingMetrics, NoCodeBlock
from ..fitness import DEFAULT_WEIGHTS, FitnessWeights
from ..scenario import ScenarioSpec
from .extraction import find_last_block

if TYPE_CHECKING:
    from .runner import IterationRecord

OUTPUT_FORMAT_INSTRUCTION = (
    "Answer with a short rationale for your design choices, followed by "
    "exactly one fenced code block labeled controller "
    "(open it with ```controller) holding the complete program."
)


def build_problem_statement(
    scenario: ScenarioSpec,
    weights: FitnessWeights = DEFAULT_WEIGHTS,
    threshold: float = 62.0,
) -> str:
    """Describe the environment and the score the program must reach."""
    return (
        "You program the controller that runs on every streetlight pole of "
        f"a {len(scenario.poles)}-pole network ({scenario.name!r}). "
        f"{len(scenario.people)} pedestrians walk between poles over "
        f"{scenario.max_ticks} ticks; a pedestrian advances only while the "
        "pole they stand at is lit brightly enough (ambient plus lamp "
        f">= {scenario.movement_threshold:g}). Keep people moving while "
        "burning as little lamp energy as possible. After a full "
        "simulation the deployment is scored:\n"
        "\n"
        f"    score = {weights.w_people:g} * people_finished_pct"
        f" - {weights.w_energy:g} * energy_used_pct"
        f" - {weights.w_trip:g} * trip_time_pct\n"
        "\n"
        f"Your goal is a score of at least {threshold:.2f}."
    )


def build_initial_prompt(problem_statement: str) -> str:
    """First-iteration prompt: problem, then language, then output format."""
    if not problem_statement:
        raise ValueError("problem statement must be nonempty")
    return f"{problem_statement}\n\n{LANGUAGE_REFERENCE}\n{OUTPUT_FORMAT_INSTRUCTION}"


def build_feedback_prompt(previous: "IterationRecord", threshold: float) -> str:
    """Next-round prompt carrying the previous program and its measurements."""
    if previous.program is None or previous.metrics is None:
        raise MissingMetrics(
            "feedback needs an evaluated record; use build_repair_prompt "
            "for parse failures"
        )
    metrics = previous.metrics
    lines = [
        "Your previous controller program was:",
        "",
        "```controller",
        previous.program,
        "```",
        "",
        "Simulating it gave:",
        "",
        f"    energy used:   {metrics.energy_pct:.2f}%",
        f"    people helped: {metrics.people_pct:.2f}%",
        f"    trip duration: {metrics.trip_pct:.2f}%",
        f"    score:         {metrics.fitness:.2f}",
        "",
    ]
    if metrics.fitness < threshold:
        lines.append(
            f"The score falls {threshold - metrics.fitness:.2f} short of "
            f"the {threshold:.2f} target."
        )
    else:
        lines.append(f"The target score is {threshold:.2f}.")
    lines += [
        "Propose an improved program.",
        OUTPUT_FORMAT_INSTRUCTION,
    ]
    return "\n".join(lines)


def build_repair_prompt(raw_response: str, diagnostics: list[str]) -> str:
    """Prompt after an unusable reply. Echoes the offending block and every
    diagnostic (with positions); never includes simulation metrics, since
    nothing was simulated."""
    if not diagnostics:
        raise ValueError("repair prompt needs at least one diagnostic")
    try:
        offending, _ = find_last_block(raw_response)
    except NoCodeBlock:
        offending = raw_response.strip()
    lines = ["Your last reply could not be used. You sent:", ""]
    lines += [f"    {line}" for line in offending.splitlines()]
    lines += ["", "Problems:", ""]
    lines += [f"    {d}" for d in diagnostics]
    lines += [
        "",
        "Send a corrected, complete program. " + OUTPUT_FORMAT_INSTRUCTION,
    ]
    return "\n".join(lines)
