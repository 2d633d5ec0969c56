"""Command line front end.

Exit codes are a stable contract: 0 success (or loop threshold met),
1 check failed, 2 usage or validation problem, 3 provider failure,
4 iteration budget exhausted. Machine-readable results go to stdout,
diagnostics to stderr. Every command writes a RunManifest (JSON) before
doing any work; rerunning with the flags recorded there reproduces the
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

from . import __version__
from .controllers import resolve_controller
from .documents import as_number, read_text
from .engine import controller_step, run_batch, run_simulation, trace_writer
from .errors import LumenloopError, SchemaError
from .fitness import (
    DEFAULT_WEIGHTS,
    FitnessWeights,
    MAX_WEIGHT,
    REFERENCE_RESULTS,
    SimulationMetrics,
)
from .neuro import NetworkSpec, save_genome
from .scenario import BUILTIN_SCENARIOS, load_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PROVIDER_FAILURE = 3
EXIT_BUDGET_EXHAUSTED = 4

CSV_HEADER = "scenario,solution,energy,people,trip,fitness"

# evolve's widest network, measured in README's "Size ceilings"; the
# population's bound is neuro.evolution.largest_population.
MAX_HIDDEN = 1_000


def _parse_weights(text: str) -> FitnessWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise SchemaError("--weights wants three comma-separated numbers P,E,T")
    try:
        p, e, t = (as_number(float(x), "--weights") for x in parts)
    except ValueError as exc:
        raise SchemaError(f"--weights: {exc}") from exc
    # past this a fitness could overflow to inf, or to nan
    _require(max(abs(p), abs(e), abs(t)) <= MAX_WEIGHT, "--weights",
             f"within +-{MAX_WEIGHT:g} per component", text)
    return FitnessWeights(w_people=p, w_energy=e, w_trip=t)


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject an out-of-range command line value (exit 2, no traceback)."""
    if not ok:
        raise SchemaError(f"{flag} must be {rule}, got {value}")


def _require_paths(
    inputs: list[tuple[str, str | None]], outputs: list[tuple[str, str | None]]
) -> None:
    """Check a command's (flag, path or None) pairs: no path is empty (Path('')
    reads as '.'); no output names the file of an input or of another
    output, so no write overwrites what the command reads or writes; and
    each output is a file in an existing directory, so that its write does
    not fail for want of one after the work. Two inputs may name one file,
    and a built-in name compares as the path it spells. Paths compare
    resolved, as Path.resolve() does, but a symlink loop is left for the
    write to report."""
    for flag, value in inputs + outputs:
        _require(value != "", flag, "a non-empty name or path", "''")
    seen: dict[str, str] = {}
    for flag, value in inputs:
        if value is not None:
            seen.setdefault(os.path.realpath(value), flag)
    for flag, value in outputs:
        if value is None:
            continue
        path = os.path.realpath(value)
        if path in seen:
            raise SchemaError(f"{seen[path]} and {flag} name the same file: {value}")
        _require(os.path.isdir(os.path.dirname(value) or ".") and not os.path.isdir(value),
                 flag, "a file in an existing directory", value)
        seen[path] = flag


def _write_manifest(args: argparse.Namespace, outputs: list[tuple[str, str | None]]) -> None:
    """Write the run manifest to --manifest. Its config is every flag as
    parsed, under its argparse name (None when unset), so the rerun's argv
    is the command and one --NAME=VALUE per key, per item of a list, with
    "_" in NAME spelt "-" and no flag for None. Its outputs are the paths
    of the command's (flag, path) outputs but the manifest's own."""
    doc = {
        "kind": "run-manifest",
        "tool_version": __version__,
        "command": args.command,
        "config": {name: value for name, value in vars(args).items()
                   if name not in ("command", "func")},
        "outputs": [path for flag, path in outputs
                    if path is not None and flag != "--manifest"],
    }
    Path(args.manifest).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")


def _comparison_row(
    scenario_name: str, label: str, metrics: SimulationMetrics,
    weights: FitnessWeights,
) -> list[str]:
    # The printed fitness is recomputed from the printed (2-decimal)
    # metrics so the CSV is self-consistent within 1e-9.
    energy = f"{metrics.energy_pct:.2f}"
    people = f"{metrics.people_pct:.2f}"
    trip = f"{metrics.trip_pct:.2f}"
    fitness = weights.score(
        people_pct=float(people), energy_pct=float(energy), trip_pct=float(trip)
    )
    return [scenario_name, label, energy, people, trip, f"{fitness:.12g}"]


def _print_row(row: list[str]) -> None:
    """Print one CSV row ending in "\n", a field quoted only where needed.

    csv.writer quotes a field holding a character of its line terminator,
    so the row is formatted with "\r\n", which quotes a bare "\r" as well
    as a "\n", and that ending is printed as "\n"."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\r\n").writerow(row)
    sys.stdout.write(line.getvalue()[:-2] + "\n")


# -- simulate ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    outputs = [("--trace", args.trace), ("--manifest", args.manifest)]
    _require_paths([("--scenario", args.scenario), ("--controller", args.controller)], outputs)
    scenario = load_scenario(args.scenario)
    resolved = resolve_controller(args.controller)
    _write_manifest(args, outputs)
    if args.trace:
        # opened before the run, which streams each tick into it
        with open(args.trace, "w", encoding="utf-8") as fh:
            metrics = run_simulation(scenario, resolved.factory, weights,
                                     trace_writer(fh, scenario))
    else:
        metrics = run_simulation(scenario, resolved.factory, weights=weights)
    _print_row(CSV_HEADER.split(","))
    _print_row(_comparison_row(scenario.name, resolved.label, metrics, weights))
    return EXIT_OK


# -- evolve -----------------------------------------------------------------


def cmd_evolve(args: argparse.Namespace) -> int:
    # Only this command runs the GA, so only it imports it.
    from .neuro.evolution import (MAX_GENERATION_FLOATS, EvolutionConfig,
                                  largest_population, run_evolution)

    weights = _parse_weights(args.weights)
    for flag, value in (("--population", args.population),
                        ("--generations", args.generations),
                        ("--tournament", args.tournament)):
        _require(value >= 1, flag, ">= 1", value)
    _require(0 <= args.hidden <= MAX_HIDDEN, "--hidden", f"in [0, {MAX_HIDDEN}]", args.hidden)
    _require(args.seed >= 0, "--seed", ">= 0", args.seed)
    _require(0 <= args.elitism <= args.population, "--elitism",
             "between 0 and --population", args.elitism)
    for flag, value in (("--crossover-rate", args.crossover_rate),
                        ("--mutation-rate", args.mutation_rate)):
        _require(0.0 <= value <= 1.0, flag, "in [0, 1]", value)
    _require(0.0 <= args.mutation_sigma < math.inf, "--mutation-sigma",
             "finite and >= 0", args.mutation_sigma)
    outputs = [("--out", args.out), ("--log", args.log), ("--manifest", args.manifest)]
    _require_paths([("--scenario", args.scenario)], outputs)
    scenario = load_scenario(args.scenario)
    spec = NetworkSpec(n_hidden=args.hidden)
    most = largest_population(scenario, spec)
    _require(most >= 1, "--hidden", "small enough that one genome's lane on "
             f"this scenario fits in {MAX_GENERATION_FLOATS:,} floats", args.hidden)
    _require(args.population <= most, "--population",
             f"at most {most} at --hidden {args.hidden}", args.population)
    config = EvolutionConfig(
        population_size=args.population,
        generations=args.generations,
        tournament_size=args.tournament,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        mutation_sigma=args.mutation_sigma,
        elitism=args.elitism,
        seed=args.seed,
    )
    _write_manifest(args, outputs)

    def progress(stat) -> None:
        print(
            f"generation {stat.generation}: best {stat.best_fitness:.4f} "
            f"mean {stat.mean_fitness:.4f}",
            file=sys.stderr,
        )

    result = run_evolution(config, scenario, spec, weights=weights, on_generation=progress)
    with Path(args.log).open("w", encoding="utf-8") as fh:
        fh.write("generation,best_fitness,mean_fitness\n")
        for stat in result.history:
            fh.write(
                f"{stat.generation},{stat.best_fitness:.12g},"
                f"{stat.mean_fitness:.12g}\n"
            )
    save_genome(args.out, result.best)
    print(
        json.dumps(
            {
                "best_fitness": result.best.fitness,
                "generations": len(result.history),
                "genome": args.out,
                "log": args.log,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


# -- gpt-loop ---------------------------------------------------------------


def cmd_gpt_loop(args: argparse.Namespace) -> int:
    # Only this command runs the loop package, so only it imports it.
    from .loop import (
        DEFAULT_MODEL,
        ENV_API_KEY,
        HttpProvider,
        LoopConfig,
        STATUS_PROVIDER_FAILURE,
        STATUS_THRESHOLD_MET,
        load_calibration,
        load_replay_script,
        run_loop,
        stub_evaluator,
    )

    weights = _parse_weights(args.weights)
    _require(math.isfinite(args.threshold), "--threshold", "finite", args.threshold)
    _require(args.max_iterations >= 1, "--max-iterations", ">= 1", args.max_iterations)
    _require(args.max_repair_attempts >= 0, "--max-repair-attempts", ">= 0",
             args.max_repair_attempts)
    _require(0.0 < args.timeout < math.inf, "--timeout", "finite and > 0", args.timeout)
    _require(0.0 <= args.temperature < math.inf, "--temperature", "finite and >= 0",
             args.temperature)
    outputs = [("--transcript", args.transcript), ("--out", args.out),
               ("--manifest", args.manifest)]
    _require_paths([("--scenario", args.scenario), ("--replay", args.replay),
                    ("--stub-metrics", args.stub_metrics)], outputs)
    model = DEFAULT_MODEL if args.model is None else args.model
    scenario = load_scenario(args.scenario)
    if args.replay is None and not os.environ.get(ENV_API_KEY):
        raise SchemaError(f"no provider: set {ENV_API_KEY} (and optionally "
                          "LUMENLOOP_API_BASE) for live runs, or pass --replay FILE")
    config = LoopConfig(
        fitness_threshold=args.threshold,
        max_iterations=args.max_iterations,
        max_repair_attempts=args.max_repair_attempts,
        provider="http" if args.replay is None else "replay",
        model=model,
        temperature=args.temperature,
        timeout=args.timeout,
        scenario=args.scenario,
        weights=weights,
    )
    _write_manifest(args, outputs)
    # --out holds a program only when this run scores one, as --transcript
    # holds only this run's records
    Path(args.out).unlink(missing_ok=True)
    if args.replay is None:
        provider = HttpProvider.from_env(
            model=model, temperature=args.temperature, timeout=args.timeout
        )
    else:
        provider = load_replay_script(args.replay)
    evaluator = None
    if args.stub_metrics is not None:
        evaluator = stub_evaluator(load_calibration(args.stub_metrics))
    transcript = run_loop(
        config, provider, scenario, evaluator=evaluator,
        transcript_path=args.transcript,
    )
    best = transcript.best_record
    controller_path = None
    if best is not None and best.program is not None:
        controller_path = args.out
        Path(args.out).write_text(best.program + "\n", encoding="utf-8")
    summary = {
        "status": transcript.status,
        "iterations": len(transcript.records),
        "provider_calls": transcript.provider_calls,
        "best_fitness": None if best is None else best.metrics.fitness,
        "transcript": args.transcript,
        "controller": controller_path,
    }
    if transcript.failure:
        print(f"provider failure: {transcript.failure}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    if transcript.status == STATUS_THRESHOLD_MET:
        return EXIT_OK
    if transcript.status == STATUS_PROVIDER_FAILURE:
        return EXIT_PROVIDER_FAILURE
    return EXIT_BUDGET_EXHAUSTED


# -- compare ----------------------------------------------------------------

DEFAULT_COMPARE_CONTROLLERS = (
    "always_off",
    "always_on",
    "iteration1",
    "iteration2",
    "iteration3",
)


def cmd_compare(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    scenario_refs = args.scenario or list(BUILTIN_SCENARIOS)
    controller_refs = args.controller or list(DEFAULT_COMPARE_CONTROLLERS)
    outputs = [("--manifest", args.manifest)]
    _require_paths([*(("--scenario", ref) for ref in scenario_refs),
                    *(("--controller", ref) for ref in controller_refs)], outputs)
    scenarios = [load_scenario(ref) for ref in scenario_refs]
    controllers = [resolve_controller(ref) for ref in controller_refs]
    _write_manifest(args, outputs)
    _print_row(CSV_HEADER.split(","))
    factories = [resolved.factory for resolved in controllers]
    for scenario in scenarios:
        rows = run_batch(scenario, controller_step(scenario, factories), len(factories), weights)
        for resolved, metrics in zip(controllers, rows):
            _print_row(_comparison_row(scenario.name, resolved.label, metrics, weights))
    return EXIT_OK


# -- fitness-check ----------------------------------------------------------


def _load_check_table(path: str | None) -> list[tuple[str, float, float, float, float]]:
    if path is None:
        return [
            (f"{scenario}/{label}", energy, people, trip, fitness)
            for scenario, label, energy, people, trip, fitness in REFERENCE_RESULTS
        ]
    rows: list[tuple[str, float, float, float, float]] = []
    lines = [line.strip() for line in read_text(path).splitlines() if line.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty table")
    header = "label,energy,people,trip,expected_fitness"
    if lines[0] != header:
        raise SchemaError(f"{path}: first line must be exactly '{header}'")
    for lineno, line in enumerate(lines[1:], start=2):
        parts, where = line.split(","), f"{path}:{lineno}"
        if len(parts) != 5:
            raise SchemaError(f"{where}: expected 5 comma-separated fields")
        try:
            rows.append((parts[0], *(as_number(float(x), where) for x in parts[1:])))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: table has a header but no rows")
    return rows


def cmd_fitness_check(args: argparse.Namespace) -> int:
    _require(0.0 <= args.tolerance < math.inf, "--tolerance", "finite and >= 0",
             args.tolerance)
    outputs = [("--manifest", args.manifest)]
    _require_paths([("--table", args.table)], outputs)
    _write_manifest(args, outputs)
    rows = _load_check_table(args.table)
    # the first row with the largest residual
    max_residual, worst_label = max(
        ((abs(DEFAULT_WEIGHTS.score(people_pct=people, energy_pct=energy, trip_pct=trip)
              - expected), label)
         for label, energy, people, trip, expected in rows),
        key=lambda pair: pair[0],
    )
    passed = max_residual <= args.tolerance
    print(
        json.dumps(
            {
                "rows": len(rows),
                "max_residual": max_residual,
                "tolerance": args.tolerance,
                "worst": worst_label,
                "pass": passed,
            },
            sort_keys=True,
        )
    )
    if not passed:
        print(
            f"check failed: row '{worst_label}' deviates by "
            f"{max_residual:.4f} (> {args.tolerance})",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # argparse's default formatter probes the terminal each time it is made,
    # once per add_argument: this one reads the width argparse would, once
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="lumenloop",
        description="Streetlight controller simulation and synthesis harness.",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_manifest: str) -> None:
        w = DEFAULT_WEIGHTS
        p.add_argument(
            "--weights",
            default=f"{w.w_people},{w.w_energy},{w.w_trip}",
            help="fitness weights P,E,T (default %(default)s)",
        )
        p.add_argument(
            "--manifest",
            default=default_manifest,
            help=f"run manifest path (default {default_manifest})",
        )

    p = sub.add_parser("simulate", help="run one controller on one scenario",
                       formatter_class=formatter)
    p.add_argument("--scenario", default="scenario1",
                   help="builtin name or scenario JSON path")
    p.add_argument("--controller", default="always_on",
                   help="builtin name, rule file, or genome JSON")
    p.add_argument("--trace", default=None, help="write per-tick JSONL here")
    add_common(p, "simulate-manifest.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evolve", help="evolve a network controller", formatter_class=formatter)
    p.add_argument("--scenario", default="scenario1")
    p.add_argument("--generations", type=int, default=200)
    p.add_argument("--population", type=int, default=50)
    p.add_argument("--tournament", type=int, default=3)
    p.add_argument("--crossover-rate", type=float, default=0.9)
    p.add_argument("--mutation-rate", type=float, default=0.05)
    p.add_argument("--mutation-sigma", type=float, default=0.3)
    p.add_argument("--elitism", type=int, default=1)
    p.add_argument("--hidden", type=int, default=6, help="hidden layer width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="genome.json", help="best genome path")
    p.add_argument("--log", default="evolution.csv", help="per-generation CSV")
    add_common(p, "evolve-manifest.json")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("gpt-loop", help="run the model-refinement loop",
                       formatter_class=formatter)
    p.add_argument("--scenario", default="scenario1")
    p.add_argument("--replay", default=None,
                   help="JSONL of scripted responses instead of live HTTP")
    p.add_argument("--model", default=None,
                   help="model name (default: the loop's DEFAULT_MODEL)")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--threshold", type=float, default=62.0)
    p.add_argument("--max-iterations", type=int, default=10)
    p.add_argument("--max-repair-attempts", type=int, default=2)
    p.add_argument("--transcript", default="transcript.jsonl")
    p.add_argument("--out", default="gpt_controller.rules",
                   help="write the best program here")
    p.add_argument("--stub-metrics", default=None,
                   help="calibration stub JSON; score programs from it "
                        "instead of simulating")
    add_common(p, "gpt-loop-manifest.json")
    p.set_defaults(func=cmd_gpt_loop)

    p = sub.add_parser("compare", help="score controllers across scenarios",
                       formatter_class=formatter)
    p.add_argument("--scenario", action="append", default=None,
                   help="repeatable; default: both builtins")
    p.add_argument("--controller", action="append", default=None,
                   help="repeatable; default: the five builtins")
    add_common(p, "compare-manifest.json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "fitness-check",
        help="recompute the reference fitness rows under default weights",
        formatter_class=formatter,
    )
    p.add_argument("--table", default=None,
                   help="CSV: label,energy,people,trip,expected_fitness "
                        "(default: built-in reference rows)")
    p.add_argument("--tolerance", type=float, default=0.03)
    p.add_argument("--manifest", default="fitness-check-manifest.json")
    p.set_defaults(func=cmd_fitness_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LumenloopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
