"""lumenloop benchmark: end-to-end and per-layer timing of four workloads.

Run one workload (what BENCHMARK.json's command does):

    python3 benchmarks/run.py --workload grid --seed 3 --seconds 20 --trace 0

or every workload, one process each, one after another:

    python3 benchmarks/run.py

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced, and reports the per-layer metrics and the
tracing overhead. Every unit's output is checked against the stored
reference in ``reference.json``; the last line of standard output is one
JSON object, and the exit code is nonzero if any unit failed. Scratch
files, results and spans go to ``.bench_out/`` at the repository root.
See README.md beside this file for the metrics and workloads.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before anything can import numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import CALIBRATION_REFERENCE_S, calibrate, min_units, tail  # noqa: E402
from tracing import Tracer, clock, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Phase, load_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9  # fresh processes whose set-up time is the median setup_s
TRACED_MIN_UNITS = 3  # per-layer figures need no tail
CHILD_TIMEOUT_S = 600

END_TO_END_UNITS = {
    "setup_s": "s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_pct": "%",
}
PER_LAYER_UNITS = {
    "scenario.parse_ms": "ms",
    "scenario.shortest_path_ms_per_sim": "ms",
    "engine.self_us_per_pole_tick": "us",
    "engine.sims_per_unit": "count",
    "engine.controller_share": "ratio",
    "engine.pole_ticks_per_s": "1/s",
    "controllers.resolve_us": "us",
    "dsl.parse_us": "us",
    "dsl.validate_us": "us",
    "dsl.format_us": "us",
    "dsl.act_us_per_pole_tick": "us",
    "neuro.network.act_us_per_pole_tick": "us",
    "neuro.network.construct_us": "us",
    "neuro.evolution.ga_ms_per_gen": "ms",
    "neuro.evolution.evals_per_gen": "count",
    "loop.provider_calls": "count",
    "loop.extract_us": "us",
    "loop.evaluator_us": "us",
    "loop.self_ms_per_session": "ms",
    "loop.transcript_bytes": "bytes",
    "cli.self_ms_per_unit": "ms",
    "bench.trace_overhead_pct": "%",
}


def use_source_tree() -> None:
    """Import lumenloop from this checkout's ``src``, or stop."""
    if not (SRC / "lumenloop" / "__init__.py").is_file():
        raise SystemExit(f"error: no lumenloop sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


# -- environment --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": _git_sha(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- set-up -------------------------------------------------------------------


def probe_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """Time one workload set-up, lumenloop import included, in a fresh process.

    Returns (scaled, wall) seconds.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    scaled, wall = proc.stdout.split()[-2:]
    return float(scaled), float(wall)


def _probe_main(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](ROOT, OUT, args.seed, load_reference())
    workload.prepare()
    speeds = [calibrate(), calibrate()]
    start = clock()
    workload.setup()
    wall = clock() - start
    speeds += [calibrate(), calibrate()]
    speed = sum(speeds) / len(speeds)
    print(wall * CALIBRATION_REFERENCE_S / speed, wall)
    return 0


# -- runs ---------------------------------------------------------------------


def _unit_summary(phase: Phase, percentile: float) -> dict:
    """Scaled p50 and tail, with the wall-clock figures beside them."""
    scaled = [1e3 * s for s in phase.scaled_samples]
    wall = [1e3 * s for s in phase.samples]
    summary = {"units": len(scaled)}
    if phase.speeds:
        summary["kernel_ms_median"] = 1e3 * statistics.median(phase.speeds)
        summary["kernel_ms_range"] = [1e3 * min(phase.speeds), 1e3 * max(phase.speeds)]
    if scaled:
        tail_ms, beyond = tail(scaled, percentile)
        summary.update({
            "p50_ms": statistics.median(scaled),
            "tail_ms": tail_ms,
            "tail_percentile": percentile,
            "tail_beyond": beyond,
            "wall_p50_ms": statistics.median(wall),
            "wall_tail_ms": tail(wall, percentile)[0],
        })
    return summary


def untraced_run(workload, args: argparse.Namespace) -> tuple[dict, list[Phase], dict]:
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload.setup()
    phase = Phase(args.seconds, min_units(workload.tail_percentile))
    workload.run(phase)
    summary = _unit_summary(phase, workload.tail_percentile)
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setup),
        "unit_p50_ms": summary.get("p50_ms", 0.0),
        "unit_tail_ms": summary.get("tail_ms", 0.0),
        "peak_rss_mb": peak_rss_mb(),
        "ok_pct": 100.0 * (phase.attempted - phase.failed) / max(phase.attempted, 1),
    }
    details = {
        "setup_s_samples": [scaled for scaled, _ in setup],
        "setup_wall_s_samples": [wall for _, wall in setup],
        "units": summary,
        "pole_ticks_per_s": workload.pole_ticks_per_unit * len(phase.samples)
        / max(sum(phase.samples), 1e-12),
    }
    return metrics, [phase], details


def traced_run(workload, args: argparse.Namespace) -> tuple[dict, list[Phase], dict]:
    tracer = Tracer()
    tracer.unit = "setup"
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    plain = Phase(args.seconds / 2, TRACED_MIN_UNITS)
    workload.run(plain)
    traced = Phase(args.seconds / 2, TRACED_MIN_UNITS)
    tracer.install()
    try:
        workload.run(traced, tracer)
    finally:
        tracer.uninstall()

    metrics = layer_metrics(tracer, traced.timed_units)
    metrics.update(workload.layer_extras())
    metrics["engine.pole_ticks_per_s"] = (
        workload.pole_ticks_per_unit * len(plain.samples) / max(sum(plain.samples), 1e-12)
    )
    if plain.samples and traced.samples:
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(traced.scaled_samples) / statistics.median(plain.scaled_samples) - 1.0
        )
    else:
        metrics["bench.trace_overhead_pct"] = 0.0
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    details = {
        "untraced_units": _unit_summary(plain, workload.tail_percentile),
        "traced_units": _unit_summary(traced, workload.tail_percentile),
        "spans": spans_path.name,
        "missing_patch_points": tracer.missing,
    }
    return metrics, [plain, traced], details


def run_one(args: argparse.Namespace) -> int:
    OUT.mkdir(exist_ok=True)
    env = environment()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](ROOT, tmp, args.seed, load_reference())
        workload.prepare()
        run = traced_run if args.trace else untraced_run
        values, phases, details = run(workload, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    if any(len(p.timed_units) < p.min_units for p in phases) and not failed:
        errors.append("too few correct units to measure")
        failed = max(failed, 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs, "environment": env,
        "details": details, "errors": errors[:50], "result": result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {workload.inputs}")
    print(f"environment {json.dumps(env)}")
    print(f"details {json.dumps(details)}")
    for name, unit in units.items():
        print(f"  {name:<36} {values[name]:>14.6g} {unit}")
    for error in errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_source_tree()
    if args.probe_setup:
        return _probe_main(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
