"""fairalloc benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload canonical-plain --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports fairalloc from its ``src``.
The workload runs in five fresh single-threaded worker processes in
turn (``worker.py``; one with ``--trace 1``). This process then
validates every output, computes the proportional-fair equilibrium with
its own oracle (off the timed path) and prints one JSON object as the
last line of standard output. With ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import rescaled
from checks import point_problem, quality, read_cli_output, settings
from oracle import equilibrium
from workloads import ROOT, SRC, WORKLOADS, generated_doc, inflection_sum, uses_cli

BENCH = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_tmp"
WORKERS = 5  # fresh processes per untraced run; each sets up once and gets 1/5 of the time
TIME_LIMIT_S = 170.0  # every child must end well inside the 180 s a run may take
# one thread per numeric library, so a run measures the single-threaded program
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to the program failing a check)."""


def _worker(workload, generated, workdir: Path, mode: str, seconds: float, deadline: float) -> dict:
    workdir.mkdir()
    if generated is not None:
        (workdir / "scenario.json").write_text(generated)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--workdir", str(workdir), "--mode", mode, "--seconds", repr(seconds)]
    env = {**os.environ, **SINGLE_THREAD}
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} worker did not finish in time") from exc
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {done.returncode}")
    return json.loads((workdir / "result.json").read_text())


def _points(workload, report, doc, workdir) -> tuple[list, list[str]]:
    if report["output"] is None:
        return [], []
    if uses_cli(workload):
        return read_cli_output(workdir / report["output"], doc)
    points, problems = [], []
    for point in report["output"]:
        problem = point_problem(point, doc)
        (problems if problem else points).append(problem or point)
    return points, problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _median_raw(timings) -> float:
    """Median raw time of ``[raw_s, calibration_s]`` pairs."""
    return statistics.median(t[0] for t in timings)


def _median_rescaled(timings) -> float:
    return statistics.median(rescaled(t) for t in timings)


def _end_to_end(reports, per_point) -> dict:
    return {
        "setup_s": _metric(_median_rescaled([r["setup"] for r in reports]), "s"),
        "wall_s": _metric(_median_rescaled([t for r in reports for t in r["timings"]]), "s"),
        "rounds_total": _metric(sum(p["iterations"] for p in per_point), "count"),
        "solved_frac": _metric(sum(p["solved"] for p in per_point) / len(per_point), "ratio"),
        "budget_residual_max": _metric(max(p["budget_residual"] for p in per_point), "ratio"),
        "oracle_gap_max": _metric(max(p["oracle_gap"] for p in per_point), "ratio"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }


def _per_layer(workload, report, per_point, workdir) -> tuple[dict, list[str]]:
    trace = report["trace"]
    traced = trace["traced"]
    problems = []
    if any(t["counts"] != traced[0]["counts"] for t in traced):
        problems.append("layer counts differ between traced runs of the same input")
    counts = traced[0]["counts"]
    calls = counts["calls"]

    def median_ns(key):
        return statistics.median(t["ns"][key] for t in traced)

    def median_diff_s(outer, inner):
        return statistics.median((outer(t) - inner(t)) / 1e9 for t in traced)

    rounds = sorted(counts["rounds"])
    solves = max(calls["solve"], 1)
    n_rounds = max(sum(rounds), 1)
    wasted = sum(p["iterations"] for p in per_point if not p["solved"])
    cli = uses_cli(workload)
    lines = bytes_ = 0
    if cli and report["output"] is not None:
        for f in (workdir / report["output"]).iterdir():
            data = f.read_bytes()
            lines += data.count(b"\n")
            bytes_ += len(data)
    metrics = {
        "utility.log_slope_calls": _metric(calls["log_slope"], "count"),
        "utility.log_slope_ns": _metric(median_ns("log_slope"), "ns"),
        "utility.value_calls": _metric(calls["value"], "count"),
        "solver.solves": _metric(calls["solve"], "count"),
        "solver.us_per_solve": _metric(median_ns("solve") / solves / 1e3, "us"),
        "solver.pinned_frac": _metric(counts["pinned"] / solves, "ratio"),
        "solver.evals_per_solve": _metric(counts["solve_evals"] / solves, "count"),
        "protocol.allocations": _metric(calls["allocation"], "count"),
        "protocol.rounds_p50": _metric(statistics.median(rounds) if rounds else 0, "count"),
        "protocol.rounds_max": _metric(max(rounds, default=0), "count"),
        "protocol.self_us_per_round": _metric(
            median_diff_s(lambda t: t["ns"]["allocation"], lambda t: t["ns"]["solve"]) * 1e6 / n_rounds, "us"
        ),
        "protocol.capped_frac": _metric(counts["capped"] / max(calls["allocation"], 1), "ratio"),
        "protocol.wasted_round_frac": _metric(wasted / max(sum(p["iterations"] for p in per_point), 1), "ratio"),
        "protocol.trajectory_records": _metric(counts["trajectory_records"], "count"),
        "sim.self_s": _metric(median_diff_s(lambda t: t["ns"]["sweep"], lambda t: t["ns"]["allocation"]), "s"),
        "scenario_io.load_s": _metric(trace["load_s"], "s"),
        "scenario_io.bytes": _metric(trace["load_bytes"], "B"),
        "cli.self_s": _metric(
            median_diff_s(lambda t: t["timing"][0] * 1e9, lambda t: t["ns"]["load"] + t["ns"]["sweep"]) if cli else 0.0,
            "s",
        ),
        "cli.rows": _metric(lines, "count"),
        "cli.bytes": _metric(bytes_, "B"),
        "trace.overhead_frac": _metric(
            _median_raw([t["timing"] for t in traced]) / _median_raw(report["timings"]), "ratio"
        ),
    }
    return metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    n_workers = 1 if trace else WORKERS
    generated = generated_doc(workload)
    reports = [
        _worker(workload, generated, tmp / f"w{i}", "trace" if trace else "run", seconds / n_workers, deadline)
        for i in range(n_workers)
    ]
    first, first_dir = reports[0], tmp / "w0"
    doc = json.loads((first_dir / "scenario.json").read_text())
    lo, _ = settings(doc)
    points, problems = _points(workload, first, doc, first_dir)
    per_point = quality(points, equilibrium(doc["users"], doc["R_values"], lo), doc) if points else []

    # a failed operation fails all its points; a good one repeats worker 0's first output
    failures = [f"worker {i}: {f}" for i, r in enumerate(reports) for f in r["failures"]]
    bad_ops = len(failures)
    for i, r in enumerate(reports[1:], 1):
        if r["fingerprint"] != first["fingerprint"]:
            failures.append(f"worker {i}: output differs from worker 0's")
            bad_ops += r["operations"] - len(r["failures"])
    operations = sum(r["operations"] for r in reports)
    n_points = len(doc["R_values"])
    failed = bad_ops * n_points + (operations - bad_ops) * (n_points - len(points))
    problems = failures + problems

    # figures over only the valid points would read a broken point as a gain, so a run
    # with any invalid point reports no metrics
    if len(per_point) < n_points:
        problems.append(f"{n_points - len(per_point)} of {n_points} rate points failed validation")
        metrics = {}
    elif trace:
        metrics, trace_problems = _per_layer(workload, first, per_point, first_dir)
        problems += trace_problems
    else:
        metrics = _end_to_end(reports, per_point)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    raw = _median_raw([t for r in reports for t in r["timings"]])
    print(f"# {workload} seed={seed}: {len(doc['users'])} users, sum of sigmoid b = "
          f"{inflection_sum(doc['users'])!r}, R = {doc['R_values']}, {operations} operations "
          f"in {n_workers} processes, raw median time {raw!r} s")
    return {"correct": not problems, "attempted": operations * n_points, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fairalloc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "fairalloc" / "__init__.py").is_file():
        print(f"error: no fairalloc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
