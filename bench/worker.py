"""One worker process of a run: set up, time operations, report raw measurements.

    python3 bench/worker.py --workload W --workdir DIR --mode run|trace --seconds X

The worker times its own set-up (importing fairalloc, building and
writing a canonical scenario document, ``load_scenario``), then runs the
workload's operation back to back until ``--seconds`` have passed (at
least once). In ``trace`` mode it alternates untraced and traced
operations instead. Every operation's output is compared with the
worker's first one, which stays in DIR for ``run.py`` to validate. The
report goes to DIR/result.json; ``run.py`` turns the reports of all its
workers into metrics.

There is no warm-up operation: the first operation of a process
measured no slower than later ones on any workload.
"""

import time

from calibration import calibration_s

CAL_BEFORE = calibration_s()
T0 = time.perf_counter()  # set-up time counts from here, before numpy and fairalloc load

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import import_fairalloc, scenario_doc, uses_cli  # noqa: E402

LOAD_SAMPLES = 5


def set_up(workload: str, workdir: Path):
    fa = import_fairalloc()
    path = workdir / "scenario.json"
    if not path.exists():  # a generated population is written there before the worker starts
        path.write_text(json.dumps(scenario_doc(workload, fa)))
    return fa, path, fa.load_scenario(path)


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out_dir.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs the workload's operation and checks each output against the first."""

    def __init__(self, fa, workload: str, path: Path, scenario, workdir: Path):
        self.fa, self.path, self.scenario, self.workdir = fa, path, scenario, workdir
        self.cli = uses_cli(workload)
        self.operations = 0
        self.failures: list[str] = []
        self.fingerprint = None  # of the first good output: a digest of its files (CLI) or its points
        self.output = None  # that output: its directory name (CLI) or its points

    def timed(self) -> list[float]:
        """Run one operation; return its wall time and the calibration time around it.

        The output is checked after the clock stops.
        """
        rep = self.operations
        self.operations += 1
        out = self.workdir / f"out{rep}"
        before = calibration_s()
        start = time.perf_counter()
        try:
            if self.cli:
                result = self.fa.cli.main(["run", "--config", str(self.path), "--out", str(out)])
            else:
                result = self.fa.sim.run_sweep(self.scenario)
        except Exception as exc:  # a failed operation is reported, and the run goes on
            result = exc
        wall = time.perf_counter() - start
        calibration = 0.5 * (before + calibration_s())
        if isinstance(result, Exception):
            self.failures.append(f"operation {rep} raised {result!r}")
        else:
            self._check(rep, out, result)
        return [wall, calibration]

    def _check(self, rep: int, out: Path, result):
        if self.cli:
            if result != 0:
                self.failures.append(f"operation {rep}: fairalloc run exited {result}")
                return
            fingerprint = _digest(out)
        else:
            fingerprint = [
                [r, list(res.final_rates), res.iterations_used, res.status]
                for r, res in result.results.items()
            ]
        if self.fingerprint is None:
            self.fingerprint = fingerprint
            self.output = out.name if self.cli else fingerprint
            return
        if fingerprint != self.fingerprint:
            self.failures.append(f"operation {rep}: output differs from the first operation's")
        if self.cli:
            shutil.rmtree(out)


def _trace_report(fa, runner: Runner, path: Path, deadline: float, timings: list) -> dict:
    from layers import LayerTrace

    tracer = LayerTrace(fa)
    traced = []
    while not traced or time.perf_counter() < deadline:
        timings.append(runner.timed())
        tracer.reset()
        with tracer.installed():
            timing = runner.timed()
        traced.append({"timing": timing, "ns": dict(tracer.ns), "counts": tracer.counts()})
    loads = []
    for _ in range(LOAD_SAMPLES):
        start = time.perf_counter()
        fa.load_scenario(path)
        loads.append(time.perf_counter() - start)
    return {"traced": traced, "load_s": statistics.median(loads), "load_bytes": path.stat().st_size}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    fa, path, scenario = set_up(args.workload, args.workdir)
    setup = [time.perf_counter() - T0, 0.5 * (CAL_BEFORE + calibration_s())]
    runner = Runner(fa, args.workload, path, scenario, args.workdir)
    timings: list[list[float]] = []
    deadline = time.perf_counter() + args.seconds
    report = {"setup": setup, "timings": timings}
    if args.mode == "trace":
        report["trace"] = _trace_report(fa, runner, path, deadline, timings)
    else:
        while not timings or time.perf_counter() < deadline:
            timings.append(runner.timed())
    report.update(
        operations=runner.operations,
        failures=runner.failures,
        fingerprint=runner.fingerprint,
        output=runner.output,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    (args.workdir / "result.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
