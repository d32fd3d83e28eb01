"""Time this checkout's fairalloc against a base checkout's in one process, alternating operations.

Usage: python3 tools/inprocess_pairs.py --base <git-ref or dir> --workload W --pairs N

The base is a checkout directory or a git ref, as for ``bench_pairs.py``.
Each tree's ``src/fairalloc`` is copied into a temporary directory as the
packages ``fairalloc_base`` and ``fairalloc_change`` (the package imports
its own modules relatively, so a copy under another name is a whole
package), and both are imported into this process. The workload's
scenario file is written once, from ``bench/workloads.py`` (read, not
changed), and each side loads it with its own ``load_scenario``. An
operation is the benchmark's: ``cli.main(["run", ...])`` for
``canonical-plain``, ``sim.run_sweep`` for the library workloads.

Both sides' first operations must give the same output: the same bytes
in every CLI file, or the same final rates, ``iterations_used`` and
status at every rate point. Then pair i runs one operation on each side,
the base first in odd pairs and the change first in even ones, and the
tool prints each side's median, quartiles and minimum wall time, the
change's median ratio within a pair (which drifts less with the load of
a shared machine than the two medians do) and the pairs the change won.
One process sees no start-up, import or ``peak_rss_mb`` cost and only
the operation's own time, so this splits a change into parts or chases
a drift; a claimed gain rests on ``bench_pairs.py``. Exits 1 when the
outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, checkout, quartiles

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

SIDES = ("base", "change")


def load_package(tree: Path, name: str, dest: Path):
    """Copy ``tree``'s fairalloc into ``dest`` as package ``name`` and import it with its CLI."""
    shutil.copytree(tree / "src" / "fairalloc", dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    return package


def operation(package, workload: str, path: Path, scenario, out: Path):
    """Run the workload's operation once; return its wall time and a fingerprint of its output."""
    if workloads.uses_cli(workload):
        start = time.perf_counter()
        code = package.cli.main(["run", "--config", str(path), "--out", str(out)])
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256()
        for f in sorted(out.iterdir()):
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
        shutil.rmtree(out)
        return elapsed, (code, digest.hexdigest())
    start = time.perf_counter()
    sweep = package.sim.run_sweep(scenario)
    elapsed = time.perf_counter() - start
    return elapsed, [(r, res.final_rates, res.iterations_used, res.status) for r, res in sweep.results.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="in-process alternating operations: this checkout against a base")
    parser.add_argument("--base", required=True, help="git ref or checkout directory of the parent to compare against")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        trees = {"base": checkout(args.base, tmp / "base"), "change": ROOT}
        sys.path.insert(0, str(tmp))
        packages = {side: load_package(trees[side], f"fairalloc_{side}", tmp) for side in SIDES}
        path = tmp / "scenario.json"
        doc = workloads.generated_doc(args.workload)
        path.write_text(doc or json.dumps(workloads.scenario_doc(args.workload, packages["change"])))
        scenarios = {side: packages[side].load_scenario(path) for side in SIDES}

        def run(side):
            return operation(packages[side], args.workload, path, scenarios[side], tmp / f"out_{side}")

        outputs = {side: run(side)[1] for side in SIDES}
        if outputs["base"] != outputs["change"]:
            print(f"error: {args.workload}: the base and the change give different outputs", file=sys.stderr)
            return 1
        times = {side: [] for side in SIDES}
        for i in range(1, args.pairs + 1):
            for side in (SIDES if i % 2 else SIDES[::-1]):
                times[side].append(run(side)[0])
    won = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"# {args.workload}: {args.pairs} in-process pairs, base {args.base}, outputs identical; "
          f"median [quartiles] min, in ms")
    for side in SIDES:
        q1, median, q3 = (1e3 * t for t in quartiles(times[side]))
        print(f"{side:6} {median:.2f} [{q1:.2f}, {q3:.2f}] {1e3 * min(times[side]):.2f}")
    change = statistics.median(times["change"]) / statistics.median(times["base"]) - 1.0
    paired = statistics.median(c / b - 1.0 for b, c in zip(times["base"], times["change"]))
    print(f"change against base: {change:+.1%} in the median, {paired:+.1%} in the median pair, "
          f"won {won}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
