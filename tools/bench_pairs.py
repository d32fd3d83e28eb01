"""Compare this checkout with a base checkout by alternating benchmark runs.

Usage: python3 tools/bench_pairs.py --base <git-ref or dir> --workload W --pairs 10 --seconds S

Both sides run from fresh trees in a temporary directory, which is
removed at the end: this checkout and a base that names a directory are
copied there without their bytecode caches, and any other base is a git
ref, exported with ``git archive``. Every run, its workers included, has
PYTHONDONTWRITEBYTECODE=1, so each compiles its tree's modules afresh
and neither side reads bytecode left by an earlier edit; the stdlib and
numpy load from their installed bytecode on both sides. Pair i runs
``bench/run.py --trace 0 --seed i`` once in each tree, the base first in
odd pairs and this checkout first in even ones. For every end-to-end
metric in BENCHMARK.json it prints each side's median and quartiles, the
pairs the change won by the metric's ``better`` direction (ties count
for neither side), whether the change's median is worse than the base's
by more than the metric's bound, and whether the gain rule holds: the
change wins at least nine tenths of the pairs and the medians differ by
more than the base's interquartile range.
Exits 1 if any run fails or reports a failed check.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNCOPIED = shutil.ignore_patterns(".git", "__pycache__", ".bench_tmp")


def export(ref: str, dest: Path) -> None:
    """Write the files of ``ref`` into ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def checkout(tree: str, dest: Path) -> Path:
    """Write ``tree`` into ``dest``: a directory is copied without its caches, any other tree is a git ref."""
    if Path(tree).is_dir():
        shutil.copytree(tree, dest, ignore=UNCOPIED)
    else:
        export(tree, dest)
    return dest


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once in ``tree`` and return its result object."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: seed {seed} failed its checks\n{done.stderr}")
    return result["metrics"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(metric: dict, base: list[float], change: list[float]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (x - y) > 0: x is worse than y
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    worse = sign * (cm - bm)
    past_bound = worse > metric["bound"] * abs(bm) if bm else worse > 0
    gain = won >= 0.9 * len(base) and -worse > b3 - b1
    return (f"{metric['name']:20} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
            f"{metric['unit']}  won {won}/{len(base)}  "
            f"{'WORSE THAN BOUND' if past_bound else 'within bound'}  gain rule {'holds' if gain else 'fails'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating benchmark pairs: this checkout against a base")
    parser.add_argument("--base", required=True, help="git ref or checkout directory of the parent to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = {side: checkout(tree, Path(tmp, side)) for side, tree in (("base", args.base), ("change", ROOT))}
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.base} failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                try:
                    result = bench(trees[side], args.workload, seed, args.seconds)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                runs[side].append(result)
                values = " ".join(f"{m['name']}={result[m['name']]['value']!r}" for m in metrics)
                print(f"pair {seed} {side:6} {values}", flush=True)
    print(f"# {args.workload}: {args.pairs} pairs of --seconds {args.seconds!r}, base {args.base}, "
          f"median [quartiles]")
    for metric in metrics:
        name = metric["name"]
        print(report(metric, [r[name]["value"] for r in runs["base"]], [r[name]["value"] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
