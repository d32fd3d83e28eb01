"""Check that this checkout's CLI and demos write the same bytes as a base checkout's.

Usage: python3 tools/same_output.py --base <git-ref or dir>

The base is a checkout directory or a git ref, as for ``bench_pairs.py``.
The benchmark's three populations (``bench/workloads.py``) are written
once as scenario files, and both trees run the same commands on the same
files, each as ``python -m fairalloc.cli`` with ``PYTHONPATH=<tree>/src``:
``run`` on every population, ``run --R 7.5,30``, ``run --R 9,48,57``
(exact cycles that first repeat late, at rounds 351, 260 and 595, with
periods 4, 18 and 14: R = 57's repeat comes after the run's memo has
filled and evicted prices, and R = 48's period is longer than the 16
rounds of text the CLI writer keeps), ``run --R 2.7e9`` (roots
near the demand ceiling, far past the fallback bisection's first upper
bracket: the probes certify every round's roots, and only the ceiling's
root at the bracket cap is reached by doubling), ``run --R 60,115`` on
a copy of the canonical population with ``delta`` 5e-324, the smallest
double (a run settles only on a zero move: R = 60 repeats its price on
the next round and settles on that round's move test, at round 113
today, and R = 115 repeats it with lag 2 at round 93 and replays that
cycle to the cap), ``curves``, and
``fit`` once succeeding and once failing. Four cases exit with an error:
``run --R 60,3e9`` (exit 3 above the demand ceiling, after the 60 point's
file is kept), ``run --R 60,1.39e9`` and ``run --R 60,5e8`` on a copy of
the canonical population with ``initial_bid`` 1e-3 (exit 3 from a
``NoRootError`` in the second point's first round, whose price is below
every log user's slope at the bracket cap; the demand ceiling is computed
for 1.39e9 and not for 5e8, which is ``HI_CAP / 2``) and ``run`` on a
copy of the canonical population with the unknown key
``config.solver.rel_tol`` (exit 2).
``run`` also runs on copies of the canonical population whose
``max_iter`` is set around the round at which this checkout's R = 5 run
first repeats a price: one before it, that round, two after it, and
200. So its runs end on the last round solved, on the first round taken
from the run's memo, just after it and well into the replayed cycle (today the
repeat is at round 38, so ``max_iter`` is 37, 38, 40 and 200).
It also runs on 120 copies of the canonical users at R = 600 with
``max_iter`` 60: the memo holds 2 prices of 720 users and the writer the
text of 5 rounds, and from round 38 on every round repeats one of the
period-2 cycle, so the run's memo and then its replay, and the writer's
text cache, serve the run's last 23 rounds.
Every output file's bytes, stdout, stderr and exit code are compared, so
a ``.part`` file left behind shows up as a difference. The CLI writes
every round of every point with ``repr``, so identical files also mean
identical library records. Each script in this checkout's ``demos/`` also runs in both
trees, as ``python <tree>/demos/<name>`` with ``PYTHONPATH=<tree>/src``,
and its stdout and exit code are compared. Every difference is printed.
For a CSV file whose header, row count and field counts match, that is
one line per column with a differing field: how many fields differ and
the largest distance between two of them in ulps (the number of steps
from one double to the next that separate them). For any other output
it is the first differing bytes. Exits 1 on any difference; exits 0 and
prints the number of outputs compared otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, checkout

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def r5_first_repeat(fa) -> int:
    """The round at which this checkout's undamped R = 5 run on the canonical users first repeats a price."""
    prices = []
    fa.run_allocation(fa.canonical_scenario().utilities, 5.0, on_round=lambda rec: prices.append(rec.price))
    return next(n for n, price in enumerate(prices, 1) if price in prices[:n - 1])


def write_populations(dest: Path) -> dict[str, Path]:
    """Write each benchmark population and altered canonical ones as scenario files; return the paths.

    One has a key the reader refuses, one initial bids of 1e-3, one
    ``delta`` 5e-324, four a
    smaller ``max_iter`` each (around R = 5's first repeated price), and
    one 120 copies of the users at R = 600 with ``max_iter`` 60.
    """
    fa = workloads.import_fairalloc()
    paths = {}
    for workload in workloads.WORKLOADS:
        text = workloads.generated_doc(workload) or json.dumps(workloads.scenario_doc(workload, fa))
        paths[workload] = dest / f"{workload}.json"
        paths[workload].write_text(text, encoding="utf-8")
    malformed = workloads.scenario_doc("canonical-plain", fa)
    malformed["config"]["solver"]["rel_tol"] = 1e-8
    paths["unknown key"] = dest / "unknown-key.json"
    paths["unknown key"].write_text(json.dumps(malformed), encoding="utf-8")
    tiny_bids = workloads.scenario_doc("canonical-plain", fa)
    tiny_bids["config"]["initial_bid"] = 1e-3
    paths["tiny bids"] = dest / "tiny-bids.json"
    paths["tiny bids"].write_text(json.dumps(tiny_bids), encoding="utf-8")
    exact = workloads.scenario_doc("canonical-plain", fa)
    exact["config"]["delta"] = 5e-324
    paths["exact"] = dest / "exact.json"
    paths["exact"].write_text(json.dumps(exact), encoding="utf-8")
    first = r5_first_repeat(fa)
    for max_iter in (first - 1, first, first + 2, 200):
        capped = workloads.scenario_doc("canonical-plain", fa)
        capped["config"]["max_iter"] = max_iter
        paths[f"max_iter {max_iter}"] = dest / f"max-iter-{max_iter}.json"
        paths[f"max_iter {max_iter}"].write_text(json.dumps(capped), encoding="utf-8")
    copies = workloads.scenario_doc("canonical-plain", fa)
    copies["users"] = [{**user, "id": f"{user['id']}-{k}"} for k in range(120) for user in copies["users"]]
    copies["R_values"], copies["config"]["max_iter"] = [600.0], 60
    paths["120 copies"] = dest / "copies.json"
    paths["120 copies"].write_text(json.dumps(copies), encoding="utf-8")
    return paths


def cases(populations: dict[str, Path]) -> dict[str, list[str]]:
    """Each case's CLI arguments; ``--out`` is relative to the case's own directory."""
    canonical, tiny_bids = str(populations["canonical-plain"]), str(populations["tiny bids"])
    runs = {f"run {w}": ["run", "--config", str(p), "--out", "out"]
            for w, p in populations.items() if w not in ("tiny bids", "exact")}
    return {
        **runs,
        "run --R 7.5,30": ["run", "--config", canonical, "--out", "out", "--R", "7.5,30"],
        "run --R 9,48,57": ["run", "--config", canonical, "--out", "out", "--R", "9,48,57"],
        "run --R 2.7e9": ["run", "--config", canonical, "--out", "out", "--R", "2.7e9"],
        "run exact --R 60,115": ["run", "--config", str(populations["exact"]), "--out", "out", "--R", "60,115"],
        "run --R 60,3e9": ["run", "--config", canonical, "--out", "out", "--R", "60,3e9"],
        "run tiny bids --R 60,1.39e9": ["run", "--config", tiny_bids, "--out", "out", "--R", "60,1.39e9"],
        "run tiny bids --R 60,5e8": ["run", "--config", tiny_bids, "--out", "out", "--R", "60,5e8"],
        "curves": ["curves", "--config", canonical, "--out", "out"],
        "fit": ["fit", "200", "0.05", "740", "0.99"],
        "fit error": ["fit", "740", "0.05", "200", "0.99"],
    }


def demo_names() -> list[str]:
    """The file names of this checkout's demo scripts, sorted."""
    return sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def python(tree: Path, args: list[str], workdir: Path) -> subprocess.CompletedProcess:
    """Run ``python args`` in a new ``workdir`` against the fairalloc package of ``tree``."""
    src = tree / "src"
    if not (src / "fairalloc" / "cli.py").is_file():
        raise FileNotFoundError(f"no fairalloc package under {src}")
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], cwd=workdir, env=env, capture_output=True)


def outputs(tree: Path, workdir: Path, args: list[str]) -> dict[str, bytes]:
    """Run the CLI of ``tree`` in ``workdir``; return exit code, streams and every file it wrote."""
    done = python(tree, ["-m", "fairalloc.cli", *args], workdir)
    found = {"exit code": str(done.returncode).encode(), "stdout": done.stdout, "stderr": done.stderr}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            found[str(path.relative_to(workdir))] = path.read_bytes()
    return found


def demo_outputs(tree: Path, workdir: Path, name: str) -> dict[str, bytes]:
    """Run the demo ``name`` of ``tree`` in ``workdir``; return its exit code and stdout.

    Its stderr is left out: a traceback names the tree's own paths.
    """
    done = python(tree, [str(tree / "demos" / name)], workdir)
    return {"exit code": str(done.returncode).encode(), "stdout": done.stdout}


def first_difference(base: bytes, change: bytes) -> str:
    at = next((i for i, (b, c) in enumerate(zip(base, change)) if b != c), min(len(base), len(change)))
    line, start = base.count(b"\n", 0, at) + 1, max(0, at - 40)
    return (f"line {line}: base {base[start:at + 40]!r} / change {change[start:at + 40]!r} "
            f"(lengths {len(base)} / {len(change)})")


def ulps(x: str, y: str) -> float:
    """Distance in ulps between two numeric fields; inf if either is not a number."""
    try:
        return abs(_ordinal(float(x)) - _ordinal(float(y)))
    except ValueError:
        return math.inf


def _ordinal(x: float) -> int:
    """An integer per double, consecutive for consecutive doubles."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def column_differences(base: bytes, change: bytes) -> dict[str, tuple[int, float]] | None:
    """(fields that differ, their largest ulp distance) per CSV column that has any; None if the shapes differ."""
    base_rows, change_rows = base.decode().splitlines(), change.decode().splitlines()
    if len(base_rows) != len(change_rows) or base_rows[:1] != change_rows[:1]:
        return None
    header = base_rows[0].split(",")
    found: dict[str, tuple[int, float]] = {}
    for base_row, change_row in zip(base_rows[1:], change_rows[1:]):
        base_fields, change_fields = base_row.split(","), change_row.split(",")
        if not len(base_fields) == len(change_fields) == len(header):
            return None
        for column, b, c in zip(header, base_fields, change_fields):
            if b != c:
                count, worst = found.get(column, (0, 0))
                found[column] = (count + 1, max(worst, ulps(b, c)))
    return found


def report(name: str, key: str, base: bytes, change: bytes) -> None:
    """Print how one output differs: per CSV column if the shapes match, else its first differing bytes."""
    columns = column_differences(base, change) if key.endswith(".csv") else None
    if columns is None:
        print(f"DIFFERENT {name}: {key} {first_difference(base, change)}")
        return
    fields = base.count(b"\n") - 1
    for column, (count, worst) in columns.items():
        print(f"DIFFERENT {name}: {key} column {column}: {count} of {fields} fields, at most {worst:g} ulps")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare this checkout's CLI and demo output with a base's, byte by byte")
    parser.add_argument("--base", required=True, help="git ref or checkout directory to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        try:
            trees = {"base": checkout(args.base, tmp / "base-tree"), "change": ROOT}
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.base} failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
        runs = {name: functools.partial(outputs, args=cli_args)
                for name, cli_args in cases(write_populations(tmp / "inputs")).items()}
        for demo in demo_names():
            runs[f"demo {demo}"] = functools.partial(demo_outputs, name=demo)
        compared = different = 0
        for i, (name, run) in enumerate(runs.items()):
            found = {side: run(tree, tmp / side / str(i)) for side, tree in trees.items()}
            keys = sorted(found["base"].keys() | found["change"].keys())
            differ = 0
            for key in keys:
                base, change = found["base"].get(key), found["change"].get(key)
                if base == change:
                    continue
                differ += 1
                if base is None or change is None:
                    print(f"DIFFERENT {name}: {key} written only by the {'base' if change is None else 'change'}")
                else:
                    report(name, key, base, change)
            compared += len(keys)
            different += differ
            print(f"{'identical' if not differ else 'checked'} {name}: {len(keys)} outputs, {differ} different",
                  flush=True)
    if different:
        print(f"{different} of {compared} outputs differ from {args.base}")
        return 1
    print(f"all {compared} outputs identical to {args.base}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
