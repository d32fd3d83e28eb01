"""Check that this checkout's CLI writes the same bytes as a base checkout's.

Usage: python3 tools/same_output.py --base <git-ref or dir>

The base is a checkout directory or a git ref, as for ``bench_pairs.py``.
The benchmark's three populations (``bench/workloads.py``) are written
once as scenario files, and both trees run the same commands on the same
files, each as ``python -m fairalloc.cli`` with ``PYTHONPATH=<tree>/src``:
``run`` on every population, ``run --R 7.5,30``, ``run --R 2.7e9`` (roots
past the first upper bracket, near the demand ceiling), ``curves``, and
``fit`` once succeeding and once failing. Two cases exit with an error:
``run --R 60,3e9`` (exit 3 above the demand ceiling, after the 60 point's
file is kept) and ``run`` on a copy of the canonical population with the
unknown key ``config.solver.rel_tol`` (exit 2). Every output file's bytes,
stdout, stderr and exit code are compared, so a ``.part`` file left behind
shows up as a difference. The CLI writes every round of every
point with ``repr``, so identical files also mean identical library
records. Prints the first difference and exits 1 on any; exits 0 and
prints the number of outputs compared otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, checkout

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402


def write_populations(dest: Path) -> dict[str, Path]:
    """Write each benchmark population, and one malformed population, as a scenario file; return the paths."""
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
    return paths


def cases(populations: dict[str, Path]) -> dict[str, list[str]]:
    """Each case's CLI arguments; ``--out`` is relative to the case's own directory."""
    canonical = str(populations["canonical-plain"])
    runs = {f"run {w}": ["run", "--config", str(p), "--out", "out"] for w, p in populations.items()}
    return {
        **runs,
        "run --R 7.5,30": ["run", "--config", canonical, "--out", "out", "--R", "7.5,30"],
        "run --R 2.7e9": ["run", "--config", canonical, "--out", "out", "--R", "2.7e9"],
        "run --R 60,3e9": ["run", "--config", canonical, "--out", "out", "--R", "60,3e9"],
        "curves": ["curves", "--config", canonical, "--out", "out"],
        "fit": ["fit", "200", "0.05", "740", "0.99"],
        "fit error": ["fit", "740", "0.05", "200", "0.99"],
    }


def outputs(tree: Path, args: list[str], workdir: Path) -> dict[str, bytes]:
    """Run the CLI of ``tree`` in ``workdir``; return exit code, streams and every file it wrote."""
    src = tree / "src"
    if not (src / "fairalloc" / "cli.py").is_file():
        raise FileNotFoundError(f"no fairalloc package under {src}")
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "fairalloc.cli", *args], cwd=workdir, env=env,
                          capture_output=True)
    found = {"exit code": str(done.returncode).encode(), "stdout": done.stdout, "stderr": done.stderr}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            found[str(path.relative_to(workdir))] = path.read_bytes()
    return found


def first_difference(base: bytes, change: bytes) -> str:
    at = next((i for i, (b, c) in enumerate(zip(base, change)) if b != c), min(len(base), len(change)))
    line, start = base.count(b"\n", 0, at) + 1, max(0, at - 40)
    return (f"line {line}: base {base[start:at + 40]!r} / change {change[start:at + 40]!r} "
            f"(lengths {len(base)} / {len(change)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare this checkout's CLI output with a base's, byte by byte")
    parser.add_argument("--base", required=True, help="git ref or checkout directory to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "base-tree").mkdir()
        (tmp / "inputs").mkdir()
        try:
            trees = {"base": checkout(args.base, tmp / "base-tree"), "change": ROOT}
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.base} failed: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 1
        compared = 0
        for i, (name, cli_args) in enumerate(cases(write_populations(tmp / "inputs")).items()):
            found = {side: outputs(tree, cli_args, tmp / side / str(i)) for side, tree in trees.items()}
            for key in sorted(found["base"].keys() | found["change"].keys()):
                base, change = found["base"].get(key), found["change"].get(key)
                if base is None or change is None:
                    print(f"DIFFERENT {name}: {key} written only by the {'base' if change is None else 'change'}")
                    return 1
                if base != change:
                    print(f"DIFFERENT {name}: {key} {first_difference(base, change)}")
                    return 1
                compared += 1
            print(f"identical {name}: {len(found['base'])} outputs", flush=True)
    print(f"all {compared} outputs identical to {args.base}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
