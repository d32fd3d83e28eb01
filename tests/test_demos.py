"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """(exit code, stdout, stderr) of each demo, all started at once, each from an empty directory."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    procs = {
        name: subprocess.Popen(
            [sys.executable, str(ROOT / "demos" / name)],
            cwd=tmp_path_factory.mktemp("demo"),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in DEMOS
    }
    runs = {}
    try:
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=120)
            runs[name] = (proc.returncode, out, err)
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return runs


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(demo_runs, name):
    code, _, err = demo_runs[name]
    assert code == 0, err


def test_damping_rescue_reports_the_budget_residual(demo_runs):
    code, out, err = demo_runs["damping_rescue.py"]
    assert code == 0, err
    assert "budget residual |sum(rates) - R| = 4.68" in out
    assert "frozen:" in out
