"""The benchmark's own checks: oracle cross-check, anchor counts, output validation.

    python3 -m pytest -q bench

The anchors are the exact counts of the program this benchmark was
defined against. A change to the program that moves one of them has
changed what the benchmark measures, and must say so.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import worker
from layers import LayerTrace
from oracle import equilibrium
from workloads import (
    CROWD_R_FACTORS,
    ROOT,
    crowd_doc,
    generated_doc,
    import_fairalloc,
    inflection_sum,
    scenario_doc,
)

fa = import_fairalloc()
BENCH = Path(__file__).resolve().parent
LO = 1e-3


def _canonical_eq(r_values):
    return equilibrium(scenario_doc("canonical-plain", fa)["users"], r_values, LO)


@pytest.mark.parametrize("R", [30.0, 60.0])
def test_oracle_matches_grid_oracle_and_log_slope(R):
    eq = _canonical_eq([R])
    price = math.exp(eq.log_price[0])
    grid = np.arange(1, int(R * 1000)) * 1e-3
    assert math.fsum(eq.rates[0]) == pytest.approx(R, rel=1e-12)
    for u, rate in zip(fa.canonical_scenario().utilities, eq.rates[0]):
        assert fa.grid_oracle(u, price, grid) == pytest.approx(rate, abs=2e-3)
        assert u.log_slope(rate) == pytest.approx(price, rel=1e-9)


def test_oracle_meets_first_order_conditions_on_flat_stretches():
    # R = 2..120 crosses every band where a sigmoid user is marginal on its
    # flat stretch and gets the budget remainder
    r_values = [float(r) for r in range(2, 121)]
    eq = _canonical_eq(r_values)
    utilities = fa.canonical_scenario().utilities
    for R, rates, log_price in zip(r_values, eq.rates, eq.log_price):
        assert math.fsum(rates) == pytest.approx(R, rel=1e-12)
        for u, rate in zip(utilities, rates):
            assert u.log_slope(rate) == pytest.approx(math.exp(log_price), rel=1e-9)


def _traced_operation(workload, workdir):
    generated = generated_doc(workload)
    if generated is not None:
        (workdir / "scenario.json").write_text(generated)
    _, path, scenario = worker.set_up(workload, workdir)
    runner = worker.Runner(fa, workload, path, scenario, workdir)
    tracer = LayerTrace(fa)
    with tracer.installed():
        runner.timed()
    assert runner.failures == []
    doc = json.loads(path.read_text())
    points, problems = run._points(workload, {"output": runner.output}, doc, workdir)
    assert problems == []
    return tracer, checks.quality(points, equilibrium(doc["users"], doc["R_values"], LO), doc), doc


def test_anchor_canonical_plain(tmp_path):
    tracer, per_point, _ = _traced_operation("canonical-plain", tmp_path)
    assert sum(p["iterations"] for p in per_point) == 9437
    assert sum(p["capped"] for p in per_point) == 9
    assert sum(p["solved"] for p in per_point) == 11
    assert tracer.calls["solve"] == 56_622
    lines = sum(f.read_bytes().count(b"\n") for f in (tmp_path / "out0").iterdir())
    assert lines == 56_763


def test_anchor_crowd_1k(tmp_path):
    tracer, per_point, doc = _traced_operation("crowd-1k", tmp_path)
    assert len(doc["users"]) == 1000
    assert sum(p["iterations"] for p in per_point) == 75
    assert tracer.calls["solve"] == 75_000
    assert not any(p["capped"] for p in per_point)
    # the absolute delta test does not scale with R: the 3 x sum(b) point stops 1.7e-3 short
    assert per_point[-1]["budget_residual"] == pytest.approx(1.7e-3, abs=5e-5)
    assert not per_point[-1]["solved"]


def test_anchor_canonical_damped_dense(tmp_path):
    _, per_point, _ = _traced_operation("canonical-damped-dense", tmp_path)
    assert len(per_point) == 119
    assert sum(p["iterations"] for p in per_point) == 6720
    assert not any(p["capped"] for p in per_point)
    assert sum(p["budget_residual"] > checks.SOLVED_TOL for p in per_point) >= 35


def test_crowd_generator_is_seeded_and_records_its_rates():
    doc = crowd_doc(1)
    assert doc == crowd_doc(1)
    assert doc["users"] != crowd_doc(2)["users"]
    sum_b = inflection_sum(doc["users"])
    assert sum_b == pytest.approx(8825.225, abs=1e-3)
    assert doc["R_values"] == [f * sum_b for f in CROWD_R_FACTORS]
    assert [u["type"] for u in doc["users"][:4]] == ["sigmoid", "log", "sigmoid", "log"]
    fa.parse_scenario(doc)


def _damage_summary_row(out):
    path = out / "summary.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _damage_trajectory(out):
    path = out / "traj_R60.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _damage_rate(out):
    path = out / "summary.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[-1].split(",")
    fields[2] = "nan"
    path.write_text("".join(lines[:-1]) + ",".join(fields))


@pytest.mark.parametrize("damage", [None, _damage_summary_row, _damage_trajectory, _damage_rate])
def test_cli_output_validation_counts_every_damaged_point(tmp_path, damage):
    doc = fa.scenario_to_dict(fa.canonical_scenario(r_values=[30.0, 60.0]))
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert fa.cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    if damage is not None:
        damage(out)
    points, problems = checks.read_cli_output(out, doc)
    assert [p[0] for p in points] == ([30.0, 60.0] if damage is None else [30.0])
    assert len(problems) == (0 if damage is None else 1)


def test_point_validation_rejects_rates_below_the_floor_or_not_finite():
    doc = {"users": [{}, {}], "R_values": [1.0]}
    assert checks.point_problem((1.0, [0.5, 0.5], 3, "converged"), doc) is None
    assert checks.point_problem((1.0, [1.0, 0.0], 3, "converged"), doc)
    assert checks.point_problem((1.0, [float("nan"), 0.5], 3, "converged"), doc)
    assert checks.point_problem((1.0, [0.5, 0.5], 1001, "iteration_cap_reached"), doc)


def test_layer_trace_restores_every_call_site():
    before = (fa.SigmoidUtility.log_slope, fa.protocol.solve_user_rate, fa.cli.run_sweep)
    with pytest.raises(ZeroDivisionError):
        with LayerTrace(fa).installed():
            assert fa.protocol.solve_user_rate is not before[1]
            1 / 0
    assert (fa.SigmoidUtility.log_slope, fa.protocol.solve_user_rate, fa.cli.run_sweep) == before


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    done = _bench("--workload", "canonical-damped-dense", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "crowd-1k", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
