"""Validation of every workload output, and its quality against the oracle.

A *point* is one rate value R of a sweep, reduced to what a user of the
program sees: ``(R, final_rates, iterations, status)``. Library
workloads hand points over directly; for the CLI they are re-read from
``summary.csv`` after every CSV has been checked. A point that fails any
check is reported with the reason and counted as failed, never dropped.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

STATUSES = ("converged", "iteration_cap_reached")
SUMMARY_HEADER = ["R", "user_id", "final_rate", "final_utility", "final_price", "iterations", "status"]
TRAJ_HEADER = ["n", "price", "user_id", "bid", "rate"]
SOLVED_TOL = 1e-3  # both the budget residual and the oracle gap, as shares of R


def settings(doc) -> tuple[float, int]:
    """(bracket_lo, max_iter) of a scenario document, with fairalloc's documented defaults."""
    config = doc.get("config", {})
    return float(config.get("solver", {}).get("bracket_lo", 1e-3)), int(config.get("max_iter", 1000))


def point_problem(point, doc) -> str | None:
    """Why a point is malformed, or None when rates, rounds and status are all well formed."""
    r, rates, iterations, status = point
    lo, max_iter = settings(doc)
    if len(rates) != len(doc["users"]):
        return f"R={r}: {len(rates)} rates for {len(doc['users'])} users"
    if not all(math.isfinite(x) and x >= lo for x in rates):
        return f"R={r}: a rate is not finite or is below bracket_lo={lo}"
    if not 1 <= iterations <= max_iter:
        return f"R={r}: iterations={iterations} outside 1..{max_iter}"
    if status not in STATUSES:
        return f"R={r}: unknown status {status!r}"
    return None


def _rate_label(r: float) -> str:
    return str(int(r)) if float(r).is_integer() else repr(float(r))


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text!r}")
    return x


def _read_rows(path: Path, header) -> list[list[str]]:
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is {rows[0] if rows else None}, expected {header}")
    return rows[1:]


def _summary_point(r, rows, user_ids):
    if [row[1] for row in rows] != user_ids:
        raise ValueError(f"user rows {[row[1] for row in rows]} instead of one per user {user_ids}")
    if len({tuple(row[4:]) for row in rows}) != 1:
        raise ValueError("price, iterations or status differ between users")
    for row in rows:
        _finite(row[3])
    _finite(rows[0][4])
    return (r, [_finite(row[2]) for row in rows], int(rows[0][5]), rows[0][6])


def _check_trajectory(path: Path, point, user_ids):
    r, rates, iterations, _ = point
    rows = _read_rows(path, TRAJ_HEADER)
    n_users = len(user_ids)
    if len(rows) != iterations * n_users:
        raise ValueError(f"{path.name}: {len(rows)} rows, expected {iterations} rounds x {n_users} users")
    for j, row in enumerate(rows):
        n, uid = int(row[0]), row[2]
        if n != j // n_users + 1 or uid != user_ids[j % n_users]:
            raise ValueError(f"{path.name} row {j + 2}: round {n} user {uid!r} out of order")
        for field in (row[1], row[3], row[4]):
            _finite(field)
    last = [float(row[4]) for row in rows[-n_users:]]
    if last != rates:
        raise ValueError(f"{path.name}: last round's rates differ from summary.csv")


def read_cli_output(out_dir: Path, doc) -> tuple[list, list[str]]:
    """Points recovered from a ``fairalloc run`` output directory, and the problems found.

    ``summary.csv`` must hold exactly one finite row per (R, user), and
    each ``traj_R*.csv`` rounds x users rows that re-parse and end on the
    summary's rates. A point with any problem is left out of the returned
    points and named in the problems instead.
    """
    user_ids = [u["id"] for u in doc["users"]]
    try:
        rows = _read_rows(out_dir / "summary.csv", SUMMARY_HEADER)
    except (OSError, ValueError) as exc:
        return [], [f"summary.csv: {exc}"] * len(doc["R_values"])
    by_r: dict[float, list] = {}
    problems = []
    for row in rows:
        try:
            if len(row) != len(SUMMARY_HEADER):
                raise ValueError(f"{len(row)} fields")
            by_r.setdefault(_finite(row[0]), []).append(row)
        except ValueError as exc:
            problems.append(f"summary.csv row {row}: {exc}")
    if set(by_r) - set(doc["R_values"]):
        problems.append(f"summary.csv: rows for unrequested R {sorted(set(by_r) - set(doc['R_values']))}")
    points = []
    for r in doc["R_values"]:
        try:
            point = _summary_point(r, by_r.get(r, []), user_ids)
            problem = point_problem(point, doc)
            if problem:
                raise ValueError(problem)
            _check_trajectory(out_dir / f"traj_R{_rate_label(r)}.csv", point, user_ids)
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"R={r}: {exc}")
            continue
        points.append(point)
    return points, problems


def quality(points, equilibrium, doc) -> list[dict]:
    """Per point: budget residual and oracle gap (shares of R), solved and capped flags."""
    index = {r: j for j, r in enumerate(doc["R_values"])}
    _, max_iter = settings(doc)
    out = []
    for r, rates, iterations, status in points:
        target = equilibrium.rates[index[r]]
        budget = abs(math.fsum(rates) - r) / r
        gap = max(abs(x - y) for x, y in zip(rates, target)) / r
        out.append(
            {
                "R": r,
                "iterations": iterations,
                "budget_residual": budget,
                "oracle_gap": gap,
                "solved": budget <= SOLVED_TOL and gap <= SOLVED_TOL,
                "capped": status == "iteration_cap_reached" and iterations == max_iter,
            }
        )
    return out
