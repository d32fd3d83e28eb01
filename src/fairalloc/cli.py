"""Command-line front end: run sweeps, dump utility curves, fit sigmoids.

    fairalloc run    --config scenario.json --out results/ [--R 30,60]
    fairalloc curves --config scenario.json --out results/
    fairalloc fit    200 0.05 740 0.99

Outputs are plain UTF-8 CSV with shortest round-trip number formatting, so a
rerun with the same config is byte-identical and the files re-parse
without loss. The subcommands only raise; ``main`` prints each error as
``error: ...`` and maps it to an exit code: 0 on success, 2 for a
config, usage or file problem (a ``ValueError`` or ``OSError``; the
output directory is made before any run, so an unusable ``--out`` fails
at once), 3 when an allocation run fails (the message names the rate
value). ``run`` writes each rate point's trajectory as soon as that point
finishes, so a failure leaves the earlier points' ``traj_R*.csv`` files
and no ``summary.csv``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .scenario_io import load_scenario
from .sim import SweepError, run_sweep
from .utility import sigmoid_from_qoe

__all__ = ["main"]

_CURVE_POINTS = 101  # r = 0, 1, ..., 100


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_rate_label(r: float) -> str:
    return str(int(r)) if float(r).is_integer() else repr(float(r))


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_trajectory(path: Path, user_ids, trajectory) -> None:
    # repr sets this writer's cost, and a cycling run repeats most of its
    # rates: bisection returns one of a fixed set of bracket midpoints, and
    # the cycle revisits the same brackets within a few rounds. So each
    # rate's text is kept for about 16 rounds, which a periodic cycle never
    # fills, and dropped after that, so memory stays per round however long
    # the run. The bytes are _fmt's: every value here is already a Python
    # float, so !r is repr(float(x)); and rates are > 0 and never NaN, and
    # positive doubles that compare equal have the same bits, so one cached
    # text serves every equal key.
    limit = 16 * len(user_ids)
    reprs = {}
    with path.open("w", encoding="utf-8") as f:
        f.write("n,price,user_id,bid,rate\n")
        for rec in trajectory:
            if len(reprs) > limit:
                reprs.clear()
            head = f"{rec.n},{rec.price!r},"
            rows = []
            for uid, bid, rate in zip(user_ids, rec.bids, rec.rates):
                text = reprs.get(rate)
                if text is None:
                    text = reprs[rate] = repr(rate)
                rows.append(f"{head}{uid},{bid!r},{text}\n")
            f.write("".join(rows))


def _run_point(scenario, r: float, out: Path) -> list[tuple[str, ...]]:
    """Run one rate point, write its trajectory and return its summary rows.

    Only the rows outlive the call, so the trajectory is freed before the
    caller runs the next point.
    """
    result = run_sweep(replace(scenario, r_values=(r,)), trajectories=True).results[r]
    _write_trajectory(out / f"traj_R{_fmt_rate_label(r)}.csv", scenario.user_ids, result.trajectory)
    return [
        (
            _fmt(r),
            uid,
            _fmt(rate),
            _fmt(u.value(rate)),
            _fmt(result.final_price),
            str(result.iterations_used),
            result.status,
        )
        for (uid, u), rate in zip(scenario.users, result.final_rates)
    ]


def cmd_run(config_path, out_dir, r_override=None) -> None:
    """Sweep the scenario and write per-rate trajectories plus a summary table.

    The rate points run one at a time in ascending order. Each point's
    ``traj_R*.csv`` is written as soon as it finishes and its trajectory
    is dropped before the next point runs, so memory follows the longest
    point, not the whole sweep. ``summary.csv`` is written after the last
    point; a point that fails leaves the files of the points before it.
    """
    scenario = load_scenario(config_path)
    if r_override is not None:
        scenario = replace(scenario, r_values=tuple(r_override))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for r in scenario.r_values:
        summary_rows.extend(_run_point(scenario, r, out))
    _write_csv(
        out / "summary.csv",
        "R,user_id,final_rate,final_utility,final_price,iterations,status",
        summary_rows,
    )


def cmd_curves(config_path, out_dir) -> None:
    """Sample every user's utility and log-slope on the integer grid 0..100."""
    scenario = load_scenario(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for j in range(_CURVE_POINTS):
        r = float(j)
        for uid, u in scenario.users:
            slope = "" if j == 0 else _fmt(u.log_slope(r))  # diverges at r = 0
            rows.append((_fmt(r), uid, _fmt(u.value(r)), slope))
    _write_csv(out / "curves.csv", "r,user_id,utility,dlogU", rows)


def cmd_fit(r_low, s_low, r_high, s_high) -> None:
    """Fit a sigmoid to two QoE anchor points and print its constants."""
    u = sigmoid_from_qoe(r_low, s_low, r_high, s_high)
    print(f"a={_fmt(u.a)} b={_fmt(u.b)} c={_fmt(u.c)} d={_fmt(u.d)}")


def _parse_rate_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fairalloc",
        description="Utility-proportional-fairness rate allocation for a single cell.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", required=True, help="scenario JSON file")
    files.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", parents=[files], help="run the allocation sweep and write CSVs")
    p_run.add_argument("--R", type=_parse_rate_list, default=None,
                       help="comma-separated total rates overriding the config's R_values")

    sub.add_parser("curves", parents=[files], help="write utility and log-slope samples")

    p_fit = sub.add_parser("fit", help="fit a sigmoid to two QoE points")
    p_fit.add_argument("r_low", type=float)
    p_fit.add_argument("s_low", type=float)
    p_fit.add_argument("r_high", type=float)
    p_fit.add_argument("s_high", type=float)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cmd_run(args.config, args.out, args.R)
        elif args.command == "curves":
            cmd_curves(args.config, args.out)
        else:
            cmd_fit(args.r_low, args.s_low, args.r_high, args.s_high)
    except (SweepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SweepError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
