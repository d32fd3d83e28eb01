"""Command-line front end: run sweeps, dump utility curves, fit sigmoids.

    fairalloc run    --config scenario.json --out results/ [--R 30,60]
    fairalloc curves --config scenario.json --out results/
    fairalloc fit    200 0.05 740 0.99

Outputs are plain UTF-8 CSV with shortest round-trip number formatting, so a
rerun with the same config is byte-identical and the files re-parse
without loss. The subcommands only raise; ``main`` prints each error as
``error: ...`` and maps it to an exit code: 0 on success, 2 for a
config, usage or file problem (a ``ValueError`` or ``OSError``; ``run``
and ``curves`` share one setup that loads the scenario, applies ``--R``
and makes the output directory before any run, so an unusable config or
``--out`` fails at once), 3 when an allocation run fails. ``run`` runs
one rate point per ``run_sweep`` call, which passes every failure on
unchanged, so it names the failing rate itself: ``error: allocation
failed at R=...: ...``. Its CSV writer can raise only ``OSError`` (the
scenario refuses user ids that UTF-8 cannot encode), so a point's
``ValueError`` or ``RuntimeError`` is the allocation's. ``run`` writes
each round of a rate point to that point's trajectory as soon as the
round is made, so no run holds a trajectory; every CSV
is written under a temporary name and renamed once it is complete. A
failure therefore leaves the earlier points' complete ``traj_R*.csv``
files, nothing of the failing point and no ``summary.csv``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .protocol import _MEMO_FLOATS
from .scenario_io import load_scenario
from .sim import run_sweep
from .utility import sigmoid_from_qoe

__all__ = ["main"]

_CURVE_POINTS = 101  # r = 0, 1, ..., 100


@contextmanager
def _write_csv(path: Path, header: str):
    """Yield a text file that holds ``header``; it becomes ``path`` once the block completes.

    The file is written as ``path`` plus ``.part`` and renamed at the end,
    so a block that raises removes it and leaves no partial CSV behind.
    """
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="utf-8") as f:
            f.write(header + "\n")
            yield f
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _round_writer(write, user_ids):
    """A per-round callback that passes each round to ``write`` as one block of CSV rows."""
    # repr sets this writer's cost, and a cycling run repeats whole rounds:
    # once a plain run's price repeats bit for bit, its memo and then its
    # replay of the cycle hand back the same price, bids and rates under a
    # new n. So each round's rows are kept as text without their leading
    # "n," and a repeated round only joins them under its own n. The text
    # of at most 16 rounds is kept, and of at most 4096 rows
    # (``_MEMO_FLOATS``, as many as the run's memo holds floats: 4 rounds
    # of 1000 users, none past 4096), evicting the least recently used
    # round. So memory stays flat however long the run and the population,
    # a cycle that fits is formatted once and a longer one every round.
    # Prices, bids and rates are products and quotients of positive
    # doubles, never -0.0 or NaN, so doubles that compare equal have the
    # same bits and one cached text serves every equal key.
    @functools.lru_cache(maxsize=min(16, _MEMO_FLOATS // len(user_ids)))
    def rows(price, bids, rates):
        price = repr(price)  # once per round, not once per row
        return ("", *[f"{price},{uid},{bid!r},{rate!r}\n" for uid, bid, rate in zip(user_ids, bids, rates)])

    return lambda rec: write(f"{rec.n},".join(rows(rec.price, rec.bids, rec.rates)))


def _run_point(scenario, r: float, out: Path) -> list[str]:
    """Run one rate point, writing its ``traj_R*.csv`` round by round; return its summary lines."""
    with _write_csv(out / f"traj_R{repr(r).removesuffix('.0')}.csv", "n,price,user_id,bid,rate") as f:
        write_round = _round_writer(f.write, scenario.user_ids)
        result = run_sweep(replace(scenario, r_values=(r,)), on_round=write_round).results[r]
    tail = f"{result.final_price!r},{result.iterations_used},{result.status}\n"
    return [f"{r!r},{uid},{rate!r},{u.value(rate)!r},{tail}"
            for (uid, u), rate in zip(scenario.users, result.final_rates)]


def _curve_lines(scenario):
    """Every user's utility and log-slope on the integer grid 0..100."""
    for j in range(_CURVE_POINTS):
        r = float(j)
        for uid, u in scenario.users:
            slope = "" if j == 0 else repr(u.log_slope(r))  # diverges at r = 0
            yield f"{r!r},{uid},{u.value(r)!r},{slope}\n"


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
        if args.command == "fit":
            u = sigmoid_from_qoe(args.r_low, args.s_low, args.r_high, args.s_high)
            print(f"a={u.a!r} b={u.b!r} c={u.c!r} d={u.d!r}")
            return 0
        scenario = load_scenario(args.config)
        if getattr(args, "R", None) is not None:
            scenario = replace(scenario, r_values=tuple(args.R))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            # points run one at a time in ascending order; summary.csv waits for the last
            summary = []
            for r in scenario.r_values:
                try:
                    summary += _run_point(scenario, r, out)
                except (ValueError, RuntimeError) as exc:  # the allocation's; the writer raises only OSError
                    print(f"error: allocation failed at R={r!r}: {exc}", file=sys.stderr)
                    return 3
            with _write_csv(out / "summary.csv",
                            "R,user_id,final_rate,final_utility,final_price,iterations,status") as f:
                f.writelines(summary)
        else:
            with _write_csv(out / "curves.csv", "r,user_id,utility,dlogU") as f:
                f.writelines(_curve_lines(scenario))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
