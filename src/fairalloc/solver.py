"""Per-user optimal rate for a given shadow price.

A user charged price p per unit rate maximizes log U(r) - p*r. The
log-utility slope is strictly decreasing, so the maximizer is the
unique root of

    d/dr log U(r) = p

found here by bisection, which is deterministic and keeps its bracket
whatever the curve's shape.

Most bisection steps cost no evaluation. Each utility gives a cheap
estimate of the root (``estimate_rate``), and the solver evaluates the
log-slope at one pair of probes, ``PROBE_STEP`` either side of it. The
probes certify a bracket: the slope is >= p at ``below`` and < p at
``above``. The rounded log-slope never increases from one double to the
next (the tests check this for both families), so a midpoint <=
``below`` goes low and a midpoint >= ``above`` goes high exactly as an
evaluation would have sent it. Bisection therefore walks the same
midpoints as plain bisection and returns the same double; only the
midpoints inside the certified bracket are evaluated. An estimate that
misses the root by more than ``PROBE_STEP`` (nan, infinite or far off)
only costs speed: the probes then certify one end at most, and the solve
walks plain bisection inside that half-certified bracket. The probes
come before the boundary checks below, so a probe that certifies
``below`` also settles the pinned check, and one that certifies
``above`` the test for a doubling, without evaluating the bracket's end.

Most levels of the walk also skip the stop test. The bracket's upper end
always lies above ``below``, so while its lower end lies more than
``stop = 4*REL_TOL*above`` (at least the smallest normal double) under
``below``, the bracket is wider than ``stop`` and the stop rule cannot
fire. The walk tests it only once the lower end has passed that gate,
and so returns the same double.

Boundary handling:

* price above the slope at the lower bracket: the user can afford
  essentially nothing, so the rate pins to ``bracket_lo`` (returned
  exactly, which is how callers recognize a pinned user);
* price below the slope at the upper bracket ``BRACKET_HI``: the
  bracket doubles until it encloses the root, and its last doubling
  stops at the fixed cap ``HI_CAP``; a slope still above the price at
  ``HI_CAP`` raises NoRootError, which signals a pathologically small
  price.

Bisection stops once the bracket is narrower than ``REL_TOL`` of its
midpoint, or once the midpoint rounds onto an end of the bracket, so
that no double lies strictly between them. Every other step shrinks the
bracket strictly, so the loop always ends, and it ends at the root
however far below ``BRACKET_HI`` (and above ``bracket_lo``) the root lies.

``grid_oracle`` is the brute-force cross-check used by the tests: it
scans an explicit rate grid for the best objective value and never
touches the derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .utility import UtilityFunction

__all__ = ["SolverConfig", "NoRootError", "solve_user_rate", "grid_oracle"]


BRACKET_HI = 1e3  # first upper bracket, doubled while the root lies above it
HI_CAP = 1e9  # largest rate the upper bracket may grow to
REL_TOL = 1e-10  # bracket width, relative to its midpoint, at which bisection stops
PROBE_STEP = 1e-12  # relative distance of each probe from the estimated root


class NoRootError(RuntimeError):
    """Raised when the upper bracket reaches the hard cap without enclosing a root."""


@dataclass(frozen=True)
class SolverConfig:
    bracket_lo: float = 1e-3  # smallest rate a user holds: the pinned floor

    def __post_init__(self):
        if not 0.0 < self.bracket_lo < BRACKET_HI:
            raise ValueError(f"need 0 < bracket_lo < {BRACKET_HI}, got {self.bracket_lo}")


_DEFAULT = SolverConfig()


def solve_user_rate(u: UtilityFunction, price: float, config: SolverConfig = _DEFAULT) -> float:
    """Rate maximizing log U(r) - price*r, via bisection on the log-slope.

    Maintains the bracket invariant log_slope(lo) >= price >= log_slope(hi)
    and stops once the bracket width falls below REL_TOL of its midpoint
    or the midpoint no longer lies strictly inside the bracket. A midpoint
    outside the probed bracket (below, above) is decided without an
    evaluation. Identical inputs give bit-identical results, for any
    positive ``a``, ``k`` and ``bracket_lo``.
    """
    if price <= 0.0 or not math.isfinite(price):
        raise ValueError(f"price must be positive and finite, got {price}")
    lo = config.bracket_lo
    hi = BRACKET_HI
    guess = u.estimate_rate(price)
    x, y = guess * (1.0 - PROBE_STEP), guess * (1.0 + PROBE_STEP)
    if not lo < x < y < hi:
        below, above = lo, hi
    elif u.log_slope(x) < price:  # y lies above the certified x, so it is never evaluated
        below, above = lo, x
    elif u.log_slope(y) >= price:
        below, above = y, hi
    else:
        below, above = x, y
    if below == lo and u.log_slope(lo) < price:
        return lo  # pinned: even the smallest tradable rate is too expensive
    while above == hi and u.log_slope(hi) > price:
        if hi == HI_CAP:
            raise NoRootError(
                f"log-slope still above price {price} at rate {HI_CAP}; "
                "price too small to meet within the bracket cap"
            )
        below, above = hi, min(2.0 * hi, HI_CAP)  # log_slope(hi) > price certifies the old upper end
        hi = above
    # hi > below throughout, so while lo < gate the bracket is wider than
    # `stop` and cannot fire the stop rule (a normal `stop` also keeps
    # each midpoint strictly inside it)
    stop = max(4.0 * REL_TOL * above, sys.float_info.min)
    gate = below - stop
    while True:
        mid = 0.5 * (lo + hi)
        if lo >= gate and (hi - lo <= REL_TOL * mid or not lo < mid < hi):
            return mid
        if mid <= below or (mid < above and u.log_slope(mid) >= price):
            lo = mid
        else:
            hi = mid


def grid_oracle(u: UtilityFunction, price: float, r_grid) -> float:
    """Grid point maximizing log U(r) - price*r by exhaustive scan.

    The grid must be nonempty, strictly ascending and entirely positive.
    Rates where U underflows to zero score -inf and can never win.
    """
    if price <= 0.0 or not math.isfinite(price):
        raise ValueError(f"price must be positive and finite, got {price}")
    grid = np.asarray(r_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("r_grid must be a nonempty 1-d array")
    if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("r_grid must be strictly ascending and positive")
    with np.errstate(divide="ignore"):
        objective = np.log(u.value(grid)) - price * grid
    return float(grid[int(np.argmax(objective))])
