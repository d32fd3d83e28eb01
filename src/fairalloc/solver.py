"""Per-user optimal rate for a given shadow price.

A user charged price p per unit rate maximizes log U(r) - p*r. The
log-utility slope is strictly decreasing, so the maximizer is the
unique root of

    d/dr log U(r) = p

found here from a certified estimate or, failing that, by bisection,
which is deterministic and keeps its bracket whatever the curve's shape.

Each utility's ``certified_rate(price, bracket_lo)`` makes the first
try in one call: it estimates the root, evaluates the log-slope at one
pair of probes, ``PROBE_STEP`` either side of it, and returns their
midpoint when they lie inside ``(bracket_lo, HI_CAP]`` and certify the
root between them. Since the rounded log-slope never increases from one
double to the next (the tests check this for both families), a slope
>= p at the lower probe and < p at the upper one certifies that the root
lies between them. That bracket is narrower than ``REL_TOL``, so the
estimate sets the returned double, to within the tolerance.

Any other estimate (infinite, outside the window or off by more than
``PROBE_STEP``) makes ``certified_rate`` return None, having cost at most
the probes: the solve then runs plain bisection from
``[bracket_lo, BRACKET_HI]``, whose result depends on the utility, the
price and ``bracket_lo`` alone.

Boundary handling in that bisection:

* price above the slope at the lower bracket: the user can afford
  essentially nothing, so the rate pins to ``bracket_lo`` (returned
  exactly, which is how callers recognize a pinned user);
* price below the slope at the upper bracket ``BRACKET_HI``: the
  upper bracket doubles until it encloses the root, and its last
  doubling stops at the fixed cap ``HI_CAP``; a slope still above the
  price at ``HI_CAP`` raises NoRootError, which signals a
  pathologically small price.

Bisection stops once the bracket is narrower than ``REL_TOL`` of its
midpoint, and it ends at the root however far below ``BRACKET_HI`` (and
above ``bracket_lo``) the root lies. The stop always comes while many
doubles still lie between the ends: no finite price has a root below
about 4e-309, where every log-slope exceeds the largest double, so
``REL_TOL`` of the midpoint stays far above the spacing of the
subnormal doubles (4.9e-324), and every step shrinks the bracket.

``grid_oracle`` is a brute-force cross-check: a plain-Python scan of an
explicit rate grid for the best objective value, which never touches the
derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# HI_CAP also caps the bisection; PROBE_STEP is re-exported with the solve's other constants
from .utility import HI_CAP, PROBE_STEP, UtilityFunction, positive_finite  # noqa: F401

__all__ = ["SolverConfig", "NoRootError", "solve_user_rate", "grid_oracle"]


BRACKET_HI = 1e3  # first upper bracket of the fallback bisection, doubled while the root lies above it
REL_TOL = 1e-10  # bracket width, relative to its midpoint, at which bisection stops


class NoRootError(RuntimeError):
    """Raised when the upper bracket reaches the hard cap without enclosing a root."""


@dataclass(frozen=True)
class SolverConfig:
    bracket_lo: float = 1e-3  # smallest rate a user holds: the pinned floor

    def __post_init__(self):
        positive_finite("bracket_lo", self.bracket_lo)
        if not self.bracket_lo < BRACKET_HI:
            raise ValueError(f"need 0 < bracket_lo < {BRACKET_HI}, got {self.bracket_lo}")


_DEFAULT = SolverConfig()


def solve_user_rate(u: UtilityFunction, price: float, config: SolverConfig = _DEFAULT) -> float:
    """Rate maximizing log U(r) - price*r: a certified estimate, or plain bisection on the log-slope.

    Returns ``u.certified_rate(price, bracket_lo)`` when the probes
    around the utility's estimate certify the root. Otherwise bisects
    from ``[bracket_lo, BRACKET_HI]``, keeping the invariant
    log_slope(lo) >= price >= log_slope(hi), until the bracket width
    falls below REL_TOL of its midpoint. Pinned rates
    (``bracket_lo`` exactly) and NoRootError come from that bisection
    only. Identical inputs give bit-identical results, for any positive
    ``a``, ``k`` and ``bracket_lo``.
    """
    # inline rather than positive_finite: this runs once per solve, on the hot path
    if price <= 0.0 or not math.isfinite(price):
        raise ValueError(f"price must be positive and finite, got {price}")
    lo = config.bracket_lo
    rate = u.certified_rate(price, lo)
    if rate is not None:
        return rate
    if u.log_slope(lo) < price:
        return lo  # pinned: even the smallest tradable rate is too expensive
    hi = BRACKET_HI
    while u.log_slope(hi) > price:
        if hi == HI_CAP:
            raise NoRootError(
                f"log-slope still above price {price} at rate {HI_CAP}; "
                "price too small to meet within the bracket cap"
            )
        hi = min(2.0 * hi, HI_CAP)
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= REL_TOL * mid:
            return mid
        if u.log_slope(mid) >= price:
            lo = mid
        else:
            hi = mid


def grid_oracle(u: UtilityFunction, price: float, r_grid) -> float:
    """Grid point maximizing log U(r) - price*r by exhaustive scan.

    The grid must be nonempty, strictly ascending and entirely positive.
    Rates where U underflows to zero score -inf, and of equal scores the
    first wins.
    """
    positive_finite("price", price)
    grid = [float(r) for r in r_grid]
    if not grid or grid[0] <= 0.0 or any(hi <= lo for lo, hi in zip(grid, grid[1:])):
        raise ValueError("r_grid must be nonempty, strictly ascending and positive")
    best, best_score = grid[0], -math.inf
    for r in grid:
        v = u.value(r)
        score = math.log(v) - price * r if v > 0.0 else -math.inf
        if score > best_score:
            best, best_score = r, score
    return best
