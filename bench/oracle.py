"""Equilibrium oracle: the proportional-fair optimum, computed independently.

For a cell of rate R the optimum of sum_i log U_i(r_i) subject to
sum_i r_i = R and r_i >= lo (Kelly 1998) prices rate at the p where
total demand D(p) = sum_i r_i(p) meets R, each r_i(p) being the root of
d/dr log U_i(r) = p. D is continuous and strictly decreasing, so p is a
1-d monotone root and bisection finds it.

Everything here works from the utility parameters (a, b, k) with numpy,
in log-slope space, and shares no code with fairalloc's solver. Both the
inner solve r_i(p) and the outer price search bisect to float
resolution, vectorized over every rate point and user at once.

On a sigmoid's flat stretch (between about 2/a and b - 2/a) the slope
differs from a by ~1e-13 relative, so the marginal user's r_i(p) is
ill-conditioned in p: the final price bracket is two neighbouring
floats whose demands straddle R by a wide margin. That user gets the
budget remainder instead, and ``equilibrium`` then verifies the result
by the first-order conditions in log-slope space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fixed step counts that reach float resolution: log r spans under 40
# (rates from lo to R), and log p can span 1e5 when a steep sigmoid
# meets a large R, since its log-slope falls like -a*r past b.
_INNER_STEPS = 64
_OUTER_STEPS = 96
KKT_TOL = 1e-9


class OracleError(RuntimeError):
    """The oracle's own answer failed its budget or first-order check."""


@dataclass(frozen=True)
class Equilibrium:
    rates: np.ndarray  # (points, users), users in document order
    log_price: np.ndarray  # (points,)


class Population:
    """Utility parameters of a scenario document, split by family."""

    def __init__(self, users):
        self.n = len(users)
        self.sig_idx = np.array([i for i, u in enumerate(users) if u["type"] == "sigmoid"], dtype=int)
        self.log_idx = np.array([i for i, u in enumerate(users) if u["type"] == "log"], dtype=int)
        if len(self.sig_idx) + len(self.log_idx) != self.n:
            raise ValueError("every user must be 'sigmoid' or 'log'")
        self.a = np.array([users[i]["params"]["a"] for i in self.sig_idx], dtype=float)
        self.b = np.array([users[i]["params"]["b"] for i in self.sig_idx], dtype=float)
        self.k = np.array([users[i]["params"]["k"] for i in self.log_idx], dtype=float)
        self._ab = self.a * self.b
        self._sig_const = np.log(self.a) + np.log1p(np.exp(-self._ab))

    def log_slopes(self, rates):
        """log(d/dr log U_i) at ``rates`` (users on the last axis).

        sigmoid: log a + log(1 + e^-ab) - log(e^-ab + e^-ar) - log(e^ar - 1)
        log:     log k - log(1 + kr) - log(log(1 + kr))
        """
        out = np.empty(rates.shape)
        ar = self.a * rates[..., self.sig_idx]
        out[..., self.sig_idx] = self._sig_const - np.logaddexp(-self._ab, -ar) - ar - np.log(-np.expm1(-ar))
        kr = self.k * rates[..., self.log_idx]
        out[..., self.log_idx] = np.log(self.k) - np.log1p(kr) - np.log(np.log1p(kr))
        return out

    def demand(self, log_price, lo, hi):
        """Each user's rate r_i(p) in [lo, hi], by bisection on log r; shape (points, users)."""
        lp = log_price[:, None]
        u_lo = np.full((len(lp), self.n), np.log(lo))
        u_hi = np.broadcast_to(np.log(hi)[:, None], u_lo.shape).copy()
        for _ in range(_INNER_STEPS):
            mid = 0.5 * (u_lo + u_hi)
            above = self.log_slopes(np.exp(mid)) >= lp
            u_lo = np.where(above, mid, u_lo)
            u_hi = np.where(above, u_hi, mid)
        rates = np.exp(0.5 * (u_lo + u_hi))
        pinned = self.log_slopes(np.full_like(rates, lo)) < lp
        return np.where(pinned, lo, rates)


def equilibrium(users, r_values, lo: float) -> Equilibrium:
    """Proportional-fair rates for every R in ``r_values``, each user at least ``lo``."""
    pop = Population(users)
    R = np.asarray(r_values, dtype=float)
    if np.any(R < pop.n * lo):
        raise ValueError(f"some R is below the floor n*lo = {pop.n * lo}")
    # at the largest slope any user has at lo every user pins (D = n*lo <= R);
    # at the smallest slope any user has at R every user wants at least R
    lp_hi = np.full(len(R), pop.log_slopes(np.full((1, pop.n), lo)).max())
    lp_lo = pop.log_slopes(np.broadcast_to(R[:, None], (len(R), pop.n))).min(axis=1)
    for _ in range(_OUTER_STEPS):
        mid = 0.5 * (lp_lo + lp_hi)
        over = pop.demand(mid, lo, R).sum(axis=1) >= R
        lp_lo = np.where(over, mid, lp_lo)
        lp_hi = np.where(over, lp_hi, mid)
    rich = pop.demand(lp_lo, lo, R)  # demand >= R
    poor = pop.demand(lp_hi, lo, R)  # demand <= R
    marginal = np.argmax(rich - poor, axis=1)
    rows = np.arange(len(R))
    rates = poor.copy()
    rates[rows, marginal] = 0.0
    remainder = R - rates.sum(axis=1)
    rates[rows, marginal] = np.clip(remainder, poor[rows, marginal], rich[rows, marginal])
    log_price = 0.5 * (lp_lo + lp_hi)
    return _verify(pop, rates, log_price, R, lo)


def _verify(pop: Population, rates, log_price, R, lo) -> Equilibrium:
    slopes = pop.log_slopes(rates)
    gap = slopes - log_price[:, None]
    pinned = rates <= lo
    # a pinned user may only want less than lo; everyone else sits on the price
    violation = np.where(pinned, np.maximum(gap, 0.0), np.abs(gap))
    kkt = float(violation.max())
    budget = float(np.max(np.abs(rates.sum(axis=1) - R) / R))
    if not (kkt <= KKT_TOL and budget <= 1e-12):
        raise OracleError(f"oracle failed its own check: kkt residual {kkt:.3g}, budget residual {budget:.3g}")
    return Equilibrium(rates=rates, log_price=log_price)
