"""Best responses and equilibria in mpmath, sharing no formula with fairalloc.

The log-slopes come straight from the curves' definitions, written so
that nothing cancels at any rate, however far a*r or k*r lies below the
smallest double:

    sigmoid  d/dr log U = a / expm1(a r) + a / (1 + exp(a (r - b)))
    log      d/dr log U = k / ((1 + k r) log1p(k r))

A best response is found by plain bisection on log r, which holds its
bracket on any curve; ``mp_root_between`` instead tells whether a given
interval holds it, from two slopes. The equilibrium price is then the root of
log(D(p) / R) in log p, found by mpmath's bracketed Anderson-Bjorck
iteration, where D(p) is the total best response; that iteration needs
D to be smooth near the root, as it is for log users. Everything runs
with 30 significant digits.
"""

import mpmath as mp

from fairalloc import SigmoidUtility

_DPS = 30
_HI = 1e9  # the solver's largest rate


def mp_log_slope(u, rate):
    """Slope of log U at ``rate`` > 0."""
    r = mp.mpf(rate)
    if isinstance(u, SigmoidUtility):
        a, b = mp.mpf(u.a), mp.mpf(u.b)
        return a / mp.expm1(a * r) + a / (1 + mp.exp(a * (r - b)))
    k = mp.mpf(u.k)
    return k / ((1 + k * r) * mp.log1p(k * r))


def mp_rate(u, price, floor):
    """Rate in [floor, 1e9] maximizing log U(r) - price*r: ``floor`` when even that is too dear."""
    with mp.workdps(_DPS):
        price = mp.mpf(price)
        if mp_log_slope(u, floor) <= price:
            return mp.mpf(floor)
        x, y = mp.log(floor), mp.log(_HI)
        for _ in range(70):  # from under 720 wide in log r to under 1e-18
            m = (x + y) / 2
            if mp_log_slope(u, mp.exp(m)) >= price:
                x = m
            else:
                y = m
        return mp.exp((x + y) / 2)


def mp_root_between(u, price, lo, hi, rel):
    """Whether the root of log-slope = ``price`` lies in [lo, hi], for some price within ``rel`` of it."""
    with mp.workdps(_DPS):
        price = mp.mpf(price)
        return mp_log_slope(u, lo) >= price * (1 - rel) and mp_log_slope(u, hi) <= price * (1 + rel)


def mp_equilibrium(utilities, total_rate, floor):
    """Price at which the users' best responses sum to ``total_rate``, and those responses."""
    with mp.workdps(_DPS):
        excess = lambda t: mp.log(sum(mp_rate(u, mp.exp(t), floor) for u in utilities) / total_rate)
        bracket = mp.log(mp.mpf("1e-12")), mp.log(mp.mpf("1e12"))
        # the best responses carry about 18 digits, so ask for |log(D/R)| <= 1e-15
        price = mp.exp(mp.findroot(excess, bracket, solver="anderson", tol=mp.mpf("1e-30")))
        return price, [mp_rate(u, price, floor) for u in utilities]
