"""Reference forms of each family's root estimate and of the probe pair that certifies it.

``certified_rate(price, lo)`` estimates the rate where ``log_slope``
equals ``price``, probes the log-slope ``PROBE_STEP`` either side of the
estimate and returns the probes' midpoint when they certify the root.
The forms here take each step as written out: every constant formed on
every call, all six Newton steps of a log curve's estimate run, and both
probes evaluated by ``log_slope``. The tests check that the method
returns the same double, or None, as they do.
"""

import math

from fairalloc import SigmoidUtility
from fairalloc.solver import HI_CAP, PROBE_STEP


def full_newton_iterates(u, price):
    """Every iterate v of a log curve's estimate, running all six Newton steps and taking log(k) per call."""
    target = math.log(u.k) - math.log(price)
    iterates = [math.log(target) if target >= 1.0 else target]
    for _ in range(6):
        e = math.exp(iterates[-1])
        iterates.append(iterates[-1] - (e + iterates[-1] - target) / (e + 1.0))
    return iterates


def per_call_sigmoid_estimate(u, price):
    """A sigmoid's closed-form estimate with its numerator a(1 + t) formed on every call; may be inf."""
    t = u._t
    c = u.a * (1.0 + t) / price
    q = c - 1.0 - t
    s = math.hypot(q, 2.0 * math.sqrt(t * c))
    if q > 0.0:
        log_w = math.log(0.5 * (q + s)) + u._ab
        return (log_w + math.log1p(math.exp(-log_w))) / u.a
    if s == q:
        return math.inf
    return math.log1p(2.0 * c / (s - q)) / u.a


def reference_estimate(u, price):
    """The family's estimate of the rate where ``log_slope`` equals ``price``; may be inf."""
    if isinstance(u, SigmoidUtility):
        return per_call_sigmoid_estimate(u, price)
    w = math.exp(full_newton_iterates(u, price)[-1])
    return math.expm1(w) / u.k if w <= 709.0 else math.inf


def probe_pair(guess):
    """The two probes ``PROBE_STEP`` either side of ``guess``."""
    return guess * (1.0 - PROBE_STEP), guess * (1.0 + PROBE_STEP)


def probed_midpoint(u, price, lo, guess):
    """The probes' midpoint if they lie in (lo, HI_CAP] and ``log_slope`` certifies the root between them, else None."""
    x, y = probe_pair(guess)
    if lo < x < y <= HI_CAP and u.log_slope(x) >= price > u.log_slope(y):
        return 0.5 * (x + y)
    return None
