"""User satisfaction curves for rate allocation.

Two normalized families, both mapping a nonnegative rate to a
satisfaction level with U(0) = 0 and supremum 1:

sigmoid
    U(r) = c * (1 / (1 + exp(-a(r - b))) - d)
    with c = (1 + exp(ab)) / exp(ab) and d = 1 / (1 + exp(ab)).
    S-shaped with inflection at r = b; models rate-sensitive real-time
    traffic (VoIP, video streaming) that is near useless below its
    inflection rate.

logarithmic
    U(r) = log(1 + k r) / log(1 + k r_max)
    Concave, reaches 1 at r = r_max; models elastic delay-tolerant
    traffic (file transfer) where any extra rate helps a little.

The allocation algorithm only ever consumes the slope of log U, which
for both families is strictly positive and strictly decreasing on
(0, inf), so maximizing log U(r) - p*r is a concave scalar problem.
Near r = 0, log U = log r + const + O(a*r) (O(k*r) for a log curve), so
the slope approaches 1/r. ``log_slope`` is defined for every positive
rate: once a*r or k*r is below the smallest normal double, where the
general formula loses bits (and at 0 divides by zero), it returns 1/r,
which is then the slope correctly rounded.

All objects are immutable, and each method has one implementation,
free of overflow for any parameters. Every method is scalar ``math``
code that takes one float. ``log_slope`` is the solver's inner loop; its
rounded value never increases from one double to the next, which the
solver relies on to certify the root between two probes.
``estimate_rate(price)`` is a cheap estimate of the rate where
``log_slope`` equals ``price``, closed form for a sigmoid and a few
Newton steps for a log curve. It may be inf. When the solver's probes
either side of it certify the root, the solver returns it to within
``REL_TOL``, so the estimate sets the returned double; a poor estimate
costs its two probes, and the solver falls back to plain bisection.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

__all__ = ["SigmoidUtility", "LogUtility", "UtilityFunction", "sigmoid_from_qoe"]

_EXP_MAX = 709.0  # exp overflows just past this in double precision
_NEWTON_STEPS = 6  # enough for full precision from LogUtility.estimate_rate's starts
_TINY = sys.float_info.min  # below this a*r or k*r loses bits: log_slope returns its 1/r limit


def _real(name: str, value) -> None:
    """Reject a value that is not a real number, naming it.

    A bool or a string is refused, not converted; numpy scalars are real numbers.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def positive_finite(name: str, value) -> None:
    """Reject a setting that is not a positive, finite real number, naming it."""
    _real(name, value)
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the largest double, too long to print in full
        raise ValueError(f"{name} must be positive and finite, got an integer too large for a double") from None
    if not (value > 0.0 and finite):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SigmoidUtility:
    """Normalized sigmoid satisfaction curve with steepness ``a`` and inflection rate ``b``."""

    a: float
    b: float
    c: float = field(init=False, repr=False, compare=False)
    d: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positive_finite("sigmoid steepness a", self.a)
        positive_finite("sigmoid inflection rate b", self.b)
        ab = float(self.a) * float(self.b)  # integer parameters multiply as doubles, not as exact integers
        t = math.exp(-ab)  # exp(ab) overflows near ab ~ 709; 1/exp(ab) never does
        object.__setattr__(self, "_ab", ab)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_switch", 700.0 if t >= sys.float_info.min else 38.0)
        object.__setattr__(self, "c", 1.0 + t)
        object.__setattr__(self, "d", t / (1.0 + t))

    # Evaluation takes the form whose exponent is <= 0 on each side of
    # the inflection, so exp(-|x|) never overflows for any a*b, and U(0)
    # is exact because expm1(-a*0) is exactly zero. With x = ar - ab:
    #   r <  b:  U = e^x * (1 - e^(-ar)) / (1 + e^x)
    #   r >= b:  U = (1 - e^(-ar)) / (1 + e^(-x))

    def value(self, rate: float) -> float:
        """Satisfaction at ``rate`` >= 0; exactly 0 at rate 0 and approaching 1 as rate grows."""
        if not rate >= 0.0:
            raise ValueError("rate must be >= 0")
        ar = self.a * rate
        x = ar - self._ab
        if x != x:  # inf - inf once both a*rate and a*b overflow
            x = self.a * (rate - self.b)
        e = math.exp(-abs(x))
        growth = -math.expm1(-ar)
        return (e * growth if x < 0.0 else growth) / (1.0 + e)

    # The slope of log U equals a*m / ((1+m) * (1 - d*(1+m))) with
    # m = exp(-a(r-b)); rearranged so no intermediate overflows:
    #
    #     a * (1 + e^(-ab)) / (e^(-ab) * expm1(ar) - expm1(-ar))
    #
    # and, past ar = 700 before expm1(ar) overflows, the same denominator
    # with its negligible e^(-ar) term dropped: e^(ar-ab) + (1 - e^(-ab)).
    # Both denominator terms grow with r, so the rounded slope never rises
    # (a product of a falling and a rising factor can, by an ulp, on the
    # flat stretch). At the switch the far form's rise outweighs its
    # rounding while e^(-ab) is a normal double. Once it is subnormal
    # (ab > 708.4) it keeps too few bits for that, so the switch moves to
    # ar = 38, where both forms round to 1 (e^(-38) < 2^-54).
    # Between roughly 2/a and b - 2/a the slope hugs the constant a
    # (log U is nearly linear there); it diverges like 1/r as r -> 0 (and
    # is 1/r to the last bit once ar is subnormal) and decays like
    # a*exp(-a(r-b)) past the inflection.

    def log_slope(self, rate: float) -> float:
        """Slope of log U at ``rate`` > 0; strictly positive, strictly decreasing."""
        if not rate > 0.0:
            raise ValueError("rate must be > 0")
        ar = self.a * rate
        if ar < _TINY:
            return 1.0 / rate
        if ar <= self._switch:
            denom = self._t * math.expm1(ar) - math.expm1(-ar)
        else:
            x = ar - self._ab
            denom = (math.exp(x) if x <= _EXP_MAX else math.inf) + (1.0 - self._t)
        return self.a * (1.0 + self._t) / denom

    # log_slope(r) = p in w = expm1(ar) is the quadratic
    #     t w^2 + (1 + t - c) w - c = 0,   c = a(1 + t) / p,
    # whose positive root is (q + s) / 2t with q = c - 1 - t and
    # s = sqrt(q^2 + 4tc). For q <= 0 (the price at or above the flat
    # stretch's slope a(1+t)) it is taken as 2c / (s - q), free of
    # cancellation; for q > 0 in log form, log w = log((q + s)/2) + ab,
    # since w = e^(ar) - 1 overflows for a root far past the inflection.

    def estimate_rate(self, price: float) -> float:
        """Closed-form rate where ``log_slope`` equals ``price`` > 0, exact up to rounding; may be inf."""
        t = self._t
        c = self.a * (1.0 + t) / price
        q = c - 1.0 - t
        s = math.hypot(q, 2.0 * math.sqrt(t * c))
        if q > 0.0:
            log_w = math.log(0.5 * (q + s)) + self._ab
            return (log_w + math.log1p(math.exp(-log_w))) / self.a
        if s == q:  # t underflowed to 0 and price == a exactly: the root is unbounded
            return math.inf
        return math.log1p(2.0 * c / (s - q)) / self.a


@dataclass(frozen=True)
class LogUtility:
    """Normalized logarithmic satisfaction curve with growth rate ``k``, full satisfaction at ``r_max``."""

    k: float
    r_max: float

    def __post_init__(self):
        positive_finite("log growth rate k", self.k)
        positive_finite("r_max", self.r_max)
        kr_max = float(self.k) * float(self.r_max)  # as doubles: an integer product could pass the largest one
        if not 0.0 < kr_max < math.inf:
            raise ValueError(f"k * r_max must be positive and finite, got k={self.k}, r_max={self.r_max}")
        # the log1p ``value`` uses, so that U(r_max) is exactly 1
        object.__setattr__(self, "_denom", math.log1p(kr_max))

    def value(self, rate: float) -> float:
        """Satisfaction at ``rate`` >= 0; exactly 0 at rate 0 and exactly 1 at r_max."""
        if not rate >= 0.0:
            raise ValueError("rate must be >= 0")
        return math.log1p(self.k * rate) / self._denom

    def log_slope(self, rate: float) -> float:
        """Slope of log U at ``rate`` > 0: k / ((1 + k r) * log(1 + k r))."""
        if not rate > 0.0:
            raise ValueError("rate must be > 0")
        kr = self.k * rate
        if kr < _TINY:
            return 1.0 / rate
        return self.k / ((1.0 + kr) * math.log1p(kr))

    # log_slope(r) = p in w = log1p(kr) reads w + log w = log(k/p), solved
    # by Newton steps on v = log w: f(v) = e^v + v - log(k/p) is convex
    # and increasing, and both starts (log of the target from 1 up, the
    # target itself below 1) have f >= 0, so the iterates fall
    # monotonically onto the root.

    def estimate_rate(self, price: float) -> float:
        """Rate where ``log_slope`` equals ``price`` > 0, to within rounding; may be inf."""
        target = math.log(self.k) - math.log(price)
        v = math.log(target) if target >= 1.0 else target
        for _ in range(_NEWTON_STEPS):
            e = math.exp(v)
            v -= (e + v - target) / (e + 1.0)
        w = math.exp(v)
        return math.expm1(w) / self.k if w <= _EXP_MAX else math.inf


UtilityFunction = SigmoidUtility | LogUtility


def sigmoid_from_qoe(r_low, s_low, r_high, s_high) -> SigmoidUtility:
    """Fit a sigmoid to two measured (rate, satisfaction) anchor points.

    Midpoint heuristic: the inflection lands halfway between the anchors
    and the steepness is the satisfaction gain expressed in percent per
    rate unit:

        b = (r_low + r_high) / 2
        a = 100 * (s_high - s_low) / (r_high - r_low)

    Example: video that buffers constantly below 200 kbps (5%
    satisfaction) and gains nothing above 740 kbps (99%) fits a = 0.174,
    b = 470.
    """
    positive_finite("r_low", r_low)
    positive_finite("r_high", r_high)
    _real("s_low", s_low)
    _real("s_high", s_high)
    if not 0.0 < r_low < r_high:
        raise ValueError(f"need 0 < r_low < r_high, got r_low={r_low}, r_high={r_high}")
    if not 0.0 < s_low < s_high < 1.0:
        raise ValueError(f"need 0 < s_low < s_high < 1, got s_low={s_low}, s_high={s_high}")
    b = 0.5 * r_low + 0.5 * r_high  # (r_low + r_high) / 2 could overflow
    a = 100.0 * (s_high - s_low) / (r_high - r_low)
    if not math.isfinite(a):
        raise ValueError(f"r_low and r_high are too close together for a finite steepness, "
                         f"got r_low={r_low}, r_high={r_high}")
    if a == 0.0:
        raise ValueError(f"s_high - s_low is too small for the rate span to give a nonzero steepness, "
                         f"got s_low={s_low}, s_high={s_high}, r_high - r_low={r_high - r_low}")
    return SigmoidUtility(a, b)
