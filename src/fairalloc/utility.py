"""User satisfaction curves for rate allocation.

Two normalized families, both mapping a nonnegative rate to a
satisfaction level with U(0) = 0, increasing in the rate:

sigmoid
    U(r) = c * (1 / (1 + exp(-a(r - b))) - d)
    with c = (1 + exp(ab)) / exp(ab) and d = 1 / (1 + exp(ab)).
    S-shaped with inflection at r = b and supremum 1; models
    rate-sensitive real-time traffic (VoIP, video streaming) that is near
    useless below its inflection rate.

logarithmic
    U(r) = log(1 + k r) / log(1 + k r_max)
    Concave and unbounded: it reaches 1 at r = r_max and keeps growing
    past it; models elastic delay-tolerant traffic (file transfer) where
    any extra rate helps a little.

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
code. ``log_slope`` is the solver's fallback loop; its rounded value
never increases from one double to the next, which is what lets two
probes certify the root between them.
``certified_rate(price, lo)`` is the solver's first try, in one call. It
estimates the rate where ``log_slope`` equals ``price`` (closed form for a
sigmoid, at most six Newton steps for a log curve, written out rather
than looped; the estimate may be inf), probes the log-slope
``PROBE_STEP`` either side of it, and returns the probes' midpoint when
both lie in ``(lo, HI_CAP]``, the slope is >= ``price`` at the lower one
and < ``price`` at the upper one. That bracket is narrower than the
solver's tolerance, so the estimate sets the returned double. Otherwise it returns None: a poor estimate costs its two
probes, and the solver falls back to plain bisection. The probes evaluate
each family's main log-slope line inline, the same expression as
``log_slope``; a probe below ``_TINY`` or past a sigmoid's far switch
sends both through ``log_slope``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

__all__ = ["SigmoidUtility", "LogUtility", "UtilityFunction", "sigmoid_from_qoe"]

_EXP_MAX = 709.0  # exp overflows just past this in double precision
_NEWTON_STEPS = 6  # _newton_exp's blocks, written out: enough for full precision from LogUtility's starts
_TINY = sys.float_info.min  # below this a*r or k*r loses bits: log_slope returns its 1/r limit
HI_CAP = 1e9  # largest rate a probe may certify or the solver's upper bracket grow to
PROBE_STEP = 1e-12  # relative distance of each probe from the estimated root
_PROBE_LO, _PROBE_HI = 1.0 - PROBE_STEP, 1.0 + PROBE_STEP  # the probes' factors, computed once


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
        object.__setattr__(self, "_num", self.a * (1.0 + t))  # the slope's numerator, a(1 + e^(-ab))
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
        return self._num / denom

    # log_slope(r) = p in w = expm1(ar) is the quadratic
    #     t w^2 + (1 + t - c) w - c = 0,   c = a(1 + t) / p,
    # whose positive root is (q + s) / 2t with q = c - 1 - t and
    # s = sqrt(q^2 + 4tc). For q <= 0 (the price at or above the flat
    # stretch's slope a(1+t)) it is taken as 2c / (s - q), free of
    # cancellation; for q > 0 in log form, log w = log((q + s)/2) + ab,
    # since w = e^(ar) - 1 overflows for a root far past the inflection.

    def certified_rate(self, price: float, lo: float) -> float | None:
        """Midpoint of probes certifying the root of ``log_slope`` = ``price`` around its closed form, or None."""
        t = self._t
        c = self._num / price
        q = c - 1.0 - t
        s = math.hypot(q, 2.0 * math.sqrt(t * c))
        if q > 0.0:
            log_w = math.log(0.5 * (q + s)) + self._ab
            guess = (log_w + math.log1p(math.exp(-log_w))) / self.a
        elif s == q:  # t underflowed to 0 and price == a exactly: the root is unbounded
            return None
        else:
            guess = math.log1p(2.0 * c / (s - q)) / self.a
        x, y = guess * _PROBE_LO, guess * _PROBE_HI
        if not lo < x < y <= HI_CAP:
            return None
        ax, ay = self.a * x, self.a * y
        if _TINY <= ax and ay <= self._switch:
            num = self._num
            certified = (num / (t * math.expm1(ax) - math.expm1(-ax)) >= price
                         > num / (t * math.expm1(ay) - math.expm1(-ay)))
        else:
            certified = self.log_slope(x) >= price > self.log_slope(y)
        return 0.5 * (x + y) if certified else None


def _newton_exp(v: float, target: float) -> float:
    """e^v at the end of at most six Newton steps on e^v + v = target, starting from ``v``.

    The steps are written out, one identical block each: a loop over them
    takes about a third longer. A step that leaves v unchanged is a fixed
    point, where every later step would repeat it, so its e^v is returned
    at once. Otherwise the sixth step's e^v is returned.
    """
    w = math.exp(v)
    s = v - (w + v - target) / (w + 1.0)
    if s == v:
        return w
    v = s
    w = math.exp(v)
    s = v - (w + v - target) / (w + 1.0)
    if s == v:
        return w
    v = s
    w = math.exp(v)
    s = v - (w + v - target) / (w + 1.0)
    if s == v:
        return w
    v = s
    w = math.exp(v)
    s = v - (w + v - target) / (w + 1.0)
    if s == v:
        return w
    v = s
    w = math.exp(v)
    s = v - (w + v - target) / (w + 1.0)
    if s == v:
        return w
    v = s
    w = math.exp(v)
    s = v - (w + v - target) / (w + 1.0)
    if s == v:
        return w
    v = s
    return math.exp(s)


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
        object.__setattr__(self, "_log_k", math.log(self.k))  # the Newton estimate's log(k), computed once

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
    # by _newton_exp's steps on v = log w: f(v) = e^v + v - log(k/p) is
    # convex and increasing, and both starts (log of the target from 1 up,
    # the target itself below 1) have f >= 0, so the iterates fall
    # monotonically onto the root. The steps stop at the first one that
    # leaves v unchanged, and otherwise after _NEWTON_STEPS: in rounding
    # some estimates end alternating between two neighbouring doubles.

    def certified_rate(self, price: float, lo: float) -> float | None:
        """Midpoint of probes certifying the root of ``log_slope`` = ``price`` around its Newton estimate, or None."""
        target = self._log_k - math.log(price)
        w = _newton_exp(math.log(target) if target >= 1.0 else target, target)
        if w > _EXP_MAX:  # the estimate is inf
            return None
        k = self.k
        guess = math.expm1(w) / k
        x, y = guess * _PROBE_LO, guess * _PROBE_HI
        if not lo < x < y <= HI_CAP:
            return None
        kx, ky = k * x, k * y
        if kx >= _TINY:
            certified = k / ((1.0 + kx) * math.log1p(kx)) >= price > k / ((1.0 + ky) * math.log1p(ky))
        else:
            certified = self.log_slope(x) >= price > self.log_slope(y)
        return 0.5 * (x + y) if certified else None


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
