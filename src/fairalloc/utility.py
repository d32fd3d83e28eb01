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

All objects are immutable, and each method has one implementation,
free of overflow for any parameters. ``value`` is numpy code: it takes a
float or an array of rates, so a whole grid evaluates in one call.
``log_slope`` is the solver's inner loop and takes one float rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SigmoidUtility", "LogUtility", "UtilityFunction", "sigmoid_from_qoe"]

_EXP_MAX = 709.0  # exp overflows just past this in double precision


@dataclass(frozen=True)
class SigmoidUtility:
    """Normalized sigmoid satisfaction curve with steepness ``a`` and inflection rate ``b``."""

    a: float
    b: float
    c: float = field(init=False, repr=False, compare=False)
    d: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"sigmoid steepness a must be positive and finite, got {self.a}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"sigmoid inflection rate b must be positive and finite, got {self.b}")
        ab = self.a * self.b
        t = math.exp(-ab)  # exp(ab) overflows near ab ~ 709; 1/exp(ab) never does
        object.__setattr__(self, "_ab", ab)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "c", 1.0 + t)
        object.__setattr__(self, "d", t / (1.0 + t))

    # Evaluation splits at the inflection so every exponent is <= 0:
    # stable for any a*b, and U(0) is exact because expm1(-a*0) is
    # exactly zero.
    #   r <  b:  U = e^(ar-ab) * (1 - e^(-ar)) / (1 + e^(ar-ab))
    #   r >= b:  U = (1 - e^(-ar)) / (1 + e^(-(ar-ab)))

    def value(self, rate):
        """Satisfaction at ``rate`` (a float or an array); exactly 0 at rate 0 and approaching 1 as rate grows."""
        r = np.atleast_1d(np.asarray(rate, dtype=float))
        if np.any(r < 0.0):
            raise ValueError("rate must be >= 0")
        x = self.a * r - self._ab
        growth = -np.expm1(-self.a * r)
        out = np.empty_like(r)
        below = x < 0.0
        ex = np.exp(x[below])
        out[below] = ex * growth[below] / (1.0 + ex)
        out[~below] = growth[~below] / (1.0 + np.exp(-x[~below]))
        return out.reshape(np.shape(rate))[()]

    # The slope of log U equals a*m / ((1+m) * (1 - d*(1+m))) with
    # m = exp(-a(r-b)); rearranged so no intermediate overflows:
    #
    #     a * (1 + e^(-ab)) / (e^(-ab) * expm1(ar) - expm1(-ar))
    #
    # and, once expm1(ar) would overflow, the same denominator with its
    # negligible e^(-ar) term dropped: e^(ar-ab) + (1 - e^(-ab)).
    # Both denominator terms grow with r, so the rounded slope never rises
    # (a product of a falling and a rising factor can, by an ulp, on the
    # flat stretch).
    # Between roughly 2/a and b - 2/a the slope hugs the constant a
    # (log U is nearly linear there); it diverges like 1/r as r -> 0 and
    # decays like a*exp(-a(r-b)) past the inflection.

    def log_slope(self, rate: float) -> float:
        """Slope of log U at ``rate`` > 0; strictly positive, strictly decreasing."""
        if rate <= 0.0:
            raise ValueError("rate must be > 0")
        ar = self.a * rate
        if ar <= 700.0:
            denom = self._t * math.expm1(ar) - math.expm1(-ar)
        else:
            x = ar - self._ab
            denom = (math.exp(x) if x <= _EXP_MAX else math.inf) + (1.0 - self._t)
        return self.a * (1.0 + self._t) / denom


@dataclass(frozen=True)
class LogUtility:
    """Normalized logarithmic satisfaction curve with growth rate ``k``, full satisfaction at ``r_max``."""

    k: float
    r_max: float

    def __post_init__(self):
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise ValueError(f"log growth rate k must be positive and finite, got {self.k}")
        if not (self.r_max > 0.0 and math.isfinite(self.r_max)):
            raise ValueError(f"r_max must be positive and finite, got {self.r_max}")
        # numpy's log1p, the one ``value`` uses, so that U(r_max) is exactly 1
        object.__setattr__(self, "_denom", float(np.log1p(self.k * self.r_max)))

    def value(self, rate):
        """Satisfaction at ``rate`` (a float or an array); exactly 0 at rate 0 and exactly 1 at r_max."""
        r = np.asarray(rate, dtype=float)
        if np.any(r < 0.0):
            raise ValueError("rate must be >= 0")
        return np.log1p(self.k * r) / self._denom

    def log_slope(self, rate: float) -> float:
        """Slope of log U at ``rate`` > 0: k / ((1 + k r) * log(1 + k r))."""
        if rate <= 0.0:
            raise ValueError("rate must be > 0")
        kr = self.k * rate
        return self.k / ((1.0 + kr) * math.log1p(kr))


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
    if not 0.0 < r_low < r_high:
        raise ValueError(f"need 0 < r_low < r_high, got r_low={r_low}, r_high={r_high}")
    if not 0.0 < s_low < s_high < 1.0:
        raise ValueError(f"need 0 < s_low < s_high < 1, got s_low={s_low}, s_high={s_high}")
    b = (r_low + r_high) / 2.0
    a = 100.0 * (s_high - s_low) / (r_high - r_low)
    return SigmoidUtility(a, b)
