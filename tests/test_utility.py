import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from estimates import full_newton_iterates, per_call_sigmoid_estimate, probe_pair, probed_midpoint, reference_estimate
from fairalloc import LogUtility, SigmoidUtility, sigmoid_from_qoe
from fairalloc.solver import HI_CAP

TINY = sys.float_info.min  # smallest normal double


class TestConstruction:
    def test_sigmoid_derived_constants(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        # d = 1/(1+e^50), c = (1+e^50)/e^50; frozen from 60-digit evaluation
        assert u.d == pytest.approx(1.9287498479639178e-22, rel=1e-13, abs=0)
        assert u.c == pytest.approx(1.0, abs=1e-15)

    def test_sigmoid_derived_constants_at_a_small_exponent(self):
        # a*b = 1: e^(-ab) is far above an ulp of 1, so c = 1 + e^-1 and d = 1/(1 + e) show it
        u = SigmoidUtility(a=1.0, b=1.0)
        assert u.c == pytest.approx(1.3678794411714423, rel=1e-15, abs=0)
        assert u.d == pytest.approx(0.2689414213699951, rel=1e-15, abs=0)

    def test_sigmoid_constants_survive_huge_exponent(self):
        # a*b = 1000: exp(ab) overflows, the rearranged constants do not
        u = SigmoidUtility(a=10.0, b=100.0)
        assert u.c == 1.0
        assert u.d == 0.0
        assert u.value(0.0) == 0.0
        assert u.value(1000.0) == 1.0
        assert u.log_slope(100.0) == pytest.approx(5.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_sigmoid_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            SigmoidUtility(a=a, b=b)

    @pytest.mark.parametrize(
        "k,r_max",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.inf, 1.0), (1e200, 1e200), (1e-200, 1e-200),
         pytest.param(10**200, 10**200, id="integers-past-the-largest-double")],
    )
    def test_log_rejects_bad_parameters(self, k, r_max):
        # k * r_max overflowing or underflowing leaves log1p(k * r_max) inf or 0;
        # integers multiply as doubles, so their product overflows to inf as well
        with pytest.raises(ValueError):
            LogUtility(k=k, r_max=r_max)

    def test_sigmoid_integer_parameters_build_the_float_curve(self):
        # a * b of two integers is an exact integer past the largest double
        u, v = SigmoidUtility(a=10**200, b=10**200), SigmoidUtility(a=1e200, b=1e200)
        assert (u.c, u.d) == (v.c, v.d)
        for r in (1e-300, 1e-200, 1.0, 1e100):
            assert (u.value(r), u.log_slope(r)) == (v.value(r), v.log_slope(r))

    def test_log_normalization_at_r_max(self):
        assert LogUtility(k=1.0, r_max=1.0).value(1.0) == 1.0


class TestValue:
    def test_zero_rate_gives_exactly_zero(self, table_utilities):
        for u in table_utilities.values():
            assert u.value(0.0) == 0.0
            assert u.value(0) == 0.0

    def test_log_value_is_one_at_r_max(self, table_utilities):
        for name in ("Log1", "Log2", "Log3"):
            assert table_utilities[name].value(100.0) == 1.0

    def test_log_value_passes_one_beyond_r_max(self, table_utilities):
        # unlike a sigmoid, a log curve is unbounded: it passes 1 beyond r_max
        assert table_utilities["Log1"].value(1000.0) == pytest.approx(1.3147417188544752, rel=1e-15, abs=0)
        for name in ("Log1", "Log2", "Log3"):
            u = table_utilities[name]
            assert 1.0 < u.value(101.0) < u.value(1000.0) < u.value(1e6)

    def test_sigmoid_half_satisfaction_at_inflection(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        # c*(1/2 - d) = (1 - e^-50)/2, indistinguishable from 0.5
        assert u.value(10.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("a,b", [(1e200, 1e200), (10**200, 10**200)])
    def test_sigmoid_value_where_a_times_rate_and_a_times_b_overflow(self, a, b):
        # a*rate - a*b is inf - inf here; the satisfaction is still 0, 1/2 and 1
        u = SigmoidUtility(a=a, b=b)
        assert [u.value(r) for r in (1e199, 1e200, 1e201, math.inf)] == [0.0, 0.5, 1.0, 1.0]

    def test_negative_rate_rejected(self, table_utilities):
        for u in table_utilities.values():
            with pytest.raises(ValueError):
                u.value(-1.0)
            with pytest.raises(ValueError):
                u.value(math.nan)

    def test_strictly_increasing_on_table_curves(self, table_utilities):
        rates = [float(r) for r in np.geomspace(1e-3, 1e3, 201)]
        for name, u in table_utilities.items():
            values = [u.value(r) for r in rates if r <= 100.0 or name.startswith("Sig")]
            assert all(v <= w for v, w in zip(values, values[1:])), name
            # strictness fades below double resolution once the sigmoid saturates
            live = [v for v in values if v < 1.0 - 1e-12]
            assert all(v < w for v, w in zip(live, live[1:])), name


class TestLogSlope:
    def test_log_slope_closed_form(self):
        u = LogUtility(k=0.5, r_max=100.0)
        # k / ((1 + k r) log(1 + k r)) at r=2: 0.5 / (2 ln 2)
        assert u.log_slope(2.0) == pytest.approx(0.36067376022224085, rel=1e-14, abs=0)

    def test_sigmoid_slope_at_inflection(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        # m = 1 there: a / (2 (1 - 2d)) within rounding of a/2
        assert u.log_slope(10.0) == pytest.approx(2.5, rel=1e-14, abs=0)

    def test_slope_independent_of_log_normalization(self):
        assert LogUtility(k=2.0, r_max=10.0).log_slope(3.0) == pytest.approx(
            LogUtility(k=2.0, r_max=500.0).log_slope(3.0), rel=1e-15, abs=0
        )

    def test_nonpositive_rate_rejected(self, table_utilities):
        for u in table_utilities.values():
            for bad in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError):
                    u.log_slope(bad)

    def test_strictly_decreasing_on_table_curves(self, table_utilities):
        rates = [float(r) for r in np.geomspace(1e-3, 1e3, 201)]
        for name, u in table_utilities.items():
            slopes = [u.log_slope(r) for r in rates]
            assert all(s2 <= s1 for s1, s2 in zip(slopes, slopes[1:])), name
            if name.startswith("Sig"):
                # past a*r ~ 709 the slope underflows to 0 and ties
                slopes = [s for r, s in zip(rates, slopes) if u.a * r <= 700.0]
            assert all(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])), name

    def test_matches_finite_difference_where_well_conditioned(self, table_utilities):
        # float64 central differences of log(value) are trustworthy only
        # while log U still moves by much more than rounding noise; the
        # saturated sigmoid tail is checked against a high-precision
        # oracle in the acceptance suite instead.
        for name, u in table_utilities.items():
            if name.startswith("Sig"):
                rates = [0.2 * u.b, 0.5 * u.b, u.b]
            else:
                rates = [1.0, 5.0, 10.0, 20.0, 30.0, 50.0, 80.0]
            for r in rates:
                h = 1e-6 * r
                fd = (math.log(u.value(r + h)) - math.log(u.value(r - h))) / (2.0 * h)
                assert u.log_slope(r) == pytest.approx(fd, rel=1e-6, abs=0), (name, r)


class TestEstimateRate:
    """Each family's estimate of the root, as ``certified_rate`` returns it."""

    def test_brackets_the_rounded_root(self, table_utilities):
        # the probes certify every root off a sigmoid's flat stretch; on it
        # the rounded slope ties across the probes, and the estimate still
        # brackets the rounded root to 1e-9, which >= allows
        for name, u in table_utilities.items():
            for r in np.geomspace(1e-2, 500.0, 60):
                price = u.log_slope(float(r))
                if price > 0.0:
                    rate = u.certified_rate(price, 1e-12)
                    assert rate is not None or abs(price - u.a * u.c) <= 1e-4 * price, (name, r)
                    e = reference_estimate(u, price) if rate is None else rate
                    assert u.log_slope(e * (1.0 - 1e-9)) >= price >= u.log_slope(e * (1.0 + 1e-9)), (name, r)

    @pytest.mark.parametrize(
        "u,price,expected",
        [
            (SigmoidUtility(a=1.0, b=800.0), 1.0, math.inf),  # e^-ab underflows to 0 and price == a
            (SigmoidUtility(a=1e10, b=1.0), 1e-300, math.inf),  # a / price overflows
            (LogUtility(k=1e3, r_max=1.0), 5e-324, math.inf),  # log1p(k r) past 709
            (SigmoidUtility(a=1e3, b=1e3), 1e-300, 1e3 + math.log(1e303) / 1e3),
            (SigmoidUtility(a=1e-3, b=1.0), 1e300, 1e-300),  # the slope diverges like 1/r
            (LogUtility(k=1e-3, r_max=1.0), 1e300, 1e-300),
        ],
    )
    def test_extreme_prices_give_a_number_not_an_error(self, u, price, expected):
        # an infinite estimate fails the window: None, not an overflow
        assert reference_estimate(u, price) == pytest.approx(expected, rel=1e-12, abs=0)
        rate = u.certified_rate(price, 5e-324)
        assert rate is None if expected == math.inf else rate == pytest.approx(expected, rel=1e-12, abs=0)


def per_call_sigmoid_log_slope(u, rate):
    """``SigmoidUtility.log_slope`` with its numerator a(1 + t) formed on every call."""
    ar = u.a * rate
    if ar < TINY:
        return 1.0 / rate
    if ar <= u._switch:
        denom = u._t * math.expm1(ar) - math.expm1(-ar)
    else:
        x = ar - u._ab
        denom = (math.exp(x) if x <= 709.0 else math.inf) + (1.0 - u._t)
    return u.a * (1.0 + u._t) / denom


class TestPrecomputedForms:
    """Each method returns the same double as the form that recomputes everything on every call."""

    def test_log_estimate_stops_at_its_fixed_point_with_the_same_double(self):
        # the loop leaves at the first step that keeps v, and every later
        # step would repeat that one; the rest run all six steps, some of
        # them ending on two neighbouring doubles in turn
        rng = random.Random(2024)
        early = alternating = 0
        for _ in range(400):
            u = LogUtility(k=math.exp(rng.uniform(math.log(1e-3), math.log(1e3))), r_max=100.0)
            price = u.log_slope(math.exp(rng.uniform(math.log(1e-3), math.log(1e4))))
            v = full_newton_iterates(u, price)
            rate = u.certified_rate(price, 1e-12)
            assert rate is not None, (u, price)
            assert rate == probed_midpoint(u, price, 1e-12, reference_estimate(u, price)), (u, price)
            early += any(a == b for a, b in zip(v, v[1:]))
            alternating += v[-1] == v[-3] != v[-2]
        assert early > 0 and alternating > 0, (early, alternating)

    @pytest.mark.parametrize("integer", [False, True])
    def test_sigmoid_numerator_formed_once_gives_the_same_doubles(self, integer):
        rng = random.Random(7)
        for _ in range(200):
            a, b = math.exp(rng.uniform(-7.0, 7.0)), math.exp(rng.uniform(-3.0, 7.0))
            u = SigmoidUtility(a=max(1, round(a)) if integer else a, b=b)
            for _ in range(5):
                rate = math.exp(rng.uniform(-8.0, 9.0))
                price = per_call_sigmoid_log_slope(u, rate)
                assert u.log_slope(rate) == price, (u, rate)
                if price > 0.0:
                    guess = per_call_sigmoid_estimate(u, price)
                    assert u.certified_rate(price, 1e-12) == probed_midpoint(u, price, 1e-12, guess), (u, price)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


def sigmoid_priced(a, ab, ar, lo_factor=(1e-6, 0.5)):
    """A sigmoid, priced at its log-slope at a root r, and a bracket_lo of r times a factor.

    Steepness a, the product a*b and a*r are drawn log-uniform from the
    ranges ``a``, ``ab`` and ``ar``, the factor from ``lo_factor``.
    """
    def build(a, ab, ar, factor):
        u = SigmoidUtility(a=a, b=ab / a)
        return u, u.log_slope(ar / a), ar / a * factor

    return st.builds(build, log_uniform(*a), log_uniform(*ab), log_uniform(*ar), log_uniform(*lo_factor))


def log_priced(k, r, lo_factor=(1e-6, 0.5)):
    """A log curve (r_max 1/k), priced at its log-slope at a root r, and a bracket_lo of r times a factor."""
    def build(k, r, factor):
        u = LogUtility(k=k, r_max=1.0 / k)
        return u, u.log_slope(r), r * factor

    return st.builds(build, log_uniform(*k), log_uniform(*r), log_uniform(*lo_factor))


# Each branch of certified_rate: the cases that reach it, and the test
# the probes x, y of the reference estimate pass there.
BRANCHES = {
    "sigmoid-below-tiny": (
        sigmoid_priced(a=(1e-15, 1e-12), ab=(1e-3, 10.0), ar=(1e-318, 1e-312)),
        lambda u, lo, x, y: lo < x < y <= HI_CAP and u.a * x < TINY,
    ),
    "sigmoid-main": (
        sigmoid_priced(a=(1e-3, 1e2), ab=(1e-3, 700.0), ar=(1e-6, 700.0)),
        lambda u, lo, x, y: lo < x < y <= HI_CAP and TINY <= u.a * x and u.a * y <= u._switch,
    ),
    "sigmoid-far-past-700": (
        sigmoid_priced(a=(1e-3, 1e2), ab=(600.0, 708.0), ar=(701.0, 745.0)),
        lambda u, lo, x, y: lo < x < y <= HI_CAP and u._switch == 700.0 < u.a * y,
    ),
    "sigmoid-far-past-38": (  # a*b > 708.4: e^(-ab) is subnormal and the switch moves to 38
        sigmoid_priced(a=(1e-3, 1e2), ab=(709.0, 1e3), ar=(1e3, 1040.0)),
        lambda u, lo, x, y: lo < x < y <= HI_CAP and u._switch == 38.0 < u.a * y,
    ),
    "log-below-tiny": (
        log_priced(k=(1e-15, 1e-10), r=(1e-306, 1e-300)),
        lambda u, lo, x, y: lo < x < y <= HI_CAP and u.k * x < TINY,
    ),
    "log-main": (
        log_priced(k=(1e-4, 1e4), r=(1e-6, 1e8)),
        lambda u, lo, x, y: lo < x < y <= HI_CAP and TINY <= u.k * x,
    ),
    "infinite-estimate": (  # test_extreme_prices_give_a_number_not_an_error's rows
        st.tuples(
            st.sampled_from([(SigmoidUtility(a=1.0, b=800.0), 1.0), (SigmoidUtility(a=1e10, b=1.0), 1e-300),
                             (LogUtility(k=1e3, r_max=1.0), 5e-324)]),
            log_uniform(1e-300, 10.0),
        ).map(lambda case: (*case[0], case[1])),
        lambda u, lo, x, y: x == math.inf,
    ),
    "at-or-below-lo": (
        st.one_of(sigmoid_priced(a=(1e-3, 1e2), ab=(1e-3, 700.0), ar=(1e-6, 700.0), lo_factor=(1.0, 10.0)),
                  log_priced(k=(1e-4, 1e4), r=(1e-6, 1e8), lo_factor=(1.0, 10.0))),
        lambda u, lo, x, y: x <= lo,
    ),
    "above-cap": (
        st.one_of(sigmoid_priced(a=(1e-12, 1e-10), ab=(1.0, 100.0), ar=(1.0, 100.0)),
                  log_priced(k=(1e-4, 1.0), r=(2e9, 1e12))),
        lambda u, lo, x, y: HI_CAP < y < math.inf,
    ),
}


class TestCertifiedRate:
    @pytest.mark.parametrize("branch", list(BRANCHES))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_is_the_reference_form_on_every_branch(self, branch, data):
        # the estimate, the window and the two probes, each written out,
        # give the same double or None; every drawn case reaches its branch
        cases, reached = BRANCHES[branch]
        u, price, lo = data.draw(cases)
        guess = reference_estimate(u, price)
        assert reached(u, lo, *probe_pair(guess)), (u, price, lo)
        assert u.certified_rate(price, lo) == probed_midpoint(u, price, lo, guess), (u, price, lo)


class TestQoeFit:
    def test_video_anchor_points(self):
        u = sigmoid_from_qoe(200.0, 0.05, 740.0, 0.99)
        # slope in percent per rate unit: 100*(0.99-0.05)/540
        assert u.a == pytest.approx(0.17407407407407408, rel=1e-15, abs=0)
        assert u.b == 470.0

    def test_half_satisfaction_at_fitted_inflection(self):
        u = sigmoid_from_qoe(200.0, 0.05, 740.0, 0.99)
        assert u.value(470.0) == pytest.approx(0.5, abs=1e-15)

    def test_midpoint_rule(self):
        u = sigmoid_from_qoe(50.0, 0.2, 150.0, 0.8)
        assert u.b == 100.0
        assert u.a == pytest.approx(100.0 * 0.6 / 100.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "args",
        [
            (740.0, 0.05, 200.0, 0.99),  # rates swapped
            (200.0, 0.99, 740.0, 0.05),  # satisfactions swapped
            (200.0, 0.0, 740.0, 0.99),   # zero satisfaction anchor
            (200.0, 0.05, 740.0, 1.0),   # full satisfaction anchor
            (0.0, 0.05, 740.0, 0.99),    # zero rate anchor
            (200.0, 0.05, math.inf, 0.99),  # infinite rate anchor
            (math.nan, 0.05, 740.0, 0.99),  # nan rate anchor
            (200.0, 0.05, 200.0, 0.99),  # equal rate anchors: no span to divide by
        ],
    )
    def test_rejects_misordered_anchors(self, args):
        with pytest.raises(ValueError):
            sigmoid_from_qoe(*args)

    @pytest.mark.parametrize("args, name", [
        ((1.0, "0.1", 2.0, 0.9), "s_low"),  # refused by name, not a bare TypeError from comparing
        ((1.0, 0.1, 2.0, None), "s_high"),
        ((1.0, True, 2.0, 0.9), "s_low"),  # refused, not read as 1
    ])
    def test_names_a_satisfaction_that_is_not_a_real_number(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            sigmoid_from_qoe(*args)


class TestCurveProperties:
    # Sigmoid draws are parametrized through x = a*(r - b) and kept below
    # x = 20 on the high side: past saturation the analytically strict
    # increase fades below double resolution and adjacent values tie.

    @given(
        a=st.floats(0.05, 8.0),
        b=st.floats(0.5, 80.0),
        x1=st.floats(-30.0, 18.0),
        gap_frac=st.floats(1e-4, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_sigmoid_value_strictly_increases(self, a, b, x1, gap_frac):
        u = SigmoidUtility(a=a, b=b)
        r1 = max(0.0, b + x1 / a)
        r2 = r1 + gap_frac * (20.0 - x1) / a
        assert u.value(r1) < u.value(r2)

    @given(
        k=st.floats(1e-3, 50.0),
        r_max=st.floats(1.0, 1e4),
        f1=st.floats(0.0, 0.99),
        f2=st.floats(0.005, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_log_value_strictly_increases(self, k, r_max, f1, f2):
        u = LogUtility(k=k, r_max=r_max)
        r1 = f1 * r_max
        r2 = min(r_max, r1 + f2 * r_max)
        assert u.value(r1) < u.value(r2) <= 1.0

    @given(
        a=st.floats(0.05, 8.0),
        b=st.floats(0.5, 80.0),
        r1=st.floats(1e-3, 400.0),
        factor=st.floats(1.01, 10.0),
    )
    @example(a=7.09375, b=22.0, r1=8.0, factor=2.0)  # flat stretch: the exact slopes differ by far less than an ulp
    @settings(max_examples=150, deadline=None)
    def test_sigmoid_log_slope_never_increases(self, a, b, r1, factor):
        # non-strict: on the flat stretch below the inflection the slope
        # moves by less than one ulp between nearby rates; strictness is
        # asserted on the curated grid in TestLogSlope
        u = SigmoidUtility(a=a, b=b)
        r2 = r1 * factor
        if a * r2 > 705.0:  # past the a*r = 700 branch switch, but short of underflow
            r2 = 705.0 / a
        if r2 <= r1:
            r1, r2 = 0.5 * r2, r2
        assert u.log_slope(r1) >= u.log_slope(r2) > 0.0

    # The solver skips a log-slope evaluation whenever monotonicity decides
    # its outcome, so the rounded slope must not rise even from one double
    # to the next.

    @given(
        a=st.floats(1e-3, 1e2),
        b=st.floats(1e-2, 1e4),
        ar=st.floats(1e-9, 705.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_log_slope_never_rises_to_the_next_double(self, a, b, ar):
        u = SigmoidUtility(a=a, b=b)
        r = ar / a
        assert u.log_slope(r) >= u.log_slope(math.nextafter(r, math.inf))

    @given(a=st.floats(1e-3, 1e2), ab=st.floats(1.0, 800.0), switch=st.sampled_from((TINY, 38.0, 700.0)))
    @example(a=0.01276264944122313, ab=733.4409656817401, switch=700.0)  # e^-ab subnormal: rose by an ulp at 700
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_log_slope_never_rises_across_a_branch_switch(self, a, ab, switch):
        # below a*r = TINY the slope is its 1/r limit, past 38 or 700 the far
        # form; r is the last double with a*r <= switch, and a*r == TINY
        # already takes the general form, so the step into r is checked too
        u = SigmoidUtility(a=a, b=ab / a)
        r = switch / a
        while a * r > switch:
            r = math.nextafter(r, 0.0)
        while a * math.nextafter(r, math.inf) <= switch:
            r = math.nextafter(r, math.inf)
        assert u.log_slope(math.nextafter(r, 0.0)) >= u.log_slope(r) >= u.log_slope(math.nextafter(r, math.inf))

    @given(k=st.floats(-300.0, 0.0).map(lambda x: 10.0**x))
    @settings(max_examples=300, deadline=None)
    def test_log_log_slope_never_rises_across_the_1_over_r_switch(self, k):
        # below k*r = TINY the slope is its 1/r limit; walk 10 doubles either side
        u = LogUtility(k=k, r_max=1.0 / k)
        r = TINY / k
        for _ in range(10):
            r = math.nextafter(r, 0.0)
        rates = [r]
        for _ in range(20):
            rates.append(math.nextafter(rates[-1], math.inf))
        assert k * rates[0] < TINY <= k * rates[-1]
        slopes = [u.log_slope(x) for x in rates]
        assert all(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:]))

    @given(k=st.floats(1e-4, 1e4), r=st.floats(1e-300, 1e9))
    @settings(max_examples=300, deadline=None)
    def test_log_log_slope_never_rises_to_the_next_double(self, k, r):
        u = LogUtility(k=k, r_max=100.0)
        assert u.log_slope(r) >= u.log_slope(math.nextafter(r, math.inf))

    @given(
        k=st.floats(1e-3, 50.0),
        r1=st.floats(1e-3, 1e4),
        factor=st.floats(1.01, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_log_log_slope_strictly_decreases(self, k, r1, factor):
        u = LogUtility(k=k, r_max=100.0)
        assert u.log_slope(r1) > u.log_slope(r1 * factor) > 0.0
