import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairalloc import LogUtility, SigmoidUtility, sigmoid_from_qoe


def _within_ulps(x, y, ulps=4):
    x, y = np.asarray(x), np.asarray(y)
    return np.all(np.abs(x - y) <= ulps * np.spacing(np.maximum(np.abs(x), np.abs(y))))


class TestConstruction:
    def test_sigmoid_derived_constants(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        # d = 1/(1+e^50), c = (1+e^50)/e^50; frozen from 60-digit evaluation
        assert u.d == pytest.approx(1.9287498479639178e-22, rel=1e-13)
        assert u.c == pytest.approx(1.0, abs=1e-15)

    def test_sigmoid_constants_survive_huge_exponent(self):
        # a*b = 1000: exp(ab) overflows, the rearranged constants do not
        u = SigmoidUtility(a=10.0, b=100.0)
        assert u.c == 1.0
        assert u.d == 0.0
        assert u.value(0.0) == 0.0
        assert u.value(1000.0) == 1.0
        assert u.log_slope(100.0) == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_sigmoid_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            SigmoidUtility(a=a, b=b)

    @pytest.mark.parametrize(
        "k,r_max",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.inf, 1.0), (1e200, 1e200), (1e-200, 1e-200)],
    )
    def test_log_rejects_bad_parameters(self, k, r_max):
        # k * r_max overflowing or underflowing leaves log1p(k * r_max) inf or 0
        with pytest.raises(ValueError):
            LogUtility(k=k, r_max=r_max)

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

    def test_sigmoid_half_satisfaction_at_inflection(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        # c*(1/2 - d) = (1 - e^-50)/2, indistinguishable from 0.5
        assert u.value(10.0) == pytest.approx(0.5, abs=1e-15)

    def test_sigmoid_saturates_past_ten_inflections(self, table_utilities):
        for name in ("Sig1", "Sig2", "Sig3"):
            u = table_utilities[name]
            assert u.value(10.0 * u.b) > 0.999

    def test_negative_rate_rejected(self, table_utilities):
        for u in table_utilities.values():
            with pytest.raises(ValueError):
                u.value(-1.0)
            with pytest.raises(ValueError):
                u.value(np.array([1.0, -2.0]))

    def test_array_and_scalar_paths_agree(self, table_utilities):
        # numpy's vector transcendentals and libm may differ by an ulp or two
        rates = np.concatenate([np.geomspace(1e-3, 1e3, 41), [0.0]])
        for u in table_utilities.values():
            from_array = u.value(rates)
            from_scalars = np.array([u.value(float(r)) for r in rates])
            assert _within_ulps(from_array, from_scalars)

    def test_strictly_increasing_on_table_curves(self, table_utilities):
        rates = np.geomspace(1e-3, 1e3, 201)
        for name, u in table_utilities.items():
            grid = rates[rates <= 100.0] if name.startswith("Log") else rates
            values = u.value(grid)
            assert np.all(np.diff(values) >= 0.0), name
            # strictness fades below double resolution once the sigmoid saturates
            live = values < 1.0 - 1e-12
            assert np.all(np.diff(values[live]) > 0.0), name


class TestLogSlope:
    def test_log_slope_closed_form(self):
        u = LogUtility(k=0.5, r_max=100.0)
        # k / ((1 + k r) log(1 + k r)) at r=2: 0.5 / (2 ln 2)
        assert u.log_slope(2.0) == pytest.approx(0.36067376022224085, rel=1e-14)

    def test_sigmoid_slope_at_inflection(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        # m = 1 there: a / (2 (1 - 2d)) within rounding of a/2
        assert u.log_slope(10.0) == pytest.approx(2.5, rel=1e-14)

    def test_slope_independent_of_log_normalization(self):
        assert LogUtility(k=2.0, r_max=10.0).log_slope(3.0) == pytest.approx(
            LogUtility(k=2.0, r_max=500.0).log_slope(3.0), rel=1e-15
        )

    def test_nonpositive_rate_rejected(self, table_utilities):
        for u in table_utilities.values():
            for bad in (0.0, -1.0):
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
                assert u.log_slope(r) == pytest.approx(fd, rel=1e-6), (name, r)


class TestQoeFit:
    def test_video_anchor_points(self):
        u = sigmoid_from_qoe(200.0, 0.05, 740.0, 0.99)
        # slope in percent per rate unit: 100*(0.99-0.05)/540
        assert u.a == pytest.approx(0.17407407407407408, rel=1e-15)
        assert u.b == 470.0

    def test_half_satisfaction_at_fitted_inflection(self):
        u = sigmoid_from_qoe(200.0, 0.05, 740.0, 0.99)
        assert u.value(470.0) == pytest.approx(0.5, abs=1e-15)

    def test_midpoint_rule(self):
        u = sigmoid_from_qoe(50.0, 0.2, 150.0, 0.8)
        assert u.b == 100.0
        assert u.a == pytest.approx(100.0 * 0.6 / 100.0, rel=1e-15)

    @pytest.mark.parametrize(
        "args",
        [
            (740.0, 0.05, 200.0, 0.99),  # rates swapped
            (200.0, 0.99, 740.0, 0.05),  # satisfactions swapped
            (200.0, 0.0, 740.0, 0.99),   # zero satisfaction anchor
            (200.0, 0.05, 740.0, 1.0),   # full satisfaction anchor
            (0.0, 0.05, 740.0, 0.99),    # zero rate anchor
        ],
    )
    def test_rejects_misordered_anchors(self, args):
        with pytest.raises(ValueError):
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
        if a * r2 > 650.0:  # keep the far tail representable
            r2 = 650.0 / a
        if r2 <= r1:
            r1, r2 = 0.5 * r2, r2
        assert u.log_slope(r1) >= u.log_slope(r2) > 0.0

    @given(
        k=st.floats(1e-3, 50.0),
        r1=st.floats(1e-3, 1e4),
        factor=st.floats(1.01, 10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_log_log_slope_strictly_decreases(self, k, r1, factor):
        u = LogUtility(k=k, r_max=100.0)
        assert u.log_slope(r1) > u.log_slope(r1 * factor) > 0.0
