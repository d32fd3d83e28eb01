import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairalloc import (
    LogUtility,
    NoRootError,
    SigmoidUtility,
    SolverConfig,
    grid_oracle,
    solve_user_rate,
)
from fairalloc.solver import BRACKET_HI, HI_CAP, REL_TOL


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.bracket_lo == 1e-3
        assert (BRACKET_HI, HI_CAP, REL_TOL) == (1e3, 1e9, 1e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bracket_lo": 0.0},
            {"bracket_lo": 1e3},  # not below BRACKET_HI
            {"bracket_lo": math.nan},
            {"bracket_lo": -1.0},
            {"bracket_lo": math.inf},
            {"bracket_lo": 2e9},  # above HI_CAP as well
        ],
    )
    def test_rejects_inconsistent_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveUserRate:
    def test_round_trip_through_the_slope(self):
        u = LogUtility(k=0.5, r_max=100.0)
        price = u.log_slope(17.3)
        assert solve_user_rate(u, price) == pytest.approx(17.3, rel=1e-9)

    def test_log_closed_form_inversion(self):
        # k / ((1 + k r) log(1 + k r)) = 0.5 / (2 ln 2) exactly at r = 2
        u = LogUtility(k=0.5, r_max=100.0)
        price = 0.5 / (2.0 * math.log(2.0))
        assert solve_user_rate(u, price) == pytest.approx(2.0, rel=1e-9)

    def test_sigmoid_root_at_inflection(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        assert solve_user_rate(u, u.log_slope(10.0)) == pytest.approx(10.0, rel=1e-9)

    def test_residual_is_within_bracket_tolerance(self, table_utilities):
        for u in table_utilities.values():
            for price in (0.01, 0.3, 2.0):
                r = solve_user_rate(u, price)
                assert u.log_slope(r) == pytest.approx(price, rel=1e-7)

    def test_pins_to_lower_bracket_when_price_too_high(self):
        u = LogUtility(k=0.5, r_max=100.0)
        cfg = SolverConfig()
        assert u.log_slope(cfg.bracket_lo) < 2000.0
        assert solve_user_rate(u, 2000.0) == cfg.bracket_lo

    def test_expands_bracket_for_small_prices(self):
        u = LogUtility(k=0.5, r_max=100.0)
        assert u.log_slope(1e3) > 1e-6  # root lies beyond the default bracket
        r = solve_user_rate(u, 1e-6)
        assert r > 1e3
        assert u.log_slope(r) == pytest.approx(1e-6, rel=1e-7)

    @pytest.mark.parametrize("root", [8e8, HI_CAP])
    def test_finds_roots_up_to_the_cap(self, root):
        # the doubling bracket overshoots HI_CAP after 5.24e8; the last
        # doubling must stop at the cap instead of giving up below it
        u = LogUtility(k=0.5, r_max=100.0)
        assert solve_user_rate(u, u.log_slope(root)) == pytest.approx(root, rel=1e-9)

    def test_no_root_beyond_cap(self):
        u = LogUtility(k=0.5, r_max=100.0)
        with pytest.raises(NoRootError):
            solve_user_rate(u, 1e-30)

    @pytest.mark.parametrize("root", [1e-70, 1e-290])
    def test_resolves_roots_far_below_the_first_bracket(self, root):
        # linear bisection from [bracket_lo, BRACKET_HI] needs ~1000 halvings
        # to come down to 1e-290; the solve must not stop on a step count
        u = LogUtility(k=0.5, r_max=100.0)
        config = SolverConfig(bracket_lo=root * 1e-10)
        assert solve_user_rate(u, u.log_slope(root), config) == pytest.approx(root, rel=1e-9)

    @pytest.mark.parametrize("price", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_price(self, price):
        with pytest.raises(ValueError):
            solve_user_rate(LogUtility(k=3.0, r_max=100.0), price)

    def test_deterministic(self, table_utilities):
        for u in table_utilities.values():
            first = solve_user_rate(u, 0.37)
            assert all(solve_user_rate(u, 0.37) == first for _ in range(3))

    @given(
        idx=st.integers(0, 5),
        p1=st.floats(1e-3, 10.0),
        factor=st.floats(1.0001, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_higher_price_never_buys_more_rate(self, table_utilities, idx, p1, factor):
        u = list(table_utilities.values())[idx]
        assert solve_user_rate(u, p1) >= solve_user_rate(u, p1 * factor)


class TestGridOracle:
    def test_singleton_grid(self):
        u = LogUtility(k=3.0, r_max=100.0)
        assert grid_oracle(u, 0.5, np.array([7.25])) == 7.25

    def test_log_agrees_with_solver(self):
        u = LogUtility(k=3.0, r_max=100.0)
        grid = np.geomspace(1e-3, 1e3, 100_000)
        best = grid_oracle(u, 0.1, grid)
        solved = solve_user_rate(u, 0.1)
        step = best * 2e-4  # local geometric spacing with margin
        assert abs(best - solved) <= step

    def test_sigmoid_agrees_with_solver(self):
        u = SigmoidUtility(a=3.0, b=20.0)
        grid = np.geomspace(1e-3, 1e3, 100_000)
        best = grid_oracle(u, 0.05, grid)
        solved = solve_user_rate(u, 0.05)
        step = best * 2e-4
        assert abs(best - solved) <= step

    @pytest.mark.parametrize(
        "grid",
        [np.array([]), np.array([1.0, 1.0]), np.array([2.0, 1.0]), np.array([0.0, 1.0]), np.array([-1.0, 1.0])],
    )
    def test_rejects_bad_grids(self, grid):
        with pytest.raises(ValueError):
            grid_oracle(LogUtility(k=3.0, r_max=100.0), 0.5, grid)

    def test_rejects_bad_price(self):
        with pytest.raises(ValueError):
            grid_oracle(LogUtility(k=3.0, r_max=100.0), 0.0, np.array([1.0, 2.0]))
