import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairalloc import (
    AllocationConfig,
    ExponentialDecay,
    LogUtility,
    NoRootError,
    Scenario,
    SigmoidUtility,
    SolverConfig,
    canonical_scenario,
    grid_oracle,
    protocol,
    run_sweep,
    solve_user_rate,
)
from fairalloc.solver import BRACKET_HI, HI_CAP, REL_TOL
from mp_roots import mp_rate


def plain_bisection(u, price, config):
    """Reference solve: bisection that evaluates the log-slope at every midpoint.

    ``solve_user_rate`` skips the evaluations whose outcome monotonicity
    already decides, so it must return this very double.
    """
    lo = config.bracket_lo
    hi = BRACKET_HI
    if u.log_slope(lo) < price:
        return lo
    while u.log_slope(hi) > price:
        if hi == HI_CAP:
            raise NoRootError(f"log-slope still above price {price} at rate {HI_CAP}")
        hi = min(2.0 * hi, HI_CAP)
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= REL_TOL * mid or not lo < mid < hi:
            return mid
        if u.log_slope(mid) >= price:
            lo = mid
        else:
            hi = mid


def outcome(solve, u, price, config):
    """The rate ``solve`` returns, or NoRootError if it raises that."""
    try:
        return solve(u, price, config)
    except NoRootError:
        return NoRootError


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def sigmoid_cases(draw):
    u = SigmoidUtility(a=draw(log_uniform(1e-3, 1e2)), b=draw(log_uniform(1e-2, 1e4)))
    if draw(st.booleans()):  # near the flat stretch's slope a(1 + e^-ab), where the root is ill-conditioned
        sign = draw(st.sampled_from((-1.0, 1.0)))
        return u, u.a * u.c * (1.0 + sign * 10.0 ** -draw(st.floats(0.5, 17.0)))
    return u, draw(log_uniform(1e-12, 1e6))


@st.composite
def log_cases(draw):
    u = LogUtility(k=draw(log_uniform(1e-4, 1e4)), r_max=draw(log_uniform(1.0, 1e4)))
    return u, draw(log_uniform(1e-15, 1e8))


LOG_USER = LogUtility(k=0.5, r_max=100.0)

configs = st.one_of(st.just(SolverConfig()), log_uniform(1e-300, 10.0).map(lambda lo: SolverConfig(bracket_lo=lo)))


def count_slope_calls(monkeypatch):
    """A list that grows by one entry per log_slope call, on either utility class."""
    calls = []
    for cls in (SigmoidUtility, LogUtility):
        def counted(self, rate, original=cls.log_slope):
            calls.append(rate)
            return original(self, rate)

        monkeypatch.setattr(cls, "log_slope", counted)
    return calls


@pytest.fixture
def slope_calls(monkeypatch):
    return count_slope_calls(monkeypatch)


def slope_evaluations(solve, u, price, config):
    """How many times one ``solve`` of the case evaluates the log-slope, NoRootError included."""
    with pytest.MonkeyPatch.context() as mp:
        calls = count_slope_calls(mp)
        outcome(solve, u, price, config)
    return len(calls)


def crowd_scenario(n_users=200, seed=1):
    """A seeded mixed population: sigmoid users a ~ U[0.5, 5], b ~ U[5, 30], log users k log-uniform on [0.5, 15]."""
    rng = np.random.default_rng(seed)
    users = []
    for i in range(n_users):
        if i % 2 == 0:
            u = SigmoidUtility(a=float(rng.uniform(0.5, 5.0)), b=float(rng.uniform(5.0, 30.0)))
        else:
            u = LogUtility(k=float(np.exp(rng.uniform(math.log(0.5), math.log(15.0)))), r_max=100.0)
        users.append((f"u{i}", u))
    sum_b = math.fsum(u.b for _, u in users if isinstance(u, SigmoidUtility))
    return Scenario("crowd", tuple(users), tuple(f * sum_b for f in (0.9, 1.5, 3.0)))


SWEEPS = {
    "canonical": canonical_scenario,
    "crowd": crowd_scenario,
    # a slice of the damped sweep over R = 2..120, whose prices creep slowly
    "damped": lambda: canonical_scenario(
        r_values=tuple(float(r) for r in range(2, 121, 13)),
        config=AllocationConfig(decay=ExponentialDecay(5.0, 10.0)),
    ),
}


@pytest.fixture(scope="module", params=list(SWEEPS))
def sweep_traffic(request):
    """Every (u, price, config) a sweep passes to ``protocol.solve_user_rate``, and the log_slope calls they made."""
    solves = []
    solve = protocol.solve_user_rate

    def recorded(u, price, config):
        solves.append((u, price, config))
        return solve(u, price, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "solve_user_rate", recorded)
        calls = count_slope_calls(mp)
        run_sweep(SWEEPS[request.param]())
    return solves, len(calls)


def walk_midpoint(target, depth, config):
    """The midpoint that plain bisection from [bracket_lo, BRACKET_HI] towards ``target`` computes at level ``depth``."""
    lo, hi = config.bracket_lo, BRACKET_HI
    for _ in range(depth - 1):
        mid = 0.5 * (lo + hi)
        if mid <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    def test_resolves_roots_far_below_the_first_bracket(self, root, slope_calls):
        # plain bisection from [bracket_lo, BRACKET_HI] takes ~1000 halvings
        # to come down to 1e-290; the solve must not stop on a step count,
        # and the halvings outside the probed bracket cost no evaluation
        u = LogUtility(k=0.5, r_max=100.0)
        config = SolverConfig(bracket_lo=root * 1e-10)
        price = u.log_slope(root)
        slope_calls.clear()
        rate = solve_user_rate(u, price, config)
        assert len(slope_calls) <= 8
        assert rate == pytest.approx(root, rel=1e-9)
        assert rate == plain_bisection(u, price, config)

    @pytest.mark.parametrize(
        "u, price",
        [
            (LogUtility(k=1e-30, r_max=1e30), 1e300),
            (SigmoidUtility(a=1e-30, b=1.0), 1e300),
            (LogUtility(k=1e-30, r_max=1e30), 1e299),  # k * rate underflows to 0 at the root itself
            (LogUtility(k=1e-300, r_max=1e300), 1e20),  # k * rate is subnormal at the root
        ],
        ids=["log", "sigmoid", "log-root-underflows", "log-root-subnormal"],
    )
    def test_underflowing_slope_scale_solves_to_the_root(self, u, price):
        # a (or k) times bracket_lo underflows to 0; there the log-slope is its 1/r limit
        config = SolverConfig(bracket_lo=1e-300)
        rate = solve_user_rate(u, price, config)
        assert rate == pytest.approx(float(mp_rate(u, price, config.bracket_lo)), rel=1e-9)
        assert rate == plain_bisection(u, price, config)

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


class TestSkippedEvaluations:
    # The solver evaluates the log-slope only inside the bracket its probes
    # around the utility's estimated root leave open; everywhere else the
    # log-slope's monotonicity decides the bisection step. It must walk the
    # same midpoints as plain bisection and return the same double.

    @given(case=sigmoid_cases(), config=configs)
    @example(case=(SigmoidUtility(a=5.0, b=10.0), 1e3), config=SolverConfig())  # pinned
    @example(case=(SigmoidUtility(a=1e-3, b=1e4), 1e-12), config=SolverConfig())  # no root below HI_CAP
    @example(case=(SigmoidUtility(a=1.0, b=800.0), 1.0), config=SolverConfig())  # e^-ab underflows; estimate inf
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_matches_plain_bisection(self, case, config):
        u, price = case
        assert outcome(solve_user_rate, u, price, config) == outcome(plain_bisection, u, price, config)

    @given(case=log_cases(), config=configs)
    @example(case=(LogUtility(k=0.5, r_max=100.0), 2000.0), config=SolverConfig())  # pinned
    @example(case=(LogUtility(k=0.5, r_max=100.0), 1e-6), config=SolverConfig())  # root above BRACKET_HI
    @example(case=(LogUtility(k=0.5, r_max=100.0), 1e-15), config=SolverConfig())  # no root below HI_CAP
    @example(case=(LogUtility(k=0.5, r_max=100.0), 1e3), config=SolverConfig(bracket_lo=1e-300))  # tiny root
    @settings(max_examples=300, deadline=None)
    def test_log_matches_plain_bisection(self, case, config):
        u, price = case
        assert outcome(solve_user_rate, u, price, config) == outcome(plain_bisection, u, price, config)

    @given(case=st.one_of(sigmoid_cases(), log_cases()), config=configs)
    # flat stretch: the estimate misses by more than the probe step
    @example(case=(SigmoidUtility(a=4.9107668881721365, b=27.249411863738718), 4.9107668881721365), config=SolverConfig())
    @example(case=(LOG_USER, LOG_USER.log_slope(5e4)), config=SolverConfig())  # the bracket doubles
    @example(case=(LOG_USER, LOG_USER.log_slope(1e-290)), config=SolverConfig(bracket_lo=1e-300))  # tiny root
    @example(case=(LOG_USER, LOG_USER.log_slope(1e-298)), config=SolverConfig(bracket_lo=1e-300))  # stop at its floor
    @settings(max_examples=300, deadline=None)
    def test_at_most_two_evaluations_more_than_plain_bisection(self, case, config):
        # the probe pair is all a solve adds to plain bisection's evaluations
        u, price = case
        solve, plain = (slope_evaluations(f, u, price, config) for f in (solve_user_rate, plain_bisection))
        assert solve <= plain + 2

    @pytest.mark.parametrize("estimate", [math.nan, math.inf, -1.0, 0.0, 1e-300, 3.0, 1e8])
    def test_a_useless_estimate_falls_back_to_bisection(self, monkeypatch, table_utilities, estimate):
        monkeypatch.setattr(SigmoidUtility, "estimate_rate", lambda self, price: estimate)
        monkeypatch.setattr(LogUtility, "estimate_rate", lambda self, price: estimate)
        config = SolverConfig(bracket_lo=1e-12)
        for u in table_utilities.values():
            for price in (1e-4, 0.05, 0.3, 2.0, 1e3):
                assert solve_user_rate(u, price, config) == plain_bisection(u, price, config)

    def test_few_evaluations_per_solve(self, sweep_traffic):
        # plain bisection takes about 44 per solve on these populations; the
        # probes alone take about 2, and a certified probe spares the
        # evaluations at the bracket's ends
        solves, evaluations = sweep_traffic
        assert evaluations <= 3 * len(solves)

    def test_sweep_solves_match_plain_bisection(self, sweep_traffic):
        # the prices a real run announces, including those cycling on a
        # sigmoid's flat stretch, where one ulp changes the walk; the
        # stride, prime to the user counts, keeps the test fast
        solves, _ = sweep_traffic
        for u, price, config in solves[::7]:
            assert solve_user_rate(u, price, config) == plain_bisection(u, price, config)

    @pytest.mark.parametrize("depth", [3, 7, 13, 14, 15, 20, 30])
    def test_roots_on_a_bisection_midpoint(self, table_utilities, depth):
        # a root exactly on a midpoint puts that midpoint inside the probed
        # bracket, where only an evaluation decides, however deep the
        # midpoint: the levels that skip the stop test must still evaluate it
        config = SolverConfig()
        for u in table_utilities.values():
            for target in (0.05, 3.0, 12.0, 40.0):
                price = u.log_slope(walk_midpoint(target, depth, config))
                assert solve_user_rate(u, price, config) == plain_bisection(u, price, config)


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
