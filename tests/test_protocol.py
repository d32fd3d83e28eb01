import math

import numpy as np
import pytest

from fairalloc import (
    CONVERGED,
    ITERATION_CAP,
    AllocationConfig,
    ExponentialDecay,
    LogUtility,
    RationalDecay,
    SigmoidUtility,
    SolverConfig,
    canonical_scenario,
    run_allocation,
)


def first_round(utilities, total_rate, **config):
    return run_allocation(utilities, total_rate, AllocationConfig(max_iter=1, **config)).trajectory[0]


def max_move(bids, prev_bids):
    return max(abs(w - w0) for w, w0 in zip(bids, prev_bids))


class TestShadowPrice:
    """The price each round announces: the outstanding bids over the cell rate."""

    def test_initial_bids_over_matching_rate(self):
        assert first_round(canonical_scenario().utilities, 60.0).price == 1.0

    def test_doubling_the_rate_halves_the_price(self):
        assert first_round(canonical_scenario().utilities, 120.0).price == 0.5

    def test_single_user_identity(self):
        # p * R recovers the lone bid of the round before
        res = run_allocation([LogUtility(k=3.0, r_max=100.0)], 41.0)
        assert len(res.trajectory) > 2
        for prev, rec in zip(res.trajectory, res.trajectory[1:]):
            assert rec.price * 41.0 == pytest.approx(prev.bids[0], rel=1e-15)

    @pytest.mark.parametrize("rate", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_bad_total_rate(self, rate):
        with pytest.raises(ValueError, match="total rate"):
            run_allocation([LogUtility(k=3.0, r_max=100.0)], rate)


class TestUserRespond:
    """Each user answers a price with its optimal rate and the bid price * rate."""

    def test_log_closed_form(self):
        u = LogUtility(k=0.5, r_max=100.0)
        price = 0.5 / (2.0 * math.log(2.0))  # the log-slope at r = 2
        rec = first_round([u], 10.0, initial_bid=10.0 * price)
        assert rec.rates[0] == pytest.approx(2.0, rel=1e-9)
        assert rec.bids[0] == pytest.approx(2.0 * price, rel=1e-9)

    def test_sigmoid_at_inflection_price(self):
        u = SigmoidUtility(a=5.0, b=10.0)
        price = u.log_slope(10.0)
        rec = first_round([u], 10.0, initial_bid=10.0 * price)
        assert rec.rates[0] == pytest.approx(10.0, rel=1e-9)
        assert rec.bids[0] == pytest.approx(10.0 * price, rel=1e-9)

    def test_bid_is_price_times_rate_exactly(self, table_utilities):
        for u in table_utilities.values():
            for total_rate in (5.0, 60.0, 300.0):
                res = run_allocation([u], total_rate, AllocationConfig(max_iter=5))
                for rec in res.trajectory:
                    assert rec.bids[0] == rec.price * rec.rates[0]


class TestApplyDecay:
    """The envelope cuts a bid move larger than dw(n) back to old_bid +/- dw(n)."""

    @staticmethod
    def assert_round_one_clipped(decay):
        users = canonical_scenario().utilities
        targets = first_round(users, 60.0).bids  # the same price with or without decay
        damped = first_round(users, 60.0, decay=decay).bids
        limit = decay.step_limit(1)
        moves = [t - 10.0 for t in targets]
        assert any(m > limit for m in moves) and any(m < -limit for m in moves)
        for target, move, bid in zip(targets, moves, damped):
            assert bid == (10.0 + math.copysign(limit, move) if abs(move) > limit else target)

    def test_exponential_clips_large_step(self):
        # envelope at n=1 is 5 e^-0.1
        self.assert_round_one_clipped(ExponentialDecay(l1=5.0, l2=10.0))

    def test_downward_steps_clip_symmetrically(self):
        # envelope at n=1 is 2: bids land exactly on 8 and 12
        self.assert_round_one_clipped(RationalDecay(l3=2.0))

    def test_small_step_passes_through(self):
        users = canonical_scenario().utilities
        targets = first_round(users, 60.0).bids
        assert max_move(targets, (10.0,) * 6) < 18.0  # under both envelopes at n=1
        for decay in (ExponentialDecay(l1=20.0, l2=10.0), RationalDecay(l3=20.0)):
            assert first_round(users, 60.0, decay=decay).bids == targets

    def test_none_policy_is_identity(self):
        # an envelope that never binds leaves the whole run unchanged
        users = canonical_scenario().utilities
        wide = AllocationConfig(decay=ExponentialDecay(l1=1e9, l2=1e9))
        assert run_allocation(users, 60.0, wide) == run_allocation(users, 60.0)

    def test_rational_envelope_shrinks_as_one_over_n(self):
        pol = RationalDecay(l3=6.0)
        assert pol.step_limit(1) == 6.0
        assert pol.step_limit(4) == 1.5

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ExponentialDecay(l1=0.0),
            lambda: ExponentialDecay(l2=-1.0),
            lambda: RationalDecay(l3=0.0),
            lambda: ExponentialDecay(l1=math.nan),
            lambda: ExponentialDecay(l2=math.inf),
            lambda: RationalDecay(l3=math.inf),
            lambda: RationalDecay(l3=math.nan),
        ],
    )
    def test_rejects_bad_constants(self, make):
        with pytest.raises(ValueError):
            make()


class TestCheckConvergence:
    """The loop stops at the first round in which no bid moved by more than delta."""

    def test_within_threshold(self):
        res = run_allocation(canonical_scenario().utilities, 60.0)
        assert res.converged
        prev = res.trajectory[-2].bids
        assert max_move(res.final_bids, prev) <= 0.001

    def test_single_coordinate_exceeding(self):
        # every earlier round had a bid that moved by more than delta
        res = run_allocation(canonical_scenario().utilities, 60.0)
        prev = (10.0,) * 6
        for rec in res.trajectory[:-1]:
            assert max_move(rec.bids, prev) > 0.001
            prev = rec.bids

    def test_zero_step_always_converged(self):
        # a cell exactly at the floor pins its lone user, who bids (w/R) * R = w again
        lo = SolverConfig().bracket_lo
        res = run_allocation([LogUtility(k=0.5, r_max=100.0)], lo, AllocationConfig(delta=1e-300))
        assert res.status == CONVERGED
        assert res.iterations_used == 1
        assert res.final_bids == (10.0,)


class TestRunAllocation:
    def test_single_user_absorbs_the_whole_cell(self):
        u = LogUtility(k=3.0, r_max=100.0)
        res = run_allocation([u], 10.0)
        assert res.converged
        # at the fixed point the budget clears: |sum r - R| <= M delta / p
        assert abs(res.final_rates[0] - 10.0) <= 1 * 0.001 / res.final_price

    def test_six_user_budget_identity_at_60(self):
        sc = canonical_scenario()
        res = run_allocation(sc.utilities, 60.0)
        assert res.converged
        assert res.iterations_used <= 1000
        gap = abs(sum(res.final_rates) - 60.0)
        assert gap <= 6 * 0.001 / res.final_price

    def test_first_order_optimality_at_convergence(self):
        sc = canonical_scenario()
        res = run_allocation(sc.utilities, 60.0)
        assert SolverConfig().bracket_lo not in res.final_rates  # no user is pinned
        for u, r in zip(sc.utilities, res.final_rates):
            assert abs(u.log_slope(r) - res.final_price) / res.final_price <= 1e-6

    def test_marginal_sigmoid_regime_cycles_instead_of_converging(self):
        # R=50 prices the cell near the a=1 sigmoid's flat log-utility
        # stretch; the marginal user's response swings across it and the
        # undamped bids two-cycle forever.
        sc = canonical_scenario()
        res = run_allocation(sc.utilities, 50.0)
        assert res.status == ITERATION_CAP
        assert res.iterations_used == 1000
        last_steps = [
            max(abs(w1 - w0) for w0, w1 in zip(a.bids, b.bids))
            for a, b in zip(res.trajectory[-10:], res.trajectory[-9:])
        ]
        assert max(last_steps) > 0.001

    def test_damping_rescues_the_cycling_regime(self):
        # The damped run reports converged, but only because the envelope
        # froze the bids (after 86 rounds, with |sum(r) - R| ~ 1.83 against
        # the budget bound N*delta/p ~ 0.006 for the six users), not
        # because it reached the allocation.
        sc = canonical_scenario()
        cfg = AllocationConfig(decay=ExponentialDecay(l1=5.0, l2=10.0))
        res = run_allocation(sc.utilities, 50.0, cfg)
        assert res.status == CONVERGED

    def test_records_are_price_consistent_without_decay(self):
        sc = canonical_scenario()
        res = run_allocation(sc.utilities, 60.0)
        for rec in res.trajectory:
            assert rec.n >= 1
            assert rec.price > 0.0
            assert len(rec.bids) == len(rec.rates) == 6
            for bid, rate in zip(rec.bids, rec.rates):
                assert bid == rec.price * rate  # definition of the bid

    def test_decay_envelope_bounds_every_step(self):
        sc = canonical_scenario()
        pol = ExponentialDecay(l1=5.0, l2=10.0)
        res = run_allocation(sc.utilities, 50.0, AllocationConfig(decay=pol))
        prev = (10.0,) * 6
        for rec in res.trajectory:
            limit = pol.step_limit(rec.n) * (1.0 + 1e-12) + 1e-12
            assert all(abs(w - w0) <= limit for w, w0 in zip(rec.bids, prev))
            prev = rec.bids

    def test_damped_bids_match_targets_once_inside_envelope(self):
        sc = canonical_scenario()
        pol = ExponentialDecay(l1=5.0, l2=10.0)
        res = run_allocation(sc.utilities, 60.0, AllocationConfig(decay=pol))
        assert res.converged
        # by the final round the undamped target lies inside the envelope
        last = res.trajectory[-1]
        assert all(bid == last.price * rate for bid, rate in zip(last.bids, last.rates))

    @pytest.mark.parametrize("decay", [None, ExponentialDecay(l1=5.0, l2=10.0)])
    def test_every_price_is_the_previous_bid_sum_over_the_rate(self, decay):
        res = run_allocation(canonical_scenario().utilities, 50.0, AllocationConfig(decay=decay))
        assert res.trajectory[0].price == 6 * 10.0 / 50.0
        for prev, rec in zip(res.trajectory, res.trajectory[1:]):
            assert rec.price * 50.0 == pytest.approx(sum(prev.bids), rel=1e-15)

    def test_trajectory_covers_every_round(self):
        res = run_allocation([LogUtility(k=3.0, r_max=100.0)], 10.0)
        assert [rec.n for rec in res.trajectory] == list(range(1, res.iterations_used + 1))
        assert res.final_rates == res.trajectory[-1].rates
        assert res.final_bids == res.trajectory[-1].bids
        assert res.final_price == res.trajectory[-1].price

    def test_deterministic_trajectories(self):
        sc = canonical_scenario()
        first = run_allocation(sc.utilities, 50.0)
        second = run_allocation(sc.utilities, 50.0)
        assert first == second

    def test_clamped_users_reported(self):
        # a tiny cell prices both users out of the market in round one;
        # a pinned user reports bracket_lo exactly
        users = [LogUtility(k=15.0, r_max=100.0), LogUtility(k=0.5, r_max=100.0)]
        res = run_allocation(users, 0.01)
        lo = SolverConfig().bracket_lo
        assert res.trajectory[0].rates == (lo, lo)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            run_allocation([], 10.0)

    @pytest.mark.parametrize("total_rate", [0.005, 0.001])
    def test_rejects_a_budget_below_the_pinned_floor(self, total_rate):
        # six users each hold at least bracket_lo, so no R < 0.006 clears
        with pytest.raises(ValueError, match=rf"R={total_rate}\b.*floor 0\.006"):
            run_allocation(canonical_scenario().utilities, total_rate)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"max_iter": 0},
            {"initial_bid": 0.0},
            {"delta": math.nan},
            {"delta": math.inf},
            {"initial_bid": math.inf},
            {"initial_bid": math.nan},
            {"max_iter": 2.5},
            {"max_iter": math.nan},
            {"max_iter": True},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            AllocationConfig(**kwargs)

    def test_accepts_a_numpy_integer_max_iter(self):
        res = run_allocation([LogUtility(k=3.0, r_max=100.0)], 10.0, AllocationConfig(max_iter=np.int64(1)))
        assert res.iterations_used == 1
