import math
import tracemalloc

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
    protocol,
    run_allocation,
)
from late_rounds import first_repeat, plain_rounds, price_period
from mp_roots import mp_equilibrium


def first_round(utilities, total_rate, **config):
    return run_allocation(utilities, total_rate, AllocationConfig(max_iter=1, **config)).trajectory[0]


def max_move(bids, prev_bids):
    return max(abs(w - w0) for w, w0 in zip(bids, prev_bids))


def streamed(utilities, total_rate, config=AllocationConfig()):
    """Every round ``run_allocation`` streams, as ``(n, price, bids, rates)``, with its status and round count."""
    rounds = []
    res = run_allocation(utilities, total_rate, config, rounds.append)
    assert res.trajectory == (rounds[-1],)
    return [(r.n, r.price, r.bids, r.rates) for r in rounds], res.status, res.iterations_used


@pytest.fixture
def solves(monkeypatch):
    """A list that counts each ``solve_user_rate`` call ``run_allocation`` makes."""
    calls = []

    def counted(*args):
        calls.append(None)
        return solve(*args)

    solve = protocol.solve_user_rate
    monkeypatch.setattr(protocol, "solve_user_rate", counted)
    return calls


class TestShadowPrice:
    """The price each round announces: the outstanding bids over the cell rate."""

    def test_initial_bids_over_matching_rate(self):
        assert first_round(canonical_scenario().utilities, 60.0).price == 1.0

    def test_doubling_the_rate_halves_the_price(self):
        assert first_round(canonical_scenario().utilities, 120.0).price == 0.5

    def test_single_user_identity(self):
        # p * R recovers the lone bid of the round before
        rounds = []
        run_allocation([LogUtility(k=3.0, r_max=100.0)], 41.0, on_round=rounds.append)
        assert len(rounds) > 2
        for prev, rec in zip(rounds, rounds[1:]):
            assert rec.price * 41.0 == pytest.approx(prev.bids[0], rel=1e-15)

    @pytest.mark.parametrize("rate", [0.0, -5.0, math.inf, math.nan, "30", True])
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
            for total_rate in (5.0, 60.0, 150.0):  # under each lone user's demand ceiling (Sig1: 151.8)
                rounds = []
                run_allocation([u], total_rate, AllocationConfig(max_iter=5), rounds.append)
                for rec in rounds:
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
        damped, plain = [], []
        assert run_allocation(users, 60.0, wide, damped.append) == run_allocation(users, 60.0, on_round=plain.append)
        assert damped == plain

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
        with pytest.raises(ValueError, match=r"decay constant l[123] must be positive and finite"):
            make()


class TestCheckConvergence:
    """The loop stops at the first round in which no bid moved by more than delta."""

    def test_within_threshold(self):
        rounds = []
        res = run_allocation(canonical_scenario().utilities, 60.0, on_round=rounds.append)
        assert res.converged
        prev = rounds[-2].bids
        assert max_move(res.final_bids, prev) <= 0.001

    def test_single_coordinate_exceeding(self):
        # every earlier round had a bid that moved by more than delta
        rounds = []
        run_allocation(canonical_scenario().utilities, 60.0, on_round=rounds.append)
        prev = (10.0,) * 6
        for rec in rounds[:-1]:
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
        # undamped bids cycle forever (late prices repeat every 3 rounds).
        sc = canonical_scenario()
        rounds = []
        res = run_allocation(sc.utilities, 50.0, on_round=rounds.append)
        assert res.status == ITERATION_CAP
        assert res.iterations_used == 1000
        last_steps = [
            max(abs(w1 - w0) for w0, w1 in zip(a.bids, b.bids))
            for a, b in zip(rounds[-10:], rounds[-9:])
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
        rounds = []
        run_allocation(sc.utilities, 60.0, on_round=rounds.append)
        for rec in rounds:
            assert rec.n >= 1
            assert rec.price > 0.0
            assert len(rec.bids) == len(rec.rates) == 6
            for bid, rate in zip(rec.bids, rec.rates):
                assert bid == rec.price * rate  # definition of the bid

    def test_decay_envelope_bounds_every_step(self):
        sc = canonical_scenario()
        pol = ExponentialDecay(l1=5.0, l2=10.0)
        rounds = []
        run_allocation(sc.utilities, 50.0, AllocationConfig(decay=pol), rounds.append)
        prev = (10.0,) * 6
        for rec in rounds:
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
        rounds = []
        run_allocation(canonical_scenario().utilities, 50.0, AllocationConfig(decay=decay), rounds.append)
        assert rounds[0].price == 6 * 10.0 / 50.0
        for prev, rec in zip(rounds, rounds[1:]):
            assert rec.price * 50.0 == pytest.approx(sum(prev.bids), rel=1e-15)

    def test_trajectory_covers_every_round(self):
        # every round is streamed in order; the result keeps only the last
        rounds = []
        res = run_allocation([LogUtility(k=3.0, r_max=100.0)], 10.0, on_round=rounds.append)
        assert [rec.n for rec in rounds] == list(range(1, res.iterations_used + 1))
        assert res.trajectory == (rounds[-1],)
        assert res.final_rates == rounds[-1].rates
        assert res.final_bids == rounds[-1].bids
        assert res.final_price == rounds[-1].price

    def test_deterministic_trajectories(self):
        sc = canonical_scenario()
        rounds = [], []
        first = run_allocation(sc.utilities, 50.0, on_round=rounds[0].append)
        second = run_allocation(sc.utilities, 50.0, on_round=rounds[1].append)
        assert first == second
        assert rounds[0] == rounds[1]

    def test_clamped_users_reported(self):
        # a tiny cell prices both users out of the market in round one;
        # a pinned user reports bracket_lo exactly
        users = [LogUtility(k=15.0, r_max=100.0), LogUtility(k=0.5, r_max=100.0)]
        rounds = []
        run_allocation(users, 0.01, on_round=rounds.append)
        lo = SolverConfig().bracket_lo
        assert rounds[0].rates == (lo, lo)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            run_allocation([], 10.0)

    @pytest.mark.parametrize("total_rate", [0.005, 0.001])
    def test_rejects_a_budget_below_the_pinned_floor(self, total_rate):
        # six users each hold at least bracket_lo, so no R < 0.006 clears
        with pytest.raises(ValueError, match=rf"R={total_rate}\b.*floor 0\.006"):
            run_allocation(canonical_scenario().utilities, total_rate)

    @pytest.mark.parametrize("total_rate", [3e9, 1e10])
    def test_rejects_a_budget_above_the_demand_ceiling(self, total_rate):
        # no root lies past HI_CAP = 1e9, so no price below p_min = max log_slope(HI_CAP)
        # is met, and at p_min the six users take only about 2.7817e9 (3e9 died in round 3)
        with pytest.raises(ValueError, match=rf"R={total_rate}\b.*demand ceiling 2781716593\."):
            run_allocation(canonical_scenario().utilities, total_rate)

    def test_runs_a_budget_just_under_the_demand_ceiling(self):
        res = run_allocation(canonical_scenario().utilities, 2.78e9)
        assert (res.status, res.iterations_used) == (CONVERGED, 3)
        assert res.final_price == 5.065795617831995e-11  # as before the ceiling check existed

    @pytest.mark.parametrize("total_rate", [891.0, 1e3, 1e9])
    def test_all_sigmoid_ceiling_at_the_lowest_price(self, total_rate):
        # both log-slopes are 0.0 at HI_CAP, so the ceiling is the demand at the
        # smallest positive price, the lowest a round can announce: no R above it clears
        users = [SigmoidUtility(a=5.0, b=10.0), SigmoidUtility(a=1.0, b=30.0)]
        with pytest.raises(ValueError, match=rf"R={total_rate}\b.*demand ceiling 890\.8000000260629\b.*\(5e-324\)"):
            run_allocation(users, total_rate)
        run_allocation(users, 890.0)  # just under the ceiling: runs

    @pytest.mark.parametrize(
        "user", [LogUtility(k=1e-30, r_max=1e30), SigmoidUtility(a=1e-30, b=10.0)], ids=["log", "sigmoid"]
    )
    def test_solves_a_slope_scale_that_underflows_at_the_floor(self, user):
        # k * bracket_lo (or a * bracket_lo) rounds to 0, where log_slope returns its 1/r limit
        config = AllocationConfig(solver=SolverConfig(bracket_lo=1e-300))
        users = [LogUtility(k=3.0, r_max=100.0), user]
        result = run_allocation(users, 30.0, config)
        assert result.status == CONVERGED
        # each best response falls with the price, so no user's rate is further
        # from its equilibrium rate than the total is from the budget
        bound = len(users) * config.delta / result.final_price
        assert abs(sum(result.final_rates) - 30.0) <= bound
        _, rates = mp_equilibrium(users, 30.0, config.solver.bracket_lo)
        for rate, want in zip(result.final_rates, rates):
            assert abs(rate - want) <= bound

    def test_accepts_a_subnormal_slope_scale_at_the_floor(self):
        # k * bracket_lo = 1e-310 is subnormal, not 0, so the log-slope evaluates there
        u = LogUtility(k=1e-10, r_max=1e10)
        config = AllocationConfig(solver=SolverConfig(bracket_lo=1e-300))
        result = run_allocation([u], 5.0, config)
        assert result.status == CONVERGED
        assert result.final_rates[0] == pytest.approx(5.0, rel=1e-8)

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
            {"delta": "0.1"},  # refused, not compared with a float
            {"initial_bid": True},  # refused, not read as 1
            {"delta": 10**400},  # beyond the largest double: named, not a bare OverflowError
            {"initial_bid": -10**400},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            AllocationConfig(**kwargs)

    def test_accepts_a_numpy_integer_max_iter(self):
        res = run_allocation([LogUtility(k=3.0, r_max=100.0)], 10.0, AllocationConfig(max_iter=np.int64(1)))
        assert res.iterations_used == 1


class TestCycleReplay:
    """A round whose price came before takes its rates and bids from the run's memo instead of solving again.

    A round's rates depend on its price alone, so the memo must stream
    exactly the rounds the loop computes one by one. The memo evicts its
    least recently used price, so a plain run whose price repeats bit for
    bit with a period no longer than the memo's entries solves no round
    after the first repeat.
    """

    def test_default_sweep_streams_the_computed_rounds(self, solves):
        sc = canonical_scenario()
        for r in sc.r_values:
            rounds, status = plain_rounds(sc.utilities, r, sc.config)
            assert streamed(sc.utilities, r) == (rounds, status, len(rounds))
        # 56,622 solves without the memo: 9,437 rounds of six users
        assert len(solves) == 14_010

    def test_every_rate_of_the_dense_grid_streams_the_computed_rounds(self, solves):
        # A capped point whose bids first repeat at round n solves the n - 1
        # rounds before it. A plain round's bids are a function of its price,
        # so no price repeats before the bids do; on this grid the price
        # repeats in that same round, and every period fits in the memo's
        # 341 entries. Every other point solves every round.
        utilities = canonical_scenario().utilities
        capped = repeated = 0
        for r in range(2, 121):
            rounds, status = plain_rounds(utilities, float(r), AllocationConfig())
            solves.clear()
            records = []
            result = run_allocation(utilities, float(r), AllocationConfig(), records.append)
            assert [(rec.n, rec.price, rec.bids, rec.rates) for rec in records] == rounds
            assert (result.status, result.trajectory) == (status, (records[-1],))
            repeat = first_repeat(records, AllocationConfig().initial_bid) if status == ITERATION_CAP else None
            assert len(solves) == 6 * (repeat[0] - 1 if repeat else len(rounds)), r
            capped += status == ITERATION_CAP
            repeated += repeat is not None
        assert (capped, repeated) == (47, 40)

    @pytest.mark.parametrize("max_iter", [*range(35, 41), *range(63, 71)])
    def test_runs_that_end_around_the_buffered_period(self, solves, max_iter):
        # R = 5's bids first repeat at round 38 with period 2: rounds 36 and
        # 37 put the period's two prices in the memo, and every round from 38
        # on takes its rates from there. Runs end before the period is held,
        # on its first and second reuse, just after, and well after it.
        config = AllocationConfig(max_iter=max_iter)
        utilities = canonical_scenario().utilities
        rounds, status = plain_rounds(utilities, 5.0, config)
        assert streamed(utilities, 5.0, config) == (rounds, status, max_iter)
        assert len(solves) == 6 * min(max_iter, 37)

    def test_a_damped_run_takes_repeated_prices_from_the_memo(self, solves):
        # an envelope that never binds leaves R = 5's run the plain one, so
        # the damped run also solves only the 37 rounds before its first repeat
        config = AllocationConfig(max_iter=200, decay=ExponentialDecay(l1=1e9, l2=1e9))
        utilities = canonical_scenario().utilities
        rounds, status = plain_rounds(utilities, 5.0, config)
        solves.clear()
        assert streamed(utilities, 5.0, config) == (rounds, status, 200)
        assert len(solves) == 6 * 37

    @pytest.mark.parametrize("copies,first", [(120, 38), (100, 41)])
    def test_a_cycle_that_fits_the_memo_is_solved_once(self, solves, copies, first):
        # copies of the six users at R = copies x 5 repeat their bids first at
        # round 38 (120 copies, memo of 2 entries) or 41 (100 copies, 3
        # entries), both with period 2. The period fits, so no round from
        # the first repeat on is solved, wherever the memo filled up.
        utilities = canonical_scenario().utilities * copies
        config = AllocationConfig(max_iter=60)
        rounds, status = plain_rounds(utilities, 5.0 * copies, config)
        solves.clear()
        records = []
        result = run_allocation(utilities, 5.0 * copies, config, records.append)
        assert [(rec.n, rec.price, rec.bids, rec.rates) for rec in records] == rounds
        assert (result.status, first_repeat(records, config.initial_bid)) == (status, (first, 2))
        assert len(solves) == len(utilities) * (first - 1)

    def test_a_cycle_too_long_to_buffer_is_solved_again(self, solves):
        # 120 copies of the six users at R = 120 x 40 cycle exactly with
        # period 12 from round 91, but the memo's 4096 floats hold only two
        # rounds of 720 users, so each price is evicted before it comes
        # round again and every round is solved.
        utilities = canonical_scenario().utilities * 120
        config = AllocationConfig(max_iter=200)
        rounds, status = plain_rounds(utilities, 4800.0, config)
        solves.clear()
        assert streamed(utilities, 4800.0, config) == (rounds, status, 200)
        assert protocol._MEMO_FLOATS // (2 * len(utilities)) < 12
        assert len(solves) == len(utilities) * 200

    def test_the_memo_stays_bounded_however_long_the_run(self):
        # R = 20 cycles to the cap with no exact repeat, so the memo fills
        # at round 341 and evicts a price every round from then on. A run
        # peaks at about 115 KB at 1000 rounds and at 2000 (1.01x); an
        # unbounded memo grows with the run.
        utilities = canonical_scenario().utilities
        # one-time allocations, a full memo's among them, stay out of the peaks
        run_allocation(utilities, 20.0, AllocationConfig(max_iter=400))
        peaks = {}
        for n in (1000, 2000):
            tracemalloc.start()
            try:
                result = run_allocation(utilities, 20.0, AllocationConfig(max_iter=n))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (result.status, result.iterations_used) == (ITERATION_CAP, n)
        assert peaks[2000] <= 1.2 * peaks[1000]

    def test_documented_periods(self):
        # README: the capped points of the default sweep and their periods
        sc = canonical_scenario()
        capped = {}
        for r in sc.r_values:
            rounds = []
            if run_allocation(sc.utilities, r, sc.config, rounds.append).status == ITERATION_CAP:
                capped[r] = (price_period(rounds), first_repeat(rounds, sc.config.initial_bid))
        assert list(capped) == [5.0, 10.0, 15.0, 20.0, 25.0, 40.0, 45.0, 50.0, 55.0]
        assert [price for price, _ in capped.values()] == [2, 6, 6, None, 4, 6, 2, 3, 5]
        assert [exact for _, exact in capped.values()] == [
            (38, 2), (193, 12), (225, 6), None, (76, 4), (86, 6), (135, 2), (95, 6), (58, 5)]
