import math

import numpy as np
import pytest

from fairalloc import (
    CONVERGED,
    ITERATION_CAP,
    AllocationConfig,
    ExponentialDecay,
    IterationRecord,
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
    """Every round ``run_allocation`` streams, with its status and round count."""
    rounds = []
    res = run_allocation(utilities, total_rate, config, rounds.append)
    assert res.trajectory == (rounds[-1],)
    return rounds, res.status, res.iterations_used


def memo_entries(utilities):
    """How many prices a run of these users remembers: two floats per user per price."""
    return protocol._MEMO_FLOATS // (2 * len(utilities))


def memo_solves(utilities, rounds):
    """The solves an undamped run of ``rounds`` makes, by its memo's law.

    Every round before the first repeated price is solved. From there the
    run cycles: a period that fits the memo's entries is replayed and never
    solved again, wherever the memo filled up, and a longer one is evicted
    before it comes round, so every round is solved.
    """
    repeat = first_repeat(rounds)
    if repeat and repeat[1] <= memo_entries(utilities):
        return len(utilities) * (repeat[0] - 1)
    return len(utilities) * len(rounds)


def copies_run(copies):
    """``copies`` copies of the six users at R = copies x 5, run for 60 rounds by the reference loop.

    Returns the users, the config, and ``plain_rounds``' rounds and status.
    """
    utilities = canonical_scenario().utilities * copies
    config = AllocationConfig(max_iter=60)
    return utilities, config, *plain_rounds(utilities, 5.0 * copies, config)


def exact_run(total_rate):
    """The reference loop's rounds and status for the six users with delta 5e-324, the smallest double."""
    return plain_rounds(canonical_scenario().utilities, total_rate, AllocationConfig(delta=5e-324))


# R = 5's undamped run from the default bids: the round whose price first
# repeats an earlier one bit for bit, and the period from there. The
# reference loop computes them, so they follow the price's rounding.
R5_FIRST, R5_PERIOD = first_repeat(plain_rounds(canonical_scenario().utilities, 5.0, AllocationConfig())[0])


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


class TestDecayEnvelope:
    """ExponentialDecay and RationalDecay cut a bid move larger than dw(n) back to old_bid +/- dw(n)."""

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

    def test_default_constants(self):
        assert (ExponentialDecay(), RationalDecay()) == (ExponentialDecay(l1=5.0, l2=10.0), RationalDecay(l3=5.0))

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


class TestRunAllocation:
    def test_single_user_absorbs_the_whole_cell(self):
        u = LogUtility(k=3.0, r_max=100.0)
        res = run_allocation([u], 10.0)
        assert res.converged
        # at the fixed point the budget clears: |sum r - R| <= M delta / p
        assert abs(res.final_rates[0] - 10.0) <= 1 * 0.001 / res.final_price

    def test_first_order_optimality_at_convergence(self):
        sc = canonical_scenario()
        res = run_allocation(sc.utilities, 60.0)
        assert SolverConfig().bracket_lo not in res.final_rates  # no user is pinned
        for u, r in zip(sc.utilities, res.final_rates):
            assert abs(u.log_slope(r) - res.final_price) / res.final_price <= 1e-6

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
            assert rec.price * 50.0 == pytest.approx(sum(prev.bids), rel=1e-15, abs=0)

    def test_trajectory_covers_every_round(self):
        # every round is streamed in order; the result keeps only the last
        rounds = []
        res = run_allocation([LogUtility(k=3.0, r_max=100.0)], 10.0, on_round=rounds.append)
        assert [rec.n for rec in rounds] == list(range(1, res.iterations_used + 1))
        assert res.trajectory == (rounds[-1],)
        assert res.final_rates == rounds[-1].rates
        assert res.final_bids == rounds[-1].bids
        assert res.final_price == rounds[-1].price

    def test_clamped_users_reported(self):
        # a tiny cell prices both users out of the market in round one;
        # a pinned user reports bracket_lo exactly
        users = [LogUtility(k=15.0, r_max=100.0), LogUtility(k=0.5, r_max=100.0)]
        rounds = []
        run_allocation(users, 0.01, on_round=rounds.append)
        lo = SolverConfig().bracket_lo
        assert rounds[0].rates == (lo, lo)

    def test_zero_step_always_converged(self):
        # a cell exactly at the floor pins its lone user, who bids (w/R) * R = w again
        lo = SolverConfig().bracket_lo
        res = run_allocation([LogUtility(k=0.5, r_max=100.0)], lo, AllocationConfig(delta=1e-300))
        assert res.status == CONVERGED
        assert res.iterations_used == 1
        assert res.final_bids == (10.0,)

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            run_allocation([], 10.0)

    @pytest.mark.parametrize("rate", [0.0, -5.0, math.inf, math.nan, "30", True])
    def test_rejects_bad_total_rate(self, rate):
        with pytest.raises(ValueError, match="total rate"):
            run_allocation([LogUtility(k=3.0, r_max=100.0)], rate)

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
        assert result.final_rates[0] == pytest.approx(5.0, rel=1e-8, abs=0)

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


class TestIterationRecord:
    """A round is a named tuple ``(n, price, bids, rates)``."""

    def test_fields_cannot_be_assigned(self):
        record = first_round(canonical_scenario().utilities, 60.0)
        with pytest.raises(AttributeError):
            record.price = 2.0

    def test_fields_unpack_in_order(self):
        record = first_round(canonical_scenario().utilities, 60.0)
        assert IterationRecord._fields == ("n", "price", "bids", "rates")
        n, price, bids, rates = record
        assert (n, price) == (record.n, record.price) == (1, 1.0)
        assert (bids, rates) == (record.bids, record.rates)

    def test_a_memo_hit_shares_the_computed_tuples(self):
        # R = 5's price repeats from round R5_FIRST on; each repeat hands
        # back the very tuples of the round that solved that price
        records = []
        run_allocation(canonical_scenario().utilities, 5.0, on_round=records.append)
        latest, hits = {}, 0
        for rec in records:
            if rec.price in latest:
                assert rec.bids is latest[rec.price].bids and rec.rates is latest[rec.price].rates, rec.n
                hits += 1
            latest[rec.price] = rec
        assert hits == len(records) - (R5_FIRST - 1)


class TestCycleReplay:
    """A round whose price came before takes its rates and bids from the run's memo instead of solving again.

    If that round does not settle, the run replays the cycle it closed to
    the cap. A round's rates depend on its price alone, so the memo and the
    replay must stream exactly the rounds the loop computes one by one and
    move-tests, and ``memo_solves`` gives how many solves it makes. Only
    the first and last tests pin figures of today's orbits: the benchmark
    sweeps' round and solve counts, and README's cycles.
    """

    def test_benchmark_sweeps_take_the_pinned_rounds_and_solves(self, solves):
        # The benchmark's canonical-plain (the default sweep, undamped) and
        # canonical-damped-dense (R = 2..120 under 5 e^(-n/10)) workloads,
        # whose counts are pinned here and nowhere else in tier-1.
        sc = canonical_scenario()
        total = 0
        for r in sc.r_values:
            rounds, status = plain_rounds(sc.utilities, r, sc.config)
            assert streamed(sc.utilities, r) == (rounds, status, len(rounds))
            total += len(rounds)
        # 56,622 solves without the memo, six a round
        assert (total, len(solves)) == (9437, 14_010)
        damped = AllocationConfig(decay=ExponentialDecay(l1=5.0, l2=10.0))
        solves.clear()
        total = sum(run_allocation(sc.utilities, float(r), damped).iterations_used for r in range(2, 121))
        assert (total, len(solves)) == (6733, 40_398)

    def test_every_rate_of_the_dense_grid_streams_the_computed_rounds(self, solves):
        utilities = canonical_scenario().utilities
        capped = repeated = 0
        for r in range(2, 121):
            rounds, status = plain_rounds(utilities, float(r), AllocationConfig())
            solves.clear()
            assert streamed(utilities, float(r)) == (rounds, status, len(rounds))
            assert len(solves) == memo_solves(utilities, rounds), r
            capped += status == ITERATION_CAP
            repeated += first_repeat(rounds) is not None
        assert (capped, repeated) == (47, 40)

    @pytest.mark.parametrize(
        "max_iter", [*range(R5_FIRST - R5_PERIOD - 1, R5_FIRST + R5_PERIOD + 1), *range(R5_FIRST + 25, R5_FIRST + 33)]
    )
    def test_runs_that_end_around_the_buffered_period(self, solves, max_iter):
        # The R5_PERIOD rounds before R = 5's first repeat put the period's
        # prices in the memo, and every round from R5_FIRST on takes its
        # rates from there. Runs end before the period is held, while it is
        # filled, on its first and second reuse, just after, and well after it.
        config = AllocationConfig(max_iter=max_iter)
        utilities = canonical_scenario().utilities
        rounds, status = plain_rounds(utilities, 5.0, config)
        assert streamed(utilities, 5.0, config) == (rounds, status, max_iter)
        assert len(solves) == 6 * min(max_iter, R5_FIRST - 1)

    @pytest.mark.parametrize("r", [60.0, 100.0, 115.0],
                             ids=lambda r: "{:g}-{}-lag{}".format(r, *first_repeat(exact_run(r)[0])))
    def test_the_first_repeated_round_is_move_tested(self, solves, r):
        # With delta the smallest double a run settles only on a zero move,
        # so a price that repeats on the next round ends the run on the
        # repeated round's own move test, and a longer lag replays its cycle
        # to the cap. Each case is named by its first repeated round and lag.
        rounds, status = exact_run(r)
        first, lag = first_repeat(rounds)
        assert (status, len(rounds)) == ((CONVERGED, first) if lag == 1 else (ITERATION_CAP, 1000))
        utilities = canonical_scenario().utilities
        solves.clear()
        assert streamed(utilities, r, AllocationConfig(delta=5e-324)) == (rounds, status, len(rounds))
        assert len(solves) == 6 * (first - 1)

    def test_a_damped_run_solves_every_round(self, solves):
        # An envelope that never binds leaves each run the plain one, but a
        # damped run keeps no memo and solves every round. R = 5's price
        # repeats with lag 2 from round R5_FIRST on; with delta the smallest
        # double, R = 60's repeats on the next round and settles there, so
        # even a one-round memo would skip a solve.
        wide = ExponentialDecay(l1=1e9, l2=1e9)
        utilities = canonical_scenario().utilities
        for r, config in ((5.0, AllocationConfig(max_iter=200, decay=wide)),
                          (60.0, AllocationConfig(delta=5e-324, decay=wide))):
            rounds, status = plain_rounds(utilities, r, config)
            assert first_repeat(rounds) is not None, r
            solves.clear()
            assert streamed(utilities, r, config) == (rounds, status, len(rounds))
            assert len(solves) == 6 * len(rounds), r

    @pytest.mark.parametrize("copies", [120, 100], ids=lambda copies: f"{copies}-{first_repeat(copies_run(copies)[2])[0]}")
    def test_a_cycle_that_fits_the_memo_is_solved_once(self, solves, copies):
        # Copies of the six users at R = copies x 5 hold memos of 2 (120
        # copies) or 3 (100 copies) entries; each case is named by the round
        # whose price first repeats. A period that fits is solved once,
        # wherever the memo filled up.
        utilities, config, rounds, status = copies_run(copies)
        solves.clear()
        assert streamed(utilities, 5.0 * copies, config) == (rounds, status, 60)
        assert len(solves) == memo_solves(utilities, rounds)

    def test_a_copies_cycle_fits_a_memo_that_filled_first(self):
        # the cases above show "wherever the memo filled up" only if one of
        # them fits a memo that was already evicting before the price repeated
        fits_a_full_memo = False
        for copies in (120, 100):
            utilities, _, rounds, _ = copies_run(copies)
            repeat = first_repeat(rounds)
            fits_a_full_memo |= repeat is not None and repeat[1] <= memo_entries(utilities) < repeat[0] - 1
        assert fits_a_full_memo

    def test_a_cycle_too_long_to_buffer_is_solved_again(self, solves):
        # 120 copies of the six users at R = 120 x 40 cycle exactly, but the
        # memo's 4096 floats hold only two rounds of 720 users, so each price
        # is evicted before it comes round again and every round is solved.
        utilities = canonical_scenario().utilities * 120
        config = AllocationConfig(max_iter=200)
        rounds, status = plain_rounds(utilities, 4800.0, config)
        solves.clear()
        assert streamed(utilities, 4800.0, config) == (rounds, status, 200)
        _, period = first_repeat(rounds)
        assert period > memo_entries(utilities)
        assert len(solves) == len(utilities) * 200

    def test_the_memo_stays_bounded_however_long_the_run(self, traced_peak):
        # R = 20 cycles to the cap with no exact repeat, so the memo fills
        # at round 341 and evicts a price every round from then on. A run
        # peaks at about 115 KB at 1000 rounds and at 2000 (1.01x); an
        # unbounded memo grows with the run.
        utilities = canonical_scenario().utilities
        # one-time allocations, a full memo's among them, stay out of the peaks
        run_allocation(utilities, 20.0, AllocationConfig(max_iter=400))
        peaks = {}
        for n in (1000, 2000):
            result, peaks[n] = traced_peak(run_allocation, utilities, 20.0, AllocationConfig(max_iter=n))
            assert (result.status, result.iterations_used) == (ITERATION_CAP, n)
        assert peaks[2000] <= 1.2 * peaks[1000]

    def test_documented_periods(self):
        # README: the capped points of the default sweep and their periods
        sc = canonical_scenario()
        capped = {}
        for r in sc.r_values:
            rounds = []
            if run_allocation(sc.utilities, r, sc.config, rounds.append).status == ITERATION_CAP:
                capped[r] = (price_period(rounds), first_repeat(rounds))
        assert list(capped) == [5.0, 10.0, 15.0, 20.0, 25.0, 40.0, 45.0, 50.0, 55.0]
        assert [price for price, _ in capped.values()] == [2, 6, 6, None, 4, 6, 2, 3, 5]
        assert [exact for _, exact in capped.values()] == [
            (38, 2), (193, 12), (225, 6), None, (76, 4), (86, 6), (135, 2), (95, 6), (58, 5)]
