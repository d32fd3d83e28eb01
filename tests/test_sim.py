import math
from dataclasses import replace

import numpy as np
import pytest

from fairalloc import (
    CONVERGED,
    ITERATION_CAP,
    AllocationConfig,
    ExponentialDecay,
    LogUtility,
    NoRootError,
    Scenario,
    canonical_scenario,
    find_nonconvergent_rate,
    run_allocation,
    run_sweep,
)
from late_rounds import equilibrium_price, late_step, loop_gain


class TestScenario:
    def test_canonical_population(self):
        sc = canonical_scenario()
        assert len(sc.users) == 6
        assert sc.user_ids == ("Sig1", "Sig2", "Sig3", "Log1", "Log2", "Log3")
        sig2 = dict(sc.users)["Sig2"]
        assert (sig2.a, sig2.b) == (3.0, 20.0)
        log3 = dict(sc.users)["Log3"]
        assert (log3.k, log3.r_max) == (0.5, 100.0)
        assert sc.r_values == tuple(float(r) for r in range(5, 101, 5))

    def test_custom_rate_grid(self):
        sc = canonical_scenario(r_values=[30, 60])
        assert sc.r_values == (30.0, 60.0)

    @pytest.mark.parametrize(
        "r_values",
        [
            (),
            (0.0, 10.0),
            (-5.0,),
            (10.0, 10.0),
            (20.0, 10.0),
            (float("nan"),),
            (float("inf"),),
            (30.0, float("nan")),
            (True, 30.0),  # refused, not converted to 1.0
            (10.0, "30"),  # refused, not converted to 30.0
        ],
    )
    def test_rejects_bad_rate_grids(self, r_values):
        with pytest.raises(ValueError):
            canonical_scenario(r_values=r_values)

    def test_names_a_rate_beyond_the_largest_double(self):
        with pytest.raises(ValueError, match=r"r_values\[1\] must be positive and finite, got an integer too large"):
            canonical_scenario(r_values=(30.0, 10**400))

    def test_accepts_a_numpy_rate_grid(self):
        # numpy integers are not ints and float32 is not a float, but both are real numbers
        for r_values in (np.array([30, 60]), (np.int64(30), np.float32(60.5))):
            rates = canonical_scenario(r_values=r_values).r_values
            assert rates == (30.0, float(r_values[1]))
            assert all(type(r) is float for r in rates)

    def test_rejects_duplicate_user_ids(self):
        with pytest.raises(ValueError):
            Scenario(
                name="dup",
                users=(("u", LogUtility(k=1.0, r_max=10.0)), ("u", LogUtility(k=2.0, r_max=10.0))),
                r_values=(10.0,),
            )

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            Scenario(name="empty", users=(), r_values=(10.0,))

    def test_rejects_non_utility_users(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", users=(("u", object()),), r_values=(10.0,))

    def test_rejects_a_non_string_id_instead_of_converting_it(self):
        with pytest.raises(ValueError, match=r"users\[1\]\.id: a user id .* got 5"):
            Scenario(
                name="int",
                users=(("u", LogUtility(k=1.0, r_max=10.0)), (5, LogUtility(k=2.0, r_max=10.0))),
                r_values=(10.0,),
            )


class TestRunSweep:
    def test_scarcer_cell_prices_higher(self):
        sweep = run_sweep(canonical_scenario(r_values=[30.0, 60.0]))
        assert sweep.results[30.0].final_price > sweep.results[60.0].final_price

    def test_points_are_independent(self):
        sc = canonical_scenario(r_values=[30.0, 60.0])
        rounds, alone, first_rounds, direct_rounds = [], [], [], []
        sweep = run_sweep(sc, on_round=rounds.append)
        kept = run_sweep(canonical_scenario(r_values=[60.0]), on_round=alone.append).results[60.0]
        run_allocation(sc.utilities, 30.0, sc.config, first_rounds.append)
        direct = run_allocation(sc.utilities, 60.0, sc.config, direct_rounds.append)
        # the sweep hands over the 30 point's rounds and then exactly the rounds the 60 point makes alone
        assert rounds == first_rounds + direct_rounds
        assert alone == direct_rounds
        assert sweep.results[60.0] == kept == direct

    @pytest.mark.parametrize("r", [20.0, 60.0], ids=["capped", "converged"])
    def test_keeps_each_points_last_round_unless_asked(self, r):
        sc = canonical_scenario(r_values=[r])
        full_rounds, rounds = [], []
        full = run_allocation(sc.utilities, r, sc.config, full_rounds.append)
        streamed = run_sweep(sc, on_round=rounds.append).results[r]
        assert rounds == full_rounds
        kept = run_sweep(sc).results[r]
        assert kept == streamed == full
        assert full.trajectory == (full_rounds[-1],)
        assert kept.iterations_used == full.iterations_used == len(full_rounds) > 1

    @pytest.mark.parametrize("decay", [None, ExponentialDecay(l1=5.0, l2=10.0)], ids=["plain", "damped"])
    def test_every_point_is_its_lone_allocation(self, decay):
        # the canonical sweep holds converged and capped points, plain and damped
        sc = canonical_scenario(config=AllocationConfig(decay=decay))
        swept = []

        def collect_by_point(record):
            if record.n == 1:
                swept.append([])
            swept[-1].append(record)

        kept = run_sweep(sc).results
        streamed = run_sweep(sc, on_round=collect_by_point).results
        assert len(swept) == len(sc.r_values)
        for r, sweep_rounds in zip(sc.r_values, swept):
            rounds = []
            direct = run_allocation(sc.utilities, r, sc.config, rounds.append)
            assert kept[r] == streamed[r] == direct == run_allocation(sc.utilities, r, sc.config)
            assert sweep_rounds == rounds
            assert direct.trajectory == (rounds[-1],)
            assert direct.iterations_used == len(rounds)

    def test_memory_follows_one_point_not_the_sweep(self, traced_peak):
        # Every point below cycles to the cap, so each runs max_iter rounds,
        # and the consumer holds the running point's rounds, as a writer
        # that buffers one file would. The sweep itself keeps one record per
        # finished point, so the four-point peak is its largest one-point
        # peak plus three records. The baseline is the largest one-point
        # peak, because the points' held rounds differ in size: rounds
        # taken from the run's memo share their tuples, so R = 5, whose
        # price repeats early, peaks at about 40 KB and R = 10, which
        # repeats late, at about 120 KB. The four-point
        # peak is about 0.82x the largest.
        config = AllocationConfig(max_iter=200)
        held = []

        def hold_running_point(record):
            if record.n == 1:
                held.clear()
            held.append(record)

        # one-time allocations stay out of the peaks
        run_sweep(canonical_scenario(r_values=[5.0], config=config), on_round=hold_running_point)
        points = ([5.0], [10.0], [15.0], [20.0])
        peaks = {}
        for rates in (*points, [5.0, 10.0, 15.0, 20.0]):
            held.clear()
            scenario = canonical_scenario(r_values=rates, config=config)
            sweep, peaks[len(rates), rates[0]] = traced_peak(run_sweep, scenario, on_round=hold_running_point)
            assert {res.status for res in sweep.results.values()} == {ITERATION_CAP}
            assert len(held) == 200
        assert peaks[4, 5.0] < 1.25 * max(peaks[1, r] for (r,) in points)

    def test_preserves_rate_order(self):
        sweep = run_sweep(canonical_scenario(r_values=[30.0, 60.0, 65.0]))
        assert list(sweep.results) == [30.0, 60.0, 65.0]

    @pytest.mark.parametrize("scenario, error, message", [
        # the lone log user cannot absorb R = 1e12: refused before round 1
        (Scenario(name="starved", users=(("lone", LogUtility(k=0.5, r_max=100.0)),), r_values=(1e12,)),
         ValueError, "total rate R=1000000000000.0 is above the demand ceiling 999999999.97"),
        # R = 1.5e9 is above HI_CAP / 2 but below 2 x HI_CAP: the ceiling is computed there too
        (Scenario(name="starved", users=(("lone", LogUtility(k=0.5, r_max=100.0)),), r_values=(1.5e9,)),
         ValueError, "total rate R=1500000000.0 is above the demand ceiling 999999999.97"),
        # tiny initial bids price R = 1.39e9's first round below every log user's slope at the bracket cap
        (canonical_scenario(r_values=(60.0, 1.39e9), config=AllocationConfig(initial_bid=0.001)),
         NoRootError, "log-slope still above price 4.316546762589928e-12 at rate 1000000000.0"),
        # R = 5e8 is HI_CAP / 2, where the demand ceiling is not computed; the
        # solver's raise is then the only guard (returning HI_CAP instead
        # reports converged after round 1 or 2 with the budget far from clear)
        (canonical_scenario(r_values=(60.0, 5e8), config=AllocationConfig(initial_bid=0.001)),
         NoRootError, "log-slope still above price 1.2e-11 at rate 1000000000.0"),
    ], ids=["above-the-ceiling", "above-the-ceiling-below-twice-the-cap", "round-priced-too-low",
            "round-priced-too-low-without-ceiling"])
    def test_passes_allocation_failures_on_unchanged(self, scenario, error, message):
        with pytest.raises(error) as caught:
            run_sweep(scenario)
        assert type(caught.value) is error and str(caught.value).startswith(message)

    def test_passes_on_round_errors_on_unchanged(self):
        bug = ValueError("my own bug")

        def fail_in_round_2(record):
            if record.n == 2:
                raise bug

        with pytest.raises(ValueError) as caught:
            run_sweep(canonical_scenario(r_values=[60.0]), on_round=fail_in_round_2)
        assert caught.value is bug


def _plain_and_damped(sc, total_rate):
    """The undamped and the damped run at ``total_rate``, and every round of the undamped one."""
    plain_rounds = []
    plain = run_allocation(sc.utilities, total_rate, replace(sc.config, decay=None), plain_rounds.append)
    damped = run_allocation(
        sc.utilities, total_rate, replace(sc.config, decay=ExponentialDecay(l1=5.0, l2=10.0))
    )
    return plain, plain_rounds, damped


class TestDampedAgainstPlain:
    @pytest.mark.parametrize("total_rate", [20.0, 50.0])
    def test_damping_freezes_a_cycling_regime_short_of_the_budget(self, total_rate):
        # R = 20 and 50 price the cell onto the flat stretch of the a = 3 and
        # a = 1 sigmoid: the undamped bids still step by 36.3 and 23.4 in the
        # last 10 of their 1000 rounds. The damped run reports converged only
        # because 5 e^(-n/10) drops below delta at round 86 and freezes the
        # bids, with |sum(r) - R| of 4.68 and 1.83 against the budget bound
        # N delta / p of 0.0020 and 0.0060.
        sc = canonical_scenario()
        plain, plain_rounds, damped = _plain_and_damped(sc, total_rate)
        assert (plain.status, plain.iterations_used) == (ITERATION_CAP, 1000)
        last = plain_rounds[-10:]
        assert max(max(abs(w1 - w0) for w0, w1 in zip(a.bids, b.bids)) for a, b in zip(last, last[1:])) > 0.001
        frozen_at = math.ceil(10.0 * math.log(5.0 / sc.config.delta))
        assert (damped.status, damped.iterations_used) == (CONVERGED, frozen_at)
        bound = len(sc.users) * sc.config.delta / damped.final_price
        assert abs(sum(damped.final_rates) - total_rate) > bound

    def test_mutually_convergent_point_reaches_the_same_rates(self):
        plain, plain_rounds, damped = _plain_and_damped(canonical_scenario(), 30.0)
        assert plain.converged and damped.converged
        # residual motion just before settling, nowhere near cycling amplitude
        assert late_step(plain_rounds) <= 10 * 0.001
        for r_plain, r_damped in zip(plain.final_rates, damped.final_rates):
            assert abs(r_plain - r_damped) <= 10 * 0.001


class TestFindNonconvergentRate:
    def test_finds_the_cycling_band_below_the_inflection_mass(self):
        assert find_nonconvergent_rate(canonical_scenario(), start=20.0, step=10.0, limit=60.0) == 20.0

    def test_loop_gain_stays_within_the_documented_bound(self):
        # the docstring's and README's |g| <= 0.72 over the default search grid;
        # the largest is 0.7155, at R = 100
        sc = canonical_scenario()
        gains = [loop_gain(sc, r, equilibrium_price(sc, r)) for r in (100.0 * k for k in range(1, 101))]
        assert max(map(abs, gains)) <= 0.72

    def test_default_sweep_loop_gains_match_the_documented_bounds(self):
        # README: every settled point of the default sweep has |g| <= 0.92 and
        # every capped one |g| > 2.3; the extremes are 0.9177 at R = 65 and
        # 2.3475 at R = 10
        sc = canonical_scenario()
        gains = {r: abs(loop_gain(sc, r, equilibrium_price(sc, r))) for r in sc.r_values}
        settled = {r for r in sc.r_values if run_allocation(sc.utilities, r, sc.config).converged}
        assert max(gains[r] for r in settled) <= 0.92
        assert min(gains[r] for r in gains.keys() - settled) > 2.3
