"""Seeded population audit: the undamped loop's stability claims beyond the six reference users.

Each population draws n = rng.integers(3, 40) from
``numpy.random.default_rng(seed)``, then n users from the same generator
by ``populations.seeded_scenario``. The cell rate is a multiple of the
sigmoids' summed inflection rates Σb.

Over seeds 0-29 at {0.3, 0.6, 0.9, 1.2, 2, 4} x Σb (180 runs, about 12 s)
every run with |g| > 1 capped, every converged run cleared the budget
within n*δ/p, and every capped run's late prices straddled p*. The audit
below re-checks those claims on seeds 0-9 at 0.6, 0.9 and 1.2 x Σb
(8 capped and 22 converged runs, under 2 s). The 180 runs also hold two
runs with |g| < 1 that still cap: the stable fixed point coexists there
with another attractor, so |g| < 1 does not imply settling.
"""

from dataclasses import replace

import numpy as np
import pytest

from fairalloc import ITERATION_CAP, Scenario, run_allocation
from late_rounds import equilibrium_price, loop_gain, straddles
from populations import seeded_scenario


def population(seed: int, factor: float) -> Scenario:
    """Seed ``seed``'s users at the cell rate ``factor`` x Σb."""
    rng = np.random.default_rng(seed)
    return seeded_scenario(f"seed{seed}", rng, int(rng.integers(3, 40)), (factor,))


@pytest.mark.parametrize(
    "seed, factor, n, gain",
    [(22, 0.3, 31, 0.579), (25, 0.6, 21, 0.499)],
    ids=["seed22-0.3", "seed25-0.6"],
)
def test_a_stable_fixed_point_coexists_with_a_cycle(seed, factor, n, gain):
    sc = population(seed, factor)
    (total_rate,) = sc.r_values
    p_star = equilibrium_price(sc, total_rate)
    assert len(sc.users) == n
    assert loop_gain(sc, total_rate, p_star) == pytest.approx(gain, abs=5e-4)
    from_default_bids = run_allocation(sc.utilities, total_rate, sc.config)
    assert from_default_bids.status == ITERATION_CAP
    # started at the equilibrium bid, the same run settles at once
    at_equilibrium = replace(sc.config, initial_bid=p_star * total_rate / n)
    settled = run_allocation(sc.utilities, total_rate, at_equilibrium)
    assert settled.converged and settled.iterations_used == 2


def test_stability_claims_hold_on_seeded_populations():
    problems = []
    statuses = []
    for seed in range(10):
        for factor in (0.6, 0.9, 1.2):
            sc = population(seed, factor)
            (total_rate,) = sc.r_values
            p_star = equilibrium_price(sc, total_rate)
            g = loop_gain(sc, total_rate, p_star)
            rounds = []
            res = run_allocation(sc.utilities, total_rate, sc.config, rounds.append)
            statuses.append(res.status)
            case = f"seed {seed} at {factor} x Σb (n={len(sc.users)}, g={g:.3g})"
            if res.converged:
                gap = abs(sum(res.final_rates) - total_rate)
                bound = len(sc.users) * sc.config.delta / res.final_price
                if gap > bound:
                    problems.append(f"{case}: converged with |Σr - R| = {gap:.3g} > {bound:.3g}")
            elif not straddles(rounds, p_star):
                problems.append(f"{case}: late prices miss p* = {p_star:.4g}")
            if abs(g) > 1.0 and res.converged:
                problems.append(f"{case}: converged although |g| > 1")
    assert not problems, "; ".join(problems)
    assert statuses.count(ITERATION_CAP) == 8  # both branches stay exercised
