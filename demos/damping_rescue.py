"""Where the undamped loop cycles, and what the decay envelope does there.

A sigmoid's log U is nearly linear below its inflection (slope hugging
the steepness a), so the best response to a price near a swings across
the whole stretch on microscopic price moves. Whenever the equilibrium
leaves one sigmoid user marginal, the synchronous loop cycles round
the equilibrium price instead of settling (with periods from 2 to 6 on
the default sweep, and no period at R = 20). This script measures where
that happens, confirms the regime boundary, and runs the exponential
decay envelope dw(n) = 5 exp(-n/10) at R = 20. The envelope always ends the
run, since it caps every bid step, but it reaches the allocation only
when the budget clears; at R = 20 it freezes the bids with the sum of
the rates far from R.
"""

from dataclasses import replace

from fairalloc import ExponentialDecay, canonical_scenario, find_nonconvergent_rate, run_allocation

scenario = canonical_scenario()

print("scan R = 2..120: does the undamped loop settle?")
bands, current = [], None
for R in range(2, 121, 2):
    res = run_allocation(scenario.utilities, float(R), replace(scenario.config, decay=None))
    if not res.converged:
        current = [R, R] if current is None else [current[0], R]
    elif current is not None:
        bands.append(tuple(current))
        current = None
if current is not None:
    bands.append(tuple(current))
print(f"  cycling bands (R ranges at scan resolution 2): {bands}")
print("  the sigmoid steepnesses are 5, 3, 1; each band is the range of R that")
print("  prices the cell onto one sigmoid's flat stretch. Summed inflections = 60.")

print("\nupward search for a non-convergent R above 60 (steps of 100):")
found = find_nonconvergent_rate(scenario, start=100.0, step=100.0, limit=10_000.0)
print(f"  result: {found!r} (the loop only contracts up there; scarcity, not abundance,")
print("  is what destabilizes this population)")

print("\nthe worst band at R = 20:")
plain_rounds = []
plain = run_allocation(scenario.utilities, 20.0, replace(scenario.config, decay=None), on_round=plain_rounds.append)
print(f"  undamped: {plain.status} after {plain.iterations_used} rounds")
print("  last rounds of the undamped run (price flips around the a=3 stretch):")
for rec in plain_rounds[-6:]:
    print(f"    n={rec.n:4d} price={rec.price:.4f} Sig2 rate={rec.rates[1]:8.4f} bid={rec.bids[1]:8.4f}")

robust = run_allocation(
    scenario.utilities, 20.0, replace(scenario.config, decay=ExponentialDecay(l1=5.0, l2=10.0))
)
residual = abs(sum(robust.final_rates) - 20.0)
bound = len(scenario.users) * scenario.config.delta / robust.final_price
print(f"  damped (exponential l1=5, l2=10): {robust.status} after {robust.iterations_used} rounds "
      f"at price {robust.final_price:.6f}")
print("    rates:", " ".join(f"{r:.3f}" for r in robust.final_rates))
print(f"    budget residual |sum(rates) - R| = {residual:.2f} (clears when <= n*delta/p = {bound:.2g})")
if residual <= bound:
    print("    rescued: the damped bids reached the allocation")
else:
    print("    frozen: the envelope shrank below delta before the bids reached the allocation")

print("\nwhere both settle, damping does not move the fixed point (R = 30):")
plain30 = run_allocation(scenario.utilities, 30.0, replace(scenario.config, decay=None))
robust30 = run_allocation(
    scenario.utilities, 30.0, replace(scenario.config, decay=ExponentialDecay(l1=5.0, l2=10.0))
)
gap = max(abs(a - b) for a, b in zip(plain30.final_rates, robust30.final_rates))
print(f"  max per-user rate difference: {gap:.2e}")
