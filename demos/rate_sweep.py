"""Sweeping the cell rate: allocations, prices and the cycling bands.

Runs the undamped loop once per R in the default grid 5, 10, ..., 100.
Where it converges, scarcer cells price higher and the allocation
clears the budget. Where it hits the iteration cap, the equilibrium
price sits on a sigmoid's flat log-utility stretch and the bids keep
cycling round it, not always with period 2; the reported "price" there
is just the last snapshot of the oscillation. The damped variant in
damping_rescue.py stops these runs too, but at most of them it freezes
the bids short of the allocation.
"""

from fairalloc import canonical_scenario, run_sweep

scenario = canonical_scenario()
sweep = run_sweep(scenario)

print(f"{'R':>5} {'status':>22} {'rounds':>7} {'price':>10} {'sum rates':>10}")
for R, res in sweep.results.items():
    print(
        f"{R:5g} {res.status:>22} {res.iterations_used:7d} "
        f"{res.final_price:10.5f} {sum(res.final_rates):10.4f}"
    )

converged = [(R, res.final_price) for R, res in sweep.results.items() if res.converged]
print("\nconverged points only:")
print("  price falls monotonically with supply:",
      all(b[1] <= a[1] for a, b in zip(converged, converged[1:])))
print("  cycling bands sit where one sigmoid user is marginal; with summed")
print("  sigmoid inflections 10+20+30 = 60, every R above ~60 converges.")

print("\nper-user final rates at the converged points:")
ids = scenario.user_ids
print(f"{'R':>5} " + " ".join(f"{uid:>8}" for uid in ids))
for R, res in sweep.results.items():
    if res.converged:
        print(f"{R:5g} " + " ".join(f"{r:8.3f}" for r in res.final_rates))
