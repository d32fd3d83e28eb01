"""The six reference satisfaction curves and their log-slopes.

Three sigmoids model real-time traffic (satisfaction jumps near the
inflection rate), three logarithmic curves model elastic traffic
(satisfaction keeps creeping up to r_max). The allocation algorithm
never looks at U directly, only at the slope of log U, so both are
tabulated here side by side. Saves a plot, utility_curves.png, into the
working directory when matplotlib is importable.
"""

from fairalloc import SigmoidUtility, canonical_scenario

users = canonical_scenario().users
rates = [float(r) for r in range(101)]

print("satisfaction U(r)")
print(f"{'r':>5} " + " ".join(f"{uid:>9}" for uid, _ in users))
for r in [0, 5, 10, 15, 20, 30, 40, 60, 80, 100]:
    row = " ".join(f"{u.value(float(r)):9.4f}" for _, u in users)
    print(f"{r:5d} {row}")

print()
print("log-utility slope d/dr log U(r)  (the curve each user intersects with the price)")
print(f"{'r':>5} " + " ".join(f"{uid:>9}" for uid, _ in users))
for r in [1, 2, 5, 10, 15, 20, 30, 50, 100]:
    row = " ".join(f"{u.log_slope(float(r)):9.4f}" for _, u in users)
    print(f"{r:5d} {row}")

print()
print("sigmoid inflection rates b:", {uid: u.b for uid, u in users if isinstance(u, SigmoidUtility)})
print("note the flat stretches: a sigmoid's log-slope hugs its steepness a")
print("between roughly 2/a and b - 2/a, which is what makes the undamped")
print("bidding loop cycle when the equilibrium price lands there.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, (top, bottom) = plt.subplots(2, 1, figsize=(8, 8), sharex=True)
    for uid, u in users:
        top.plot(rates, [u.value(r) for r in rates], label=uid)
        bottom.semilogy(rates[1:], [u.log_slope(r) for r in rates[1:]], label=uid)
    top.set_ylabel("satisfaction U(r)")
    top.legend(ncol=2)
    bottom.set_ylabel("d/dr log U(r)")
    bottom.set_xlabel("rate r")
    fig.tight_layout()
    fig.savefig("utility_curves.png", dpi=120)
    print("\nwrote utility_curves.png")
