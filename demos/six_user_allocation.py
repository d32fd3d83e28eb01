"""One allocation, watched round by round.

The six reference users share a cell of R = 60 rate units. Every round
the base station prices the cell at (sum of bids) / R, each user buys
its optimal rate at that price and bids price * rate back. Bids start
at 10 and settle once no bid moves by more than 0.001.
"""

from fairalloc import canonical_scenario, run_allocation

scenario = canonical_scenario()
R = 60.0
rounds = []
result = run_allocation(scenario.utilities, R, scenario.config, on_round=rounds.append)

ids = scenario.user_ids
print(f"cell rate R = {R:g}, initial bids 10, delta = {scenario.config.delta}")
print(f"\n{'n':>4} {'price':>9} " + " ".join(f"{uid:>8}" for uid in ids) + "   (rates)")
for rec in rounds[:6] + rounds[-2:]:
    if rec.n == rounds[-2].n and len(rounds) > 8:
        print("  ...")
    rates = " ".join(f"{r:8.3f}" for r in rec.rates)
    print(f"{rec.n:4d} {rec.price:9.5f} {rates}")

print(f"\nstatus: {result.status} after {result.iterations_used} rounds")
print(f"final price {result.final_price:.6f}")
print(f"{'user':>6} {'rate':>9} {'bid':>9} {'satisfaction':>13}")
for uid, u, rate, bid in zip(ids, scenario.utilities, result.final_rates, result.final_bids):
    print(f"{uid:>6} {rate:9.4f} {bid:9.4f} {u.value(rate):13.4f}")

total = sum(result.final_rates)
print(f"\nsum of rates = {total:.5f} (capacity {R:g}; the fixed point clears the budget)")
print("every user equalizes its log-utility slope with the price:")
for uid, u, rate in zip(ids, scenario.utilities, result.final_rates):
    print(f"  {uid}: slope(r*) = {u.log_slope(rate):.8f} vs price {result.final_price:.8f}")
print("\nthe sigmoid users sit just past their inflections (10, 20, 30): real-time")
print("apps get their minimum useful rate first, the elastic users share the rest.")
