"""The late rounds of a bidding run and the equilibrium they are judged against.

A settled run is still in its late rounds and a cycling one is not. The
undamped loop is the map F(p) = p*D(p)/R on the price, with D(p) the
total demand; its only fixed point is the equilibrium price p*, and its
slope there is the loop gain g = 1 + p*D'(p*)/R. The helpers below find
p* and g without running the bidding loop. The late-round helpers take
every round of one run, in order, as collected by
``run_allocation(..., on_round=rounds.append)``. ``plain_rounds`` is the
undamped loop written out with every round solved and move-tested, the
reference that ``run_allocation``'s memo of its last rounds by price, and
its replay of a cycle once a price repeats, must reproduce record for
record; the figures of its orbits that depend on how the price is rounded
are computed from it, not copied. ``damped_rounds`` is the loop under a
decay policy written out the same way, the reference for
``run_allocation``'s damped rounds: every round solved, each bid's move
cut to the envelope, and the move measured on the cut bid.
"""

import math

from fairalloc import CONVERGED, ITERATION_CAP, IterationRecord, solve_user_rate


def plain_rounds(utilities, total_rate: float, config) -> tuple[list, str]:
    """Every round of the undamped loop as an ``IterationRecord``, computed one by one, and the status."""
    bids = (config.initial_bid,) * len(utilities)
    rounds = []
    for n in range(1, config.max_iter + 1):
        price = sum(bids) / total_rate
        rates = tuple(solve_user_rate(u, price, config.solver) for u in utilities)
        new_bids = tuple(price * r for r in rates)
        rounds.append(IterationRecord(n, price, new_bids, rates))
        moved = max(abs(w - w_prev) for w, w_prev in zip(new_bids, bids))
        bids = new_bids
        if moved <= config.delta:
            return rounds, CONVERGED
    return rounds, ITERATION_CAP


def damped_rounds(utilities, total_rate: float, config) -> tuple[list, str]:
    """Every round of the loop under ``config.decay`` as an ``IterationRecord``, computed one by one, and the status.

    A target bid p*r more than dw(n) above the previous bid is cut to the
    previous bid plus dw(n), and one more than dw(n) below it to the
    previous bid minus dw(n).
    """
    bids = (config.initial_bid,) * len(utilities)
    rounds = []
    for n in range(1, config.max_iter + 1):
        price = sum(bids) / total_rate
        rates = tuple(solve_user_rate(u, price, config.solver) for u in utilities)
        limit = config.decay.step_limit(n)
        new_bids = []
        for r, w_prev in zip(rates, bids):
            w = price * r
            if w - w_prev > limit:
                w = w_prev + limit
            elif w - w_prev < -limit:
                w = w_prev - limit
            new_bids.append(w)
        new_bids = tuple(new_bids)
        rounds.append(IterationRecord(n, price, new_bids, rates))
        moved = max(abs(w - w_prev) for w, w_prev in zip(new_bids, bids))
        bids = new_bids
        if moved <= config.delta:
            return rounds, CONVERGED
    return rounds, ITERATION_CAP


def first_repeat(rounds) -> tuple[int, int] | None:
    """The first round whose price equals an earlier round's bit for bit, and the lag between them.

    An undamped round's bids are a function of its price, so from there
    the run repeats every round with that lag, bids included.
    """
    seen = {}
    for rec in rounds:
        if rec.price in seen:
            return rec.n, rec.n - seen[rec.price]
        seen[rec.price] = rec.n
    return None


def price_period(rounds, window: int = 400) -> int | None:
    """Smallest lag k < window with |p(n) - p(n-k)| < 1e-8 x the price amplitude over the last ``window`` rounds."""
    prices = [rec.price for rec in rounds[-window:]]
    tol = 1e-8 * (max(prices) - min(prices))
    return next((k for k in range(1, len(prices))
                 if all(abs(p - q) < tol for p, q in zip(prices[k:], prices))), None)


def late_window(rounds) -> int:
    """Number of round-to-round steps in the last tenth of a run (at least one)."""
    return max(1, (len(rounds) - 1) // 10)


def late_step(rounds) -> float:
    """Largest max-norm bid step over the last tenth of the rounds; 0.0 for a one-round run."""
    steps = [max(abs(w1 - w0) for w0, w1 in zip(a.bids, b.bids)) for a, b in zip(rounds, rounds[1:])]
    return max(steps[-late_window(rounds):], default=0.0)


def late_prices(rounds) -> list[float]:
    """Announced prices over the last tenth of the rounds (``late_step``'s window)."""
    return [rec.price for rec in rounds[-late_window(rounds):]]


def demand(sc, price: float) -> float:
    """Total demand D(p) of the scenario's users at ``price``."""
    return sum(solve_user_rate(u, price, sc.config.solver) for u in sc.utilities)


def equilibrium_price(sc, total_rate: float) -> float:
    """The price p* at which total demand D(p) meets R: 80 bisections on log p in [1e-8, 1e3].

    D is strictly decreasing, so p* is the only fixed point of the undamped
    map F(p) = p*D(p)/R; it is found here without running the bidding loop.
    Raises ValueError when D(1e-8) > R > D(1e3) fails, since the bracket
    then does not enclose p*.
    """
    lo, hi = 1e-8, 1e3
    if not demand(sc, lo) > total_rate > demand(sc, hi):
        raise ValueError(f"[{lo}, {hi}] does not enclose the equilibrium price at R = {total_rate}")
    lo, hi = math.log(lo), math.log(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if demand(sc, math.exp(mid)) > total_rate:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def loop_gain(sc, total_rate: float, price: float) -> float:
    """Slope g = 1 + p*D'(p)/R of the undamped map at p, D' by central difference.

    At the fixed point, |g| < 1 attracts nearby prices and |g| > 1 repels them.
    """
    h = 1e-6 * price
    slope = (demand(sc, price + h) - demand(sc, price - h)) / (2.0 * h)
    return 1.0 + price * slope / total_rate


def straddles(rounds, price: float) -> bool:
    """Whether the late prices lie on both sides of ``price``.

    F(p) > p exactly when p < p*, so any cycle of F has points on both sides of p*.
    """
    late = late_prices(rounds)
    return min(late) < price < max(late)
