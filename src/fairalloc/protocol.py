"""Synchronous bidding loop between one base station and its users.

Round n with outstanding bids w_i(n):

1. the base station prices the cell's total rate R at
       p(n) = sum_i w_i(n) / R
   and announces p(n) to everyone;
2. each user solves for the rate maximizing log U_i(r) - p(n)*r and
   answers with the bid w_i = p(n) * r_i;
3. with a decay policy active, a bid may move at most dw(n) away from
   the user's previous bid (the robust variant);
4. the loop exits once no bid moved by more than delta, or gives up at
   the iteration cap.

Bids start at ``initial_bid``, and round one's moves are measured from
it. Each round is one ``IterationRecord``. ``run_allocation`` hands each
to an ``on_round`` callback as soon as it is made and keeps only the
last, so a run holds one round however many it takes, besides its
bounded memo of rates per price (see below). The final rates, bids and price
are the last round's. At a fixed point the budget clears: summing
w_i = p*r_i and p = sum(w)/R gives sum(r_i) = R, and every non-pinned
user equalizes its log-utility slope with the price.

The undamped loop does not always settle. It is the map
F(p) = p*D(p)/R on the price, with D(p) = sum_i r_i(p) the total demand,
and its only fixed point is the equilibrium price p*. The slope there,
g = 1 + p*D'(p*)/R, is the loop gain, and |g| < 1 is the fixed point's
local stability condition. For the reference population runs settle
exactly where it holds; nothing establishes that for other populations
or other starting bids. Below its inflection a sigmoid's log U is nearly
linear (its slope hugs the constant a), so whenever p* lands on one of
those flat stretches the marginal user's response swings across the
stretch on microscopic price moves, D' is huge, and the bids keep
cycling round p* until the iteration cap. The cycles need not be
two-cycles: on the reference population's default sweep the capped
runs' late prices repeat with periods from 2 to 6, and at R = 20 with
none below 400 rounds. The decay envelope caps per-round bid
steps in that regime, but it shrinks on a fixed schedule: unless the
price reaches p* before the envelope drops below delta, the run stops
with frozen bids that do not clear the budget.

A round's rates are a pure function of its announced price, since the
solve is deterministic, and so are the undamped bids p * r_i. A run
remembers both for each price it has announced and, when a price comes
round again, reuses them instead of solving again (a memo function in
the sense of D. Michie, Nature 218, 1968); a damped run clamps the
remembered bids as it would fresh ones. Eight of the nine capped runs
above repeat a price bit for bit, and from then on no round is solved.
The memo is a ``functools.lru_cache`` of ``_MEMO_FLOATS`` (4096) floats:
once full, it evicts the least recently used price, so a run remembers
at most that many floats however long it is (one round's for a
population of more than 2048 users). LRU is a stack algorithm (Mattson
et al., IBM Syst. J. 9, 1970), so a cycle with no more prices than the
memo has entries is solved once, wherever the memo filled up, and a
longer one is solved round by round.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

from .solver import HI_CAP, SolverConfig, solve_user_rate
from .utility import positive_finite

__all__ = [
    "ExponentialDecay",
    "RationalDecay",
    "AllocationConfig",
    "IterationRecord",
    "AllocationResult",
    "CONVERGED",
    "ITERATION_CAP",
    "run_allocation",
]

CONVERGED = "converged"
ITERATION_CAP = "iteration_cap_reached"
_MEMO_FLOATS = 4096  # a run's memo of rates and bids per price holds at most this many floats


@dataclass(frozen=True)
class ExponentialDecay:
    """Bid-step envelope dw(n) = l1 * exp(-n / l2)."""

    l1: float = 5.0
    l2: float = 10.0

    def __post_init__(self):
        positive_finite("decay constant l1", self.l1)
        positive_finite("decay constant l2", self.l2)

    def step_limit(self, n: int) -> float:
        return self.l1 * math.exp(-n / self.l2)


@dataclass(frozen=True)
class RationalDecay:
    """Bid-step envelope dw(n) = l3 / n."""

    l3: float = 5.0

    def __post_init__(self):
        positive_finite("decay constant l3", self.l3)

    def step_limit(self, n: int) -> float:
        return self.l3 / n



@dataclass(frozen=True)
class AllocationConfig:
    delta: float = 0.001
    max_iter: int = 1000
    initial_bid: float = 10.0
    decay: ExponentialDecay | RationalDecay | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        positive_finite("delta", self.delta)
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        positive_finite("initial_bid", self.initial_bid)


@dataclass(frozen=True)
class IterationRecord:
    """One round: the announced price plus every user's response to it."""

    n: int
    price: float
    bids: tuple[float, ...]
    rates: tuple[float, ...]


@dataclass(frozen=True)
class AllocationResult:
    """A run's status and its last round.

    ``trajectory`` holds exactly one record, the run's last round. The
    final state is that round's: ``final_rates``, ``final_bids`` and
    ``final_price`` read it, and ``iterations_used`` is its round number
    ``n`` (rounds count from 1). A user pinned in a round has a rate equal
    to the solver's ``bracket_lo`` exactly.
    """

    status: str
    trajectory: tuple[IterationRecord, ...]

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def final_rates(self) -> tuple[float, ...]:
        return self.trajectory[-1].rates

    @property
    def final_bids(self) -> tuple[float, ...]:
        return self.trajectory[-1].bids

    @property
    def final_price(self) -> float:
        return self.trajectory[-1].price

    @property
    def iterations_used(self) -> int:
        return self.trajectory[-1].n


def _discard(record) -> None:
    """The default ``on_round``: the round is dropped."""


def run_allocation(
    utilities, total_rate: float, config: AllocationConfig = AllocationConfig(), on_round=_discard
) -> AllocationResult:
    """Iterate the bidding loop until the bids settle or the cap is hit.

    A pure function of its arguments: identical inputs give identical
    rounds. Each round's ``IterationRecord`` is passed to
    ``on_round(record)`` as soon as it is made; the result keeps only the
    last. To keep every round, collect them: ``on_round=rounds.append``.
    A round whose price is still in the run's memo, which keeps the most
    recently used prices, takes its rates and undamped bids from there
    instead of solving them again, damped or not: the records, their
    ``on_round`` calls, the status and ``iterations_used`` are the ones
    solving would give, and an undamped round shares its ``bids`` and
    ``rates`` tuples with the round that computed them.

    Two cell rates have no equilibrium and are rejected up front. One below
    the users' pinned floor (each user holds at least ``bracket_lo``), and
    one above the demand ceiling: the solver meets no root past ``HI_CAP``,
    so no price below ``p_min = max_i log_slope_i(HI_CAP)`` has an answer,
    and total demand at ``p_min`` is the most the users can take. The
    ceiling is only computed for R > ``HI_CAP / 2``, because below that the
    user that sets ``p_min`` alone demands about ``HI_CAP``. When every
    slope underflows to 0 at ``HI_CAP`` (sigmoid users only), ``p_min`` is
    the smallest positive double, the lowest price a round can announce,
    and the ceiling is computed for every R. Any positive ``a``, ``k`` and
    ``bracket_lo`` can be solved.
    """
    utilities = tuple(utilities)
    if not utilities:
        raise ValueError("need at least one utility")
    positive_finite("total rate", total_rate)
    solver = config.solver
    floor = len(utilities) * solver.bracket_lo
    if total_rate < floor:
        raise ValueError(
            f"total rate R={total_rate} is below the pinned floor {floor} "
            f"({len(utilities)} users x bracket_lo {solver.bracket_lo})"
        )
    p_min = max(u.log_slope(HI_CAP) for u in utilities)
    if p_min == 0.0 or total_rate > HI_CAP / 2:
        p_min = max(p_min, math.ulp(0.0))  # every slope underflows at HI_CAP: the lowest positive price
        ceiling = sum(solve_user_rate(u, p_min, solver) for u in utilities)
        if total_rate > ceiling:
            raise ValueError(
                f"total rate R={total_rate} is above the demand ceiling {ceiling}, "
                f"the users' total demand at the lowest price they can meet ({p_min})"
            )
    decay = config.decay
    bids = (config.initial_bid,) * len(utilities)

    @functools.lru_cache(maxsize=max(1, _MEMO_FLOATS // (2 * len(utilities))))
    def respond(price):
        rates = tuple([solve_user_rate(u, price, solver) for u in utilities])
        return rates, tuple([price * r for r in rates])

    for n in range(1, config.max_iter + 1):
        price = sum(bids) / total_rate
        rates, new_bids = respond(price)
        if decay is not None:
            # the envelope cuts a move larger than dw(n) back to old_bid +/- dw(n)
            limit = decay.step_limit(n)
            new_bids = tuple([
                old + math.copysign(limit, w - old) if abs(w - old) > limit else w
                for w, old in zip(new_bids, bids)
            ])
        record = IterationRecord(n, price, new_bids, rates)
        on_round(record)
        moved = max(map(abs, map(operator.sub, new_bids, bids)))
        bids = new_bids
        if moved <= config.delta:
            return AllocationResult(CONVERGED, (record,))
    return AllocationResult(ITERATION_CAP, (record,))
