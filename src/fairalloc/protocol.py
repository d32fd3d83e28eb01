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
it. A run's result is its rounds: the final rates, bids and price are
the last round's. At a fixed point the budget clears: summing
w_i = p*r_i and p = sum(w)/R gives sum(r_i) = R, and every non-pinned
user equalizes its log-utility slope with the price.

The undamped loop does not always settle. It is the map
F(p) = p*D(p)/R on the price, with D(p) = sum_i r_i(p) the total demand,
and its only fixed point is the equilibrium price p*. The slope there,
g = 1 + p*D'(p*)/R, decides the outcome: the loop settles when |g| < 1
and cycles round p* when |g| > 1. Below its inflection a sigmoid's log U
is nearly linear (its slope hugs the constant a), so whenever p* lands
on one of those flat stretches the marginal user's response swings
across the stretch on microscopic price moves, D' is huge, and the bids
lock into a stable two-cycle. The decay envelope caps per-round bid
steps in that regime, but it shrinks on a fixed schedule: unless the
price reaches p* before the envelope drops below delta, the run stops
with frozen bids that do not clear the budget.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .solver import SolverConfig, solve_user_rate

__all__ = [
    "ExponentialDecay",
    "RationalDecay",
    "DecayPolicy",
    "AllocationConfig",
    "IterationRecord",
    "AllocationResult",
    "CONVERGED",
    "ITERATION_CAP",
    "run_allocation",
]

CONVERGED = "converged"
ITERATION_CAP = "iteration_cap_reached"


@dataclass(frozen=True)
class ExponentialDecay:
    """Bid-step envelope dw(n) = l1 * exp(-n / l2)."""

    l1: float = 5.0
    l2: float = 10.0

    def __post_init__(self):
        if not all(x > 0.0 and math.isfinite(x) for x in (self.l1, self.l2)):
            raise ValueError(f"decay constants must be positive and finite, got l1={self.l1}, l2={self.l2}")

    def step_limit(self, n: int) -> float:
        return self.l1 * math.exp(-n / self.l2)


@dataclass(frozen=True)
class RationalDecay:
    """Bid-step envelope dw(n) = l3 / n."""

    l3: float = 5.0

    def __post_init__(self):
        if not (self.l3 > 0.0 and math.isfinite(self.l3)):
            raise ValueError(f"decay constant must be positive and finite, got l3={self.l3}")

    def step_limit(self, n: int) -> float:
        return self.l3 / n


DecayPolicy = ExponentialDecay | RationalDecay


@dataclass(frozen=True)
class AllocationConfig:
    delta: float = 0.001
    max_iter: int = 1000
    initial_bid: float = 10.0
    decay: DecayPolicy | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not (self.initial_bid > 0.0 and math.isfinite(self.initial_bid)):
            raise ValueError(f"initial_bid must be positive and finite, got {self.initial_bid}")


@dataclass(frozen=True)
class IterationRecord:
    """One round: the announced price plus every user's response to it."""

    n: int
    price: float
    bids: tuple[float, ...]
    rates: tuple[float, ...]


@dataclass(frozen=True)
class AllocationResult:
    """A run's status and its rounds.

    The final state is the last round's: ``final_rates``, ``final_bids``
    and ``final_price`` read ``trajectory[-1]``, and ``iterations_used``
    is the number of rounds. A user pinned in a round has a rate equal
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
        return len(self.trajectory)


def run_allocation(utilities, total_rate: float, config: AllocationConfig = AllocationConfig()) -> AllocationResult:
    """Iterate the bidding loop until the bids settle or the cap is hit.

    A pure function of its arguments: identical inputs give identical
    trajectories. A cell rate below the users' pinned floor (each user
    holds at least ``bracket_lo``) has no equilibrium and is rejected up
    front.
    """
    utilities = tuple(utilities)
    if not utilities:
        raise ValueError("need at least one utility")
    if not (total_rate > 0.0 and math.isfinite(total_rate)):
        raise ValueError(f"total rate must be positive and finite, got {total_rate}")
    solver = config.solver
    floor = len(utilities) * solver.bracket_lo
    if total_rate < floor:
        raise ValueError(
            f"total rate R={total_rate} is below the pinned floor {floor} "
            f"({len(utilities)} users x bracket_lo {solver.bracket_lo})"
        )
    decay = config.decay
    bids = (config.initial_bid,) * len(utilities)
    records: list[IterationRecord] = []
    status = ITERATION_CAP
    for n in range(1, config.max_iter + 1):
        price = sum(bids) / total_rate
        rates = tuple([solve_user_rate(u, price, solver) for u in utilities])
        new_bids = tuple([price * r for r in rates])
        if decay is not None:
            # the envelope cuts a move larger than dw(n) back to old_bid +/- dw(n)
            limit = decay.step_limit(n)
            new_bids = tuple([
                old + math.copysign(limit, w - old) if abs(w - old) > limit else w
                for w, old in zip(new_bids, bids)
            ])
        records.append(IterationRecord(n, price, new_bids, rates))
        moved = max(abs(w - w_prev) for w, w_prev in zip(new_bids, bids))
        bids = new_bids
        if moved <= config.delta:
            status = CONVERGED
            break
    return AllocationResult(status, tuple(records))
