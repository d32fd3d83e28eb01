"""Scenario harness: named user populations and sweeps over the cell rate.

A Scenario bundles an ordered user population (id, utility) with the
list of total rates to evaluate and the loop configuration. Its name is
a nonempty string and each user id a nonempty string that UTF-8 CSV
output can carry raw (no comma, double quote, line break or lone
surrogate); an id of any other type is refused, not converted, and so
is a rate that is not a real number (a bool or a string). Scenario
is the only place these rules are checked, for scenario files too, so
every Scenario round-trips through its file form.
Runs are independent per rate value (no warm starting), so any single
point of a sweep can be reproduced in isolation. A sweep adds nothing to
a failure: whatever a point's run or its round callback raises ends the
sweep as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .protocol import AllocationConfig, AllocationResult, _discard, run_allocation
from .utility import LogUtility, SigmoidUtility, UtilityFunction, positive_finite

__all__ = [
    "Scenario",
    "SweepResult",
    "canonical_scenario",
    "run_sweep",
    "find_nonconvergent_rate",
]


def csv_safe(text) -> bool:
    """True for a nonempty string that UTF-8 CSV output can carry raw.

    That rules out a comma, a double quote, a line break and a lone
    surrogate, which UTF-8 cannot encode.
    """
    return isinstance(text, str) and bool(text) and not any(
        ch in ',"\r\n' or "\ud800" <= ch <= "\udfff" for ch in text
    )


@dataclass(frozen=True)
class Scenario:
    name: str
    users: tuple[tuple[str, UtilityFunction], ...]
    r_values: tuple[float, ...]
    config: AllocationConfig = field(default_factory=AllocationConfig)

    def __post_init__(self):
        object.__setattr__(self, "users", tuple((i, u) for i, u in self.users))
        rates = tuple(self.r_values)
        for k, r in enumerate(rates):  # before converting, so a bool or a string is refused
            positive_finite(f"r_values[{k}]", r)
        object.__setattr__(self, "r_values", tuple(float(r) for r in rates))
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"scenario.name: expected a nonempty string, got {self.name!r}")
        if not self.users:
            raise ValueError("scenario needs at least one user")
        for k, (i, u) in enumerate(self.users):
            if not csv_safe(i):
                raise ValueError(f"users[{k}].id: a user id must be a nonempty string without commas, quotes, "
                                 f"line breaks or lone surrogates, got {i!r}")
            if not isinstance(u, (SigmoidUtility, LogUtility)):
                raise ValueError(f"user {i!r}: not a utility function: {u!r}")
        ids = [i for i, _ in self.users]  # all strings by now, so hashable
        if len(set(ids)) != len(ids):
            raise ValueError(f"user ids must be unique, got {ids}")
        if not self.r_values:
            raise ValueError("r_values must be nonempty")
        if any(b <= a for a, b in zip(self.r_values, self.r_values[1:])):
            raise ValueError(f"r_values must be strictly ascending, got {self.r_values}")

    @property
    def utilities(self) -> tuple[UtilityFunction, ...]:
        return tuple(u for _, u in self.users)

    @property
    def user_ids(self) -> tuple[str, ...]:
        return tuple(i for i, _ in self.users)


@dataclass(frozen=True)
class SweepResult:
    results: dict[float, AllocationResult]


def canonical_scenario(r_values=None, config: AllocationConfig | None = None) -> Scenario:
    """The six-user reference population: three sigmoid, three logarithmic.

    Sig1 a=5, b=10 (a near step at rate 10, VoIP-like), Sig2 a=3, b=20
    (SD video), Sig3 a=1, b=30 (HD video), and Log1/2/3 with
    k = 15, 3, 0.5, all reaching full satisfaction at rate 100 (file
    transfer at varying impatience). Default sweep: R = 5, 10, ..., 100.
    """
    if r_values is None:
        r_values = tuple(float(r) for r in range(5, 101, 5))
    return Scenario(
        name="canonical-six-user",
        users=(
            ("Sig1", SigmoidUtility(a=5.0, b=10.0)),
            ("Sig2", SigmoidUtility(a=3.0, b=20.0)),
            ("Sig3", SigmoidUtility(a=1.0, b=30.0)),
            ("Log1", LogUtility(k=15.0, r_max=100.0)),
            ("Log2", LogUtility(k=3.0, r_max=100.0)),
            ("Log3", LogUtility(k=0.5, r_max=100.0)),
        ),
        r_values=tuple(r_values),
        config=config if config is not None else AllocationConfig(),
    )


def run_sweep(scenario: Scenario, *, on_round=_discard) -> SweepResult:
    """One independent allocation per rate value, in ascending order.

    Each point's result is the one ``run_allocation`` returns for that
    rate alone, so it keeps only its last round. Every round is passed to
    ``on_round(record)`` as soon as it is made, point after point, each
    point's rounds counting from ``n = 1``. So a sweep holds one record
    per point however many rounds the points take.

    Whatever ``run_allocation`` or ``on_round`` raises is passed on
    unchanged and ends the sweep; a caller that wants the failing rate
    named runs one point per call, as the CLI does.
    """
    return SweepResult({r: run_allocation(scenario.utilities, r, scenario.config, on_round)
                        for r in scenario.r_values})


def find_nonconvergent_rate(
    scenario: Scenario,
    start: float = 100.0,
    step: float = 100.0,
    limit: float = 10_000.0,
) -> float | None:
    """First rate in start, start+step, ... <= limit where the undamped loop hits its cap.

    Returns None when every probed rate converges. The undamped loop caps
    where the loop gain g = 1 + p*D'(p*)/R at the equilibrium price p* has
    |g| > 1, which happens when p* lands on a sigmoid user's flat
    log-utility stretch, at rates below the users' summed inflection rates.
    For the reference population |g| <= 0.72 at R = 100, 200, ..., 10000
    (``tests/test_sim.py::TestFindNonconvergentRate::
    test_loop_gain_stays_within_the_documented_bound`` computes it), so the
    default upward search returns None; this is measured for that
    population, not shown for every population.
    """
    plain_cfg = replace(scenario.config, decay=None)
    r = float(start)
    while r <= limit:
        if not run_allocation(scenario.utilities, r, plain_cfg).converged:
            return r
        r += step
    return None
