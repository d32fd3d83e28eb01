"""Utility-proportional-fairness rate allocation for a single cell.

A base station prices its total rate R from the users' bids
(p = sum of bids / R), each user replies with the rate maximizing
log U(r) - p*r and the bid p*r, and the exchange repeats until the bids
settle. Sigmoid utilities model inelastic real-time traffic,
logarithmic utilities model elastic traffic, and an optional
fluctuation-decay envelope shrinks the largest bid step allowed each
round. Where the undamped exchange would cycle, the envelope stops the
run, but mostly by freezing the bids short of the allocation: on the
reference sweep it clears the budget at 2 of the 9 cycling points.
"""

from .utility import LogUtility, SigmoidUtility, UtilityFunction, sigmoid_from_qoe
from .solver import NoRootError, SolverConfig, grid_oracle, solve_user_rate
from .protocol import (
    CONVERGED,
    ITERATION_CAP,
    AllocationConfig,
    AllocationResult,
    DecayPolicy,
    ExponentialDecay,
    IterationRecord,
    RationalDecay,
    run_allocation,
)
from .sim import (
    Scenario,
    SweepError,
    SweepResult,
    canonical_scenario,
    find_nonconvergent_rate,
    run_sweep,
)
from .scenario_io import ScenarioFormatError, load_scenario, parse_scenario, scenario_to_dict

__version__ = "0.1.0"

__all__ = [
    "SigmoidUtility",
    "LogUtility",
    "UtilityFunction",
    "sigmoid_from_qoe",
    "SolverConfig",
    "NoRootError",
    "solve_user_rate",
    "grid_oracle",
    "AllocationConfig",
    "AllocationResult",
    "IterationRecord",
    "DecayPolicy",
    "ExponentialDecay",
    "RationalDecay",
    "CONVERGED",
    "ITERATION_CAP",
    "run_allocation",
    "Scenario",
    "SweepResult",
    "SweepError",
    "canonical_scenario",
    "run_sweep",
    "find_nonconvergent_rate",
    "ScenarioFormatError",
    "parse_scenario",
    "load_scenario",
    "scenario_to_dict",
    "__version__",
]
