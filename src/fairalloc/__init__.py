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

from . import protocol, scenario_io, sim, solver, utility
from .utility import *
from .solver import *
from .protocol import *
from .sim import *
from .scenario_io import *

__all__ = [
    *utility.__all__,
    *solver.__all__,
    *protocol.__all__,
    *sim.__all__,
    *scenario_io.__all__,
]
