"""The benchmark's workloads: which scenario each one runs, and how.

Each workload is a batch job, a closed loop of one caller: the next
operation starts only when the previous one has returned.

canonical-plain
    ``fairalloc run`` in-process through ``cli.main`` on the six-user
    reference population, undamped, R = 5, 10, ..., 100, writing every
    CSV. Nine of its twenty points cycle to the 1000-round cap, so
    per-round protocol overhead, scalar solves at N = 6, trajectory
    memory and trajectory CSV dominate.
crowd-1k
    ``run_sweep`` through the library on 1000 seeded users, no CSV.
    Few rounds but 1000 solves per round, so the per-user solve and
    utility evaluation do almost all the work.
canonical-damped-dense
    ``run_sweep`` on the reference population with the exponential
    envelope and R = 2, 3, ..., 120. ``apply_decay`` clamps bids and the
    envelope, not the cap, ends most runs.

No workload's input depends on ``--seed``. ``crowd-1k`` draws its
population with ``crowd_doc`` at the fixed ``CROWD_SEED``, because at
0.9 x sum(b) the number of rounds depends on which sigmoid user is
marginal: over generator seeds 1-12 the sweep took 59 to 82 rounds
(interquartile range 25% of the median) and seed 8 cycled to the
1000-round cap, a 36 s sweep that alone overruns a run's time limit.
A seed-driven population would make every metric of this workload
measure the draw instead of the program.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("canonical-plain", "crowd-1k", "canonical-damped-dense")

CROWD_USERS = 1000
CROWD_SEED = 1
CROWD_R_FACTORS = (0.9, 1.5, 3.0)
DENSE_R_VALUES = tuple(float(r) for r in range(2, 121))


def import_fairalloc():
    """Import fairalloc from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "fairalloc" / "__init__.py").is_file():
        raise ImportError(f"no fairalloc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fairalloc = importlib.import_module("fairalloc")
    importlib.import_module("fairalloc.cli")
    if Path(fairalloc.__file__).resolve().parent != SRC / "fairalloc":
        raise ImportError(f"fairalloc was imported from {fairalloc.__file__}, not from {SRC}")
    return fairalloc


def crowd_doc(seed: int) -> dict:
    """Scenario document for ``crowd-1k``: a seeded mixed population.

    Even-indexed users are sigmoid with a ~ U[0.5, 5] and b ~ U[5, 30];
    odd-indexed users are logarithmic with k log-uniform on [0.5, 15] and
    r_max = 100. The rates are 0.9, 1.5 and 3 times the sum of the
    sigmoid inflection rates, which sits where the plain loop contracts.
    """
    rng = np.random.default_rng(seed)
    users = []
    for i in range(CROWD_USERS):
        if i % 2 == 0:
            params = {"a": float(rng.uniform(0.5, 5.0)), "b": float(rng.uniform(5.0, 30.0))}
            users.append({"id": f"u{i:04d}", "type": "sigmoid", "params": params})
        else:
            k = float(np.exp(rng.uniform(math.log(0.5), math.log(15.0))))
            users.append({"id": f"u{i:04d}", "type": "log", "params": {"k": k, "r_max": 100.0}})
    sum_b = inflection_sum(users)
    return {
        "name": f"crowd-1k-seed{seed}",
        "users": users,
        "R_values": [f * sum_b for f in CROWD_R_FACTORS],
        "config": {"decay": {"type": "none"}},
    }


def inflection_sum(users) -> float:
    """Sum of the sigmoid users' inflection rates b in a scenario document's user list."""
    return math.fsum(u["params"]["b"] for u in users if u["type"] == "sigmoid")


def generated_doc(workload: str) -> str | None:
    """JSON text of a population the benchmark draws itself, or None for a canonical workload.

    It is written into a worker's directory before the worker starts, so
    that ``setup_s`` times only fairalloc's own work.
    """
    return json.dumps(crowd_doc(CROWD_SEED)) if workload == "crowd-1k" else None


def scenario_doc(workload: str, fairalloc) -> dict:
    """The scenario document of a canonical workload, built with the program's own helpers."""
    if workload == "canonical-plain":
        scenario = fairalloc.canonical_scenario()
    elif workload == "canonical-damped-dense":
        config = fairalloc.AllocationConfig(decay=fairalloc.ExponentialDecay(5.0, 10.0))
        scenario = fairalloc.canonical_scenario(r_values=DENSE_R_VALUES, config=config)
    else:
        raise ValueError(f"{workload!r} is not a canonical workload")
    return fairalloc.scenario_to_dict(scenario)


def uses_cli(workload: str) -> bool:
    return workload == "canonical-plain"
