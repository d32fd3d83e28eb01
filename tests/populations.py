"""Seeded mixed populations beyond the six reference users."""

import math

from fairalloc import LogUtility, Scenario, SigmoidUtility


def seeded_scenario(name: str, rng, n: int, factors) -> Scenario:
    """``n`` users drawn from the numpy generator ``rng``, at each of ``factors`` x their summed inflection rates Σb.

    Per user in order, an even-indexed user is a sigmoid with a ~ U[0.5, 5]
    and b ~ U[5, 30], an odd-indexed one logarithmic with k log-uniform on
    [0.5, 15] and r_max = 100. k is taken with ``math.exp``; numpy's
    ``exp`` differs from it by an ulp on some inputs.
    """
    users = []
    for i in range(n):
        if i % 2 == 0:
            a = float(rng.uniform(0.5, 5.0))
            users.append((f"u{i}", SigmoidUtility(a=a, b=float(rng.uniform(5.0, 30.0)))))
        else:
            k = math.exp(rng.uniform(math.log(0.5), math.log(15.0)))
            users.append((f"u{i}", LogUtility(k=k, r_max=100.0)))
    inflection_sum = sum(u.b for _, u in users if isinstance(u, SigmoidUtility))
    return Scenario(name=name, users=tuple(users), r_values=tuple(f * inflection_sum for f in factors))
