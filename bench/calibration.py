"""Machine-speed calibration for timings taken on a shared machine.

On a VM that shares its cores, the same operation runs up to 30% faster
or slower for seconds to minutes at a time, depending on what other
tenants do. Each worker therefore runs a fixed loop of scalar float
math (the benchmark's own code, shaped like the program's inner loop: a
sigmoid log-slope per step) right before and right after its set-up and
every timed operation, and each time is reported as

    raw time x CAL_REF_S / (mean of the two calibration times)

that is, in seconds at the machine speed where the loop takes
CAL_REF_S. The raw median time is printed next to the result.
"""

import math
import time

CAL_STEPS = 40_000
# median of calibration_s() at CAL_STEPS over 70 operations of
# canonical-plain on a 2-vCPU x86-64 VM under Python 3.11
CAL_REF_S = 0.0145


def calibration_s() -> float:
    """Time of the fixed calibration loop, in seconds."""
    start = time.perf_counter()
    t = math.exp(-60.0)
    acc = 0.0
    for i in range(1, CAL_STEPS):
        ar = 1.5e-3 * i
        acc += 3.0 * (1.0 + t) / ((t + math.exp(-ar)) * math.expm1(ar))
    return time.perf_counter() - start


def rescaled(timing) -> float:
    """A ``[raw_s, calibration_s]`` pair, as seconds at the reference machine speed."""
    raw, calibration = timing
    return raw * CAL_REF_S / calibration
