"""Outside-in layer tracing: wrap fairalloc's public calls where they are looked up.

Nothing inside ``src/`` is instrumented. ``LayerTrace.installed()``
swaps each call site listed in ``_sites`` for a wrapper that counts
calls and sums their time, and restores the originals on exit:

    utility      SigmoidUtility/LogUtility .log_slope and .value
    solver       protocol.solve_user_rate (also log_slope calls per solve, pinned results)
    protocol     sim.run_allocation (also rounds and trajectory records per result)
    sim          sim.run_sweep, cli.run_sweep
    scenario_io  cli.load_scenario

The ``cli`` layer is the operation itself, ``cli.main``, which the
worker times.

Each wrapper adds two clock reads and a few additions per call. That is
large next to a 0.5 us log_slope, which is why per-layer numbers come
from a separate traced run and the untraced run gives the end-to-end
ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class LayerTrace:
    def __init__(self, fairalloc):
        self.fa = fairalloc
        self.reset()

    def reset(self):
        """Zero every counter; call it outside ``installed()``, whose wrappers bind the counters of the moment."""
        self.calls ={key: 0 for key in ("log_slope", "value", "solve", "allocation", "sweep", "load")}
        self.ns = dict.fromkeys(self.calls, 0)
        self.solve_evals = 0
        self.pinned = 0
        self.rounds: list[int] = []
        self.capped = 0
        self.trajectory_records = 0

    def _timed(self, key, fn):
        clock = time.perf_counter_ns
        calls, ns = self.calls, self.ns

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[key] += clock() - start
                calls[key] += 1

        return wrapper

    def _solve(self, fn):
        timed = self._timed("solve", fn)
        calls = self.calls

        def wrapper(u, price, config):
            before = calls["log_slope"]
            rate = timed(u, price, config)
            self.solve_evals += calls["log_slope"] - before
            self.pinned += rate == config.bracket_lo
            return rate

        return wrapper

    def _allocation(self, fn):
        timed = self._timed("allocation", fn)
        cap = self.fa.ITERATION_CAP

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.rounds.append(result.iterations_used)
            self.capped += result.status == cap
            self.trajectory_records += len(result.trajectory)
            return result

        return wrapper

    def _sites(self):
        fa = self.fa
        return [
            (fa.SigmoidUtility, "log_slope", lambda fn: self._timed("log_slope", fn)),
            (fa.LogUtility, "log_slope", lambda fn: self._timed("log_slope", fn)),
            (fa.SigmoidUtility, "value", lambda fn: self._timed("value", fn)),
            (fa.LogUtility, "value", lambda fn: self._timed("value", fn)),
            (fa.protocol, "solve_user_rate", self._solve),
            (fa.sim, "run_allocation", self._allocation),
            (fa.sim, "run_sweep", lambda fn: self._timed("sweep", fn)),
            (fa.cli, "run_sweep", lambda fn: self._timed("sweep", fn)),
            (fa.cli, "load_scenario", lambda fn: self._timed("load", fn)),
        ]

    @contextmanager
    def installed(self):
        """Patch every call site for the duration of the block; always restore them."""
        saved = []
        try:
            for owner, name, wrap in self._sites():
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, wrap(original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def counts(self) -> dict:
        """Every count the trace keeps; identical inputs must give identical counts."""
        return {
            "calls": dict(self.calls),
            "solve_evals": self.solve_evals,
            "pinned": self.pinned,
            "rounds": list(self.rounds),
            "capped": self.capped,
            "trajectory_records": self.trajectory_records,
        }
