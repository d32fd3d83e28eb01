"""The late rounds of a bidding run: where a settled run is still and a cycling one is not."""


def late_window(result) -> int:
    """Number of round-to-round steps in the last tenth of a run (at least one)."""
    return max(1, (len(result.trajectory) - 1) // 10)


def late_step(result) -> float:
    """Largest max-norm bid step over the last tenth of the rounds; 0.0 for a one-round run."""
    traj = result.trajectory
    steps = [max(abs(w1 - w0) for w0, w1 in zip(a.bids, b.bids)) for a, b in zip(traj, traj[1:])]
    return max(steps[-late_window(result):], default=0.0)
