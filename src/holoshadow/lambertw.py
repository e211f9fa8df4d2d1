"""Real branches of the Lambert W function.

W(x) solves W * exp(W) = x.  Only the two real branches are provided:
the principal branch W_0 (real for x >= -1/e) and the lower branch
W_-1 (real for -1/e <= x < 0).  Halley's iteration is used, seeded with
branch-specific initial guesses (a log-based seed for W_-1), which
converges quadratically to machine precision on these domains.
"""

from __future__ import annotations

import math

_INV_E = math.exp(-1.0)
_TOL, _MAX_ITER = 1e-14, 80  # Halley's relative stopping step and its iteration cap


def lambert_w(x: float, branch: int = 0) -> float:
    """Evaluate the real Lambert W function on branch 0 or -1.

    Raises ValueError when x is outside the real domain of the requested
    branch (x < -1/e, or x >= 0 for branch -1).
    """
    if branch not in (0, -1):
        raise ValueError(f"only real branches 0 and -1 are supported, got {branch}")
    if x < -_INV_E - 1e-300:
        raise ValueError(f"lambert_w is complex for x = {x} < -1/e")
    x = max(x, -_INV_E)

    if x == 0.0:
        if branch == 0:
            return 0.0
        raise ValueError("branch -1 diverges at x = 0")
    if branch == -1 and x > 0:
        raise ValueError("branch -1 is real only for -1/e <= x < 0")

    w = _initial_guess(x, branch)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        # Halley step: f' = (w+1)e^w, f'' = (w+2)e^w
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        if denom == 0.0:
            break
        w_next = w - f / denom
        if not math.isfinite(w_next):
            break
        if abs(w_next - w) <= _TOL * (1.0 + abs(w_next)):
            w = w_next
            break
        w = w_next
    return w


def _initial_guess(x: float, branch: int) -> float:
    if branch == 0:
        if x > math.e:
            # asymptotic seed: log(x) - log(log(x))
            lx = math.log(x)
            return lx - math.log(lx)
        if x > -0.25:
            # series around 0
            return x * (1.0 - x)
        # near the branch point -1/e
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 + p - p * p / 3.0
    # branch -1: real only on (-1/e, 0)
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 - p - p * p / 3.0
    # log-based seed, accurate as x -> 0^-
    lx = math.log(-x)
    return lx - math.log(-lx)
