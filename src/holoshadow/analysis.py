"""Effective-central-charge extraction and hyperbolic-disk geometry.

On a hyperbolic tensor network the squared shadow norm of a contiguous
k-leg interval scales as d^(k + c_eff ln min(k, N-k)): the boundary cut
pays k and the bulk geodesic grows logarithmically with the interval,
with proportionality constant c_eff (in cut units, i.e. with the 1/ln d
factor absorbed).  ``fit_ceff`` extracts c_eff from one pass over a
sweep's (k, minC) points, in row order, by least squares through the
origin in the transformed variable; ``ceff_approx`` is the cheap
half-boundary estimate (2l+1 or 7l/2+1/2 cut lengths over ln(N/2)); the
remaining functions give the continuum limit on the Poincare disk of
radius of curvature R (0 < R < inf, 0 <= rho < 1, 0 < phi < 2 pi), where
c_eff approaches 2R.  A result too large for a
double raises OverflowError naming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class FitResult:
    """Fitted effective central charge with its regression uncertainty."""

    c_eff: float
    stderr: float
    residual_rms: float
    n_points: int


def fit_ceff(points: Iterable[tuple[float, float]], n_boundary: int) -> FitResult:
    """Least-squares c_eff from (k, log_d norm) sweep points.

    points is any iterable, a generator included, so a sweep's rows need
    not be held in a list.  Fits log_d_norm - k = c_eff * ln(min(k, N-k))
    through the origin.  The sums of x^2 and x*y run over the points in
    the order given; the regressors are computed, and the residuals summed,
    once per distinct point, times the number of times it occurs.
    k = 0 and k = N points are discarded (the regressor is undefined there).
    A point outside 0 <= k <= N raises ValueError: N is smaller than the
    swept graph's leg count.
    """
    entries: dict[tuple[float, float], list] = {}  # point -> [x, y, multiplicity]
    sxx = sxy = 0.0
    for point in points:
        entry = entries.get(point)
        if entry is None:
            entry = entries[point] = _regressors(point, n_boundary)
        if entry:
            x, y, _ = entry
            sxx += x * x
            sxy += x * y
            entry[2] += 1
    usable = [entry for entry in entries.values() if entry]
    n = sum(count for _, _, count in usable)
    if n < 2:
        raise ValueError("need at least two usable points to fit")
    if len({x for x, _, _ in usable}) < 2:
        raise ValueError("degenerate design: all min(k, N-k) values are equal")

    slope = _finite("slope", _finite("sum of x*y", sxy) / sxx)
    try:
        ss = sum(count * (y - slope * x) ** 2 for x, y, count in usable)
    except OverflowError:  # a float ** raises where * would give inf
        ss = math.inf
    ss = _finite("residual sum", ss)
    stderr = _finite("stderr", math.sqrt(ss / (n - 1) / sxx))
    return FitResult(c_eff=slope, stderr=stderr, residual_rms=math.sqrt(ss / n), n_points=n)


def _regressors(point: tuple[float, float], n_boundary: int) -> list:
    """[ln min(k, N-k), log_d_norm - k, 0] for a point, the 0 a multiplicity
    to count into; [] at k = 0 and k = N, where the regressor is undefined."""
    k, log_d_norm = point
    if k < 0 or k > n_boundary:
        raise ValueError(f"point with k = {k} lies outside 0..N = 0..{n_boundary}")
    if k == 0 or k == n_boundary:
        return []
    return [math.log(min(k, n_boundary - k)), log_d_norm - k, 0]


def ceff_approx(l: int, p: int, q: int, n_boundary: int) -> float:
    """Half-boundary estimate of c_eff for an l-ring {p,q} network.

    l counts rings around the central tile (a generated graph with
    ``layers`` layers has l = layers - 1) and n_boundary is its leg count.
    The {3,7} half-boundary wall costs 2l+1 cuts; the {5,4} wall ranges
    over [3l+1, 4l] depending on the region, averaged to 7l/2 + 1/2.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if n_boundary < 3:
        raise ValueError("boundary too small")
    if (p, q) == (3, 7):
        numerator = 2.0 * l + 1.0
    elif (p, q) == (5, 4):
        numerator = 3.5 * l + 0.5
    else:
        raise NotImplementedError(f"no half-boundary cut formula for {{{p},{q}}}")
    return numerator / math.log(n_boundary / 2.0)


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"{name} overflows a double")
    return value


def arc_length(rho: float, phi: float, R: float) -> float:
    """Length of the arc at Euclidean radius rho spanning angle phi, on the
    disk of radius of curvature R."""
    if not 0.0 < R < math.inf:
        raise ValueError(f"R (radius of curvature) must be positive and finite, got {R}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not 0.0 < phi < 2.0 * math.pi:
        raise ValueError(f"phi must lie in (0, 2*pi), got {phi}")
    return _finite("arc length", 2.0 * phi * R * rho / (1.0 - rho * rho))


def poincare_geodesic(rho1: float, phi1: float, rho2: float, phi2: float, R: float) -> float:
    """Geodesic distance between two points of the Poincare disk."""
    if not 0.0 < R < math.inf:
        raise ValueError(f"R (radius of curvature) must be positive and finite, got {R}")
    for rho in (rho1, rho2):
        if not 0.0 <= rho < 1.0:
            raise ValueError("radii must lie in [0, 1)")
    # |z1 - z2|^2 without cancellation, and acosh(1 + 2u) as 2 asinh(sqrt u):
    # acosh rounds 1 + 2u to 1 for u below 1e-16, so nearby points came out
    # at distance 0
    num = (rho1 - rho2) ** 2 + 4.0 * rho1 * rho2 * math.sin((phi1 - phi2) / 2.0) ** 2
    u = num / ((1.0 - rho1 * rho1) * (1.0 - rho2 * rho2))
    return _finite("geodesic", 2.0 * R * math.asinh(math.sqrt(u)))


def ceff_continuous(rho: float, phi: float, R: float) -> float:
    """Continuum c_eff = d_L / ln L for the arc (rho, phi); tends to 2R
    as rho -> 1 with phi near pi."""
    length = arc_length(rho, phi, R)
    if length <= 1.0:
        raise ValueError("arc too short: ln L is not positive")
    chord = poincare_geodesic(rho, 0.0, rho, phi, R)
    return chord / math.log(length)
