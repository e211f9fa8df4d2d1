"""Effective-central-charge extraction and hyperbolic-disk geometry.

On a hyperbolic tensor network the squared shadow norm of a contiguous
k-leg interval scales as d^(k + c_eff ln min(k, N-k)): the boundary cut
pays k and the bulk geodesic grows logarithmically with the interval,
with proportionality constant c_eff (in cut units, i.e. with the 1/ln d
factor absorbed).  ``fit_ceff`` extracts c_eff from sweep data by
no-intercept least squares on the transformed variable; ``ceff_approx``
is the cheap half-boundary estimate (2l+1 or 7l/2+1/2 cut lengths over
ln(N/2)); the remaining functions give the continuum limit on the
Poincare disk, where c_eff approaches 2R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class FitResult:
    """Fitted effective central charge with its regression uncertainty."""

    c_eff: float
    stderr: float
    residual_rms: float
    n_points: int


@dataclass(frozen=True)
class GeometryParams:
    """Poincare-disk coordinates and the curvature scales of the bulk."""

    R: float
    rho: float
    phi: float

    def __post_init__(self) -> None:
        if self.R <= 0:
            raise ValueError("AdS radius must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not 0.0 < self.phi < 2.0 * math.pi:
            raise ValueError("phi must lie in (0, 2*pi)")

    @property
    def gaussian_curvature(self) -> float:
        return -1.0 / (self.R * self.R)

    @property
    def ricci_scalar(self) -> float:
        return -2.0 / (self.R * self.R)


def fit_ceff(
    points: Sequence[tuple[float, float]],
    n_boundary: int,
    intercept: bool = False,
) -> FitResult:
    """Least-squares c_eff from (k, log_d norm) sweep points.

    Fits log_d_norm - k = c_eff * ln(min(k, N-k)); k = 0 and k = N points
    are discarded (the regressor is undefined there).  The default is the
    single-parameter fit through the origin; ``intercept=True`` adds a
    diagnostic offset that is not part of any reported number.
    """
    xs: list[float] = []
    ys: list[float] = []
    for k, log_d_norm in points:
        if k <= 0 or k >= n_boundary:
            continue
        xs.append(math.log(min(k, n_boundary - k)))
        ys.append(log_d_norm - k)
    if len(xs) < 2:
        raise ValueError("need at least two usable points to fit")
    if len(set(xs)) < 2:
        raise ValueError("degenerate design: all min(k, N-k) values are equal")

    n = len(xs)
    if intercept:
        mx = sum(xs) / n
        my = sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx
        resid = [y - my - slope * (x - mx) for x, y in zip(xs, ys)]
        dof = n - 2
        var = sum(r * r for r in resid) / dof / sxx if dof > 0 else 0.0
    else:
        sxx = sum(x * x for x in xs)
        sxy = sum(x * y for x, y in zip(xs, ys))
        slope = sxy / sxx
        resid = [y - slope * x for x, y in zip(xs, ys)]
        dof = n - 1
        var = sum(r * r for r in resid) / dof / sxx if dof > 0 else 0.0
    rms = math.sqrt(sum(r * r for r in resid) / n)
    return FitResult(c_eff=slope, stderr=math.sqrt(var), residual_rms=rms, n_points=n)


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


def arc_length(rho: float, phi: float, R: float) -> float:
    """Length of the arc at Euclidean radius rho spanning angle phi."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if phi <= 0:
        raise ValueError("phi must be positive")
    return 2.0 * phi * R * rho / (1.0 - rho * rho)


def poincare_geodesic(rho1: float, phi1: float, rho2: float, phi2: float, R: float) -> float:
    """Geodesic distance between two points of the Poincare disk."""
    for rho in (rho1, rho2):
        if not 0.0 <= rho < 1.0:
            raise ValueError("radii must lie in [0, 1)")
    num = rho1 * rho1 + rho2 * rho2 - 2.0 * rho1 * rho2 * math.cos(phi1 - phi2)
    arg = 1.0 + 2.0 * num / ((1.0 - rho1 * rho1) * (1.0 - rho2 * rho2))
    return R * math.acosh(max(arg, 1.0))


def ceff_continuous(rho: float, phi: float, R: float) -> float:
    """Continuum c_eff = d_L / ln L for the arc (rho, phi); tends to 2R
    as rho -> 1 with phi near pi."""
    length = arc_length(rho, phi, R)
    if length <= 1.0:
        raise ValueError("arc too short: ln L is not positive")
    chord = poincare_geodesic(rho, 0.0, rho, phi, R)
    return chord / math.log(length)
