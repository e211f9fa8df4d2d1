"""Central-charge fits and Poincare-disk geometry."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holoshadow.analysis import (
    arc_length,
    ceff_approx,
    ceff_continuous,
    fit_ceff,
    poincare_geodesic,
)


def synthetic_points(n, c):
    return [(k, k + c * math.log(min(k, n - k))) for k in range(1, n)]


def two_list_fit(points, n_boundary):
    """The row-by-row least squares fit_ceff replaced, kept as its oracle:
    (c_eff, stderr, residual_rms, n_points), summed in row order."""
    xs, ys = [], []
    for k, log_d_norm in points:
        if 0 < k < n_boundary:
            xs.append(math.log(min(k, n_boundary - k)))
            ys.append(log_d_norm - k)
    n = len(xs)
    sxx = sum(x * x for x in xs)
    slope = sum(x * y for x, y in zip(xs, ys)) / sxx
    resid = [y - slope * x for x, y in zip(xs, ys)]
    var = sum(r * r for r in resid) / (n - 1) / sxx
    return slope, math.sqrt(var), math.sqrt(sum(r * r for r in resid) / n), n


@st.composite
def sweep_points(draw):
    """N and (k, minC) points with minC >= k, as a sweep has them, repeats
    included; at least two distinct usable min(k, N-k)."""
    n = draw(st.integers(4, 300))
    ks = st.integers(0, n)
    points = draw(st.lists(st.tuples(ks, st.integers(0, 3 * n)), min_size=2, max_size=400))
    points = [(k, float(k + extra)) for k, extra in points]
    # repeat some rows, as the rows of one k repeat one minC
    points += draw(st.lists(st.sampled_from(points), max_size=200))
    usable = {min(k, n - k) for k, _ in points if 0 < k < n}
    assume(len(usable) >= 2)
    return n, points


class TestFitCeff:
    def test_recovers_generating_slope_exactly(self):
        fit = fit_ceff(synthetic_points(64, 2.0), 64)
        assert fit.c_eff == pytest.approx(2.0, abs=1e-10)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-10)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_drops_degenerate_k(self):
        points = [(0, 5.0), (64, 3.0)] + synthetic_points(64, 1.5)
        fit = fit_ceff(points, 64)
        assert fit.c_eff == pytest.approx(1.5, abs=1e-10)
        assert fit.n_points == 63

    @pytest.mark.parametrize("k", [-1, 65])
    def test_rejects_k_outside_boundary(self, k):
        # a k > N row means N is not the swept graph's leg count
        with pytest.raises(ValueError, match=f"k = {k} lies outside 0..N = 0..64"):
            fit_ceff(synthetic_points(64, 2.0) + [(k, 3.0)], 64)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two usable"):
            fit_ceff([(3, 4.0)], 8)

    def test_degenerate_design(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_ceff([(2, 3.0), (6, 7.0)], 8)  # min(k, N-k) = 2 for both

    @pytest.mark.parametrize(
        "points,quantity",
        [
            ([(1, 1.0), (2, 1e308), (3, 1.7e308)], "sum of x\\*y"),
            ([(1, 1.0), (2, 2 + 1.5e308)], "slope"),
            ([(1, -5.0), (2, -7.0), (3, 1e300)], "residual sum"),  # a float ** raises here
            ([(1, 1 + 1.2e154), (2, 2.0)], "stderr"),
        ],
    )
    def test_overflow_is_named(self, points, quantity):
        # every fitted value is finite or the quantity that overflowed is named
        with pytest.raises(OverflowError, match=f"^{quantity} overflows a double$"):
            fit_ceff(points, 5)

    @given(sweep_points(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_row_order_and_counting_leave_the_fit_unchanged(self, case, rng):
        n, points = case
        fit = fit_ceff(points, n)
        assert fit_ceff(iter(points), n) == fit
        c_eff, stderr, rms, n_points = two_list_fit(points, n)
        # in row order the slope is the row-by-row one, bit for bit
        assert fit.c_eff == c_eff
        assert fit.n_points == n_points
        # a residual that cancels to round-off has no relative precision
        scale = 1e-12 * max(abs(y) for _, y in points)
        assert fit.stderr == pytest.approx(stderr, rel=1e-12, abs=scale)
        assert fit.residual_rms == pytest.approx(rms, rel=1e-12, abs=scale)
        shuffled = list(points)
        rng.shuffle(shuffled)
        other = fit_ceff(shuffled, n)
        assert other.n_points == fit.n_points
        assert other.c_eff == pytest.approx(fit.c_eff, rel=1e-12)
        assert other.stderr == pytest.approx(fit.stderr, rel=1e-12, abs=scale)
        assert other.residual_rms == pytest.approx(fit.residual_rms, rel=1e-12, abs=scale)


class TestCeffApprox:
    def test_37_numerator(self):
        # (2l+1)/ln(N/2)
        assert ceff_approx(3, 3, 7, 87) == pytest.approx(7 / math.log(43.5))

    def test_54_numerator(self):
        # (7l+1)/2 / ln(N/2)
        assert ceff_approx(2, 5, 4, 95) == pytest.approx(7.5 / math.log(47.5))

    def test_unsupported_tiling(self):
        with pytest.raises(NotImplementedError):
            ceff_approx(2, 4, 5, 50)

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            ceff_approx(0, 3, 7, 12)


class TestArcLength:
    def test_origin(self):
        assert arc_length(0.0, math.pi, 1.0) == 0.0

    def test_halfway_example(self):
        assert arc_length(0.5, math.pi, 1.0) == pytest.approx(4 * math.pi / 3)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            arc_length(1.0, math.pi, 1.0)

    @given(st.floats(0.01, 0.99), st.floats(0.1, 6.0), st.floats(0.5, 3.0))
    @settings(max_examples=40, derandomize=True)
    def test_inverse_round_trip(self, rho, phi, radius):
        length = arc_length(rho, phi, radius)
        rho_back = (-phi * radius + math.sqrt(length**2 + (phi * radius) ** 2)) / length
        assert rho_back == pytest.approx(rho, rel=1e-9)


class TestPoincareGeodesic:
    def test_coincident_points(self):
        assert poincare_geodesic(0.3, 1.0, 0.3, 1.0, 2.0) == 0.0

    def test_symmetric_pair_equals_chord_formula(self):
        rho, phi, radius = 0.7, 1.3, 1.5
        chord = radius * math.acosh(1 + 4 * rho**2 * (1 - math.cos(phi)) / (1 - rho**2) ** 2)
        assert poincare_geodesic(rho, 0.0, rho, phi, radius) == pytest.approx(chord)

    def test_near_boundary_asymptote(self):
        rho, radius = 1 - 1e-6, 1.0
        length = arc_length(rho, math.pi, radius)
        d = poincare_geodesic(rho, 0.0, rho, math.pi, radius)
        asym = 2 * radius * math.log(2 * length / (math.pi * radius))
        assert abs(d - asym) / asym < 1e-3

    def test_nearby_points_keep_their_distance(self):
        # from the centre the distance is 2 atanh(rho), 2 rho for tiny rho
        assert poincare_geodesic(0.0, 0.0, 1.78e-9, 0.0, 1.0) == pytest.approx(3.56e-9, rel=1e-12)

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            poincare_geodesic(1.0, 0.0, 0.5, 1.0, 1.0)

    @given(
        st.floats(0.0, 0.95),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 0.95),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.0, 0.95),
        st.floats(0.0, 2 * math.pi),
    )
    # acosh(1 + 2u) rounds to 0 for u below 1e-16, which broke the triangle
    # inequality here by 2.6e-9
    @example(0.0, 0.0, 1.78e-9, 0.0, 0.5, 0.0)
    @settings(max_examples=60, derandomize=True)
    def test_metric_axioms(self, r1, p1, r2, p2, r3, p3):
        d12 = poincare_geodesic(r1, p1, r2, p2, 1.0)
        d21 = poincare_geodesic(r2, p2, r1, p1, 1.0)
        d13 = poincare_geodesic(r1, p1, r3, p3, 1.0)
        d23 = poincare_geodesic(r2, p2, r3, p3, 1.0)
        assert d12 == pytest.approx(d21, rel=1e-12, abs=1e-12)
        assert d12 >= 0
        assert d13 <= d12 + d23 + 1e-9


class TestCeffContinuous:
    def test_approaches_twice_radius(self):
        # convergence is logarithmic: check the gap to 2R shrinks and the
        # first-order correction 2R ln(2/(pi R))/ln L accounts for it
        for radius in (1.0, 2.5):
            gaps = []
            for rho in (1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
                val = ceff_continuous(rho, math.pi, radius)
                length = arc_length(rho, math.pi, radius)
                corrected = 2 * radius * (1 + math.log(2 / (math.pi * radius)) / math.log(length))
                assert val == pytest.approx(corrected, rel=1e-2)
                gaps.append(abs(2 * radius - val))
            assert gaps == sorted(gaps, reverse=True)

    def test_logarithmic_correction(self):
        rho = 1 - 1e-6
        length = arc_length(rho, math.pi, 1.0)
        deviation = 2.0 - ceff_continuous(rho, math.pi, 1.0)
        predicted = 2 * math.log(math.pi / 2) / math.log(length)
        assert deviation == pytest.approx(predicted, rel=0.01)

    def test_monotone_approach_above_09(self):
        vals = [ceff_continuous(rho, math.pi, 1.0) for rho in (0.95, 0.99, 0.999, 0.9999)]
        gaps = [2.0 - v for v in vals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert all(gap > 0 for gap in gaps)

    def test_asymptotic_radius_scaling(self):
        # degree-1 homogeneity in R holds only asymptotically (ln L picks
        # up a ln R shift): the ratio approaches 3 as rho -> 1
        errs = []
        for rho in (1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
            ratio = ceff_continuous(rho, math.pi, 3.0) / ceff_continuous(rho, math.pi, 1.0)
            errs.append(abs(ratio - 3.0))
        assert errs == sorted(errs, reverse=True)
        # the residual shrinks like ln(R)/ln(L); ~0.11 is as close as
        # double-precision rho can push it
        assert errs[-1] < 0.12


class TestGeometryParams:
    """The disk parameters (R, rho, phi) are checked where an arc is measured."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(R=0.0), dict(rho=1.0), dict(phi=0.0), dict(phi=7.0), dict(R=-2.0),
            dict(R=math.inf), dict(R=math.nan), dict(rho=math.nan), dict(phi=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(R=1.0, rho=0.5, phi=math.pi)
        base.update(kwargs)
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"^{name} "):
            arc_length(**base)
        with pytest.raises(ValueError, match=f"^{name} "):
            ceff_continuous(**base)

    @pytest.mark.parametrize("radius", [0.0, -2.0, math.inf, math.nan])
    def test_geodesic_needs_positive_radius(self, radius):
        with pytest.raises(ValueError, match="^R "):
            poincare_geodesic(0.5, 0.0, 0.5, 1.0, radius)

    def test_overflow_is_named(self):
        # finite inputs whose result no double holds: an error, never inf
        with pytest.raises(OverflowError, match="^arc length overflows"):
            arc_length(0.9, 1.0, 1e308)
        with pytest.raises(OverflowError, match="^arc length overflows"):
            ceff_continuous(0.9, 1.0, 1e308)
        with pytest.raises(OverflowError, match="^geodesic overflows"):
            poincare_geodesic(0.0, 0.0, 0.9, 0.0, 1e308)
        assert math.isfinite(ceff_continuous(0.9, 1.0, 1e300))
