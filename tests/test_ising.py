"""Exhaustive statistical-model evaluation against closed forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoshadow as hs
from holoshadow.core import ModelParams, SupportMask, plr_from_ef
from holoshadow.cuts import min_cut_exact, pinned_for_interval
from holoshadow.ising import MAX_VERTICES, SpinModel, energy
from holoshadow.tiling import two_tile_graph


@pytest.fixture(scope="module")
def two_tile():
    return two_tile_graph(3)


def region_interval(g, start, length):
    return SupportMask.interval(g.n_legs, start, length)


class TestEnergy:
    def test_two_tile_configurations(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2), "per-vertex")
        j, h = model.params.J, model.params.h
        assert energy({0: 1, 1: 1}, model) == pytest.approx(-j - 2 * h)
        assert energy({0: -1, 1: 1}, model) == pytest.approx(j)
        assert energy({0: 1, 1: -1}, model) == pytest.approx(j)
        assert energy({0: -1, 1: -1}, model) == pytest.approx(-j + 2 * h)

    def test_per_leg_field_counts_legs(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2), "per-leg")
        j, h = model.params.J, model.params.h
        assert energy({0: 1, 1: 1}, model) == pytest.approx(-j - 4 * h)

    def test_unknown_field_mode(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2), "per-edge")
        with pytest.raises(ValueError, match="mode must be one of"):
            energy({0: 1, 1: 1}, model)

    def test_missing_vertex(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2))
        with pytest.raises(ValueError, match="misses"):
            energy({0: 1}, model)

    def test_vertex_cap(self):
        g = hs.generate_tiling(3, 7, 3)  # 61 tiles
        assert g.n_vertices > MAX_VERTICES
        with pytest.raises(ValueError, match="capped"):
            SpinModel(g, ModelParams(2))


class TestPlrExact:
    def test_empty_support(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2))
        assert hs.plr_exact(model, SupportMask.empty(4)).w == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_two_tile_closed_form(self, two_tile, d):
        # exact four-configuration sum: w = 2/(d^2+3); 2/7 at d = 2
        model = SpinModel(two_tile, ModelParams(d), "per-vertex")
        w = hs.plr_exact(model, region_interval(two_tile, 2, 2)).w
        assert w == pytest.approx(2 / (d * d + 3), rel=1e-12)

    def test_always_positive(self):
        g = hs.generate_tiling(3, 7, 2)
        model = SpinModel(g, ModelParams(2))
        for start, k in [(0, 1), (2, 5), (0, 12)]:
            assert hs.plr_exact(model, region_interval(g, start, k)).w > 0

    @given(offset=st.floats(min_value=-7.0, max_value=7.0))
    @settings(max_examples=25, deadline=None)
    def test_energy_offset_is_pure_gauge(self, two_tile, offset):
        base = SpinModel(two_tile, ModelParams(3), "per-vertex")
        shifted = SpinModel(two_tile, ModelParams(3), "per-vertex", energy_offset=offset)
        iv = region_interval(two_tile, 2, 2)
        assert hs.plr_exact(shifted, iv).w == pytest.approx(hs.plr_exact(base, iv).w, rel=1e-9)
        assert hs.entanglement_feature(shifted, {1}) == pytest.approx(
            hs.entanglement_feature(base, {1}), rel=1e-9
        )


class TestEntanglementFeature:
    def test_empty_region(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2))
        assert hs.entanglement_feature(model, set()) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_per_vertex_closed_form(self, two_tile, d):
        # exhaustive 4-configuration sum gives (3d^2+1)/(d(d^2+3))
        model = SpinModel(two_tile, ModelParams(d), "per-vertex")
        w = hs.entanglement_feature(model, {1})
        assert w == pytest.approx((3 * d * d + 1) / (d * (d * d + 3)), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_per_leg_matches_gaussian_average(self, two_tile, d):
        # independent oracle: the exact two-replica Gaussian tensor average
        # (sum over per-tile permutations of loop counts) gives
        # (d^4 + 2d^3 + 1)/(d (d^4 + 2d + 1)) for this region
        model = SpinModel(two_tile, ModelParams(d), "per-leg")
        w = hs.entanglement_feature(model, {1})
        expected = (d**4 + 2 * d**3 + 1) / (d * (d**4 + 2 * d + 1))
        assert w == pytest.approx(expected, rel=1e-12)

    def test_full_region_finite(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2))
        w = hs.entanglement_feature(model, {0, 1})
        assert 0 < w <= 1.0 + 1e-12

    def test_rejects_interior_vertices(self):
        g = hs.generate_tiling(3, 7, 2)
        model = SpinModel(g, ModelParams(2))
        with pytest.raises(ValueError, match="non-boundary"):
            hs.entanglement_feature(model, {0})


class TestRenyiVsCut:
    def test_empty_interval(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2))
        rows = hs.renyi_vs_cut(model, SupportMask.empty(4), [2, 8])
        assert all(r["renyi_over_log_d"] == 0 and r["bulkC"] == 0 for r in rows)

    def test_two_tile_converges_to_one(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2), "per-vertex")
        rows = hs.renyi_vs_cut(model, region_interval(two_tile, 2, 2), [2, 8, 64])
        devs = [abs(r["renyi_over_log_d"] - r["bulkC"]) for r in rows]
        assert all(r["bulkC"] == 1 for r in rows)
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] <= 0.3

    def test_37_half_boundary_at_large_d(self):
        g = hs.generate_tiling(3, 7, 2)
        model = SpinModel(g, ModelParams(2), "per-vertex")
        iv = region_interval(g, 0, g.n_legs // 2)
        rows = hs.renyi_vs_cut(model, iv, [4, 16, 64])
        assert rows[-1]["bulkC"] == 3
        devs = [abs(r["renyi_over_log_d"] - r["bulkC"]) for r in rows]
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] <= 0.3


class TestExponentLaw:
    def test_matches_min_cut_at_d64(self):
        # -log_d w approaches the optimizer's minC in the same field mode
        g = hs.generate_tiling(3, 7, 2)
        model = SpinModel(g, ModelParams(64), "per-vertex")
        n = g.n_legs
        for start, k in [(0, 1), (0, 3), (2, 4), (5, 6), (0, 12)]:
            iv = region_interval(g, start, k)
            r = hs.plr_exact(model, iv)
            cut = min_cut_exact(g, pinned_for_interval(g, iv), "per-vertex")
            assert abs(r.log_d_norm - cut.min_cost) <= 0.3


class TestOptimalityBound:
    def test_empty_region_vacuous(self, two_tile):
        model = SpinModel(two_tile, ModelParams(2))
        assert hs.optimality_check(model, SupportMask.empty(4))

    def test_tree_single_leg_satisfies_bound(self):
        # 1/(d^2+1) <= 1/(d+1): the tree rate meets the one-site bound
        r = hs.plr_tree(SupportMask(2, frozenset({0})), hs.TreeSpec(2, 2), exact=True)
        assert r.w <= Fraction(1, 3)

    def test_two_tile_vertex_granularity_caveat(self, two_tile):
        # per-vertex pinning floors the rate at 2/7 > 1/5: the leg-level
        # bound fails at vertex granularity, as documented
        model = SpinModel(two_tile, ModelParams(2), "per-vertex")
        assert hs.optimality_check(model, region_interval(two_tile, 2, 2)) is False

    def test_deep_region_on_larger_graph_passes(self):
        # with real bulk the rates sink fast enough to meet the bound
        g = hs.generate_tiling(3, 7, 2)
        model = SpinModel(g, ModelParams(2), "per-vertex")
        assert hs.optimality_check(model, region_interval(g, 0, 1)) is True
        assert hs.optimality_check(model, region_interval(g, 0, 2)) is True


class TestEfRouteLeadingOrder:
    def test_leg_formula_on_model_features_agrees_at_large_d(self, two_tile):
        # the leg-level conversion applied to tile-level model features
        # reproduces the pinned-spin rate only to leading order in d, and
        # only in the per-leg field mode (the exact Gaussian convention)
        d = 64
        model = SpinModel(two_tile, ModelParams(d), "per-leg")
        support = region_interval(two_tile, 2, 2)
        ef = {}
        from holoshadow.core import subsets_of

        for b in subsets_of(support.sites):
            region = frozenset(two_tile.owners[j] for j in b)
            ef[b] = hs.entanglement_feature(model, region)
        via_ef = plr_from_ef(support, ef, d)
        direct = hs.plr_exact(model, support).w
        assert abs(math.log(via_ef, d) - math.log(direct, d)) <= 0.3
