"""Statistical-model evaluation against closed forms and enumeration."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holoshadow as hs
from holoshadow.cli import run
from holoshadow import ising
from holoshadow.core import ModelParams, SupportMask, plr_from_ef, subsets_of
from holoshadow.cuts import min_cut_exact, pinned_for_interval
from holoshadow.ising import MAX_TABLE_ENTRIES, SpinModel, _log_boltzmann_sum
from holoshadow.tiling import MODES, two_tile_graph

from conftest import enumerated_log_z, random_planar_graph

OPTIMALITY_GRAPHS = {pqn: hs.generate_tiling(*pqn) for pqn in [(3, 7, 2), (3, 7, 3), (5, 4, 2)]}

FIXED_GRAPHS = {
    "{3,7}x1": hs.generate_tiling(3, 7, 1),  # one tile: legs but no edges
    "{3,7}x2": hs.generate_tiling(3, 7, 2),
    "{5,4}x2": hs.generate_tiling(5, 4, 2),
}


@pytest.fixture(scope="module")
def two_tile():
    return two_tile_graph(3)


def region_interval(g, start, length):
    return SupportMask.interval(g.n_legs, start, length)


class TestSpinModel:
    def test_unknown_field_mode(self, two_tile):
        with pytest.raises(ValueError, match="mode must be one of"):
            SpinModel(two_tile, ModelParams(2), "per-edge")

    def test_one_sum_per_query(self, monkeypatch):
        # the free sum and the order are derived once, at construction
        g = hs.generate_tiling(3, 7, 3)
        counts = {"sum": 0, "order": 0}

        def counted(name, func):
            def wrapper(*args):
                counts[name] += 1
                return func(*args)

            return wrapper

        monkeypatch.setattr(ising, "_elimination_order", counted("order", ising._elimination_order))
        model = SpinModel(g, ModelParams(3), "per-leg")
        monkeypatch.setattr(ising, "_log_boltzmann_sum", counted("sum", ising._log_boltzmann_sum))
        support = SupportMask.interval(g.n_legs, 2, 7)
        region = pinned_for_interval(g, support)
        for query in (
            lambda: hs.plr_exact(model, support),
            lambda: ising.log_entanglement_feature(model, region),
            lambda: hs.optimality_check(model, support),
        ):
            counts["sum"] = 0
            query()
            assert counts["sum"] == 1
        for d_list in ([2], [2, 3, 10**6, 10**200]):
            counts["order"] = 0
            hs.renyi_vs_cut(SpinModel(g, ModelParams(2), "per-vertex"), support, d_list)
            assert counts["order"] == 1


class TestElimination:
    @given(
        graph=st.sampled_from([*FIXED_GRAPHS, "random"]),
        seed=st.integers(0, 2**32 - 1),
        tiles=st.integers(4, 20),
        d=st.sampled_from([2, 3, 10**6, 10**200]),
        mode=st.sampled_from(MODES),
        pin_rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    @example(graph="{3,7}x2", seed=0, tiles=4, d=10**200, mode="per-leg", pin_rate=1.0)
    @example(graph="{3,7}x1", seed=0, tiles=4, d=3, mode="per-leg", pin_rate=0.0)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_matches_enumeration(self, graph, seed, tiles, d, mode, pin_rate):
        # random pins and field flips, each drawn from the seed
        rng = random.Random(seed)
        if graph == "random":
            g = random_planar_graph(np.random.default_rng(seed), tiles, rng.random() / 2)
        else:
            g = FIXED_GRAPHS[graph]
        model = SpinModel(g, ModelParams(d), mode)
        pinned = {v: rng.choice((-1, 1)) for v in range(g.n_vertices) if rng.random() < pin_rate}
        tau = {v: -1 for v in range(g.n_vertices) if g.boundary_legs[v] and rng.random() < 0.5}
        got = _log_boltzmann_sum(model, model.params.h, pinned, tau)
        assert abs(got - enumerated_log_z(model, pinned, tau)) <= 1e-9

    def test_cap_limits_cost_not_tiles(self, tmp_path, capsys):
        # 181 tiles sum in 2,923 table entries; -log_d w closes in on minC
        g = hs.generate_tiling(3, 7, 4)
        for start, k in [(0, 3), (5, 8), (20, 20), (40, 43)]:
            iv = region_interval(g, start, k)
            cut = min_cut_exact(g, pinned_for_interval(g, iv), "per-vertex").min_cost
            devs = [
                abs(hs.plr_exact(SpinModel(g, ModelParams(d), "per-vertex"), iv).log_d_norm - cut)
                for d in (64, 1024)
            ]
            assert devs[1] < devs[0]
        # {3,7}x7 (3481 tiles) needs about 3.6 million entries
        gpath = tmp_path / "g37_7.json"
        assert run(["tiling", "gen", "--p", "3", "--q", "7", "--layers", "7", "--out", str(gpath)]) == 0
        g = hs.TilingGraph.load(gpath)
        with pytest.raises(ValueError, match=f"more than {MAX_TABLE_ENTRIES} table entries") as err:
            SpinModel(g, ModelParams(2))
        assert "\n" not in str(err.value)
        assert run(["ising", "plr", "--graph", str(gpath), "--d", "2", "--support", "0:3"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: variable elimination")


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
        # 0.0, not -0.0
        assert all(math.copysign(1.0, r["renyi_over_log_d"]) == 1.0 for r in rows)

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

    def test_underflowing_feature_reads_its_log(self):
        # W < 1e-380 at d = 10^130 underflows a double; -log_d W is still ~ bulkC
        g = hs.generate_tiling(3, 7, 2)
        model = SpinModel(g, ModelParams(2), "per-vertex")
        rows = hs.renyi_vs_cut(model, region_interval(g, 0, 6), [2, 10**130])
        assert rows[-1]["bulkC"] == 3
        assert rows[-1]["renyi_over_log_d"] == pytest.approx(3.0, abs=1e-9)


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

    def test_bound_beyond_float_range(self):
        # d^6 = 10^1200 overflows a double; the bound is compared in log_d space
        g = hs.generate_tiling(3, 7, 2)
        model = SpinModel(g, ModelParams(10**200), "per-leg")
        assert hs.optimality_check(model, region_interval(g, 0, 6)) is True

    @given(
        graph=st.sampled_from([(3, 7, 2), (3, 7, 3), (5, 4, 2)]),
        mode=st.sampled_from(MODES),
        d=st.sampled_from([2, 3, 10**6]),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_full_support_is_least_rate(self, graph, mode, d, k, seed):
        # the definition: the least rate over every non-empty sub-support
        g = OPTIMALITY_GRAPHS[graph]
        model = SpinModel(g, ModelParams(d), mode)
        region = SupportMask(g.n_legs, frozenset(random.Random(seed).sample(range(g.n_legs), k)))

        def log_pinned(tiles):
            return _log_boltzmann_sum(model, model.params.h, dict.fromkeys(tiles, -1), {})

        subs = {pinned_for_interval(g, SupportMask(g.n_legs, sub)) for sub in subsets_of(region.sites) if sub}
        log_num = min(map(log_pinned, subs))
        assert log_num == pytest.approx(log_pinned(pinned_for_interval(g, region)), rel=1e-12, abs=1e-12)
        log_d = math.log(d)
        bound = k + math.log1p(math.exp(-k * log_d)) / log_d
        assert hs.optimality_check(model, region) == ((model.log_z - log_num) / log_d >= bound)

    def test_large_region_answers(self):
        # 21 of 33 legs: 2^21 sub-supports, one pinned sum
        g = hs.generate_tiling(3, 7, 3)
        model = SpinModel(g, ModelParams(2), "per-leg")
        region = region_interval(g, 5, 21)
        bound = 21 + math.log2(1 + 2.0**-21)
        assert hs.optimality_check(model, region) is (hs.plr_exact(model, region).log_d_norm >= bound)


class TestEfRouteLeadingOrder:
    def test_leg_formula_on_model_features_agrees_at_large_d(self, two_tile):
        # the leg-level conversion applied to tile-level model features
        # reproduces the pinned-spin rate only to leading order in d, and
        # only in the per-leg field mode (the exact Gaussian convention)
        d = 64
        model = SpinModel(two_tile, ModelParams(d), "per-leg")
        support = region_interval(two_tile, 2, 2)
        ef = {}
        for b in subsets_of(support.sites):
            region = frozenset(two_tile.owners[j] for j in b)
            ef[b] = hs.entanglement_feature(model, region)
        via_ef = plr_from_ef(support, ef, d)
        direct = hs.plr_exact(model, support).w
        assert abs(math.log(via_ef, d) - math.log(direct, d)) <= 0.3
