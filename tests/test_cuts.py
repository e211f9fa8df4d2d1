"""Minimal-cut solvers: geodesic vs optimizer, sweeps, large-d rates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoshadow as hs
from holoshadow.core import SupportMask
from holoshadow.cuts import (
    _HullCuts,
    bulk_geodesic,
    cut_sweep,
    min_cut_exact,
    pinned_for_interval,
    plr_large_d,
)
from holoshadow.tiling import dual_graph, two_tile_graph

from conftest import drawn_graph, maxflow_cuts, oracle_sweep, random_planar_graph


@pytest.fixture(scope="module")
def two_tile():
    return two_tile_graph(3)


PATCHES = ((3, 7, 3), (5, 4, 3), (4, 5, 3))


@pytest.fixture(scope="module")
def tilings():
    return {shape: hs.generate_tiling(*shape) for shape in PATCHES}


def triple(cut):
    return cut.bdry_cost, cut.bulk_cost, cut.min_cost


def hub_graph():
    """Twelve one-leg rim tiles A, B, C, R1..R8, Z in a cycle; C..Z also
    meet an interior hub, and interior tiles I1..I5 each touch both A and
    B, chained from the rim to the hub.  The wall around A alone costs
    1 + 7; flipping A, B and I1..I5 costs 2 + 3 (A-Z, B-C, I5-hub)."""
    points = [(10 * math.cos(math.pi * i / 6), 10 * math.sin(math.pi * i / 6)) for i in range(12)]
    chain = [12 + i for i in range(5)]
    points += [(r * math.cos(math.pi / 12), r * math.sin(math.pi / 12)) for r in (9, 7.5, 6, 4.5, 3)]
    hub = len(points)
    points.append((0.0, 0.0))
    edges = [(i, (i + 1) % 12) for i in range(12)]
    for i, tile in enumerate(chain):
        edges += [(tile, 0), (tile, 1), (tile, chain[i + 1] if i < 4 else hub)]
    edges += [(hub, v) for v in range(2, 12)]
    return drawn_graph(points, edges, [(v, 1) for v in range(12)])


def hung_tile_graph():
    """A pentagon of rim tiles; tile 0 owns two legs, and between them hang
    two leg-less tiles, 5 and 6, in a triangle with it.  So the gap between
    tile 0's legs, inside its run, borders the triangle's face."""
    points = [(10 * math.cos(2 * math.pi * i / 5), 10 * math.sin(2 * math.pi * i / 5)) for i in range(5)]
    points += [(30.0, 0.5), (30.0, -0.5)]
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6), (0, 6)]
    return drawn_graph(points, edges, [(0, 2), (1, 1), (2, 1), (3, 1), (4, 1)])


def assert_sweep_matches(g, oracle):
    """Every row of both modes' sweeps equals the oracle's (bdryC, bulkC,
    minC), except per-leg rows that are their own hull and whose cut is
    the global flip N: they keep the wall k + geodesic, so only
    min(minC, N) is compared."""
    n = g.n_legs
    aligned = g.aligned
    for mode in ("per-leg", "per-vertex"):
        rows = list(cut_sweep(g, mode))
        assert len(rows) == n * (n - 1) + 1
        want_by_key = oracle(g, mode, [(r["start"], r["k"]) for r in rows if r["k"]])
        for row in rows[1:]:
            got = (row["bdryC"], row["bulkC"], row["minC"])
            want = want_by_key[(row["start"], row["k"])]
            own_hull = row["start"] in aligned and (row["start"] + row["k"]) % n in aligned
            if mode == "per-leg" and own_hull and row["minC"] >= n:
                assert min(row["minC"], n) == want[2], (mode, row, want)
            else:
                assert got == want, (mode, row, want)


def package_oracle(g, mode, intervals):
    n = g.n_legs
    out = {}
    for start, k in intervals:
        cut = min_cut_exact(g, pinned_for_interval(g, SupportMask.interval(n, start, k)), mode)
        out[(start, k)] = (cut.bdry_cost, cut.bulk_cost, cut.min_cost)
    return out


class TestMinCutExact:
    def test_nothing_pinned(self, two_tile):
        cut = min_cut_exact(two_tile, frozenset(), "per-vertex")
        assert (cut.bdry_cost, cut.bulk_cost, cut.min_cost) == (0, 0, 0)

    def test_two_tile_single_pin(self, two_tile):
        # pinning one tile: flip it alone (1 boundary + 1 wall), tied with
        # flipping both (2 boundary); the optimizer reports the wall cut
        cut = min_cut_exact(two_tile, {0}, "per-vertex")
        assert (cut.bdry_cost, cut.bulk_cost, cut.min_cost) == (1, 1, 2)

    def test_all_boundary_pinned_flips_globally(self):
        g = hs.generate_tiling(3, 7, 2)
        bdry = {v for v in range(g.n_vertices) if g.boundary_legs[v]}
        cut = min_cut_exact(g, bdry, "per-vertex")
        assert (cut.bdry_cost, cut.bulk_cost, cut.min_cost) == (len(bdry), 0, len(bdry))

    def test_per_leg_weighs_leg_count(self, two_tile):
        cut = min_cut_exact(two_tile, {0}, "per-leg")
        assert cut.min_cost == 3  # 2 legs + 1 wall

    def test_rejects_interior_pin(self):
        g = hs.generate_tiling(3, 7, 2)
        with pytest.raises(ValueError, match="owns no boundary legs"):
            min_cut_exact(g, {0}, "per-vertex")  # the central tile has no legs

    def test_witness_is_consistent_optimal_cut(self):
        g = hs.generate_tiling(3, 7, 2)
        pinned = {g.owners[j] for j in range(3)}
        cut = min_cut_exact(g, pinned, "per-leg")
        assert cut.witness is not None and pinned <= cut.witness
        bdry = sum(len(g.boundary_legs[v]) for v in cut.witness)
        bulk = sum(1 for u, v in g.edges if (u in cut.witness) != (v in cut.witness))
        assert (bdry, bulk) == (cut.bdry_cost, cut.bulk_cost)


class TestBulkGeodesic:
    def test_empty_and_full(self, two_tile):
        dual = dual_graph(two_tile)
        assert bulk_geodesic(two_tile, dual, SupportMask.empty(4)) == 0
        assert bulk_geodesic(two_tile, dual, SupportMask.interval(4, 0, 4)) == 0

    def test_two_tile_crossing(self, two_tile):
        dual = dual_graph(two_tile)
        iv = SupportMask.interval(4, 2, 2)
        assert bulk_geodesic(two_tile, dual, iv) == 1

    def test_rejects_noncontiguous(self, two_tile):
        dual = dual_graph(two_tile)
        with pytest.raises(ValueError, match="not contiguous"):
            bulk_geodesic(two_tile, dual, SupportMask(4, frozenset({0, 2})))

    def test_partial_tile_interval_has_no_dual_path(self):
        g = hs.generate_tiling(5, 4, 2)
        dual = dual_graph(g)
        n = g.n_legs
        # find an interval boundary splitting one tile's legs
        aligned = g.aligned
        start = next(j for j in range(n) if j not in aligned)
        with pytest.raises(ValueError, match="use plr_large_d instead"):
            bulk_geodesic(g, dual, SupportMask.interval(n, start, 1))

    @pytest.mark.parametrize("layers,expected", [(2, 3), (3, 5)])
    def test_37_half_boundary(self, layers, expected):
        g = hs.generate_tiling(3, 7, layers)
        dual = dual_graph(g)
        n = g.n_legs
        vals = {
            bulk_geodesic(g, dual, SupportMask.interval(n, s, n // 2)) for s in range(n)
        }
        assert vals == {expected}

    def test_complement_has_same_geodesic(self):
        g = hs.generate_tiling(3, 7, 3)
        dual = dual_graph(g)
        n = g.n_legs
        for start, k in [(0, 5), (7, 11), (20, 2)]:
            iv = SupportMask.interval(n, start, k)
            comp = SupportMask.interval(n, (start + k) % n, n - k)
            assert bulk_geodesic(g, dual, iv) == bulk_geodesic(g, dual, comp)


class TestPlrLargeD:
    def test_empty_interval(self, two_tile):
        assert plr_large_d(two_tile, SupportMask.empty(4)) == hs.CutResult(0, 0, 0)

    def test_exponent_is_exact_integer(self, two_tile):
        cut = plr_large_d(two_tile, SupportMask.interval(4, 2, 2), mode="per-vertex")
        assert triple(cut) == (1, 1, 2) and type(cut.min_cost) is int

    def test_full_boundary_per_vertex(self):
        g = hs.generate_tiling(3, 7, 2)
        n_bdry = sum(1 for v in range(g.n_vertices) if g.boundary_legs[v])
        r = plr_large_d(g, SupportMask.interval(g.n_legs, 0, g.n_legs), "per-vertex")
        assert r == hs.CutResult(n_bdry, 0, n_bdry)

    def test_per_leg_norm_at_least_k(self):
        g = hs.generate_tiling(3, 7, 2)
        n = g.n_legs
        for start, k in [(0, 1), (3, 4), (5, 9), (1, 11)]:
            r = plr_large_d(g, SupportMask.interval(n, start, k), "per-leg")
            assert r.min_cost >= k

    def test_noncontiguous_support_takes_max_flow(self, graphs37):
        g = graphs37[3]
        support = SupportMask(g.n_legs, frozenset({0, 1, 7, 20, 21, 22}))
        for mode in ("per-leg", "per-vertex"):
            cut = min_cut_exact(g, pinned_for_interval(g, support), mode)
            assert plr_large_d(g, support, mode) == cut

    def test_mixed_cut_on_hub_graph(self):
        # the cheapest region flips a rim tile outside the interval's hull
        g = hub_graph()
        for mode in ("per-leg", "per-vertex"):
            assert triple(plr_large_d(g, SupportMask.interval(12, 0, 1), mode)) == (2, 3, 5)

    @pytest.mark.parametrize("shape,sample", zip(PATCHES, (None, 400, 400)))
    def test_interval_triple_matches_oracle(self, tilings, shape, sample):
        # every interval of {3,7}x3 (33 x 32), and a fixed sample of the
        # larger {5,4}x3 and {4,5}x3, against scipy's max-flow
        g = tilings[shape]
        n = g.n_legs
        intervals = [(start, k) for start in range(n) for k in range(1, n)]
        if sample is not None:
            intervals = [intervals[i] for i in np.random.default_rng(17).choice(len(intervals), sample, replace=False)]
        for mode in ("per-leg", "per-vertex"):
            oracle = oracle_sweep(g, mode, intervals)
            for start, k in intervals:
                cut = plr_large_d(g, SupportMask.interval(n, start, k), mode)
                assert triple(cut) == oracle[(start, k)], (mode, start, k)

    @given(
        st.sampled_from(PATCHES),
        st.sampled_from(["per-leg", "per-vertex"]),
        st.lists(st.tuples(st.integers(0, 999), st.integers(1, 8)), min_size=2, max_size=4, unique_by=lambda part: part[0]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_union_is_the_max_flow_cut(self, tilings, shape, mode, parts):
        # unions of 2-4 intervals (starts taken mod the leg count; about 9
        # in 10 of the drawn unions are not one interval)
        g = tilings[shape]
        n = g.n_legs
        support = SupportMask.empty(n)
        for start, length in parts:
            support = support.union(SupportMask.interval(n, start % n, length))
        pinned = pinned_for_interval(g, support)
        cut, exact = plr_large_d(g, support, mode), min_cut_exact(g, pinned, mode)
        assert triple(cut) == triple(exact) == maxflow_cuts(g, mode, [pinned])[0]
        if support.contiguous_bounds() is None:  # the max-flow route: its witness too
            assert cut == exact


class TestCutSweep:
    def test_rows_stream(self, two_tile):
        rows = cut_sweep(two_tile, "per-vertex")
        assert iter(rows) is rows
        assert next(rows) == {"start": 0, "k": 0, "bdryC": 0, "bulkC": 0, "minC": 0}

    def test_errors_raise_before_the_first_row(self, two_tile):
        with pytest.raises(ValueError, match="unknown oracle"):
            cut_sweep(two_tile, oracle="bfs")
        with pytest.raises(ValueError, match="no rotation system"):
            cut_sweep(dataclasses.replace(two_tile, rotation=None))

    @pytest.mark.parametrize("mode", ["per-leg", "per-vertex"])
    def test_maxflow_sweep_needs_no_embedding(self, graphs37, mode):
        # the max-flow oracle prices every row from the tiles and edges
        # alone, so a graph without a rotation system sweeps the same
        g = graphs37[2]
        bare = dataclasses.replace(g, rotation=None)
        rows = list(cut_sweep(bare, mode, oracle="maxflow"))
        assert rows == list(cut_sweep(g, mode, oracle="maxflow"))
        for row in rows[1:]:
            pinned = pinned_for_interval(bare, SupportMask.interval(g.n_legs, row["start"], row["k"]))
            assert (row["bdryC"], row["bulkC"], row["minC"]) == triple(min_cut_exact(bare, pinned, mode))
        with pytest.raises(ValueError, match="mode must be one of"):
            cut_sweep(bare, "per-tile", oracle="maxflow")

    def test_pinned_tiles_need_the_graph_s_leg_count(self, two_tile):
        with pytest.raises(ValueError) as err:
            pinned_for_interval(two_tile, SupportMask.interval(two_tile.n_legs + 1, 0, 2))
        assert str(err.value) == f"interval over {two_tile.n_legs + 1} legs, graph has {two_tile.n_legs}"

    def test_zero_row_and_ordering(self, two_tile):
        rows = list(cut_sweep(two_tile, "per-vertex"))
        assert rows[0] == {"start": 0, "k": 0, "bdryC": 0, "bulkC": 0, "minC": 0}
        keys = [(r["k"], r["start"]) for r in rows]
        assert keys == sorted(keys)

    def test_value_identity_small_graphs(self, graphs37, graphs54):
        # the package's own max-flow minimum is min(k + geodesic, total
        # boundary cost): the wall solution when strictly cheaper, else the
        # global flip
        for g, aligned in ((graphs37[2], False), (graphs54[2], True)):
            n = g.n_legs
            for row in cut_sweep(g, "per-leg", vertex_aligned_only=aligned):
                if not row["k"]:
                    continue
                iv = SupportMask.interval(n, row["start"], row["k"])
                cut = min_cut_exact(g, pinned_for_interval(g, iv), "per-leg")
                wall = row["minC"]
                assert row["bdryC"] == row["k"]
                assert cut.min_cost == min(wall, n)
                if wall < n:
                    assert (cut.bdry_cost, cut.bulk_cost) == (row["bdryC"], row["bulkC"])
                elif wall > n:
                    assert (cut.bdry_cost, cut.bulk_cost) == (n, 0)

    @pytest.mark.parametrize(
        "p,q,layers", [(4, 5, 3), (3, 8, 3), (6, 4, 3), (5, 5, 3), (4, 6, 3), (3, 9, 3), (7, 3, 2), (8, 3, 2)]
    )
    def test_generated_patch_is_wall_or_flip(self, p, q, layers):
        # on a generated patch every aligned interval's minimum cut is the
        # wall around it or the global flip: minC = min(c + geodesic, total),
        # c the hull's boundary cost; any other interval reduces to its hull
        g = hs.generate_tiling(p, q, layers)
        n, ring = g.n_legs, sorted(g.aligned)
        dual = dual_graph(g)
        hops = dual.distances_from([dual.gap_index[j] for j in ring])
        for mode in ("per-leg", "per-vertex"):
            cost = g.boundary_cost(mode)
            total = sum(cost)
            hull = _HullCuts(g, mode, ring)
            for i, a in enumerate(ring):
                c = 0
                for step in range(1, len(ring)):
                    # the run of the tile at ring[i + step - 1] joins the hull
                    c += cost[g.owners[ring[(i + step - 1) % len(ring)]]]
                    b = ring[(i + step) % len(ring)]
                    geodesic = hops.lane(i, dual.gap_index[b])
                    assert hull.cut(a, (b - a) % n)[2] == min(c + geodesic, total), (mode, a, b)

    def test_auto_oracle_matches_maxflow_below_half(self, graphs37, graphs54):
        # every interval of both modes against scipy's max-flow
        for g in (graphs37[3], graphs54[3]):
            assert_sweep_matches(g, oracle_sweep)

    def test_hub_graph_matches_package_maxflow(self):
        g = hub_graph()
        assert_sweep_matches(g, package_oracle)
        for mode in ("per-leg", "per-vertex"):
            row = next(r for r in cut_sweep(g, mode) if (r["start"], r["k"]) == (0, 1))
            assert (row["bdryC"], row["bulkC"], row["minC"]) == (2, 3, 5)

    def test_tile_hung_inside_a_run_matches_maxflow(self):
        g = hung_tile_graph()
        dual = dual_graph(g)
        inside = next(j for j in range(g.n_legs) if j not in g.aligned)
        assert dual.neighbors[dual.gap_index[inside]]
        assert_sweep_matches(g, oracle_sweep)
        assert_sweep_matches(g, package_oracle)

    def test_one_start_prices_as_every_start(self, graphs54):
        # plr_large_d's hull reads its hop counts lane by lane; the sweep's
        # reads them off its own gap's int
        rng = np.random.default_rng(3)
        for g in (graphs54[3], hung_tile_graph(), random_planar_graph(rng, 20, 0.3)):
            n = g.n_legs
            for mode in ("per-leg", "per-vertex"):
                every = _HullCuts(g, mode, g.aligned)
                for start in range(n):
                    one = _HullCuts(g, mode, [start])
                    for k in range(1, n):
                        assert one.cut(start, k, False) == every.cut(start, k, False), (mode, start, k)

    def test_random_planar_graphs_match_maxflow(self):
        # Delaunay graphs with edges deleted: many cheapest regions here
        # mix a bulk wall with rim tiles outside the hull
        rng = np.random.default_rng(20240)
        for _ in range(40):
            g = random_planar_graph(rng, int(rng.integers(8, 30)), float(rng.random()) / 2)
            assert_sweep_matches(g, oracle_sweep)

    def test_monotone_bounded_increments(self, graphs37):
        # extending an interval by one leg can add at most that tile's legs
        # plus the wall edges needed to enclose it
        g = graphs37[3]
        rows = {(r["start"], r["k"]): r["minC"] for r in cut_sweep(g, "per-leg")}
        degree = [0] * g.n_vertices
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        step_cap = max(
            len(g.boundary_legs[v]) + degree[v]
            for v in range(g.n_vertices)
            if g.boundary_legs[v]
        )
        n = g.n_legs
        for start in (0, 5, 11):
            for k in range(1, n - 1):
                assert rows[(start, k + 1)] <= rows[(start, k)] + step_cap

    def test_per_vertex_sweep_runs(self, two_tile):
        rows = cut_sweep(two_tile, "per-vertex")
        by_key = {(r["start"], r["k"]): r for r in rows}
        assert by_key[(2, 2)]["minC"] == 2

    def test_unrestricted_54_partial_intervals_use_optimizer(self, graphs54):
        g = graphs54[2]
        rows = list(cut_sweep(g, "per-leg"))
        n = g.n_legs
        aligned = g.aligned
        by_key = {(r["start"], r["k"]): r for r in rows}
        assert len(rows) == n * (n - 1) + 1
        # a partial-tile interval still pays the whole tile's legs
        start = next(j for j in range(n) if j not in aligned)
        row = by_key[(start, 1)]
        assert row["bdryC"] >= len(g.boundary_legs[g.owners[start]])
        assert row["minC"] >= row["k"]


class TestAlignedSweep:
    def test_unrestricted_count(self):
        g = hs.generate_tiling(3, 7, 2)
        n = g.n_legs
        rows = list(cut_sweep(g))
        assert len(rows) == n * (n - 1) + 1
        assert rows[0]["k"] == 0

    def test_one_leg_tiles_keep_every_row(self):
        g = hs.generate_tiling(3, 7, 2)
        assert all(len(g.boundary_legs[g.owners[j]]) == 1 for j in range(g.n_legs))
        assert len(list(cut_sweep(g, vertex_aligned_only=True))) == len(list(cut_sweep(g)))

    def test_aligned_filter_drops_partial_tiles(self):
        g = hs.generate_tiling(5, 4, 3)
        n = g.n_legs
        full = list(cut_sweep(g))
        aligned = list(cut_sweep(g, vertex_aligned_only=True))
        assert 1 < len(aligned) < len(full)
        for row in aligned[1:]:
            interval = {(row["start"] + i) % n for i in range(row["k"])}
            for j in interval:
                assert set(g.boundary_legs[g.owners[j]]) <= interval
