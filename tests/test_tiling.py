"""Tiling generation, planar dual extraction, boundary machinery."""

import dataclasses
import json

import pytest

import holoshadow as hs
from holoshadow.tiling import (
    TilingGraph,
    boundary_size,
    dual_graph,
    inflation_growth_rate,
    two_tile_graph,
)


class TestGeneration:
    def test_single_triangle(self):
        g = hs.generate_tiling(3, 7, 1)
        assert (g.n_vertices, len(g.edges), g.n_legs) == (1, 0, 3)
        assert g.boundary_legs[0] == (0, 1, 2)

    def test_single_pentagon(self):
        g = hs.generate_tiling(5, 4, 1)
        assert (g.n_vertices, len(g.edges), g.n_legs) == (1, 0, 5)

    def test_two_rings_37(self):
        # central triangle + 15 ring tiles: 3 spokes + a 15-cycle, 12 legs
        g = hs.generate_tiling(3, 7, 2)
        assert (g.n_vertices, len(g.edges), g.n_legs) == (16, 18, 12)
        assert sum(1 for l in g.vertex_layers if l == 2) == 15

    def test_two_rings_54(self):
        g = hs.generate_tiling(5, 4, 2)
        assert (g.n_vertices, len(g.edges), g.n_legs) == (11, 15, 25)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError, match="not hyperbolic"):
            hs.generate_tiling(4, 4, 2)

    def test_rejects_unsupported(self):
        with pytest.raises(NotImplementedError):
            hs.generate_tiling(4, 5, 2)

    def test_rejects_bad_layers(self):
        with pytest.raises(ValueError):
            hs.generate_tiling(3, 7, 0)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="size budget"):
            hs.generate_tiling(3, 7, 40)

    @pytest.mark.parametrize("p,q,layers", [(3, 7, 2), (3, 7, 3), (5, 4, 2), (5, 4, 3)])
    def test_tile_side_accounting(self, p, q, layers):
        # every tile is a p-gon: bulk degree plus owned legs is exactly p
        g = hs.generate_tiling(p, q, layers)
        degree = [0] * g.n_vertices
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        for v in range(g.n_vertices):
            assert degree[v] + len(g.boundary_legs[v]) == p
            assert len(g.rotation[v]) == p

    @pytest.mark.parametrize("p,q,layers", [(3, 7, 3), (5, 4, 3)])
    def test_interior_tiling_vertices_saturated(self, p, q, layers):
        g = hs.generate_tiling(p, q, layers)
        rim = set(g.meta["rim_cycle"])
        for v, count in g.meta["vert_faces"].items():
            if v not in rim:
                assert count == q
        for face in g.meta["face_verts"]:
            assert len(face) == p

    def test_boundary_order_covers_each_leg_once(self):
        g = hs.generate_tiling(5, 4, 3)
        legs = [leg for leg, _ in g.boundary_order]
        assert legs == list(range(g.n_legs))
        owners = {leg: v for leg, v in g.boundary_order}
        for v in range(g.n_vertices):
            for leg in g.boundary_legs[v]:
                assert owners[leg] == v


class TestFrozenGraph:
    def test_assignment_raises(self):
        g = hs.generate_tiling(3, 7, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.edges = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.owners = ()

    def test_sequence_fields_are_tuples(self, tmp_path):
        generated = hs.generate_tiling(5, 4, 2)
        generated.save(tmp_path / "g.json")
        for g in (generated, TilingGraph.load(tmp_path / "g.json")):
            for name in ("vertex_layers", "boundary_legs", "edges", "boundary_order", "rotation", "owners"):
                assert type(getattr(g, name)) is tuple, name
            assert all(type(legs) is tuple for legs in g.boundary_legs)
            assert all(type(rot) is tuple for rot in g.rotation)

    def test_owners_and_aligned(self):
        # one leg per tile on {3,7}x2: every position is aligned; on
        # {5,4}x2 one aligned position per boundary tile, at its first leg
        g = hs.generate_tiling(3, 7, 2)
        assert g.aligned == frozenset(range(g.n_legs))
        g = hs.generate_tiling(5, 4, 2)
        assert g.owners == tuple(v for _, v in g.boundary_order)
        boundary_tiles = {v for v, legs in enumerate(g.boundary_legs) if legs}
        assert len(g.aligned) == len(boundary_tiles) < g.n_legs
        assert {g.owners[j] for j in g.aligned} == boundary_tiles

    def test_boundary_cost_per_mode(self):
        g = two_tile_graph(3)
        assert g.boundary_cost("per-leg") == (2, 2)
        assert g.boundary_cost("per-vertex") == (1, 1)
        g = hs.generate_tiling(3, 7, 2)  # the central tile owns no legs
        assert g.boundary_cost("per-leg")[0] == g.boundary_cost("per-vertex")[0] == 0
        with pytest.raises(ValueError, match="mode must be one of"):
            g.boundary_cost("per-edge")


class TestBoundaryGrowth:
    @pytest.mark.parametrize("p,q", [(3, 7), (5, 4)])
    def test_counts_match_generated(self, p, q):
        for layers in range(1, 5):
            g = hs.generate_tiling(p, q, layers)
            assert g.n_legs == boundary_size(p, q, layers)

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 4)])
    def test_strictly_increasing(self, p, q):
        sizes = [boundary_size(p, q, layers) for layers in range(1, 12)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 4)])
    def test_growth_ratio_approaches_transfer_eigenvalue(self, p, q):
        rate = inflation_growth_rate(p, q)
        for layers in range(6, 10):
            ratio = boundary_size(p, q, layers + 1) / boundary_size(p, q, layers)
            assert abs(ratio / rate - 1) < 0.02

    def test_known_eigenvalues(self):
        assert inflation_growth_rate(3, 7) == pytest.approx((3 + 5**0.5) / 2)
        assert inflation_growth_rate(5, 4) == pytest.approx(2 + 3**0.5)


class TestSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        g = hs.generate_tiling(5, 4, 2)
        path1 = tmp_path / "a.json"
        path2 = tmp_path / "b.json"
        g.save(path1)
        TilingGraph.load(path1).save(path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_schema_fields(self, tmp_path):
        g = hs.generate_tiling(3, 7, 2)
        path = tmp_path / "g.json"
        g.save(path)
        data = json.loads(path.read_text())
        assert set(data) >= {"p", "q", "layers", "vertices", "edges", "boundary_order"}
        assert data["vertices"][0].keys() == {"id", "layer", "boundary_legs"}
        assert data["boundary_order"][0].keys() == {"leg", "vertex"}

    def test_load_requires_dense_ids(self):
        with pytest.raises(ValueError, match="ids"):
            TilingGraph.from_json_dict(
                {
                    "p": 3,
                    "q": 7,
                    "layers": 1,
                    "vertices": [{"id": 1, "layer": 1, "boundary_legs": [0]}],
                    "edges": [],
                    "boundary_order": [{"leg": 0, "vertex": 1}],
                }
            )


class TestDualGraph:
    def test_single_tile(self):
        g = hs.generate_tiling(3, 7, 1)
        dual = dual_graph(g)
        assert dual.n_nodes == 3
        assert dual.interior_nodes == []
        assert dual.arcs == []
        assert sorted(dual.gap_index) == [0, 1, 2]

    def test_two_tiles_single_crossing(self):
        # one arc, crossing the shared edge, between the two gaps that
        # flank it (positions where the ownership changes)
        g = two_tile_graph(3)
        dual = dual_graph(g)
        assert dual.n_nodes == 4
        assert len(dual.arcs) == 1
        a, b, edge = dual.arcs[0]
        flip_positions = [j for j in range(4) if g.owners[j - 1] != g.owners[j]]
        assert {a, b} == {dual.gap_index[p] for p in flip_positions}
        assert edge == 0

    @pytest.mark.parametrize("p,q,layers", [(3, 7, 2), (3, 7, 3), (5, 4, 2), (5, 4, 3)])
    def test_one_arc_per_bulk_edge(self, p, q, layers):
        g = hs.generate_tiling(p, q, layers)
        dual = dual_graph(g)
        assert len(dual.arcs) == len(g.edges)
        assert sorted(e for _, _, e in dual.arcs) == list(range(len(g.edges)))

    @pytest.mark.parametrize("p,q,layers", [(3, 7, 2), (3, 7, 3), (5, 4, 2), (5, 4, 3)])
    def test_euler_formula(self, p, q, layers):
        # V - E + F = 2 with F counting interior regions plus one outer face
        g = hs.generate_tiling(p, q, layers)
        dual = dual_graph(g)
        faces = len(dual.interior_nodes) + 1
        assert g.n_vertices - len(g.edges) + faces == 2

    def test_interior_regions_are_interior_tiling_vertices(self):
        # independent count from the generator's tiling metadata
        for p, q, layers in [(3, 7, 2), (3, 7, 3), (5, 4, 3)]:
            g = hs.generate_tiling(p, q, layers)
            dual = dual_graph(g)
            assert len(dual.interior_nodes) == g.meta["interior_vert_count"]

    def test_requires_rotation(self):
        g = hs.generate_tiling(3, 7, 2)
        data = g.to_json_dict()
        del data["rotation"]
        loaded = TilingGraph.from_json_dict(data)
        with pytest.raises(ValueError, match="rotation"):
            dual_graph(loaded)

    def test_rejects_corrupt_rotation(self):
        g = hs.generate_tiling(3, 7, 2)
        data = g.to_json_dict()
        data["rotation"][0] = [data["rotation"][0][0]] * 3
        with pytest.raises(ValueError):
            dual_graph(TilingGraph.from_json_dict(data))

    def test_rejects_non_planar_rotation(self):
        # swapping two edges in one tile's rotation keeps every entry but
        # changes the faces: the embedding is no longer planar
        g = hs.generate_tiling(5, 4, 3)
        data = g.to_json_dict()
        rot = data["rotation"][0]
        rot[0], rot[2] = rot[2], rot[0]
        with pytest.raises(ValueError, match="planar"):
            dual_graph(TilingGraph.from_json_dict(data))

    def test_rejects_rotation_disagreeing_with_legs(self):
        g = hs.generate_tiling(3, 7, 2)
        data = g.to_json_dict()
        v = next(i for i, rot in enumerate(data["rotation"]) if ["leg", 0] in rot)
        data["rotation"][v].remove(["leg", 0])
        data["rotation"][(v + 1) % len(data["rotation"])].append(["leg", 0])
        with pytest.raises(ValueError, match="each leg at its tile"):
            TilingGraph.from_json_dict(data)
