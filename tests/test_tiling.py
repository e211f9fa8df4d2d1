"""Tiling generation, planar dual extraction, boundary machinery."""

import dataclasses
import functools
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holoshadow as hs
from holoshadow import tiling
from holoshadow.cli import run
from holoshadow.core import ModelParams
from holoshadow.cuts import cut_sweep
from holoshadow.ising import SpinModel, _log_boltzmann_sum
from holoshadow.tiling import (
    MODES,
    TilingGraph,
    boundary_size,
    dual_graph,
    inflation_growth_rate,
    two_tile_graph,
)

from conftest import enumerated_log_z, oracle_sweep, random_planar_graph

# sha256 of the graph file each patch saves as: the generator's output is
# pinned byte for byte, since sweep digests and graph files depend on it;
# keys are (p, q, layers), or ("two", p) for two_tile_graph(p)
GRAPH_DIGESTS = {
    (3, 7, 1): "bfb9d698ee1768078ce351bdd72a81dad314136639303c1812e76f2365d44005",
    (3, 7, 2): "23d604c6b4ab732fe077c6efbf84adf3ed1c93f94fb4a33223f22876d80a1695",
    (3, 7, 3): "06934cd75ac1b142a94d8a7061ad0383809bf870348e867fd2f8a698a3055d13",
    (3, 7, 4): "0ba564c14875f4055116fe7e3b71cac7762e39d3ecaeec055e77f74395594e3e",
    (3, 7, 5): "d9eec5b20d1d150c5ef705a4be18983ed9749d0fba65e04ba4d36e783f701c3c",
    (3, 7, 6): "cc6795d274d87b2bd60c87ddcb20dcdd01cd83e2b9211ef53ea3fed1e79ac681",
    (3, 7, 7): "ed3eaf39390a3ba3060010ddff014f3e01b54bd7c5980a5912bc95fdbd60cfc0",
    (5, 4, 1): "0b540ae77fe19e435a49eb897590e64b9ab022e0e6954d39011b5237641245cb",
    (5, 4, 2): "8060ed5001ba1af805bfcc0097cac321a6e7b0b0a34d1281de7ab22162580131",
    (5, 4, 3): "0612abf8aea0614e63c7c329d23e83a7d9bc6a43e8b5be67484990ea0e405ce8",
    (5, 4, 4): "84c0b4df27e0384f57fec8bdddfe615033b7e881305df9aae1fd8644b9f3c93e",
    (5, 4, 5): "af8632c1b0c5bd53458a4877496d64d6f083e2c357e32bf3cb62347c899428c7",
    ("two", 3): "597c13ab7f48a4c1644247a94f70b1d5d27f8b76ba6819c5e83702d41da296d4",
    ("two", 4): "801fce09cf27f31634b55a156e3eccf4140ab5c705b18d2d08f4e10a72aca0a2",
    ("two", 5): "2e0449eb987605219457774e57df5faf4d4b7f34228605744531c320ca492474",
    ("two", 6): "da72b9925682f69de19e02bba3b296dc46128e946ed65f812b021f57064295bf",
    ("two", 7): "ec32b95a375870cba7436633565269df0af5bbf38bdd174cb52864f588c84cc8",
}

# sha256 of the file bytes ``save`` and ``tiling gen`` write: one line of
# JSON with the default separators
FILE_DIGESTS = {
    (3, 7, 6): "0e728c4b6918bbf7fcd8b996830d655ddde264b9693179c84fa4dc489235b766",
    (5, 4, 4): "819fa8fac194b8f0279637bbc93e0ccc9e62a68422954926d550262a44cb3152",
}

# every hyperbolic tiling off the {3,7}/{5,4} pair that is tested, with the
# deepest patch tested; q = 3 tilings stop growing at 2 layers
GROWABLE = {(4, 5): 3, (3, 8): 3, (6, 4): 3, (5, 5): 3, (4, 6): 3, (3, 9): 3, (7, 3): 2, (8, 3): 2}


@functools.cache
def pinned_graph(key):
    """The graph of a GRAPH_DIGESTS key."""
    return two_tile_graph(key[1]) if key[0] == "two" else hs.generate_tiling(*key)


def grown_patch(p, q, layers):
    """The tiling patch generate_tiling compiles, grown the same way."""
    patch = tiling._Patch(p)
    for layer in range(2, layers + 1):
        patch.inflate(q, layer)
    return patch


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

    @pytest.mark.parametrize("p,q", [(2, 100), (100, 2), (-5, -5), (1, -100)])
    def test_rejects_non_tilings(self, p, q):
        # (-7)(-7) = 49 > 4 would pass the hyperbolic test
        with pytest.raises(ValueError, match="is not a tiling"):
            hs.generate_tiling(p, q, 2)

    @pytest.mark.parametrize("p,q", [(7, 3), (8, 3), (9, 3)])
    def test_rejects_layers_the_census_cannot_complete(self, p, q):
        # a q = 3 rim vertex of a two-layer patch already has two tiles
        assert hs.generate_tiling(p, q, 2).n_legs == boundary_size(p, q, 2)
        with pytest.raises(ValueError) as err:
            hs.generate_tiling(p, q, 3)
        assert str(err.value) == f"{{{p},{q}}} patches stop at 2 layers"
        with pytest.raises(ValueError, match="stop growing"):
            tiling.transfer_matrix(p, q)

    @pytest.mark.parametrize("key", list(GRAPH_DIGESTS), ids=lambda key: "-".join(map(str, key)))
    def test_graph_json_is_pinned(self, key):
        text = json.dumps(pinned_graph(key).to_json_dict(), indent=1) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == GRAPH_DIGESTS[key]

    @pytest.mark.parametrize("key", list(GRAPH_DIGESTS), ids=lambda key: "-".join(map(str, key)))
    def test_graph_file_is_one_line_of_json(self, tmp_path, key):
        g = pinned_graph(key)
        saved = tmp_path / "saved.json"
        g.save(saved)
        written = [saved]
        if key[0] != "two":
            generated = tmp_path / "gen.json"
            argv = ["tiling", "gen", "--p", str(key[0]), "--q", str(key[1]), "--layers", str(key[2])]
            assert run([*argv, "--out", str(generated)]) == 0
            written.append(generated)
        for path in written:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(g.to_json_dict()) + "\n"
            assert text.count("\n") == 1

    @pytest.mark.parametrize("key", list(FILE_DIGESTS), ids=lambda key: "-".join(map(str, key)))
    def test_graph_file_bytes_are_pinned(self, tmp_path, key):
        path = tmp_path / "g.json"
        pinned_graph(key).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FILE_DIGESTS[key]

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
        patch = grown_patch(p, q, layers)
        rim = set(patch.boundary)
        for v, count in patch.vert_faces.items():
            if v not in rim:
                assert count == q
        for face in patch.face_verts:
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

    @pytest.mark.parametrize("p,q", [(3, 7), (5, 4), (4, 5), (3, 8), (6, 4), (5, 5), (4, 6), (3, 9)])
    def test_transfer_matrix_steps_the_census(self, p, q):
        types = (2, 3) if p == 3 else (1, 2)
        matrix = tiling.transfer_matrix(p, q)
        counts = {1: p}
        for _ in range(6):
            counts = tiling._type_step(p, q, counts)
            step = tiling._type_step(p, q, counts)
            census = [counts.get(t, 0) for t in types]
            assert [sum(a * c for a, c in zip(row, census)) for row in matrix] == [step.get(t, 0) for t in types]

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

    @pytest.mark.parametrize("key", list(GRAPH_DIGESTS), ids=lambda key: "-".join(map(str, key)))
    def test_indented_file_loads_unchanged(self, tmp_path, key):
        # earlier versions wrote graph files with indent=1
        g = pinned_graph(key)
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(g.to_json_dict(), indent=1) + "\n", encoding="utf-8")
        assert TilingGraph.load(path) == g

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
        assert dual.n_nodes - len(dual.gap_index) == 0
        assert dual.neighbors == [[], [], []]
        assert sorted(dual.gap_index) == [0, 1, 2]

    def test_two_tiles_single_crossing(self):
        # one arc, crossing the shared edge, between the two gaps that
        # flank it (positions where the ownership changes)
        g = two_tile_graph(3)
        dual = dual_graph(g)
        assert dual.n_nodes == 4
        flip_positions = [j for j in range(4) if g.owners[j - 1] != g.owners[j]]
        a, b = (dual.gap_index[p] for p in flip_positions)
        assert dual.neighbors[a] == [b] and dual.neighbors[b] == [a]
        assert sum(map(len, dual.neighbors)) == 2

    @pytest.mark.parametrize("p,q,layers", [(3, 7, 2), (3, 7, 3), (5, 4, 2), (5, 4, 3)])
    def test_one_arc_per_bulk_edge(self, p, q, layers):
        g = hs.generate_tiling(p, q, layers)
        dual = dual_graph(g)
        assert sum(map(len, dual.neighbors)) == 2 * len(g.edges)
        for u, nbrs in enumerate(dual.neighbors):
            assert all(nbrs.count(v) == dual.neighbors[v].count(u) for v in nbrs)

    @pytest.mark.parametrize("p,q,layers", [(3, 7, 2), (3, 7, 3), (5, 4, 2), (5, 4, 3)])
    def test_euler_formula(self, p, q, layers):
        # V - E + F = 2 with F counting interior regions plus one outer face
        g = hs.generate_tiling(p, q, layers)
        dual = dual_graph(g)
        faces = dual.n_nodes - len(dual.gap_index) + 1
        assert g.n_vertices - len(g.edges) + faces == 2

    def test_interior_regions_are_interior_tiling_vertices(self):
        # independent count from the tiling vertices the generator grew
        for p, q, layers in [(3, 7, 2), (3, 7, 3), (5, 4, 3)]:
            dual = dual_graph(hs.generate_tiling(p, q, layers))
            patch = grown_patch(p, q, layers)
            interior_verts = set(patch.vert_faces) - set(patch.boundary)
            assert dual.n_nodes - len(dual.gap_index) == len(interior_verts)

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

    @pytest.mark.parametrize("fault", ["missing", "duplicated", "extra", "other-tile-s-edge"])
    def test_rejects_a_tile_s_bad_rotation_entry(self, fault):
        # one tile's list is off by one entry; every other tile's is right
        g = hs.generate_tiling(5, 4, 3)
        data = g.to_json_dict()
        u, v = g.edges[-1]
        rot = data["rotation"][u]
        i = rot.index(["edge", v])
        if fault == "missing":
            del rot[i]
        elif fault == "duplicated":
            rot[i] = rot[i - 1]
        elif fault == "extra":
            rot.append(["edge", v])
        else:
            # an edge of tile v, not of tile u
            w = next(b if a == v else a for a, b in g.edges if v in (a, b) and u not in (a, b))
            rot[i] = ["edge", w]
        with pytest.raises(ValueError, match="^rotation must list each edge once at each end and each leg at its tile$"):
            TilingGraph.from_json_dict(data)


def _bfs_duals():
    """Duals the lane BFS is checked on: {3,7}x2-4, {5,4}x2-3 (whose gaps
    inside a tile's run are isolated) and random planar graphs."""
    rng = np.random.default_rng(11)
    graphs = [hs.generate_tiling(3, 7, layers) for layers in (2, 3, 4)]
    graphs += [hs.generate_tiling(5, 4, layers) for layers in (2, 3)]
    graphs += [random_planar_graph(rng, int(rng.integers(8, 30)), float(rng.random()) / 2) for _ in range(5)]
    return [dual_graph(g) for g in graphs]


BFS_DUALS = _bfs_duals()
# {5,4}x3: two isolated gaps, the first repeated, and a gap with dual arcs
_ISOLATED = [node for node in BFS_DUALS[4].gap_index.values() if not BFS_DUALS[4].neighbors[node]]
_CONNECTED = next(node for node in BFS_DUALS[4].gap_index.values() if BFS_DUALS[4].neighbors[node])


def plain_bfs(dual, source):
    """Hop counts from one node over the dual's arcs, math.inf where none."""
    adj = dual.neighbors
    dist = [math.inf] * dual.n_nodes
    dist[source] = 0
    queue = [source]
    for u in queue:
        for v in adj[u]:
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestLaneBfs:
    @given(st.sampled_from(range(len(BFS_DUALS))), st.lists(st.integers(0, 10**6), min_size=1, max_size=120))
    @example(4, [_ISOLATED[0], _ISOLATED[0], _CONNECTED, _ISOLATED[1], _CONNECTED])
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_lanes_match_plain_bfs(self, which, draws):
        # sources may repeat, and an isolated gap reaches nothing else
        dual = BFS_DUALS[which]
        sources = [x % dual.n_nodes for x in draws]
        hops = dual.distances_from(sources)
        for i, source in enumerate(sources):
            assert [hops.lane(i, v) for v in range(dual.n_nodes)] == plain_bfs(dual, source)

    def test_every_gap_at_once(self):
        # one lane per gap of {3,7}x4: wide ints, and hops are symmetric
        dual = BFS_DUALS[2]
        gaps = sorted(dual.gap_index.values())
        hops = dual.distances_from(gaps)
        for i, a in enumerate(gaps):
            want = plain_bfs(dual, a)
            assert [hops.lane(i, v) for v in range(dual.n_nodes)] == want
            assert [hops.lane(j, a) for j in range(len(gaps))] == [want[b] for b in gaps]


class TestEveryHyperbolicTiling:
    """Tilings other than {3,7} and {5,4} grow by the same rule and agree
    with the independent oracles: max-flow for cuts, enumeration for sums."""

    @pytest.mark.parametrize("p,q", sorted(GROWABLE))
    def test_generates_loads_and_embeds(self, tmp_path, p, q):
        for layers in range(1, GROWABLE[p, q] + 1):
            g = hs.generate_tiling(p, q, layers)
            assert g.n_legs == boundary_size(p, q, layers)
            path = tmp_path / f"g{layers}.json"
            g.save(path)
            loaded = TilingGraph.load(path)
            assert loaded == g
            resaved = tmp_path / f"r{layers}.json"
            loaded.save(resaved)
            assert resaved.read_bytes() == path.read_bytes()
            degree = [len(rot) for rot in g.rotation]
            assert degree == [p] * g.n_vertices
            dual = dual_graph(loaded)
            assert sum(map(len, dual.neighbors)) == 2 * len(g.edges)
            assert g.n_vertices - len(g.edges) + dual.n_nodes - len(dual.gap_index) + 1 == 2

    @pytest.mark.parametrize("p,q", [pq for pq in sorted(GROWABLE) if pq[1] >= 4])
    def test_growth_rate_matches_generated_legs(self, p, q):
        rate = inflation_growth_rate(p, q)
        legs = [hs.generate_tiling(p, q, layers).n_legs for layers in (2, 3, 4)]
        gaps = [abs(b / a / rate - 1) for a, b in zip(legs, legs[1:])]
        assert gaps[1] < gaps[0] and gaps[1] < 0.01

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "p,q,layers", [(*pq, layers) for pq, deepest in sorted(GROWABLE.items()) for layers in range(2, deepest + 1)]
    )
    def test_sweep_matches_max_flow(self, p, q, layers, mode):
        # every interval at two layers, a seeded sample of 300 deeper; a
        # per-leg row that is its own hull may report its wall past the
        # global flip, so the sweep's value is min(minC, total)
        g = hs.generate_tiling(p, q, layers)
        rows = [row for row in cut_sweep(g, mode) if row["k"]]
        if layers > 2:
            rows = random.Random(0).sample(rows, 300)
        oracle = oracle_sweep(g, mode, [(row["start"], row["k"]) for row in rows])
        total = sum(g.boundary_cost(mode))
        for row in rows:
            assert row["bdryC"] + row["bulkC"] == row["minC"]
            assert min(row["minC"], total) == oracle[row["start"], row["k"]][2], row

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p,q", [(4, 5), (6, 4), (5, 5), (4, 6), (7, 3), (8, 3)])
    def test_elimination_matches_enumeration(self, p, q, mode):
        g = hs.generate_tiling(p, q, 2)
        assert g.n_vertices <= 17
        rng = random.Random(0)
        for d in (2, 3, 10**6):
            model = SpinModel(g, ModelParams(d), mode)
            for pin_rate in (0.0, 0.5):
                pinned = {v: rng.choice((-1, 1)) for v in range(g.n_vertices) if rng.random() < pin_rate}
                tau = {v: -1 for v in range(g.n_vertices) if g.boundary_legs[v] and rng.random() < 0.5}
                got = _log_boltzmann_sum(model, model.params.h, pinned, tau)
                assert abs(got - enumerated_log_z(model, pinned, tau)) <= 1e-9
