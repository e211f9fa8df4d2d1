"""Shared fixtures: generated graphs, cut sweeps checked against max-flow,
and the enumeration oracle for the Ising sums.

The cut cross-check oracle is scipy's max-flow, independent of the
package's own solvers.  It solves many pinned sets per call, as disjoint
copies of the graph between one shared source and sink, so that the larger
sweeps are checked in seconds.  Those sweeps are built once per session and
shared between the solver tests and the acceptance suite.  Planar graphs
other than tilings come from straight-line drawings (``drawn_graph``,
``random_planar_graph``).  ``enumerated_log_z`` sums the Ising model over
every spin state with numpy, the oracle for the package's variable
elimination.  ``ef_loop`` is the tree's entanglement-feature sum as one
Python iteration per gate assignment, the reference for the package's
bit-parallel ``ef_bruteforce``.  ``contiguous_bounds_scan`` and
``pair_runs_of_sites`` read a support's interval and the tree's leaf-pair
runs off its set of sites, the references for ``SupportMask`` and
``holoshadow.tree._pair_runs``, which read them off its runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow
from scipy.spatial import ConvexHull, Delaunay

import holoshadow as hs
from holoshadow.core import mismatch_weight
from holoshadow.cuts import cut_sweep
from holoshadow.tiling import TilingGraph

_COPIES_PER_FLOW = 64


def maxflow_cuts(g, mode, pinned_sets):
    """(bdryC, bulkC, minC) of each pinned set by scipy max-flow.

    The flipped tiles are the residual-reachable side of the cut, i.e. the
    smallest optimal flipped set, as in ``holoshadow.cuts.min_cut_exact``.
    """
    n = g.n_vertices
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    cost = np.array(
        [len(legs) if mode == "per-leg" else 1 if legs else 0 for legs in g.boundary_legs],
        dtype=np.int64,
    )
    bdry = np.flatnonzero(cost)
    inf = int(cost.sum()) + len(edges) + 1
    results = []
    for lo in range(0, len(pinned_sets), _COPIES_PER_FLOW):
        chunk = pinned_sets[lo : lo + _COPIES_PER_FLOW]
        copies = len(chunk)
        source, sink = copies * n, copies * n + 1
        offset = (np.arange(copies) * n)[:, None]
        eu, ev = (edges[:, 0] + offset).ravel(), (edges[:, 1] + offset).ravel()
        bv = (bdry + offset).ravel()
        pins = np.concatenate([np.array(sorted(p), dtype=np.int64) + i * n for i, p in enumerate(chunk)])
        rows = np.concatenate([eu, ev, bv, np.full(len(pins), source)])
        cols = np.concatenate([ev, eu, np.full(len(bv), sink), pins])
        caps = np.concatenate(
            [np.ones(2 * len(eu), dtype=np.int64), np.tile(cost[bdry], copies), np.full(len(pins), inf)]
        )
        size = copies * n + 2
        graph = csr_array(
            (caps.astype(np.int32), (rows.astype(np.int32), cols.astype(np.int32))), shape=(size, size)
        )
        flow = maximum_flow(graph, source, sink).flow
        residual = graph - flow
        residual.data = (residual.data > 0).astype(np.int32)
        residual.eliminate_zeros()
        reach = np.zeros(size, dtype=bool)
        reach[breadth_first_order(residual, source, directed=True, return_predecessors=False)] = True
        flipped = reach[: copies * n].reshape(copies, n)
        bdry_cost = flipped @ cost
        bulk_cost = (flipped[:, edges[:, 0]] != flipped[:, edges[:, 1]]).sum(axis=1)
        out = flow.indptr[source], flow.indptr[source + 1]
        min_cost = np.bincount(
            flow.indices[out[0] : out[1]] // n, weights=flow.data[out[0] : out[1]], minlength=copies
        )
        for b, w, m in zip(bdry_cost, bulk_cost, min_cost):
            assert b + w == m, "max-flow cut does not decompose into boundary plus wall"
            results.append((int(b), int(w), int(m)))
    return results


def enumerated_log_z(model, pinned, tau):
    """ln sum_s exp(-E(s)) over every spin state of the free tiles, with the
    tiles in ``pinned`` held at their spins and the field signs ``tau``.
    Each tile's field is read from its legs here, not from the model."""
    g = model.graph
    mode = model.boundary_field_mode
    assert mode in ("per-vertex", "per-leg"), mode
    coupling = math.log(model.params.d) / 2
    free = {v: i for i, v in enumerate(v for v in range(g.n_vertices) if v not in pinned)}
    states = np.arange(1 << len(free), dtype=np.int64)

    def spin(v):
        return pinned[v] if v in pinned else 1 - 2 * ((states >> free[v]) & 1)

    minus_energy = np.zeros(len(states))
    for u, v in g.edges:
        minus_energy += coupling * spin(u) * spin(v)
    for v, legs in enumerate(g.boundary_legs):
        if legs:
            field = coupling * (len(legs) if mode == "per-leg" else 1)
            minus_energy += field * tau.get(v, 1) * spin(v)
    top = minus_energy.max()
    return float(top + np.log(np.exp(minus_energy - top).sum()))


def ef_loop(region, spec, exact=False):
    """W(B) of the tree ensemble, one assignment of identity/swap to the
    N-1 gates at a time: a per mismatched pair of children, 1 when gate and
    children agree, 0 otherwise; leaves in `region` carry swap."""
    a = mismatch_weight(spec.d, exact=exact)
    one = Fraction(1) if exact else 1.0
    leaf_labels = [i in region for i in range(spec.n)]
    total = Fraction(0) if exact else 0.0
    for config in range(1 << (spec.n - 1)):
        # gates indexed level by level from the leaves up
        values = leaf_labels
        gate = 0
        weight = one
        for _level in range(spec.depth):
            next_values = []
            for i in range(0, len(values), 2):
                sigma = bool(config >> gate & 1)
                gate += 1
                l, r = values[i], values[i + 1]
                if l != r:
                    weight = weight * a
                elif sigma != l:
                    weight = None
                    break
                next_values.append(sigma)
            if weight is None:
                break
            values = next_values
        if weight is not None:
            total += weight
    return total


def contiguous_bounds_scan(mask):
    """(start, length) if the mask's sites form one cyclic interval, else
    None; (0, 0) when empty, (0, n) when full.  A cyclic interval has
    exactly one entry point: a site whose predecessor is outside."""
    sites, n = mask.sites, mask.n
    if not sites:
        return (0, 0)
    if len(sites) == n:
        return (0, n)
    starts = [s for s in sites if (s - 1) % n not in sites]
    if len(starts) != 1:
        return None
    start = starts[0]
    if all((start + i) % n in sites for i in range(len(sites))):
        return (start, len(sites))
    return None


def pair_runs_of_sites(support):
    """Runs (particle-like, count) of the N/2 leaf pairs (2i, 2i+1), from the
    sorted set of pairs that hold a site of the support."""
    runs = []
    end = 0  # first pair not yet in a run
    for pair in sorted({site // 2 for site in support.sites}):
        if pair > end:
            runs.append((False, pair - end))
        if pair == end and runs and runs[-1][0]:
            runs[-1] = (True, runs[-1][1] + 1)
        else:
            runs.append((True, 1))
        end = pair + 1
    if end < support.n // 2:
        runs.append((False, support.n // 2 - end))
    return runs


def oracle_sweep(g, mode, intervals):
    """{(start, k): (bdryC, bulkC, minC)} by max-flow on the tiles each
    interval pins; intervals pinning the same tiles share one solve."""
    n = g.n_legs
    pinned = {
        (start, k): frozenset(g.owners[(start + i) % n] for i in range(k)) for start, k in intervals
    }
    distinct = sorted(set(pinned.values()), key=sorted)
    solved = dict(zip(distinct, maxflow_cuts(g, mode, distinct)))
    return {key: solved[p] for key, p in pinned.items()}


def with_oracle(g, rows, mode):
    """Sweep rows with the oracle's (bdryC, bulkC, minC) as "oracle" (k > 0)."""
    oracle = oracle_sweep(g, mode, [(r["start"], r["k"]) for r in rows if r["k"]])
    for row in rows:
        if row["k"]:
            row["oracle"] = oracle[(row["start"], row["k"])]
    return rows


def drawn_graph(points, edges, rim):
    """Tensor-network graph of a straight-line drawing.

    ``rim`` lists (tile, legs) counterclockwise around the drawing; each
    rim tile's legs point away from the centroid, so they lie in the outer
    region.  The rotation system is read off the drawing's angles.
    """
    cx = sum(x for x, _ in points) / len(points)
    cy = sum(y for _, y in points) / len(points)
    items = [[] for _ in points]
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            angle = math.atan2(points[b][1] - points[a][1], points[b][0] - points[a][0])
            items[a].append((angle, ("edge", b)))
    boundary_legs = [[] for _ in points]
    boundary_order = []
    for v, legs in rim:
        out = math.atan2(points[v][1] - cy, points[v][0] - cx)
        for i in range(legs):
            leg = len(boundary_order)
            items[v].append((out + 0.1 * (i - (legs - 1) / 2), ("leg", leg)))
            boundary_legs[v].append(leg)
            boundary_order.append((leg, v))
    rotation = []
    for v, its in enumerate(items):
        ref = its[0][0] if its else 0.0
        rotation.append([item for _, item in sorted(its, key=lambda t: (t[0] - ref) % (2 * math.pi))])
    return TilingGraph(
        p=0,
        q=0,
        layers=1,
        vertex_layers=[1] * len(points),
        boundary_legs=boundary_legs,
        edges=[(min(u, v), max(u, v)) for u, v in edges],
        boundary_order=boundary_order,
        rotation=rotation,
    )


def random_planar_graph(rng, tiles, drop):
    """Delaunay triangulation of random points in a disk with up to a
    fraction ``drop`` of its edges deleted, keeping it connected.  Hull
    tiles own one to three legs each."""
    radius = np.sqrt(rng.random(tiles))
    angle = 2 * np.pi * rng.random(tiles)
    points = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    edges = {
        (int(min(a, b)), int(max(a, b)))
        for simplex in Delaunay(points).simplices
        for a, b in zip(simplex, np.roll(simplex, 1))
    }
    edges = sorted(edges)
    budget = int(drop * len(edges))
    for e in [edges[i] for i in rng.permutation(len(edges))]:
        if budget and _connected(tiles, [x for x in edges if x != e]):
            edges.remove(e)
            budget -= 1
    rim = [(int(v), int(rng.integers(1, 4))) for v in ConvexHull(points).vertices]
    return drawn_graph([tuple(map(float, pt)) for pt in points], edges, rim)


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


@pytest.fixture(scope="session")
def graphs37():
    """{3,7} patches by layer count (1 = single tile)."""
    return {layers: hs.generate_tiling(3, 7, layers) for layers in range(1, 7)}


@pytest.fixture(scope="session")
def graphs54():
    """{5,4} patches by layer count."""
    return {layers: hs.generate_tiling(5, 4, layers) for layers in range(1, 5)}


@pytest.fixture(scope="session")
def sweeps37(graphs37):
    """Cross-checked per-leg sweeps of {3,7} patches, layers 2..5."""
    return {
        layers: with_oracle(graphs37[layers], list(cut_sweep(graphs37[layers], mode="per-leg")), "per-leg")
        for layers in (2, 3, 4, 5)
    }


@pytest.fixture(scope="session")
def sweeps54(graphs54):
    """Cross-checked vertex-aligned per-leg sweeps of {5,4} patches, layers 2..4."""
    return {
        layers: with_oracle(
            graphs54[layers],
            list(cut_sweep(graphs54[layers], mode="per-leg", vertex_aligned_only=True)),
            "per-leg",
        )
        for layers in (2, 3, 4)
    }


def bfs_route_points(rows):
    """(k, k + geodesic) fit points from a per-leg sweep.

    A per-leg row whose interval is its own aligned hull reports the wall
    itself (bdryC = k, bulkC = the dual geodesic), unclamped; this is the
    log_d norm the scaling fits are defined over.
    """
    return [(row["k"], row["k"] + row["bulkC"]) for row in rows if row["k"] and row["bdryC"] == row["k"]]
