"""Minimal cuts on holographic tensor-network graphs.

The large-bond-dimension learning rate of a boundary interval is set by
the cheapest way to separate the tiles pinned by the interval from the
rest: flipping a boundary tile costs its boundary field (one unit per
tile, or one per leg it owns, depending on mode), and every bulk edge on
the resulting domain wall costs one unit.

Production route (``cut_sweep``, ``plr_large_d``): planar duality on the
*aligned hull*.  Every tile's legs form one contiguous run of the rim
(``TilingGraph`` rejects graphs where they do not), so an interval pins
exactly the tiles of its hull: the smallest interval containing it whose
two ends a, b fall between legs of different tiles.  Those tiles' boundary
cost c is always paid.  What remains is a planar s-t min cut: s joins the
hull's tiles, t joins every other boundary tile through its boundary
field, and both sit in the outer region on either side of the rim.  By
planar duality (Itai & Shiloach 1979; Hassin 1981) that cut is the
shortest path from gap a to gap b in the dual (``dual_graph``, whose
planarity it checks) with one extra arc per leg outside the hull between
the two gaps next to it.  A tile's arcs carry its boundary field between
them; all of it sits on the arc of its first leg, since the tile's links
to t are parallel: a cut severs all of them or none.  So

    minC = c + dist(a, b),

one dual search per hull start (``_HullCuts``).  Walking the rim arcs all
the way from a round to b is the global flip, so minC never exceeds the
total boundary cost; a hull covering the whole rim costs that total.  On
the generated {3,7} and {5,4} patches the shortest path is either the
bulk geodesic (the wall around the hull) or that rim walk, so minC =
min(c + geodesic, total) there; other graphs may mix the two.

``cut_sweep`` yields its N^2 rows one at a time and keeps no list of them.
What it holds is each hull start's search, 2N distances apiece, which the
(k, start) row order revisits for every k.

``min_cut_exact`` -- a max-flow optimizer over all spin configurations
(source to pinned tiles at infinite capacity, unit capacities on bulk
edges, per-tile or per-leg capacities from boundary tiles to the sink) --
stays as the independent oracle, and prices pinned sets that are not
intervals.

The rim data come from the graph, derived once when it is validated:
``TilingGraph.owners``, ``TilingGraph.aligned`` and
``TilingGraph.boundary_cost(mode)``, the one place a mode is checked.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import PlrResult, SupportMask
from .tiling import DualGraph, TilingGraph, dual_graph


@dataclass(frozen=True)
class CutResult:
    """Decomposed minimal-cut cost for one pinned boundary region.

    Ties between minimum cuts affect only the reported decomposition and
    witness, never ``min_cost``; the witness (flipped-tile set, when
    requested) is the deterministic residual-reachable side.
    """

    bdry_cost: int
    bulk_cost: int
    min_cost: int
    mode: str
    witness: frozenset | None = None


def pinned_for_interval(g: TilingGraph, interval: SupportMask) -> frozenset:
    """Tiles owning at least one leg of the interval."""
    if interval.n != g.n_legs:
        raise ValueError(f"interval over {interval.n} legs, graph has {g.n_legs}")
    return frozenset(map(g.owners.__getitem__, interval.sites))


def min_cut_exact(g: TilingGraph, pinned_vertices: Iterable[int], mode: str = "per-vertex") -> CutResult:
    """Minimum of boundary-flip cost plus domain-wall length over all spin
    configurations with the given tiles pinned down.

    Max-flow by Dinic phases: the pinned tiles hang off the source at
    infinite capacity, bulk edges carry one unit each way, and every
    boundary tile drains to the sink at its boundary cost.  Once the sink
    is unreachable, the final BFS's visited set is the residual-reachable
    source side of a minimum cut, which gives the decomposition and the
    flipped-tile witness.
    """
    if g.n_vertices == 0:
        raise ValueError("empty graph")
    cost = g.boundary_cost(mode)
    n = g.n_vertices + 2
    source, sink = n - 2, n - 1
    adj: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []

    def push_arc(u: int, v: int, cap_uv: int, cap_vu: int) -> None:
        adj[u].append(len(to))
        to.append(v)
        cap.append(cap_uv)
        adj[v].append(len(to))
        to.append(u)
        cap.append(cap_vu)

    for u, v in g.edges:
        push_arc(u, v, 1, 1)
    for v, c in enumerate(cost):
        if c:
            push_arc(v, sink, c, 0)
    inf = sum(cost) + len(g.edges) + 1
    for v in frozenset(pinned_vertices):
        if not (0 <= v < g.n_vertices and cost[v]):
            raise ValueError(f"pinned vertex {v} owns no boundary legs")
        push_arc(source, v, inf, 0)

    flow = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            lu = level[u]
            for a in adj[u]:
                w = to[a]
                if cap[a] > 0 and level[w] < 0:
                    level[w] = lu + 1
                    queue.append(w)
        if level[sink] < 0:
            break
        it = [0] * n
        while True:
            stack = [source]
            path: list[int] = []
            found = False
            while stack:
                u = stack[-1]
                if u == sink:
                    found = True
                    break
                moved = False
                arcs = adj[u]
                i = it[u]
                while i < len(arcs):
                    a = arcs[i]
                    w = to[a]
                    if cap[a] > 0 and level[w] == level[u] + 1:
                        stack.append(w)
                        path.append(a)
                        moved = True
                        break
                    i += 1
                it[u] = i
                if not moved:
                    level[u] = -1
                    stack.pop()
                    if path:
                        path.pop()
                        it[stack[-1]] += 1
            if not found:
                break
            push = min(cap[a] for a in path)
            for a in path:
                cap[a] -= push
                cap[a ^ 1] += push
            flow += push
    reach = [lv >= 0 for lv in level]
    bdry = sum(c for v, c in enumerate(cost) if reach[v])
    bulk = sum(1 for u, v in g.edges if reach[u] != reach[v])
    if bdry + bulk != flow:
        raise RuntimeError(f"cut decomposition {bdry}+{bulk} != flow {flow}")
    witness = frozenset(v for v in range(g.n_vertices) if reach[v])
    return CutResult(bdry_cost=bdry, bulk_cost=bulk, min_cost=flow, mode=mode, witness=witness)


def bulk_geodesic(g: TilingGraph, dual: DualGraph, interval: SupportMask) -> int:
    """Shortest dual path (in arcs) between the endpoint gaps of a
    contiguous interval; 0 for the empty or full boundary."""
    bounds = interval.contiguous_bounds()
    if bounds is None:
        raise ValueError("interval is not contiguous; use min_cut_exact instead")
    start, k = bounds
    n = g.n_legs
    if k == 0 or k == n:
        return 0
    node_a = dual.gap_index[start % n]
    node_b = dual.gap_index[(start + k) % n]
    dist = dual.distances_from(node_a)[node_b]
    if math.isinf(dist):
        raise ValueError(
            "no dual path between interval endpoints (interval splits a tile's legs); "
            "use min_cut_exact instead"
        )
    return int(dist)


class _HullCuts:
    """Aligned-hull cuts of one graph in one mode, O(1) per interval.

    Holds prefix sums of boundary cost per leg (each tile's cost sits on
    its first leg, which is also the weight of the rim arc crossing that
    leg), each position's distance to the hull ends around it, and, per
    hull start, the dual distances to every hull end.

    A distance is stored as units * scale + rim, where units counts cut
    units and rim the boundary cost of the rim arcs on the path.  Among
    shortest paths the search keeps the least rim cost: that is the
    smallest optimal flipped set, the residual-reachable side that
    max-flow reports, so the (bdryC, bulkC) split agrees with it.
    """

    def __init__(self, g: TilingGraph, mode: str):
        cost, owner, aligned = g.boundary_cost(mode), g.owners, g.aligned
        n = self.n = g.n_legs
        self.per_leg = mode == "per-leg"
        self.total = sum(cost)
        self.scale = self.total + 1
        self.leg_cost = [cost[owner[j]] if j in aligned else 0 for j in range(n)]
        self.prefix = [0]
        for j in range(2 * n):
            self.prefix.append(self.prefix[-1] + self.leg_cost[j % n])
        # back[j] / ahead[j]: legs from the aligned position that starts the
        # run of leg j's tile / that ends the run of leg j-1's tile (n when
        # one tile owns the whole rim, so every hull is the whole rim)
        first = {owner[j]: j for j in aligned}
        after = {owner[j - 1]: j for j in aligned}
        self.back = [(j - first[owner[j]]) % n for j in range(n)] if aligned else [n] * n
        self.ahead = [(after[owner[j - 1]] - j) % n for j in range(n)] if aligned else [n] * n
        self.dual = dual_graph(g) if aligned else None
        self.gap_pos = {node: j for j, node in self.dual.gap_index.items()} if aligned else {}
        self._from: dict[int, tuple[list[float], list[int]]] = {}

    def _search(self, a: int) -> tuple[list[float], list[int]]:
        """Per hull end b: the bulk geodesic from gap a (in arcs) and the
        scaled dual distance with the rim arcs outside the hull [a, b)."""
        n, dual, cost, scale = self.n, self.dual, self.leg_cost, self.scale
        gap, adj, pos = dual.gap_index, dual.neighbors, self.gap_pos
        hops = dual.distances_from(gap[a])
        geodesic = [hops[gap[j]] for j in range(n)]
        dist = [h * scale for h in hops]
        ends = [0] * n
        queue: deque[int] = deque()

        def improve(node: int, value: float) -> None:
            if value < dist[node]:
                dist[node] = value
                queue.append(node)

        # open the rim arcs one by one, from the leg just behind a backwards;
        # once the arc across leg j is open, so is every arc from j round to
        # a, and position j can end a hull
        for r in range(n - 1, 0, -1):
            j = (a + r) % n
            u, v = gap[j], gap[(j + 1) % n]
            weight = cost[j] * (scale + 1)
            improve(u, dist[v] + weight)
            improve(v, dist[u] + weight)
            while queue:
                u = queue.popleft()
                du = dist[u]
                for v in adj[u]:
                    improve(v, du + scale)
                p = pos.get(u)
                if p is not None:
                    if (p - a) % n >= r:
                        improve(gap[(p + 1) % n], du + cost[p] * (scale + 1))
                    if (p - 1 - a) % n >= r:
                        improve(gap[(p - 1) % n], du + cost[(p - 1) % n] * (scale + 1))
            ends[j] = dist[gap[j]]
        self._from[a] = (geodesic, ends)
        return geodesic, ends

    def cut(self, start: int, k: int, clamp_aligned: bool = True) -> tuple[int, int, int]:
        """(bdryC, bulkC, minC) of the interval of k legs from start.

        With clamp_aligned=False, a per-leg interval that is its own hull
        and whose minimum cut is the global flip reports the wall
        k + geodesic instead, which may exceed the flip.
        """
        if k == 0:
            return 0, 0, 0
        n = self.n
        end = (start + k) % n
        back, ahead = self.back[start], self.ahead[end]
        if back + k + ahead >= n:
            return self.total, 0, self.total
        a = (start - back) % n
        b = (end + ahead) % n
        c = self.prefix[a + back + k + ahead] - self.prefix[a]
        geodesic, ends = self._from.get(a) or self._search(a)
        units, rim = divmod(ends[b], self.scale)
        wall = c + geodesic[b]
        if not clamp_aligned and self.per_leg and c == k and c + units == self.total and wall < math.inf:
            return c, int(wall) - c, int(wall)
        return c + rim, units - rim, c + units


def plr_large_d(
    g: TilingGraph, interval: SupportMask, d: int, mode: str = "per-leg"
) -> PlrResult:
    """Leading-order learning rate w = d^-minC; contiguous intervals take
    the hull route, other supports ``min_cut_exact``."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if interval.n != g.n_legs:
        raise ValueError(f"interval over {interval.n} legs, graph has {g.n_legs}")
    bounds = interval.contiguous_bounds()
    if bounds is None:
        min_cost = min_cut_exact(g, pinned_for_interval(g, interval), mode).min_cost
    else:
        min_cost = _HullCuts(g, mode).cut(*bounds)[2]
    result = PlrResult.from_log_w(-min_cost * math.log(d), d)
    # the exponent is exact by construction; avoid round-off in the log
    return PlrResult(w=result.w, shadow_norm_sq=result.shadow_norm_sq, log_d_norm=float(min_cost))


def cut_sweep(
    g: TilingGraph, mode: str = "per-leg", vertex_aligned_only: bool = False, oracle: str = "auto"
) -> Iterator[dict]:
    """(start, k, bdryC, bulkC, minC) for contiguous boundary intervals.

    Returns an iterator over rows ordered by (k, start), with a single zero
    row for k = 0; rows are computed as they are read, so a sweep holds no
    list of them.  The hull data (dual graph, planarity check) and the
    oracle check come first, so a graph or argument error raises here, not
    at the first row.

    oracle:
      * "auto"    -- the hull route.  Per-leg rows whose interval is itself
                     aligned and whose minimum cut is the global flip report
                     the wall k + geodesic instead, which may exceed N (the
                     column the c_eff fits are defined over);
      * "maxflow" -- ``min_cut_exact`` on every row, one solve per distinct
                     pinned set; every row is the minimum cut.
    """
    if oracle not in ("auto", "maxflow"):
        raise ValueError(f"unknown oracle {oracle!r}")
    hull = _HullCuts(g, mode)
    n, aligned = g.n_legs, g.aligned
    solved: dict[frozenset, CutResult] = {}

    def rows() -> Iterator[dict]:
        yield {"start": 0, "k": 0, "bdryC": 0, "bulkC": 0, "minC": 0}
        for k in range(1, n):
            for start in range(n):
                if vertex_aligned_only and not (start in aligned and (start + k) % n in aligned):
                    continue
                if oracle == "auto":
                    bdry, bulk, min_cost = hull.cut(start, k, clamp_aligned=False)
                else:
                    pinned = pinned_for_interval(g, SupportMask.interval(n, start, k))
                    if pinned not in solved:
                        solved[pinned] = min_cut_exact(g, pinned, mode)
                    cut = solved[pinned]
                    bdry, bulk, min_cost = cut.bdry_cost, cut.bulk_cost, cut.min_cost
                yield {"start": start, "k": k, "bdryC": bdry, "bulkC": bulk, "minC": min_cost}

    return rows()
