"""Minimal cuts on holographic tensor-network graphs.

As d grows a support's learning rate falls as d^-minC times the number
of minimal cuts, so its d = infinity answer is the cut (``CutResult``):
the cheapest separation of its pinned tiles from the rest.  Flipping a
boundary tile costs its boundary field (one unit per tile, or per leg it
owns, by mode), and each bulk edge on the domain wall costs one unit.

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

    minC = c + dist(a, b).

Walking the rim arcs all the way from a round to b is the global flip, so
minC never exceeds the total boundary cost; a hull covering the whole rim
costs that total.  On every generated patch the shortest path is either
the bulk geodesic (the wall around the hull) or that rim walk, so
minC = min(c + geodesic, total) there (checked for {3,7}, {5,4}, {4,5},
{3,8}, {6,4}, {5,5}, {4,6}, {3,9}, {7,3} and {8,3}); other graphs may
mix the two.

All hull starts share one lane-parallel BFS, which gives every bulk hop
count between their gaps (``_HullCuts``).  Each start then opens the rim
arcs one tile run at a time, visiting only the runs that can shorten a
path, and keeps one int per hull end in an ``array``.  ``cut_sweep`` yields
its N^2 rows one at a time and keeps no list of them; what it holds is
that table, revisited for every k in the (k, start) row order.

``min_cut_exact``, max-flow over all spin configurations, stays as the
independent oracle; ``plr_large_d`` prices non-interval supports with it.

The rim data come from the graph, derived once when it is validated:
``TilingGraph.owners``, ``TilingGraph.aligned`` and
``TilingGraph.boundary_cost(mode)``, the one place a mode is checked.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Iterator

from .core import CutResult, SupportMask
from .tiling import DualGraph, TilingGraph, dual_graph


def pinned_for_interval(g: TilingGraph, interval: SupportMask) -> frozenset:
    """Tiles owning at least one leg of the interval."""
    if interval.n != g.n_legs:
        raise ValueError(f"interval over {interval.n} legs, graph has {g.n_legs}")
    return frozenset(chain.from_iterable(g.owners[start:end] for start, end in interval.runs))


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
    return CutResult(bdry_cost=bdry, bulk_cost=bulk, min_cost=flow, witness=witness)


def bulk_geodesic(g: TilingGraph, dual: DualGraph, interval: SupportMask) -> int:
    """Shortest dual path (in arcs) between the endpoint gaps of a
    contiguous interval; 0 for the empty or full boundary."""
    bounds = interval.contiguous_bounds()
    if bounds is None:
        raise ValueError("interval is not contiguous; use plr_large_d instead")
    start, k = bounds
    n = g.n_legs
    if k == 0 or k == n:
        return 0
    node_a = dual.gap_index[start % n]
    node_b = dual.gap_index[(start + k) % n]
    dist = dual.distances_from([node_a]).lane(0, node_b)
    if math.isinf(dist):
        raise ValueError(
            "no dual path between interval endpoints (interval splits a tile's legs); "
            "use plr_large_d instead"
        )
    return int(dist)


class _HullCuts:
    """Aligned-hull cuts of one graph in one mode, O(1) per interval.

    Holds prefix sums of boundary cost per leg (each tile's cost sits on
    its first leg, which is also the weight of the rim arc crossing that
    leg), each position's distance to the hull ends around it, and, per
    hull start, the dual distances to every hull end.  Only hulls of the
    interval starts passed in can be priced.

    One lane BFS (``DualGraph.distances_from``) from the gaps of all those
    hull starts gives every bulk hop count a search needs.  Hops are
    symmetric: when every aligned gap is a hull start, a start's counts to
    the other aligned gaps are the lanes of its own gap's int, and a
    geodesic is read from a lane, not kept per start.

    The rim between two neighbouring aligned gaps is one tile's run of
    legs.  A gap inside a run borders only what hangs off that tile between
    two of its legs, and that holds no legs, because ``TilingGraph`` keeps
    every tile's legs one run.  So its dual arcs lead nowhere else: no hull
    start reaches it in hops, and it only relays the rim arcs on either
    side of it.  The search therefore opens a tile's run as one rim arc
    between aligned gaps that carries the tile's cost.

    A distance is scaled as units * scale + rim, where units counts cut
    units and rim the boundary cost of the rim arcs on the path.  Among
    shortest paths the search keeps the least rim cost: that is the
    smallest optimal flipped set, the residual-reachable side that
    max-flow reports, so the (bdryC, bulkC) split agrees with it.  The
    table stores rim * scale + units instead, so that a hull end whose
    distance the rim arcs never lower keeps its bare hop count.
    """

    def __init__(self, g: TilingGraph, mode: str, starts: Iterable[int]):
        cost, owner, aligned = g.boundary_cost(mode), g.owners, g.aligned
        n = self.n = g.n_legs
        self.per_leg = mode == "per-leg"
        self.total = sum(cost)
        self.scale = self.total + 1
        leg_cost = [cost[owner[j]] if j in aligned else 0 for j in range(n)]
        self.prefix = [0]
        for j in range(2 * n):
            self.prefix.append(self.prefix[-1] + leg_cost[j % n])
        # back[j] / ahead[j]: legs from the aligned position that starts the
        # run of leg j's tile / that ends the run of leg j-1's tile (n when
        # one tile owns the whole rim, so every hull is the whole rim)
        first = {owner[j]: j for j in aligned}
        after = {owner[j - 1]: j for j in aligned}
        self.back = [(j - first[owner[j]]) % n for j in range(n)] if aligned else [n] * n
        self.ahead = [(after[owner[j - 1]] - j) % n for j in range(n)] if aligned else [n] * n
        # pricing no hull, as the max-flow sweep does, needs no embedding
        self.dual = dual_graph(g) if aligned and starts else None
        if self.dual is None:
            return
        # the ring: aligned positions in rim order by rank, the run of rank
        # i's tile reaching the gap of rank i + 1
        ring = sorted(aligned)
        self.rank: list[int | None] = [None] * n
        for i, j in enumerate(ring):
            self.rank[j] = i
        self.gaps = [self.dual.gap_index[j] for j in ring]
        self.gap_rank = {node: i for i, node in enumerate(self.gaps)}
        self.weight = [leg_cost[j] * (self.scale + 1) for j in ring]
        hull_starts = sorted({(s - self.back[s]) % n for s in starts})
        self.every_start = len(hull_starts) == len(ring)
        # hull start a's hop counts are lane lane[a], and its part of the
        # table begins at offset[a]
        self.lane: list[int | None] = [None] * n
        self.offset: list[int | None] = [None] * n
        for i, a in enumerate(hull_starts):
            self.lane[a], self.offset[a] = i, i * len(ring)
        self.hops = self.dual.distances_from([self.dual.gap_index[a] for a in hull_starts])
        # lane-wise weight + 1 per rank; a weight past the lanes' range is
        # capped, which only lets more arcs through _candidates
        width = self.hops.width
        self.low = self.hops.lane_ones(len(ring))
        cap = (1 << (width - 3)) - 1
        self.over = self.low + self.hops.pack(min(leg_cost[j], cap) for j in ring)
        # entries stay below scale^2, and bare hop counts below 2^(width-2)
        self.code = "I" if self.scale**2 < 1 << 32 and width <= 32 else "Q"
        self.ends = array(self.code, [0]) * (len(hull_starts) * len(ring))
        for a in hull_starts:
            self.ends[self.offset[a] : self.offset[a] + len(ring)] = self._search(a)

    def _hop_row(self, a: int) -> int:
        """Hop counts from hull start a's gap to every aligned gap, one lane
        per rank."""
        hops = self.hops
        if self.every_start:
            return hops.packed[self.gaps[self.rank[a]]]
        shift, mask = hops.width * self.lane[a], (1 << hops.width) - 1
        return hops.pack(hops.packed[node] >> shift & mask for node in self.gaps)

    def _candidates(self, row: int, t: int) -> list[int]:
        """Ranks whose rim arc, opened on the bare hop counts in row, lowers
        one of its two gaps: their counts differ by more than its weight.
        Rank t's arc ends at the start and never opens."""
        width, m = self.hops.width, len(self.gaps)
        high = self.low << (width - 1)
        ahead = row >> width | (row & ((1 << width) - 1)) << (width * (m - 1))
        flags = ((row | high) - ahead - self.over | (ahead | high) - row - self.over) & high
        flags &= ~(1 << (width * t + width - 1))
        ranks = []
        while flags:
            top = flags.bit_length() - 1
            ranks.append(top // width)
            flags ^= 1 << top
        return ranks

    def _search(self, a: int) -> array:
        """Per hull end, by rank: the dual distance from gap a with the rim
        arcs outside the hull [a, b) open, stored as rim * scale + units.

        Opens the rim arcs from the run just behind a backwards; once rank
        i's arc is open, so is every arc from it round to a, and rank i can
        end a hull.  Only the opening steps that can lower a distance are
        visited: the arcs ``_candidates`` finds, and the arcs beside a gap
        whose distance dropped before they opened.
        """
        hops, scale = self.hops, self.scale
        gaps, gap_rank, weight, adj = self.gaps, self.gap_rank, self.weight, self.dual.neighbors
        m, t = len(gaps), self.rank[a]
        packed, unreached = hops.packed, hops.unreached
        shift, mask = hops.width * self.lane[a], (1 << hops.width) - 1
        row = self._hop_row(a)
        ends = array(self.code, hops.unpack(row, m))
        dist: dict[int, float] = {}
        queue: deque[int] = deque()

        def current(node: int) -> float:
            value = dist.get(node)
            if value is None:
                h = packed[node] >> shift & mask
                value = math.inf if h == unreached else h * scale
            return value

        def improve(node: int, value: float) -> None:
            if value < current(node):
                dist[node] = value
                queue.append(node)

        steps = [-((i - t) % m) for i in self._candidates(row, t)]
        heapify(steps)
        step = None
        while steps:
            r = -heappop(steps)
            if r == step:
                continue
            step = r
            i = (t + r) % m
            u, v = gaps[i], gaps[(i + 1) % m]
            improve(u, current(v) + weight[i])
            improve(v, current(u) + weight[i])
            while queue:
                u = queue.popleft()
                du = dist[u]
                for v in adj[u]:
                    improve(v, du + scale)
                p = gap_rank.get(u)
                if p is None:
                    continue
                # rank p's entry is taken when its own arc opens: a drop up
                # to that step counts, a later one does not
                if (p - t) % m <= r:
                    units, rim = divmod(du, scale)
                    ends[p] = rim * scale + units
                # the arcs on either side relax now if open, else at their step
                for arc, other in ((p, (p + 1) % m), ((p - 1) % m, (p - 1) % m)):
                    order = (arc - t) % m
                    if order >= r:
                        improve(gaps[other], du + weight[arc])
                    elif order:
                        heappush(steps, -order)
        return ends

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
        b = self.rank[(end + ahead) % n]
        c = self.prefix[a + back + k + ahead] - self.prefix[a]
        rim, units = divmod(self.ends[self.offset[a] + b], self.scale)
        if not clamp_aligned and self.per_leg and c == k and c + units == self.total:
            geodesic = self.hops.lane(self.lane[a], self.gaps[b])
            if geodesic < math.inf:
                return c, geodesic, c + geodesic
        return c + rim, units - rim, c + units


def plr_large_d(g: TilingGraph, support: SupportMask, mode: str = "per-leg") -> CutResult:
    """The minimal cut of a support, its d -> infinity answer (a cut, not a
    rate: the name stays for ``benchmarks/spans.py``).  Contiguous intervals
    take the hull route, other supports ``min_cut_exact``."""
    pinned = pinned_for_interval(g, support)  # checks the leg count
    bounds = support.contiguous_bounds()
    if bounds is None:
        return min_cut_exact(g, pinned, mode)
    return CutResult(*_HullCuts(g, mode, bounds[:1]).cut(*bounds))


def cut_sweep(
    g: TilingGraph, mode: str = "per-leg", vertex_aligned_only: bool = False, oracle: str = "auto"
) -> Iterator[dict]:
    """(start, k, bdryC, bulkC, minC) for contiguous boundary intervals.

    Returns an iterator over rows ordered by (k, start), with a single zero
    row for k = 0; rows are computed as they are read, so a sweep holds no
    list of them.  The hull data (for "auto": dual graph, planarity check,
    every hull start's search) and the oracle check come first, so a graph
    or argument error raises here, not at the first row.

    oracle:
      * "auto"    -- the hull route.  Per-leg rows whose interval is itself
                     aligned and whose minimum cut is the global flip report
                     the wall k + geodesic instead, which may exceed N (the
                     column the c_eff fits are defined over);
      * "maxflow" -- ``min_cut_exact`` on every row, one solve per distinct
                     pinned set; every row is the minimum cut.  It needs
                     no embedding (rotation system).
    """
    if oracle not in ("auto", "maxflow"):
        raise ValueError(f"unknown oracle {oracle!r}")
    hull = _HullCuts(g, mode, g.aligned if oracle == "auto" else ())
    n, aligned = g.n_legs, g.aligned
    ring = sorted(aligned)
    solved: dict[frozenset, CutResult] = {}

    def rows() -> Iterator[dict]:
        yield {"start": 0, "k": 0, "bdryC": 0, "bulkC": 0, "minC": 0}
        for k in range(1, n):
            starts = [s for s in ring if (s + k) % n in aligned] if vertex_aligned_only else range(n)
            for start in starts:
                if oracle == "auto":
                    bdry, bulk, min_cost = hull.cut(start, k, False)
                else:
                    pinned = pinned_for_interval(g, SupportMask.interval(n, start, k))
                    if pinned not in solved:
                        solved[pinned] = min_cut_exact(g, pinned, mode)
                    cut = solved[pinned]
                    bdry, bulk, min_cost = cut.bdry_cost, cut.bulk_cost, cut.min_cost
                yield {"start": start, "k": k, "bdryC": bdry, "bulkC": bulk, "minC": min_cost}

    return rows()
