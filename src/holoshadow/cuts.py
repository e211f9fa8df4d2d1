"""Minimal cuts on holographic tensor-network graphs.

The large-bond-dimension learning rate of a boundary interval is set by
the cheapest way to separate the tiles pinned by the interval from the
rest: flipping a boundary tile costs its boundary field (one unit per
tile, or one per leg it owns, depending on mode), and every bulk edge on
the resulting domain wall costs one unit.  Two independent solvers are
provided:

* ``bulk_geodesic`` -- the lightweight route for contiguous
  intervals: an unweighted shortest path between the two gap nodes of the
  dual graph at the interval's endpoints;
* ``min_cut_exact``  -- a max-flow optimizer over all spin configurations
  (source to pinned tiles at infinite capacity, unit capacities on bulk
  edges, per-tile or per-leg capacities from boundary tiles to the sink).

``cut_sweep`` tabulates (start, k, bdryC, bulkC, minC) over contiguous
intervals.  Optimizer queries are grouped by interval start: extending an
interval only pins more tiles, i.e. only raises capacities, so each start
re-augments one flow instead of solving every length from scratch.  Large
sweeps fan out over worker processes (deterministic output either way).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable

from .core import PlrResult, SupportMask
from .tiling import DualGraph, TilingGraph, dual_graph

MODES = ("per-vertex", "per-leg")


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


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: HOLOSHADOW_THREADS overrides, else request, else cores."""
    env = os.environ.get("HOLOSHADOW_THREADS")
    if env:
        return max(1, int(env))
    if requested is not None:
        return max(1, requested)
    return max(1, min(os.cpu_count() or 1, 8))


def pinned_for_interval(g: TilingGraph, interval: SupportMask) -> frozenset:
    """Tiles owning at least one leg of the interval."""
    if interval.n != g.n_legs:
        raise ValueError(f"interval over {interval.n} legs, graph has {g.n_legs}")
    return frozenset(g.leg_owner(j) for j in interval.sites)


class _FlowNet:
    """Reusable max-flow network; only source capacities change per query."""

    def __init__(self, g: TilingGraph, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.graph = g
        n = g.n_vertices
        self.n = n + 2
        self.source = n
        self.sink = n + 1
        self.adj: list[list[int]] = [[] for _ in range(self.n)]
        self.to: list[int] = []
        self.base_cap: list[int] = []

        def push_arc(u: int, v: int, cap_uv: int, cap_vu: int) -> int:
            idx = len(self.to)
            self.adj[u].append(idx)
            self.to.append(v)
            self.base_cap.append(cap_uv)
            self.adj[v].append(idx + 1)
            self.to.append(u)
            self.base_cap.append(cap_vu)
            return idx

        for u, v in g.edges:
            push_arc(u, v, 1, 1)
        self.sink_cap: dict[int, int] = {}
        self.src_arc: dict[int, int] = {}
        total_bdry = 0
        for v in range(n):
            legs = len(g.boundary_legs[v])
            if not legs:
                continue
            cost = legs if mode == "per-leg" else 1
            self.sink_cap[v] = cost
            total_bdry += cost
            push_arc(v, self.sink, cost, 0)
            self.src_arc[v] = push_arc(self.source, v, 0, 0)
        self.inf = total_bdry + len(g.edges) + 1

    def _augment_all(self, cap: list[int]) -> tuple[int, list[int]]:
        """Dinic phases until the sink is unreachable.

        Returns (flow added, final BFS levels); since the final BFS failed
        to reach the sink, its visited set is exactly the residual-reachable
        source side of a minimum cut.
        """
        n, to, adj = self.n, self.to, self.adj
        source, sink = self.source, self.sink
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
                return flow, level
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

    def _decompose(self, flow: int, level: list[int], with_witness: bool = False) -> CutResult:
        reach = [lv >= 0 for lv in level]
        bdry = sum(c for v, c in self.sink_cap.items() if reach[v])
        bulk = sum(1 for u, v in self.graph.edges if reach[u] != reach[v])
        if bdry + bulk != flow:
            raise RuntimeError(f"cut decomposition {bdry}+{bulk} != flow {flow}")
        witness = None
        if with_witness:
            witness = frozenset(v for v in range(self.graph.n_vertices) if reach[v])
        return CutResult(bdry_cost=bdry, bulk_cost=bulk, min_cost=flow, mode=self.mode, witness=witness)

    def min_cut(self, pinned: frozenset, with_witness: bool = False) -> CutResult:
        for v in pinned:
            if v not in self.src_arc:
                raise ValueError(f"pinned vertex {v} owns no boundary legs")
        cap = self.base_cap.copy()
        for v in pinned:
            cap[self.src_arc[v]] = self.inf
        flow, level = self._augment_all(cap)
        return self._decompose(flow, level, with_witness)

    def incremental_cuts(self, pin_steps: list[list[int]]) -> list[CutResult]:
        """Min cuts for a monotonically growing pinned set.

        ``pin_steps[i]`` lists the vertices newly pinned at step i; opening
        a source arc only increases capacities, so the previous flow stays
        feasible and is re-augmented rather than recomputed.  Steps that
        pin nothing new reuse the previous result outright.
        """
        cap = self.base_cap.copy()
        flow = 0
        results: list[CutResult] = []
        for new_pins in pin_steps:
            if not new_pins and results:
                results.append(results[-1])
                continue
            for v in new_pins:
                if v not in self.src_arc:
                    raise ValueError(f"pinned vertex {v} owns no boundary legs")
                cap[self.src_arc[v]] = self.inf
            added, level = self._augment_all(cap)
            flow += added
            results.append(self._decompose(flow, level))
        return results


def min_cut_exact(g: TilingGraph, pinned_vertices: Iterable[int], mode: str = "per-vertex") -> CutResult:
    """Minimum of boundary-flip cost plus domain-wall length over all spin
    configurations with the given tiles pinned down.

    The result carries the flipped-tile set of one optimal configuration
    as a debugging witness.
    """
    if g.n_vertices == 0:
        raise ValueError("empty graph")
    return _FlowNet(g, mode).min_cut(frozenset(pinned_vertices), with_witness=True)


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


def plr_large_d(
    g: TilingGraph, interval: SupportMask, d: int, mode: str = "per-leg"
) -> PlrResult:
    """Leading-order learning rate w = d^-minC for the pinned interval."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    cut = min_cut_exact(g, pinned_for_interval(g, interval), mode)
    log_w = -cut.min_cost * math.log(d)
    result = PlrResult.from_log_w(log_w, d)
    # the exponent is exact by construction; avoid round-off in the log
    return PlrResult(w=result.w, shadow_norm_sq=result.shadow_norm_sq, log_d_norm=float(cut.min_cost))


# ---------------------------------------------------------------------------
# sweeps

_WORKER_NET: _FlowNet | None = None


def _sweep_worker_init(graph_json: dict, mode: str) -> None:
    global _WORKER_NET
    _WORKER_NET = _FlowNet(TilingGraph.from_json_dict(graph_json), mode)


def _sweep_worker(task: tuple[int, list[tuple[int, list[int]]]]) -> list[tuple[int, int, int, int, int]]:
    start, steps = task
    cuts_for_start = _WORKER_NET.incremental_cuts([pins for _, pins in steps])
    return [
        (start, k, c.bdry_cost, c.bulk_cost, c.min_cost)
        for (k, _), c in zip(steps, cuts_for_start)
    ]


def _start_tasks(
    g: TilingGraph, ks_by_start: dict[int, list[int]]
) -> list[tuple[int, list[tuple[int, list[int]]]]]:
    """Per start: the k values to solve, with the vertices newly pinned at
    each k (the pinned set only grows as the interval extends)."""
    n = g.n_legs
    tasks = []
    for start in sorted(ks_by_start):
        steps: list[tuple[int, list[int]]] = []
        pinned: set[int] = set()
        prev_k = 0
        for k in sorted(ks_by_start[start]):
            new_pins: list[int] = []
            for i in range(prev_k, k):
                v = g.leg_owner((start + i) % n)
                if v not in pinned:
                    pinned.add(v)
                    new_pins.append(v)
            steps.append((k, new_pins))
            prev_k = k
        tasks.append((start, steps))
    return tasks


def aligned_positions(g: TilingGraph) -> set[int]:
    """Boundary positions falling between legs of two different tiles."""
    n = g.n_legs
    owner = [g.leg_owner(j) for j in range(n)]
    return {j for j in range(n) if owner[(j - 1) % n] != owner[j]}


def cut_sweep(
    g: TilingGraph,
    mode: str = "per-leg",
    vertex_aligned_only: bool = False,
    oracle: str = "auto",
    workers: int | None = None,
) -> list[dict]:
    """(start, k, bdryC, bulkC, minC) for contiguous boundary intervals.

    oracle:
      * "auto"    -- dual BFS for vertex-aligned intervals in per-leg mode
                     (bdryC = k there), max-flow for everything else;
      * "maxflow" -- optimizer everywhere;
      * "both"    -- optimizer everywhere, plus a "bulkC_bfs" column on
                     aligned per-leg intervals for cross-checking.

    Rows are ordered by (k, start) with a single zero row for k = 0.
    Optimizer queries are solved per start by incremental re-augmentation;
    lengths that pin no new tile reuse the previous cut outright.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if oracle not in ("auto", "maxflow", "both"):
        raise ValueError(f"unknown oracle {oracle!r}")
    n = g.n_legs
    aligned = aligned_positions(g)

    intervals: list[tuple[int, int]] = []
    for k in range(1, n):
        for start in range(n):
            if vertex_aligned_only and not (start in aligned and (start + k) % n in aligned):
                continue
            intervals.append((start, k))

    def is_aligned(start: int, k: int) -> bool:
        return start in aligned and (start + k) % n in aligned

    bfs_ok = mode == "per-leg"
    dual = dual_graph(g) if bfs_ok and oracle in ("auto", "both") else None
    dist_cache: dict[int, list[float]] = {}

    def bfs_bulk(start: int, k: int) -> int:
        pos_a, pos_b = start, (start + k) % n
        if pos_a not in dist_cache:
            dist_cache[pos_a] = dual.distances_from(dual.gap_index[pos_a])
        dist = dist_cache[pos_a][dual.gap_index[pos_b]]
        if math.isinf(dist):
            raise RuntimeError(f"aligned interval ({start},{k}) has disconnected dual gaps")
        return int(dist)

    # group optimizer queries by start for incremental re-augmentation
    ks_by_start: dict[int, list[int]] = {}
    for start, k in intervals:
        flow_needed = oracle in ("maxflow", "both") or not (
            bfs_ok and oracle == "auto" and is_aligned(start, k)
        )
        if flow_needed:
            ks_by_start.setdefault(start, []).append(k)

    flow_results: dict[tuple[int, int], tuple[int, int, int]] = {}
    tasks = _start_tasks(g, ks_by_start)
    n_workers = resolve_workers(workers)
    if sum(len(steps) for _, steps in tasks) >= 2048 and n_workers > 1:
        import multiprocessing as mp

        graph_json = g.to_json_dict()
        with mp.Pool(n_workers, initializer=_sweep_worker_init, initargs=(graph_json, mode)) as pool:
            for chunk in pool.imap_unordered(_sweep_worker, tasks, chunksize=4):
                for start, k, bdry, bulk, minc in chunk:
                    flow_results[(start, k)] = (bdry, bulk, minc)
    else:
        net = _FlowNet(g, mode)
        for start, steps in tasks:
            for (k, _), cut in zip(steps, net.incremental_cuts([p for _, p in steps])):
                flow_results[(start, k)] = (cut.bdry_cost, cut.bulk_cost, cut.min_cost)

    rows: list[dict] = [{"start": 0, "k": 0, "bdryC": 0, "bulkC": 0, "minC": 0}]
    for start, k in intervals:
        row: dict = {"start": start, "k": k}
        if (start, k) in flow_results:
            bdry, bulk, minc = flow_results[(start, k)]
            row.update(bdryC=bdry, bulkC=bulk, minC=minc)
            if oracle == "both" and bfs_ok and is_aligned(start, k):
                row["bulkC_bfs"] = bfs_bulk(start, k)
        else:
            bulk = bfs_bulk(start, k)
            row.update(bdryC=k, bulkC=bulk, minC=k + bulk)
        rows.append(row)
    rows.sort(key=lambda r: (r["k"], r["start"]))
    return rows
