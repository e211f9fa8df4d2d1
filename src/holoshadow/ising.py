"""Exact statistical-mechanics evaluation on holographic graphs.

Each tile of a TilingGraph carries an Ising spin; a configuration costs

    E(s) = -J sum_edges s_u s_v - sum_bdry h_v s_v,        J = h = ln(d)/2,

with h_v = h per boundary tile ("per-vertex") or h times its leg count
("per-leg").  A SpinModel derives its field costs, elimination order and
free sum ln Z once, when it is built; each quantity below is then one more
Boltzmann sum, over any set of support legs, not only intervals:

* ``plr_exact``            -- the pinned-spin learning rate: the Boltzmann
  sum with all tiles owning support legs forced to -1, over the free sum;
* ``entanglement_feature`` -- the partition-function ratio with the
  boundary field sign flipped on a region of tiles (and its log);
* ``renyi_vs_cut``         -- -log_d W against the bulk geodesic, which it
  approaches as d grows; d enters only as the coupling;
* ``optimality_check``     -- whether min_supp w <= 1/(d^|region|+1), the
  bound any measurement scheme must satisfy at leg granularity, checked on
  the full region alone, since pinning more tiles only lowers the rate.

These are annealed averages (ratios of ensemble averages), exact for the
Gaussian tensor ensemble average of numerator and denominator separately
and exact for the ratio only in the large-bond limit.  Each sum is one
variable elimination in log space over a min-degree order of the tiles,
so its cost, which the cap bounds, grows with that order's width, not N.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import ModelParams, PlrResult, SupportMask, minus_log_d
from .cuts import bulk_geodesic, pinned_for_interval
from .tiling import TilingGraph, dual_graph

#: Cap on the table entries one sum builds over the elimination order; a
#: {3,7} patch of 181 tiles needs 2,923, and a sum at the cap takes seconds.
MAX_TABLE_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SpinModel:
    """Ising model of a two-replica tensor-network average."""

    graph: TilingGraph
    params: ModelParams
    boundary_field_mode: str = "per-vertex"
    #: per-tile field in units of h: the mode's boundary cost, 0 off the rim
    field_costs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: the tiles in min-degree elimination order, ties broken by tile id
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: ln Z, the free sum: no pins, no field flips
    log_z: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "field_costs", self.graph.boundary_cost(self.boundary_field_mode))
        object.__setattr__(self, "order", _elimination_order(self.graph))
        object.__setattr__(self, "log_z", _log_boltzmann_sum(self, self.params.h, {}, {}))


def _elimination_order(g: TilingGraph) -> tuple[int, ...]:
    """Min-degree order of the tiles with fill-in, ties broken by id.  Each
    elimination builds a table of 2^degree entries; raises ValueError once
    they pass MAX_TABLE_ENTRIES.  Pins only shrink the tables of this order."""
    adj = [set() for _ in range(g.n_vertices)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    heap = [(len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    order: dict[int, None] = {}  # an insertion-ordered set
    entries = 0
    while heap:
        degree, v = heapq.heappop(heap)
        if v in order or degree != len(adj[v]):
            continue
        order[v] = None
        entries += 1 << degree
        if entries > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"variable elimination on this {g.n_vertices}-tile graph needs more than "
                f"{MAX_TABLE_ENTRIES} table entries"
            )
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
            heapq.heappush(heap, (len(adj[u]), u))
    return tuple(order)


def _log_boltzmann_sum(
    model: SpinModel, coupling: float, pinned: Mapping[int, int], tau: Mapping[int, int]
) -> float:
    """ln sum_s exp(-E(s)) at J = h = coupling, with some spins pinned and
    field signs tau.

    A factor is (scope in elimination order, table of log-weights) and waits
    in the bucket of its first tile; bit i of a table index is the spin of
    scope[i], 0 for +1 and 1 for -1.
    """
    rank = {v: i for i, v in enumerate(model.order)}
    # -E(s) as coefficients times products of spins; pins fold into them
    terms = [((u, v), coupling) for u, v in model.graph.edges]
    terms += [((v,), cost * coupling * tau.get(v, 1)) for v, cost in enumerate(model.field_costs) if cost]
    const = 0.0
    linear = [0.0] * model.graph.n_vertices
    buckets = {v: [] for v in model.order if v not in pinned}
    for tiles, coeff in terms:
        coeff *= math.prod(pinned[u] for u in tiles if u in pinned)
        free = sorted((u for u in tiles if u not in pinned), key=rank.__getitem__)
        if len(free) == 2:
            buckets[free[0]].append((tuple(free), (coeff, -coeff, -coeff, coeff)))
        elif free:
            linear[free[0]] += coeff
        else:
            const += coeff
    for v, bucket in buckets.items():
        bucket.append(((v,), (linear[v], -linear[v])))
        scope = (v, *sorted({u for s, _ in bucket for u in s} - {v}, key=rank.__getitem__))
        total = [0.0] * (1 << len(scope))
        for factor_scope, table in bucket:
            index = [0]
            for u in scope:
                bit = 1 << factor_scope.index(u) if u in factor_scope else 0
                index += [i + bit for i in index]
            total = [t + table[i] for t, i in zip(total, index)]
        # sum out v, the lowest bit
        message = [max(a, b) + math.log1p(math.exp(-abs(a - b))) for a, b in zip(total[::2], total[1::2])]
        if len(scope) > 1:
            buckets[scope[1]].append((scope[1:], message))
        else:
            const += message[0]
    return const


def plr_exact(model: SpinModel, support: SupportMask) -> PlrResult:
    """Pinned-spin learning rate: tiles owning support legs forced to -1."""
    pinned = dict.fromkeys(pinned_for_interval(model.graph, support), -1)
    log_w = _log_boltzmann_sum(model, model.params.h, pinned, {}) - model.log_z
    return PlrResult.from_log_w(log_w, model.params.d)


def log_entanglement_feature(model: SpinModel, region: Iterable[int]) -> float:
    """ln of the entanglement feature W(region); finite where W underflows."""
    region = frozenset(region)
    bad = sorted(v for v in region if v not in range(len(model.field_costs)) or not model.field_costs[v])
    if bad:
        raise ValueError(f"region contains non-boundary vertices {bad}")
    return _log_boltzmann_sum(model, model.params.h, {}, dict.fromkeys(region, -1)) - model.log_z


def entanglement_feature(model: SpinModel, region: Iterable[int]) -> float:
    """Partition-function ratio Z[tau(region)] / Z[tau(empty)].

    `region` is a set of boundary tiles whose field sign is flipped.
    """
    return math.exp(log_entanglement_feature(model, region))


def renyi_vs_cut(
    model: SpinModel, interval: SupportMask, d_list: Sequence[int]
) -> list[dict]:
    """Tabulate -log_d W(region) against the bulk geodesic for each d.

    The difference converges to zero as d grows; the empty interval maps
    to (0, 0) at every d, since its two sums are equal.  The model gives
    the graph, mode and order, not d: each d is two sums at its own
    coupling.
    """
    g = model.graph
    bulk = bulk_geodesic(g, dual_graph(g), interval)
    tau = dict.fromkeys(pinned_for_interval(g, interval), -1)
    rows = []
    for d in d_list:
        coupling = ModelParams(d).h
        log_w = _log_boltzmann_sum(model, coupling, {}, tau) - _log_boltzmann_sum(model, coupling, {}, {})
        rows.append({"d": d, "renyi_over_log_d": minus_log_d(log_w, d), "bulkC": bulk})
    return rows


def optimality_check(model: SpinModel, region_legs: SupportMask) -> bool:
    """Does some Pauli inside the region have w <= 1/(d^|region| + 1)?

    Every non-empty sub-support pins a subset of the region's tiles, and
    pinning fewer tiles sums over more configurations of positive weight,
    so the least rate is the region's own, ``plr_exact`` of the region: one
    pinned sum.  Compared in log_d space, -log_d w >= k + log_d(1 + d^-k),
    so that no d overflows.  Vacuously true for the empty region.  Can fail
    in per-vertex mode for regions not covering all legs of a tile, where
    the pinned-spin rate floors at the tile level.
    """
    k = region_legs.k
    if k == 0:
        return True
    log_d = math.log(model.params.d)
    return plr_exact(model, region_legs).log_d_norm >= k + math.log1p(math.exp(-k * log_d)) / log_d
