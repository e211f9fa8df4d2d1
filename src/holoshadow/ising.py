"""Exact statistical-mechanics evaluation on small holographic graphs.

Each tile of a TilingGraph carries an Ising spin; a configuration costs

    E(s) = -J sum_edges s_u s_v - sum_bdry h_v s_v,        J = h = ln(d)/2,

with h_v = h per boundary tile ("per-vertex") or h times its leg count
("per-leg").  Exhaustive enumeration of all configurations then gives:

* ``plr_exact``            -- the pinned-spin learning rate: the Boltzmann
  sum with all tiles owning support legs forced to -1, over the free sum;
* ``entanglement_feature`` -- the partition-function ratio with the
  boundary field sign flipped on a region of tiles;
* ``renyi_vs_cut``         -- -log_d W against the bulk geodesic, which it
  approaches as d grows;
* ``optimality_check``     -- whether min_supp w <= 1/(d^|region|+1), the
  bound any measurement scheme must satisfy at leg granularity.

These are annealed averages (ratios of ensemble averages), exact for the
Gaussian tensor ensemble average of numerator and denominator separately
and exact for the ratio only in the large-bond limit.  Everything is
enumerated (no transfer matrices) so the module can serve as an oracle;
the hard cap is 24 tiles, vectorized in chunks with running log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ModelParams, PlrResult, SupportMask, subsets_of
from .cuts import bulk_geodesic, pinned_for_interval
from .tiling import TilingGraph, dual_graph

MAX_VERTICES = 24
_CHUNK = 1 << 20


@dataclass(frozen=True)
class SpinModel:
    """Ising model of a two-replica tensor-network average."""

    graph: TilingGraph
    params: ModelParams
    boundary_field_mode: str = "per-vertex"
    energy_offset: float = 0.0  # pure gauge; must drop out of all ratios

    def __post_init__(self) -> None:
        if self.graph.n_vertices > MAX_VERTICES:
            raise ValueError(
                f"exhaustive enumeration capped at {MAX_VERTICES} vertices, "
                f"graph has {self.graph.n_vertices}"
            )

    def field(self, v: int) -> float:
        return self.graph.boundary_cost(self.boundary_field_mode)[v] * self.params.h

    def boundary_vertices(self) -> list[int]:
        return [v for v in range(self.graph.n_vertices) if self.graph.boundary_legs[v]]


def energy(config: Mapping[int, int], model: SpinModel) -> float:
    """E(s) of a full spin assignment (vertex -> +-1)."""
    g = model.graph
    for v in range(g.n_vertices):
        if v not in config:
            raise ValueError(f"configuration misses vertex {v}")
        if config[v] not in (-1, 1):
            raise ValueError(f"spin of vertex {v} must be +-1")
    j = model.params.J
    total = model.energy_offset
    total -= j * sum(config[u] * config[v] for u, v in g.edges)
    total -= sum(model.field(v) * config[v] for v in model.boundary_vertices())
    return total


def _log_boltzmann_sum(
    model: SpinModel,
    pinned: Mapping[int, int] | None = None,
    tau: Mapping[int, int] | None = None,
) -> float:
    """ln sum_s exp(-E(s)) with some spins pinned and field signs tau."""
    g = model.graph
    pinned = dict(pinned or {})
    tau = dict(tau or {})
    j = model.params.J
    n = g.n_vertices
    free = [v for v in range(n) if v not in pinned]
    fidx = {v: i for i, v in enumerate(free)}

    const = -model.energy_offset
    linear = [0.0] * len(free)
    pair_edges: list[tuple[int, int]] = []
    for u, v in g.edges:
        if u in pinned and v in pinned:
            const += j * pinned[u] * pinned[v]
        elif u in pinned:
            linear[fidx[v]] += j * pinned[u]
        elif v in pinned:
            linear[fidx[u]] += j * pinned[v]
        else:
            pair_edges.append((fidx[u], fidx[v]))
    for v in model.boundary_vertices():
        coeff = model.field(v) * tau.get(v, 1)
        if v in pinned:
            const += coeff * pinned[v]
        else:
            linear[fidx[v]] += coeff

    nfree = len(free)
    if nfree == 0:
        return const

    running_max = -math.inf
    running_sum = 0.0
    total = 1 << nfree
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        acc = np.full(idx.shape, const, dtype=np.float64)
        for ju, jv in pair_edges:
            antialigned = ((idx >> ju) ^ (idx >> jv)) & 1
            acc += j - (2.0 * j) * antialigned
        for jv, coeff in enumerate(linear):
            if coeff == 0.0:
                continue
            bit = (idx >> jv) & 1
            acc += coeff - (2.0 * coeff) * bit
        chunk_max = float(acc.max())
        chunk_sum = float(np.exp(acc - chunk_max).sum())
        if chunk_max > running_max:
            running_sum = running_sum * math.exp(running_max - chunk_max) + chunk_sum
            running_max = chunk_max
        else:
            running_sum += chunk_sum * math.exp(chunk_max - running_max)
    return running_max + math.log(running_sum)


def plr_exact(model: SpinModel, support: SupportMask) -> PlrResult:
    """Pinned-spin learning rate: tiles owning support legs forced to -1."""
    pinned = {v: -1 for v in pinned_for_interval(model.graph, support)}
    log_num = _log_boltzmann_sum(model, pinned=pinned)
    log_den = _log_boltzmann_sum(model)
    return PlrResult.from_log_w(log_num - log_den, model.params.d)


def entanglement_feature(model: SpinModel, region: Iterable[int]) -> float:
    """Partition-function ratio Z[tau(region)] / Z[tau(empty)].

    `region` is a set of boundary tiles whose field sign is flipped.
    """
    region = frozenset(region)
    bdry = set(model.boundary_vertices())
    bad = region - bdry
    if bad:
        raise ValueError(f"region contains non-boundary vertices {sorted(bad)}")
    log_num = _log_boltzmann_sum(model, tau={v: -1 for v in region})
    log_den = _log_boltzmann_sum(model)
    return math.exp(log_num - log_den)


def renyi_vs_cut(
    model: SpinModel, interval: SupportMask, d_list: Sequence[int]
) -> list[dict]:
    """Tabulate -log_d W(region) against the bulk geodesic for each d.

    The difference converges to zero as d grows; the empty interval maps
    to (0, 0) at every d.
    """
    g = model.graph
    if interval.is_empty:
        bulk = 0
    else:
        bulk = bulk_geodesic(g, dual_graph(g), interval)
    region = pinned_for_interval(g, interval)
    rows = []
    for d in d_list:
        model_d = SpinModel(g, ModelParams(d), model.boundary_field_mode)
        w = entanglement_feature(model_d, region) if region else 1.0
        rows.append({"d": d, "renyi_over_log_d": -math.log(w) / math.log(d), "bulkC": bulk})
    return rows


def optimality_check(model: SpinModel, region_legs: SupportMask) -> bool:
    """Does some Pauli inside the region have w <= 1/(d^|region| + 1)?

    Vacuously true for the empty region.  Can fail in per-vertex mode for
    regions not covering all legs of a tile, where the pinned-spin rate
    floors at the tile level.
    """
    k = region_legs.k
    if k == 0:
        return True
    d = model.params.d
    bound = 1.0 / (float(d) ** k + 1.0)
    best = math.inf
    seen: set[frozenset] = set()
    for sub in subsets_of(region_legs.sites):
        if not sub:
            continue
        support = SupportMask(region_legs.n, sub)
        pinned = pinned_for_interval(model.graph, support)
        if pinned in seen:
            continue
        seen.add(pinned)
        w = plr_exact(model, support).w
        best = min(best, w)
    return best <= bound
