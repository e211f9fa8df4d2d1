"""Deterministic {p,q} hyperbolic-tiling tensor-network graphs.

A patch of the {p,q} tiling ((p-2)(q-2) > 4) is grown layer by layer:
layer 1 is a single central p-gon; each further layer completes every
frontier vertex of the tiling to its full complement of q incident tiles,
walking the frontier counterclockwise.  That needs every frontier vertex
to have at most q - 2 tiles, which ``boundary_size`` checks by counting
before anything is built: q >= 4 tilings grow without limit, q = 3 ones
stop at two layers.  The tensor network places one
tensor per tile: tiles sharing a side are connected by a bulk edge, and
the unshared sides of the outermost tiles dangle as boundary legs, ordered
cyclically around the rim.

Graph vertices below are therefore *tiles*; the vertices of the underlying
tiling appear only inside the generator.  Layer numbering starts at 1 for
the central tile; the half-boundary cut formulas indexed by l elsewhere in
the package refer to l = layers - 1 (a single tile has no bulk to cut).
Each tile also carries one measured bulk leg; it connects to nothing and
contributes only spin-independent constants that cancel in every
learning-rate ratio, so the graph leaves it out.

The planar embedding is carried as a rotation system (counterclockwise
edge/leg order per tile), from which ``dual_graph`` extracts the regions
of the embedding by face tracing.  The outer region is split at each
boundary leg into per-gap nodes, so that a minimal bulk cut between two
boundary points is a shortest path between their gap nodes.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: refuse to generate patches with more boundary legs than this
MAX_BOUNDARY = 500_000


#: boundary-cost modes: a flipped boundary tile costs 1, or one per leg it owns
MODES = ("per-vertex", "per-leg")

#: array typecode of each lane width of ``HopLanes``
_LANE_CODES = {16: "H", 32: "I", 64: "Q"}


@dataclass(frozen=True)
class TilingGraph:
    """Planar tensor-network graph of a {p,q} tiling patch.

    Immutable, and validated once, on construction.  The same pass derives
    the rim data every solver reads: the tile owning each leg, the aligned
    positions, and the per-tile boundary cost of each mode.
    """

    p: int
    q: int
    layers: int
    vertex_layers: tuple[int, ...]
    boundary_legs: tuple[tuple[int, ...], ...]  # per vertex, ascending leg ids
    edges: tuple[tuple[int, int], ...]
    boundary_order: tuple[tuple[int, int], ...]  # (leg, owner vertex), cyclic
    rotation: tuple[tuple[tuple[str, int], ...], ...] | None = None
    #: owners[j] is the tile owning leg j
    owners: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: rim positions j whose legs j-1 and j belong to different tiles
    aligned: frozenset[int] = field(init=False, repr=False, compare=False)
    _costs: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Reject graphs the solvers cannot trust: ids that are not integers,
        bad edge endpoints, leg ids other than 0..N-1, a rim order or
        rotation that disagrees with the tiles' edges and legs, or a tile
        whose legs are not one contiguous run of the rim (the cut solvers'
        hull route relies on this)."""
        freeze = partial(object.__setattr__, self)
        freeze("vertex_layers", tuple(self.vertex_layers))
        freeze("boundary_legs", tuple(map(tuple, self.boundary_legs)))
        freeze("edges", tuple(map(tuple, self.edges)))
        freeze("boundary_order", tuple(map(tuple, self.boundary_order)))
        if self.rotation is not None:
            freeze("rotation", tuple(tuple(map(tuple, rot)) for rot in self.rotation))
        ids = [self.p, self.q, self.layers, *self.vertex_layers]
        for group in (self.boundary_legs, self.edges, self.boundary_order):
            ids.extend(chain.from_iterable(group))
        ids.extend(ref for rot in self.rotation or () for _, ref in rot)
        if set(map(type, ids)) != {int}:
            bad = next(value for value in ids if type(value) is not int)
            raise ValueError(f"graph sizes and ids must be integers, got {bad!r}")
        n = self.n_vertices
        if len(self.boundary_legs) != n:
            raise ValueError(f"{len(self.boundary_legs)} boundary-leg lists for {n} vertices")
        if self.rotation is not None and len(self.rotation) != n:
            raise ValueError(f"{len(self.rotation)} rotation lists for {n} vertices")
        pairs: set[tuple[int, int]] = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside vertices 0..{n - 1}")
            if u == v:
                raise ValueError(f"edge ({u},{v}) is a self-loop")
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise ValueError(f"edge ({u},{v}) is listed twice")
            pairs.add(pair)
        claimed = sorted((leg, v) for v, legs in enumerate(self.boundary_legs) for leg in legs)
        if claimed != list(self.boundary_order) or any(leg != j for j, (leg, _) in enumerate(claimed)):
            raise ValueError(
                "boundary_order must list legs 0..N-1 in rim order, each with the vertex "
                "whose boundary_legs hold it"
            )
        if self.rotation is not None:
            # a tile's expected entries are distinct, so equal sets of equal
            # size mean each is listed exactly once
            ends: list[set[tuple[str, int]]] = [set() for _ in range(n)]
            for u, v in self.edges:
                ends[u].add(("edge", v))
                ends[v].add(("edge", u))
            for leg, v in self.boundary_order:
                ends[v].add(("leg", leg))
            for rot, expected in zip(self.rotation, ends):
                if len(rot) != len(expected) or set(rot) != expected:
                    raise ValueError("rotation must list each edge once at each end and each leg at its tile")
        owners = tuple(v for _, v in self.boundary_order)
        aligned = frozenset(j for j in range(len(owners)) if owners[j - 1] != owners[j])
        run_starts = [owners[j] for j in sorted(aligned)]
        if len(run_starts) != len(set(run_starts)):
            split = next(v for v in run_starts if run_starts.count(v) > 1)
            raise ValueError(f"the legs of vertex {split} are not one contiguous run of the rim")
        freeze("owners", owners)
        freeze("aligned", aligned)
        freeze("_costs", {
            "per-vertex": tuple(1 if legs else 0 for legs in self.boundary_legs),
            "per-leg": tuple(map(len, self.boundary_legs)),
        })

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_layers)

    @property
    def n_legs(self) -> int:
        return len(self.boundary_order)

    def boundary_cost(self, mode: str) -> tuple[int, ...]:
        """Per-tile cost of flipping a boundary tile in a mode: its leg count
        ("per-leg") or 1 ("per-vertex"); 0 for a tile without legs."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return self._costs[mode]

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "q": self.q,
            "layers": self.layers,
            "conventions": {
                "layers": "central tile is layer 1; ring-indexed cut formulas use l = layers - 1",
                "measured_bulk_legs": "one per tile, not an edge; cancels in learning-rate ratios",
            },
            "vertices": [
                {"id": i, "layer": self.vertex_layers[i], "boundary_legs": self.boundary_legs[i]}
                for i in range(self.n_vertices)
            ],
            "edges": [[u, v] for u, v in self.edges],
            "boundary_order": [{"leg": leg, "vertex": v} for leg, v in self.boundary_order],
        }
        if self.rotation is not None:
            out["rotation"] = [[[kind, ref] for kind, ref in rot] for rot in self.rotation]
        return out

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n", encoding="utf-8")

    @classmethod
    def from_json_dict(cls, data: dict) -> "TilingGraph":
        try:
            vertices = sorted(data["vertices"], key=lambda v: v["id"])
            if [v["id"] for v in vertices] != list(range(len(vertices))):
                raise ValueError("vertex ids must be 0..n-1")
            rotation = None
            if "rotation" in data:
                rotation = [tuple((kind, ref) for kind, ref in rot) for rot in data["rotation"]]
            return cls(
                p=data["p"],
                q=data["q"],
                layers=data["layers"],
                vertex_layers=[v["layer"] for v in vertices],
                boundary_legs=[tuple(v["boundary_legs"]) for v in vertices],
                edges=[(u, v) for u, v in data["edges"]],
                boundary_order=[(b["leg"], b["vertex"]) for b in data["boundary_order"]],
                rotation=rotation,
            )
        except KeyError as exc:
            raise ValueError(f"graph is missing the key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed graph: {exc}") from None

    @classmethod
    def load(cls, path: str | Path) -> "TilingGraph":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class DualGraph:
    """Regions of the planar embedding, with the outer region split per gap.

    One node per interior region, one gap node per boundary position
    (between consecutive legs); one arc per bulk edge, crossing it, listed
    in ``neighbors`` at both of its ends.  ``gap_index[j]`` is the node of
    the gap *before* leg j (between legs j-1 and j); the interior regions
    are the other n_nodes - len(gap_index) nodes, numbered first.
    """

    neighbors: list[list[int]]
    gap_index: dict[int, int]

    @property
    def n_nodes(self) -> int:
        return len(self.neighbors)

    def distances_from(self, sources: Sequence[int]) -> HopLanes:
        """Unweighted BFS hop counts from every node in sources at once.

        Lane-parallel (bit-parallel multi-source BFS; Akiba, Iwata & Yoshida,
        SIGMOD 2013): each node holds one int with one lane per source, and
        each level writes into a node only the lanes its frontier reached
        for the first time.  One source costs about one ordinary BFS, m
        sources one BFS on m-lane ints.  A source may repeat.
        """
        width = next(w for w in _LANE_CODES if self.n_nodes < 1 << (w - 3))
        adj = self.neighbors
        hops = HopLanes(width, [])
        unreached, flag = hops.unreached, width - 2
        # every lane starts unreached; shifted down by flag, a lane's
        # unreached bit lands on bit 0 of the lane, where frontier bits sit
        packed = hops.packed
        packed.extend([hops.lane_ones(len(sources)) * unreached] * self.n_nodes)
        frontier: dict[int, int] = {}
        for i, node in enumerate(sources):
            frontier[node] = frontier.get(node, 0) | 1 << (width * i)
        level = 0
        while frontier:
            for v, lanes in frontier.items():
                packed[v] -= lanes * (unreached - level)
            level += 1
            reached: dict[int, int] = {}
            for u, lanes in frontier.items():
                for v in adj[u]:
                    reached[v] = reached.get(v, 0) | lanes
            for v, lanes in reached.items():
                reached[v] = lanes & packed[v] >> flag
            frontier = {v: lanes for v, lanes in reached.items() if lanes}
        return hops


@dataclass(frozen=True)
class HopLanes:
    """Hop counts from several sources, one ``width``-bit lane per source.

    Lane i of ``packed[v]`` (bits width*i up to width*(i+1)) holds node v's
    hop count from source i, or ``unreached`` = 2^(width-2) where no path
    leads there.  The width grows with the node count, so counts stay below
    2^(width-3); a count or ``unreached`` plus anything below 2^(width-3)
    stays below the lane's top bit, which lane-wise arithmetic on whole
    ints can then use as a guard.
    """

    width: int
    packed: list[int]

    @property
    def unreached(self) -> int:
        return 1 << (self.width - 2)

    def lane_ones(self, lanes: int) -> int:
        """An int holding 1 in each of its first ``lanes`` lanes."""
        return ((1 << (self.width * lanes)) - 1) // ((1 << self.width) - 1)

    def pack(self, values: Iterable[int]) -> int:
        """One int holding the values in consecutive lanes."""
        lanes = array(_LANE_CODES[self.width], values)
        if sys.byteorder == "big":
            lanes.byteswap()
        return int.from_bytes(lanes.tobytes(), "little")

    def unpack(self, packed: int, lanes: int) -> array:
        """The first ``lanes`` lanes of an int, as an array."""
        out = array(_LANE_CODES[self.width])
        out.frombytes(packed.to_bytes(lanes * self.width // 8, "little"))
        if sys.byteorder == "big":
            out.byteswap()
        return out

    def lane(self, i: int, node: int) -> float:
        """Lane i of node: its hop count from source i, math.inf where
        unreachable."""
        h = self.packed[node] >> (self.width * i) & ((1 << self.width) - 1)
        return math.inf if h == self.unreached else h


class _Patch:
    """Mutable tiling patch during layer-by-layer growth."""

    def __init__(self, p: int):
        self.p = p
        self.face_verts: list[tuple[int, ...]] = [tuple(range(p))]
        self.face_layer: list[int] = [1]
        self.vert_faces: dict[int, int] = {v: 1 for v in range(p)}
        self.boundary: list[int] = list(range(p))  # ccw rim cycle
        self._next = p

    def new_vertex(self) -> int:
        v = self._next
        self._next += 1
        self.vert_faces[v] = 0
        return v

    def add_face(self, verts: tuple[int, ...], layer: int) -> None:
        self.face_verts.append(verts)
        self.face_layer.append(layer)
        for v in verts:
            self.vert_faces[v] += 1

    def inflate(self, q: int, layer: int) -> None:
        p = self.p
        boundary = self.boundary
        m = len(boundary)
        # boundary_size's census has checked that no fan count is negative
        fans = {v: q - self.vert_faces[v] - 2 for v in boundary}

        placeholder = self.new_vertex()
        pending = placeholder
        new_faces: list[list[int]] = []
        for i in range(m):
            b = boundary[i]
            b_next = boundary[(i + 1) % m]
            # tile glued on the boundary edge (b, b_next)
            verts = [b_next, b, pending]
            for _ in range(p - 3):
                verts.append(self.new_vertex())
            pending = verts[-1]
            new_faces.append(verts)
            # fan tiles touching only the vertex b_next
            for _ in range(fans[b_next]):
                verts = [b_next, pending]
                for _ in range(p - 2):
                    verts.append(self.new_vertex())
                pending = verts[-1]
                new_faces.append(verts)

        # close the annulus: the last emitted vertex is the one the first
        # tile borrowed as a placeholder
        if pending == placeholder:
            raise RuntimeError("inflation produced no fresh vertices")
        del self.vert_faces[placeholder]
        for verts in new_faces:
            self.add_face(tuple(pending if v == placeholder else v for v in verts), layer)

        # every vertex not on the final rim was closed here, once
        for v in boundary:
            if self.vert_faces[v] != q:
                raise RuntimeError(f"tiling vertex {v} closed with {self.vert_faces[v]} != q tiles")
        # the layer's fresh vertices, made counterclockwise along its outer rim
        self.boundary = list(range(placeholder + 1, self._next))


def _sides(cycle: Sequence[int], n: int) -> list[int]:
    """Each side of a cycle of vertex ids below n in order, keyed as
    lower * n + higher: ints hash and sort faster than the vertex pairs,
    and in the pairs' order."""
    return [a * n + b if a < b else b * n + a for a, b in zip(cycle, cycle[1:] + cycle[:1])]


def generate_tiling(p: int, q: int, layers: int) -> TilingGraph:
    """Grow a layers-deep {p,q} patch and return its tensor-network graph.

    Every hyperbolic tiling grows, as far as ``boundary_size``'s census can
    complete each rim vertex; ValueError for anything else (p or q below 3,
    (p-2)(q-2) <= 4, layers past that reach or past the size budget).
    """
    if p < 3 or q < 3:
        raise ValueError(f"{{{p},{q}}} is not a tiling: p and q must be at least 3")
    if (p - 2) * (q - 2) <= 4:
        raise ValueError(f"{{{p},{q}}} is not hyperbolic: (p-2)(q-2) = {(p - 2) * (q - 2)} <= 4")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    # the rim grows geometrically, so this stops within a few dozen layers
    # however many are asked for
    for size in islice(_rim_sizes(p, q), layers):
        if size > MAX_BOUNDARY:
            raise ValueError(f"a {layers}-layer {{{p},{q}}} patch exceeds the size budget")

    patch = _Patch(p)
    for layer in range(2, layers + 1):
        patch.inflate(q, layer)
    return _compile(patch, p, q, layers)


def two_tile_graph(p: int = 3, q: int = 7) -> TilingGraph:
    """Two p-gon tiles sharing one edge; the smallest graph with a bulk bond."""
    patch = _Patch(p)
    patch.add_face((1, 0, *(patch.new_vertex() for _ in range(p - 2))), 2)
    patch.boundary = [0, *range(p, 2 * p - 2), *range(1, p)]
    return _compile(patch, p, q, layers=2)


def _compile(patch: _Patch, p: int, q: int, layers: int) -> TilingGraph:
    # each tile's sides are traced once, for the edge map and the rotation
    n = patch._next
    face_sides = [_sides(verts, n) for verts in patch.face_verts]
    # the tiles on each side, ascending
    emap: dict[int, list[int]] = {}
    for f, sides in enumerate(face_sides):
        for key in sides:
            emap.setdefault(key, []).append(f)
    for key, faces in emap.items():
        if len(faces) > 2:
            raise RuntimeError(f"tiling edge {list(divmod(key, n))} shared by {len(faces)} tiles")

    # legs numbered along the rim cycle
    leg_of_edge = {key: j for j, key in enumerate(_sides(patch.boundary, n))}
    boundary_order = [(j, emap[key][0]) for key, j in leg_of_edge.items()]

    # faces are listed in ascending order; TilingGraph refuses a repeated pair
    edges = [tuple(faces) for _, faces in sorted(emap.items()) if len(faces) == 2]

    rotation: list[list[tuple[str, int]]] = []
    boundary_legs: list[list[int]] = [[] for _ in patch.face_verts]
    for f, sides in enumerate(face_sides):
        rot: list[tuple[str, int]] = []
        for key in sides:
            faces = emap[key]
            if len(faces) == 2:
                rot.append(("edge", faces[0] if faces[1] == f else faces[1]))
            else:
                leg = leg_of_edge[key]
                rot.append(("leg", leg))
                boundary_legs[f].append(leg)
        rotation.append(rot)
        boundary_legs[f].sort()

    return TilingGraph(
        p=p,
        q=q,
        layers=layers,
        vertex_layers=list(patch.face_layer),
        boundary_legs=boundary_legs,
        edges=edges,
        boundary_order=boundary_order,
        rotation=rotation,
    )


# ---------------------------------------------------------------------------
# boundary growth without building graphs


def _type_step(p: int, q: int, counts: dict[int, int]) -> dict[int, int] | None:
    """One inflation step on the census of rim-vertex tile counts, or None
    when a rim vertex already has more than q - 2 tiles and the next layer
    cannot complete it."""
    if max(counts) > q - 2:
        return None
    m = sum(counts.values())
    total_fans = sum((q - t - 2) * c for t, c in counts.items())
    if p == 3:
        # every rim edge's glued triangle reuses a fan apex, tripling it
        return {2: total_fans - m, 3: m}
    new_counts = {1: (p - 4) * m + (p - 3) * total_fans, 2: m + total_fans}
    return {t: c for t, c in new_counts.items() if c}


def _rim_sizes(p: int, q: int) -> Iterator[int]:
    """Boundary leg counts of the 1-, 2-, 3-, ... layer patches; ValueError
    in place of the first layer the census cannot complete."""
    counts = {1: p}
    for grown in count(1):
        yield sum(counts.values())
        counts = _type_step(p, q, counts)
        if counts is None:
            raise ValueError(f"{{{p},{q}}} patches stop at {grown} layers")


def boundary_size(p: int, q: int, layers: int) -> int:
    """Number of boundary legs of the layers-deep patch, by pure counting."""
    if layers < 1:
        raise ValueError("layers must be >= 1")
    return next(islice(_rim_sizes(p, q), layers - 1, None))


def transfer_matrix(p: int, q: int) -> list[list[int]]:
    """2x2 layer-transfer matrix on rim-vertex type counts: column j is one
    ``_type_step`` of the census holding a single rim vertex of type j."""
    types = (2, 3) if p == 3 else (1, 2)
    columns = [_type_step(p, q, {t: 1}) for t in types]
    if None in columns:
        raise ValueError(f"{{{p},{q}}} patches stop growing, so no matrix steps them")
    return [[column.get(t, 0) for column in columns] for t in types]


def inflation_growth_rate(p: int, q: int) -> float:
    """Dominant eigenvalue of the layer-transfer matrix."""
    (a, b), (c, d) = transfer_matrix(p, q)
    tr = a + d
    det = a * d - b * c
    return (tr + (tr * tr - 4 * det) ** 0.5) / 2


# ---------------------------------------------------------------------------
# dual construction by face tracing


def dual_graph(g: TilingGraph) -> DualGraph:
    """Trace the embedding's regions and split the outer one per boundary gap."""
    if g.rotation is None:
        raise ValueError("graph has no rotation system; cannot embed")
    n, n_legs = g.n_vertices, g.n_legs
    rotation = g.rotation

    # TilingGraph has checked that every edge end and leg appears once
    entry_slot = {
        (kind, v, ref): slot for v, rot in enumerate(rotation) for slot, (kind, ref) in enumerate(rot)
    }

    # darts are (vertex, slot); trace orbits of "arrive, turn left"
    visited = [[False] * len(rot) for rot in rotation]
    orbits: list[list[tuple[int, int]]] = []
    for v0 in range(n):
        for s0 in range(len(rotation[v0])):
            if visited[v0][s0]:
                continue
            orbit: list[tuple[int, int]] = []
            v, s = v0, s0
            while not visited[v][s]:
                visited[v][s] = True
                orbit.append((v, s))
                kind, ref = rotation[v][s]
                if kind == "leg":
                    # bounce off the dangling leg, resume past it
                    nxt_v, back = v, s
                else:
                    nxt_v = ref
                    back = entry_slot[("edge", nxt_v, v)]
                s = (back + 1) % len(rotation[nxt_v])
                v = nxt_v
            orbits.append(orbit)

    # Euler: a connected planar embedding has V - E + F = 2; tiles with
    # neither edges nor legs take no part
    embedded = sum(1 for rot in rotation if rot)
    if embedded - len(g.edges) + len(orbits) != 2:
        raise ValueError("rotation system is not a connected planar embedding (Euler characteristic)")

    outer_orbits = [
        o for o in orbits if any(rotation[v][s][0] == "leg" for v, s in o)
    ]
    if len(outer_orbits) != 1:
        raise ValueError(
            f"expected exactly one leg-bearing region, found {len(outer_orbits)}; "
            "inconsistent rotation system or disconnected graph"
        )

    nodes = 0
    dart_region: dict[tuple[int, int], int] = {}
    for o in orbits:
        if o is outer_orbits[0]:
            continue
        for dart in o:
            dart_region[dart] = nodes
        nodes += 1

    # split the outer orbit into gaps at each leg dart
    outer = outer_orbits[0]
    # every leg dart lies on it: the rotation lists each leg once (load
    # time) and no other region bears a leg
    leg_positions = [i for i, (v, s) in enumerate(outer) if rotation[v][s][0] == "leg"]
    gap_index: dict[int, int] = {}
    size = len(outer)
    for idx, start in enumerate(leg_positions):
        end = leg_positions[(idx + 1) % len(leg_positions)]
        leg_a = rotation[outer[start][0]][outer[start][1]][1]
        leg_b = rotation[outer[end][0]][outer[end][1]][1]
        if (leg_a + 1) % n_legs == leg_b:
            position = leg_b
        elif (leg_b + 1) % n_legs == leg_a:
            position = leg_a
        else:
            raise ValueError(f"legs {leg_a} and {leg_b} are not cyclically adjacent")
        node = nodes
        nodes += 1
        gap_index[position] = node
        i = (start + 1) % size
        while i != end:
            dart_region[outer[i]] = node
            i = (i + 1) % size
        # the leg dart itself bounds both neighbouring gaps; no region needed

    neighbors: list[list[int]] = [[] for _ in range(nodes)]
    for u, v in g.edges:
        a = dart_region[(u, entry_slot[("edge", u, v)])]
        b = dart_region[(v, entry_slot[("edge", v, u)])]
        neighbors[a].append(b)
        neighbors[b].append(a)

    return DualGraph(neighbors=neighbors, gap_index=gap_index)
