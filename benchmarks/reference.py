"""Reference values the benchmark checks the program's outputs against.

Nothing here calls into holoshadow: each reference is written from the
paper's definitions, so a defect on the timed path cannot hide itself.

* Tree circuit: the two-component replica recursion.  A coarse leaf pair
  is hole-like (1, 0) or particle-like (-1, d^2)/(d^4-1); a gate fuses two
  subtree vectors with gate factor a = d/(d^2+1); w is the component sum
  of the root.  Rational (``Fraction``) for small N, sign/log space above.
  Subtrees whose leaves are all alike are looked up, not folded, so a
  support made of j intervals costs O(j log N) fuses.
* Tree entanglement feature W(B): the same recursion over single leaves
  with basis vectors (identity or swap), which is the eta model that the
  program's brute-force enumeration sums term by term.
* Tree d -> infinity exponent: the min-plus form of the same gate rule.
  Each gate whose children disagree costs one bulk cut, each particle
  pair two boundary cuts.
* Ising model: plain numpy enumeration of every spin configuration of a
  graph file, read with ``json`` (at most 16 tiles here).
* Sweeps: a digest of the (start, k, minC) data rows.  The bdryC/bulkC
  split of a tied minimum cut is not unique, so only its sum is checked.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# tree circuit


def _pair_flags(n: int, sites) -> list[bool]:
    """Particle flag of each coarse leaf pair (2i, 2i+1)."""
    flags = [False] * (n // 2)
    for site in sites:
        flags[site // 2] = True
    return flags


def _fold(flags: list[bool], hole, particle, fuse):
    """Fold leaf vectors up a complete binary tree.

    A subtree whose leaves are all holes (or all particles) has the vector
    of that uniform subtree at its height, computed once by self-fusion.
    """
    prefix = [0, *itertools.accumulate(flags)]
    powers = {False: [hole], True: [particle]}

    def uniform(kind: bool, height: int):
        seq = powers[kind]
        while len(seq) <= height:
            seq.append(fuse(seq[-1], seq[-1]))
        return seq[height]

    def fold(lo: int, hi: int, height: int):
        count = prefix[hi] - prefix[lo]
        if count == 0:
            return uniform(False, height)
        if count == hi - lo:
            return uniform(True, height)
        mid = (lo + hi) // 2
        return fuse(fold(lo, mid, height - 1), fold(mid, hi, height - 1))

    return fold(0, len(flags), len(flags).bit_length() - 1)


def tree_w_exact(n: int, d: int, sites) -> Fraction:
    """Exact learning rate of the tree circuit (rational arithmetic)."""
    a = Fraction(d, d * d + 1)
    denom = d**4 - 1

    def fuse(left, right):
        cross = a * (left[0] * right[1] + left[1] * right[0])
        return (left[0] * right[0] + cross, cross + left[1] * right[1])

    hole = (Fraction(1), Fraction(0))
    particle = (Fraction(-1, denom), Fraction(d * d, denom))
    root = _fold(_pair_flags(n, sites), hole, particle, fuse)
    return root[0] + root[1]


# signed log numbers (sign, ln|x|); sign 0 is the number zero
_ZERO = (0, -math.inf)


def _s_mul(x, y):
    if x[0] == 0 or y[0] == 0:
        return _ZERO
    return (x[0] * y[0], x[1] + y[1])


def _s_add(x, y):
    if x[0] == 0:
        return y
    if y[0] == 0:
        return x
    if x[1] < y[1]:
        x, y = y, x
    ratio = math.exp(y[1] - x[1])
    if x[0] == y[0]:
        return (x[0], x[1] + math.log1p(ratio))
    if ratio >= 1.0:
        return _ZERO
    return (x[0], x[1] + math.log1p(-ratio))


def tree_log_w(n: int, d: int, sites) -> float:
    """ln w of the tree circuit, folded in sign/log space (any N)."""
    log_a = (1, math.log(d) - math.log(d * d + 1))
    log_denom = math.log(d**4 - 1)

    def fuse(left, right):
        cross = _s_mul(log_a, _s_add(_s_mul(left[0], right[1]), _s_mul(left[1], right[0])))
        return (_s_add(_s_mul(left[0], right[0]), cross), _s_add(cross, _s_mul(left[1], right[1])))

    hole = ((1, 0.0), _ZERO)
    particle = ((-1, -log_denom), (1, 2.0 * math.log(d) - log_denom))
    root = _fold(_pair_flags(n, sites), hole, particle, fuse)
    sign, log_w = _s_add(root[0], root[1])
    if sign != 1:
        raise ArithmeticError("reference tree fold gave a nonpositive learning rate")
    return log_w


def tree_log_d_norm(n: int, d: int, sites) -> float:
    """-log_d w: exact for N <= 16, sign/log space above."""
    if n <= 16:
        return -math.log(tree_w_exact(n, d, sites)) / math.log(d)
    return -tree_log_w(n, d, sites) / math.log(d)


def tree_ef_exact(n: int, d: int, region) -> Fraction:
    """Entanglement feature W(B) of the tree ensemble (eta model)."""
    a = Fraction(d, d * d + 1)

    def fuse(left, right):
        cross = a * (left[0] * right[1] + left[1] * right[0])
        return (left[0] * right[0] + cross, cross + left[1] * right[1])

    flags = [i in region for i in range(n)]
    root = _fold(flags, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), fuse)
    return root[0] + root[1]


def tree_large_d_exponent(n: int, sites) -> int:
    """Leading d -> infinity exponent of w: min-plus fold of the gate rule.

    A vector holds the least cost with the subtree's top labelled identity
    or swap.  Particle pairs are swap at cost 2, hole pairs identity at
    cost 0.  Children that agree pass their label up for free; children
    that disagree cost one bulk cut and leave the label free.
    """
    inf = math.inf

    def fuse(left, right):
        mismatch = 1 + min(left[0] + right[1], left[1] + right[0])
        return (min(left[0] + right[0], mismatch), min(left[1] + right[1], mismatch))

    flags = _pair_flags(n, sites)
    root = _fold(flags, (0, inf), (inf, 0), fuse)
    return 2 * sum(flags) + int(min(root))


# ---------------------------------------------------------------------------
# Ising model by enumeration


class IsingGraph:
    """A graph file's tiles, bonds and leg owners, with every spin state.

    ``spins`` has one row per configuration of all tiles (+1/-1), so each
    partition function is one log-sum-exp over 2^n rows.
    """

    def __init__(self, path: str | Path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        self.n = len(data["vertices"])
        self.legs = [0] * self.n
        for vertex in data["vertices"]:
            self.legs[vertex["id"]] = len(vertex["boundary_legs"])
        self.edges = np.array(data["edges"], dtype=np.int64).reshape(-1, 2)
        self.owner = {entry["leg"]: entry["vertex"] for entry in data["boundary_order"]}
        self.n_legs = len(self.owner)
        bits = np.arange(1 << self.n, dtype=np.int64)[:, None] >> np.arange(self.n) & 1
        self.spins = (1 - 2 * bits).astype(np.float64)
        self.bond_sum = (self.spins[:, self.edges[:, 0]] * self.spins[:, self.edges[:, 1]]).sum(axis=1)

    def owners(self, start: int, length: int) -> list[int]:
        return sorted({self.owner[(start + i) % self.n_legs] for i in range(length)})

    def field(self, mode: str) -> np.ndarray:
        legs = np.array(self.legs, dtype=np.float64)
        return legs if mode == "per-leg" else (legs > 0).astype(np.float64)

    def log_z(self, d: int, mode: str, pinned=(), flipped=()) -> float:
        """ln sum exp(J bonds + h sum tau_v f_v s_v), J = h = ln(d)/2,
        over states with every tile in `pinned` at -1."""
        coupling = 0.5 * math.log(d)
        field = self.field(mode)
        field[list(flipped)] *= -1.0
        exponent = coupling * (self.bond_sum + self.spins @ field)
        if pinned:
            exponent = exponent[(self.spins[:, list(pinned)] < 0).all(axis=1)]
        top = exponent.max()
        return float(top + math.log(np.exp(exponent - top).sum()))

    def log_w(self, d: int, mode: str, start: int, length: int) -> float:
        """ln of the pinned-spin learning rate of the interval."""
        return self.log_z(d, mode, pinned=self.owners(start, length)) - self.log_z(d, mode)

    def log_ef(self, d: int, mode: str, start: int, length: int) -> float:
        """ln W of the interval's tiles, field flipped there."""
        return self.log_z(d, mode, flipped=self.owners(start, length)) - self.log_z(d, mode)

    def min_w_over_subsets(self, d: int, mode: str, start: int, length: int) -> float:
        """Least learning rate over the nonempty sub-supports of an interval."""
        legs = [(start + i) % self.n_legs for i in range(length)]
        pinned_sets = set()
        for mask in range(1, 1 << length):
            pinned_sets.add(frozenset(self.owner[legs[i]] for i in range(length) if mask >> i & 1))
        log_z = self.log_z(d, mode)
        return min(math.exp(self.log_z(d, mode, pinned=sorted(p)) - log_z) for p in pinned_sets)


# ---------------------------------------------------------------------------
# sweeps


def parse_sweep_csv(text: str) -> list[tuple[int, int, int, int, int]]:
    """(start, k, bdryC, bulkC, minC) data rows of a `cut sweep` CSV.

    Comment lines are skipped and columns are found by header name, so a
    changed `# config:` line or an added column does not matter.
    """
    rows = []
    index = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if index is None:
            index = [parts.index(name) for name in ("start", "k", "bdryC", "bulkC", "minC")]
            continue
        rows.append(tuple(int(parts[i]) for i in index))
    return rows


def sweep_digest(rows) -> str:
    """sha256 of the sorted (start, k, minC) triples."""
    lines = sorted(f"{start},{k},{minc}" for start, k, _, _, minc in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sweep_table(rows, n_legs: int) -> list[list[int]]:
    """minC by [start][k] for 0 <= k < N (k = 0 is 0 at every start)."""
    table = [[0] * n_legs for _ in range(n_legs)]
    for start, k, _, _, minc in rows:
        table[start][k] = minc
    return table
