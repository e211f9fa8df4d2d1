"""Pauli learning rates of binary-tree measurement circuits.

A depth-T tree on N = 2^T qudits applies a two-qudit Haar-random gate per
node and measures half the qudits per layer.  Averaging the two-replica
quantities over gates reduces every subtree to a two-component weight
vector over replica permutations (identity/swap); the vector of a fused
tree follows from its children through a fixed bilinear rule with gate
factor a = d/(d^2+1):

    w_id'   = l_id r_id + a (l_id r_swap + l_swap r_id)
    w_swap' = a (l_id r_swap + l_swap r_id) + l_swap r_swap

Leaves enter coarse-grained in pairs: a pair touching the Pauli support
is particle-like with vector (-1, d^2)/(d^4-1); an untouched pair is
hole-like with (1, 0).  The PLR of the whole tree is the component sum of
the folded root vector.

Every tree quantity is computed by one fold over *runs* of equal leaf
values: per level, a run of c equal values fuses with itself into c//2
copies, and an odd run's last value pairs with the next run's first, so
a level costs O(#runs) rather than O(N).  ``plr_tree`` folds exact
rationals or floats carrying one shared binary exponent (renormalised
after each fuse, so w never underflows); ``tree_large_d_cuts`` folds
large-d labels through the same routine.

The module also provides:

* ``ef_bruteforce``   -- the independent oracle: exact entanglement
  features by exhaustive enumeration of per-gate replica assignments
  (weight a per mismatched pair of children, 1 when all agree, 0 else),
  all 2^(N-1) of them at once as the bits of Python integers;
* ``g_sequence``/``q_series``/``beta`` -- the aligned contiguous
  support: ratio sequence g_t (g_0 = -1/d), the convergent series
  Q(d) = sum_i ln(1+2a g_i)/2^(i+1), and the resulting norm base
  beta = (d^2-1)/(d e^Q), which satisfies d < beta <= d + 1/d;
* ``tree_large_d_cuts`` -- the d->infinity fusion algebra on signed
  labels (+1 particle, -1 hole, 0 mixed), yielding the minimal-cut
  exponent bdryC + bulkC;
* ``crossover_kstar``/``crossover_numeric`` -- where the tree's norm
  beta^k overtakes the optimal-depth shallow-circuit reference k d^k
  (Lambert-W closed form and exact numerical scan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, TypeVar

from .core import CutResult, PlrResult, Real, SupportMask, WVector, mismatch_weight, subsets_of
from .lambertw import lambert_w

#: eta-model enumeration cap: each of ``ef_bruteforce``'s integers has one
#: bit per gate assignment, 2^(N-1) bits (4 KiB at N = 16).
MAX_BRUTEFORCE_LEAVES = 16

#: Rational-fold cap on an upper bound of the root denominator's bit length:
#: log2(d^4-1) per particle pair plus log2(d^2+1) per fuse of a subtree that
#: holds a particle.  14000 bits (4215 digits) keeps the printed fraction
#: under CPython's default 4300-digit limit on int-to-str conversion.
MAX_EXACT_BITS = 14000


def check_leaf_count(n: int) -> None:
    """ValueError unless n is a leaf count of a binary tree: 2, 4, 8, ..."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"leaf count must be a power of two >= 2, got {n}")


@dataclass(frozen=True)
class TreeSpec:
    """Binary-tree circuit geometry: N = 2^depth leaves, local dimension d."""

    n: int
    d: int

    def __post_init__(self) -> None:
        check_leaf_count(self.n)
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")

    @property
    def depth(self) -> int:
        return self.n.bit_length() - 1


@dataclass(frozen=True)
class BetaResult:
    """Norm base of the contiguous-support tree: ||P||^2 ~ beta_norm^k."""

    q: float
    beta_norm: float


def leaf_vector(intersects_support: bool, d: int, exact: bool = False) -> WVector:
    """Weight vector of a coarse-grained two-qudit leaf pair."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not intersects_support:
        return WVector(Fraction(1), Fraction(0)) if exact else WVector(1.0, 0.0)
    denom = d**4 - 1
    if exact:
        return WVector(Fraction(-1, denom), Fraction(d * d, denom))
    return WVector(-1.0 / denom, d * d / denom)


def fuse(left: WVector, right: WVector, d: int, exact: bool = False) -> WVector:
    """Fuse two sibling subtree vectors through one Haar-averaged gate."""
    a = mismatch_weight(d, exact=exact)
    cross = left.w_id * right.w_swap + left.w_swap * right.w_id
    return WVector(
        w_id=left.w_id * right.w_id + a * cross,
        w_swap=a * cross + left.w_swap * right.w_swap,
    )


V = TypeVar("V")


def _fold_runs(
    pair_runs: list[tuple[bool, int]], hole: V, particle: V, fuse_pair: Callable[[V, V], V]
) -> V:
    """Root value of the tree over the given runs of coarse leaf pairs (a
    power-of-two total), with `hole`/`particle` as leaf values and
    `fuse_pair` as the gate rule."""
    runs = [(particle if flag else hole, count) for flag, count in pair_runs]
    while len(runs) > 1 or runs[0][1] > 1:
        fused: list[tuple[V, int]] = []
        carry = None  # an odd run's last value, waiting for its right sibling
        for value, count in runs:
            if carry is not None:
                fused.append((fuse_pair(carry, value), 1))
                carry = None
                count -= 1
            if count > 1:
                fused.append((fuse_pair(value, value), count // 2))
            if count % 2:
                carry = value
        runs = fused
    return runs[0][0]


def _pair_runs(support: SupportMask) -> list[tuple[bool, int]]:
    """Runs (particle-like, count) of the N/2 coarse leaf pairs (2i, 2i+1);
    a pair is particle-like when either of its qudits is in the support.
    Site run [start, stop) covers pairs [start // 2, (stop + 1) // 2)."""
    runs: list[tuple[bool, int]] = []
    end = 0  # first pair not yet in a run
    for start, stop in support.runs:
        first, last = start // 2, (stop + 1) // 2
        if first > end:
            runs.append((False, first - end))
        elif runs:  # the previous particle run ends at pair `first`: extend it
            first -= runs.pop()[1]
        runs.append((True, last - first))
        end = last
    if end < support.n // 2:
        runs.append((False, support.n // 2 - end))
    return runs


def _log_w(runs: list[tuple[bool, int]], d: int) -> float:
    """ln w of the tree over the given pair runs, folded in floats whose two
    components share one binary exponent, renormalised after every fuse."""

    def scaled(vec: WVector, exponent: int) -> tuple[WVector, int]:
        _, shift = math.frexp(max(abs(vec.w_id), abs(vec.w_swap)))
        return WVector(math.ldexp(vec.w_id, -shift), math.ldexp(vec.w_swap, -shift)), exponent + shift

    def fuse_scaled(left: tuple[WVector, int], right: tuple[WVector, int]) -> tuple[WVector, int]:
        return scaled(fuse(left[0], right[0], d), left[1] + right[1])

    hole, particle = (scaled(leaf_vector(flag, d), 0) for flag in (False, True))
    vec, exponent = _fold_runs(runs, hole, particle, fuse_scaled)
    if vec.total <= 0:
        raise ValueError("tree fold produced a nonpositive learning rate")
    return math.log(vec.total) + exponent * math.log(2.0)


def plr_tree(support: SupportMask, spec: TreeSpec, exact: bool = False) -> PlrResult:
    """PLR of a Pauli with the given support under the tree circuit.

    Leaves are coarse-grained in fixed pairs (2i, 2i+1); a pair counts as
    particle-like when at least one of its qudits is in the support.  The
    float fold keeps w in log scale, so ``log_d_norm`` stays accurate where
    w itself underflows.  With ``exact=True`` the fold runs in rational
    arithmetic, while the bound on the root denominator's bit length stays
    within MAX_EXACT_BITS.
    """
    if support.n != spec.n:
        raise ValueError(f"support is over {support.n} sites but the tree has {spec.n} leaves")
    runs = _pair_runs(support)
    if not exact:
        return PlrResult.from_log_w(_log_w(runs, spec.d), spec.d)
    mixed_bits = math.log2(spec.d**2 + 1)
    bits = _fold_runs(
        runs,
        0.0,
        math.log2(spec.d**4 - 1),
        lambda left, right: left + right + (mixed_bits if left or right else 0.0),
    )
    if bits > MAX_EXACT_BITS:
        raise ValueError(
            f"rational mode is limited to {MAX_EXACT_BITS} denominator bits (particle pairs x log2(d^4-1) "
            f"plus particle-holding fuses x log2(d^2+1)), this support may need {bits:.0f}"
        )
    root = _fold_runs(
        runs,
        leaf_vector(False, spec.d, exact=True),
        leaf_vector(True, spec.d, exact=True),
        lambda left, right: fuse(left, right, spec.d, exact=True),
    )
    return PlrResult.from_w(root.total, spec.d)


# ---------------------------------------------------------------------------
# exact entanglement features: exhaustive eta-model oracle


def ef_bruteforce(region: SupportMask, spec: TreeSpec, exact: bool = False) -> Real:
    """Exact entanglement feature W(B) of the tree ensemble, brute force.

    Sums, over all 2^(N-1) assignments of identity/swap to the N-1 gates,
    the product of per-gate factors: a when the two children disagree, 1
    when gate and children all agree, 0 otherwise.  Leaves in `region`
    carry swap, the rest identity.  Every assignment is evaluated at once:
    each replica label is a 2^(N-1)-bit integer whose bit c is the label
    under assignment c (gates numbered level by level from the leaves up,
    gate g's label is bit g of c), and ``by_count[m]`` holds the surviving
    assignments with m mismatched gates, so W = sum_m a^m |by_count[m]|.
    Independent of the recursive fold; used as its oracle.
    """
    n = spec.n
    if region.n != n:
        raise ValueError(f"region is over {region.n} sites but the tree has {n} leaves")
    if n > MAX_BRUTEFORCE_LEAVES:
        raise ValueError(f"brute-force enumeration is limited to N <= {MAX_BRUTEFORCE_LEAVES}")
    a = mismatch_weight(spec.d, exact=exact)
    width = 1 << (n - 1)
    full = (1 << width) - 1
    values = [full if i in region else 0 for i in range(n)]
    by_count = [full]
    gate = 0
    while len(values) > 1:
        next_values = []
        for left, right in zip(values[::2], values[1::2]):
            half = 1 << gate  # sigma: runs of `half` zeros then `half` ones
            sigma = ((1 << half) - 1) << half
            while 2 * half < width:
                sigma |= sigma << 2 * half
                half *= 2
            gate += 1
            mismatch = left ^ right
            keep = (full ^ sigma ^ left) & ~mismatch  # children agree, sigma equals them
            by_count = [(c & keep) | (prev & mismatch) for c, prev in zip(by_count + [0], [0] + by_count)]
            next_values.append(sigma)
        values = next_values
    return sum(a**m * c.bit_count() for m, c in enumerate(by_count))


def ef_table(
    support: SupportMask, spec: TreeSpec, exact: bool = False
) -> Mapping[frozenset, Real]:
    """W(B) for every subset B of `support`, keyed by frozenset of sites."""
    return {
        b: ef_bruteforce(SupportMask(spec.n, b), spec, exact) for b in subsets_of(support.sites)
    }


# ---------------------------------------------------------------------------
# contiguous supports: g-sequence, Q(d) series, norm base beta


def g_sequence(d: int, m: int) -> list[float]:
    """First m terms of the contiguous-support ratio sequence.

    g_0 = -1/d; g_t = g_{t-1} (g_{t-1} + 2a) / (1 + 2a g_{t-1}).  The
    sequence rises monotonically to the stable fixed point 0 (1 is the
    unstable fixed point).
    """
    if m < 1:
        raise ValueError("need at least one term")
    a2 = 2 * mismatch_weight(d)
    g = -1.0 / d
    out = [g]
    for _ in range(m - 1):
        g = g * (g + a2) / (1 + a2 * g)
        out.append(g)
    return out


def q_series(d: int) -> float:
    """The convergent series Q(d) = sum_i ln(1 + 2a g_i) / 2^(i+1).

    Terms decay at least geometrically in both the 1/2^(i+1) prefactor and
    |g_i|, so once |term_i| < 1e-12 the remaining tail is below 1e-12 as
    well (tail <= |ln(1+2a g_i)| * 2^-(i+1) = |term_i|).
    """
    a2 = 2.0 * mismatch_weight(d)
    total = 0.0
    for i, g in enumerate(g_sequence(d, 256)):
        term = math.log1p(a2 * g) / 2 ** (i + 1)
        total += term
        if abs(term) < 1e-12:
            break
    return total


def beta(d: int) -> BetaResult:
    """Norm base beta = (d^2-1)/(d e^Q(d)); the contiguous PLR falls as 1/beta^k."""
    q = q_series(d)
    beta_norm = (d * d - 1) / (d * math.exp(q))
    return BetaResult(q=q, beta_norm=beta_norm)


# ---------------------------------------------------------------------------
# large-d fusion algebra


def tree_large_d_cuts(support: SupportMask) -> CutResult:
    """Minimal-cut exponent of the tree in the d->infinity limit.

    The tree has one leaf per site of the support, so N = support.n, which
    must be a power of two.
    Coarse-grains leaf pairs to signed labels, +1 particle, -1 hole, and
    folds the fusion algebra: equal labels keep their sign, a mixed subtree
    (0) takes its sibling's, and particle+hole fuses to mixed at the cost
    of one bulk cut.  bdryC is twice the number of particle leaves, bulkC
    the number of particle+hole fusions, and w ~ d^-(bdryC+bulkC).
    """
    check_leaf_count(support.n)
    runs = _pair_runs(support)

    def fuse_counted(left: tuple[int, int], right: tuple[int, int]) -> tuple[int, int]:
        (l, l_cuts), (r, r_cuts) = left, right
        return (l or r) if l * r >= 0 else 0, l_cuts + r_cuts + (l * r < 0)

    _, bulk = _fold_runs(runs, (-1, 0), (1, 0), fuse_counted)
    bdry = 2 * sum(count for flag, count in runs if flag)
    return CutResult(bdry_cost=bdry, bulk_cost=bulk, min_cost=bdry + bulk)


# ---------------------------------------------------------------------------
# shallow-circuit reference and tree/shallow crossover


def log_shallow_reference(k: int, d: int) -> float:
    """ln of the optimal-depth shallow-circuit reference norm k d^k."""
    if k < 1:
        raise ValueError(f"support size must be >= 1, got {k}")
    return math.log(k) + k * math.log(d)


def crossover_x(d: int) -> float:
    """The crossover variable x = Q(d) + ln(d^2/(d^2-1)) of ``crossover_kstar``."""
    return q_series(d) + math.log(d * d / (d * d - 1.0))


def crossover_kstar(d: int) -> tuple[float, float]:
    """Closed-form tree/shallow crossover supports from the Lambert W function.

    Solves k d^k = ((d^2-1)/d)^k e^(-Q k) for k, giving k = W(x)/x with
    x = ``crossover_x(d)``; returns (W_0 branch, W_-1 branch).  Raises
    ValueError when x falls outside (-1/e, 0) and no real crossover exists.
    """
    x = crossover_x(d)
    if not -1.0 / math.e < x < 0.0:
        raise ValueError(f"no real crossover: x = {x} outside (-1/e, 0)")
    return lambert_w(x, 0) / x, lambert_w(x, -1) / x


def _check_k_max(k_max: int) -> None:
    if k_max < 2 or k_max & (k_max - 1):
        raise ValueError(f"k_max must be a power of two >= 2, got {k_max}")


def crossover_numeric(d: int, k_max: int) -> int | None:
    """Smallest k = 2^m <= k_max where the exact contiguous tree norm
    exceeds the shallow reference k d^k; None if the tree stays better."""
    _check_k_max(k_max)
    for m in range(1, k_max.bit_length()):
        k = 1 << m
        if -_log_w([(True, k // 2)], d) > log_shallow_reference(k, d):
            return k
    return None


def crossover_table(d: int, k_max: int) -> list[dict]:
    """Per-k comparison rows of tree vs shallow log-norms, k = 1..k_max.

    Exact tree values exist only at k = 2^m; intermediate k are filled by
    exponential (log-linear) interpolation and flagged interpolated = 1.
    k_max must be a power of two >= 2, as for ``crossover_numeric``.
    """
    _check_k_max(k_max)
    exact = {1 << m: -_log_w([(True, 1 << (m - 1))], d) for m in range(1, k_max.bit_length())}
    rows = []
    for k in range(2, k_max + 1):
        if k in exact:
            log_tree = exact[k]
            interpolated = 0
        else:
            lo = 1 << (k.bit_length() - 1)
            hi = lo * 2
            if hi not in exact:
                continue
            t = (math.log(k) - math.log(lo)) / (math.log(hi) - math.log(lo))
            log_tree = (1 - t) * exact[lo] + t * exact[hi]
            interpolated = 1
        rows.append(
            {
                "k": k,
                "log_tree_norm_sq": log_tree,
                "log_shallow_norm_sq": log_shallow_reference(k, d),
                "interpolated": interpolated,
            }
        )
    return rows


def table_rows(d_values: Iterable[int]) -> list[dict]:
    """Q(d) and beta(d) rows for the published-table reproduction."""
    rows = []
    for d in d_values:
        b = beta(d)
        rows.append({"d": d, "Q": b.q, "beta": b.beta_norm})
    return rows
