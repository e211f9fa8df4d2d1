"""Shared domain types and generic Pauli-learning-rate conversions.

A locally scrambled randomized measurement makes every Pauli operator an
eigenmode of the measurement channel; the eigenvalue w (the Pauli learning
rate, PLR) fixes the sample complexity through the squared shadow norm
1/w (``PlrResult.shadow_norm_sq``).  This module holds the types shared
by all schemes and the scheme-independent conversion ``plr_from_ef``:
entanglement features W(B) over subsets of the support -> PLR, via the
alternating-sum identity

      w(A) = (-1)^|A| / (d^2-1)^|A| * sum_{B subseteq A} (-d)^|B| W(B).

All quantities here are pure functions of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, starmap
from typing import Iterable, Iterator, Mapping, Union

Real = Union[int, float, Fraction]

#: Hard cap on support size for 2^k subset enumeration.
MAX_SUBSET_SUPPORT = 20


@dataclass(frozen=True)
class ModelParams:
    """Bond dimension d and the coupling h = ln(d)/2 of the cut model, both
    the Ising coupling J and the boundary field.  The gate's mismatch
    weight is ``mismatch_weight(d)``."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"local dimension d must be >= 2, got {self.d}")

    @property
    def h(self) -> float:
        return 0.5 * math.log(self.d)


def mismatch_weight(d: int, exact: bool = False) -> Real:
    """The gate factor a = d/(d^2+1) picked up by a replica mismatch."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if exact:
        return Fraction(d, d * d + 1)
    return d / (d * d + 1)


@dataclass(frozen=True)
class WVector:
    """Two-component replica-permutation weight carried by a subtree.

    ``w_id`` weights the identity permutation at the top of the subtree,
    ``w_swap`` the transposition.  For a whole tree the PLR is the sum of
    the two components.
    """

    w_id: Real
    w_swap: Real

    @property
    def total(self) -> Real:
        return self.w_id + self.w_swap


@dataclass(frozen=True, init=False)
class SupportMask:
    """A subset of the N boundary sites (ring/line) supporting a Pauli: its
    runs, sorted, disjoint, non-touching (start, end) ranges of [0, N).  A
    wrapped interval is two runs, so equal supports have equal runs."""

    n: int
    runs: tuple[tuple[int, int], ...]

    def __init__(self, n: int, sites: Iterable[int] = ()) -> None:
        self._normalise(n, ((site, site + 1) for site in sites))

    def _normalise(self, n: int, ranges: Iterable[tuple[int, int]]) -> None:
        """Every mask is made here: the nonempty ranges checked, sorted, merged."""
        if n < 1:
            raise ValueError("boundary size must be positive")
        runs: list[tuple[int, int]] = []
        for start, end in sorted(r for r in ranges if r[0] < r[1]):
            if start < 0 or end > n:
                raise ValueError(f"site indices must lie in [0, {n})")
            if runs and start <= runs[-1][1]:
                runs[-1] = (runs[-1][0], max(end, runs[-1][1]))
            else:
                runs.append((start, end))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "runs", tuple(runs))

    @classmethod
    def _of_ranges(cls, n: int, ranges: Iterable[tuple[int, int]]) -> "SupportMask":
        mask = cls.__new__(cls)
        mask._normalise(n, ranges)
        return mask

    @classmethod
    def empty(cls, n: int) -> "SupportMask":
        return cls(n)

    @classmethod
    def interval(cls, n: int, start: int, length: int) -> "SupportMask":
        """Contiguous interval of `length` sites starting at `start`, cyclic."""
        if not (0 <= length <= n):
            raise ValueError(f"interval length must be in [0, {n}], got {length}")
        start %= max(n, 1)  # n < 1 is refused when the mask is built
        end = start + length
        return cls._of_ranges(n, ((start, min(end, n)), (0, end - n)))

    @property
    def sites(self) -> frozenset:
        """Every site of the support, for callers that need them one by one."""
        return frozenset(chain.from_iterable(starmap(range, self.runs)))

    @property
    def k(self) -> int:
        return sum(end - start for start, end in self.runs)

    def __contains__(self, site: int) -> bool:
        return any(start <= site < end for start, end in self.runs)

    def union(self, other: "SupportMask") -> "SupportMask":
        if other.n != self.n:
            raise ValueError("cannot union masks over different boundary sizes")
        return self._of_ranges(self.n, self.runs + other.runs)

    def contiguous_bounds(self) -> tuple[int, int] | None:
        """(start, length) if the mask is a cyclic interval, else None; the
        empty mask reports (0, 0), the full mask (0, n)."""
        runs = self.runs
        if len(runs) <= 1:
            start, end = runs[0] if runs else (0, 0)
            return (start, end - start)
        if len(runs) == 2 and runs[0][0] == 0 and runs[1][1] == self.n:  # wraps round
            return (runs[1][0], self.n - runs[1][0] + runs[0][1])
        return None


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
    witness: frozenset | None = None


def minus_log_d(log_x: float, d: int) -> float:
    """-log_d x from ln x: 0.0 - ln x, not -ln x, so that x = 1 gives 0.0
    and not -0.0; every other value keeps its bits."""
    return (0.0 - log_x) / math.log(d)


@dataclass(frozen=True)
class PlrResult:
    """Pauli learning rate with its derived sample-complexity measures."""

    w: Real
    shadow_norm_sq: Real
    log_d_norm: float

    @classmethod
    def from_w(cls, w: Real, d: int) -> "PlrResult":
        if w <= 0:
            raise ValueError(f"Pauli learning rate must be positive, got {w}")
        # a Fraction's ln comes from its integer parts, exact where float(w) underflows
        if isinstance(w, Fraction):
            log_w = math.log(w.numerator) - math.log(w.denominator)
        else:
            log_w = math.log(w)
        return cls(w=w, shadow_norm_sq=1 / w, log_d_norm=minus_log_d(log_w, d))

    @classmethod
    def from_log_w(cls, log_w: float, d: int) -> "PlrResult":
        """Build from ln(w); keeps extreme exponents finite in log space."""
        w = math.exp(log_w) if log_w > -745.0 else 0.0
        norm = math.exp(-log_w) if -log_w < 709.0 else math.inf
        return cls(w=w, shadow_norm_sq=norm, log_d_norm=minus_log_d(log_w, d))


def subsets_of(sites: Iterable[int]) -> Iterator[frozenset]:
    """All subsets of `sites` in lexicographic bitmask order."""
    ordered = sorted(sites)
    k = len(ordered)
    if k > MAX_SUBSET_SUPPORT:
        raise ValueError(
            f"subset enumeration over {k} sites exceeds the 2^{MAX_SUBSET_SUPPORT} cap"
        )
    for mask in range(1 << k):
        yield frozenset(ordered[i] for i in range(k) if mask >> i & 1)


def plr_from_ef(
    support: SupportMask,
    ef: Mapping[frozenset, Real],
    d: int,
    exact: bool = False,
) -> Real:
    """PLR of a Pauli supported on `support` from its entanglement features.

    `ef` must provide W(B) for every subset B of the support (2^k entries,
    keyed by frozenset of site indices).  Raises ValueError if any subset
    is missing from the oracle.  The sum is exact; without `exact` it is
    rounded to a float once, at the end, so no d overflows.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    total = Fraction(0)
    for b in subsets_of(support.sites):
        try:
            w_b = ef[b]
        except KeyError:
            raise ValueError(f"entanglement-feature oracle missing subset {sorted(b)}")
        total += (-d) ** len(b) * Fraction(w_b)
    w = total / (1 - d * d) ** support.k
    return w if exact else float(w)
