"""Shared types and the learning-rate / entanglement-feature conversions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contiguous_bounds_scan, pair_runs_of_sites
from holoshadow.core import (
    ModelParams,
    PlrResult,
    SupportMask,
    mismatch_weight,
    plr_from_ef,
    subsets_of,
)
from holoshadow.tree import TreeSpec, _pair_runs, ef_table


def shadow_norm(w):
    """Squared shadow norm 1/w, read from the learning-rate result."""
    return PlrResult.from_w(w, 2).shadow_norm_sq


class TestShadowNorm:
    def test_identity_operator(self):
        assert shadow_norm(1.0) == 1.0

    def test_reciprocal(self):
        assert shadow_norm(0.2) == pytest.approx(5.0)

    def test_two_triangle_rate(self):
        # reciprocal of the exact two-tile learning rate 2/(d^2+3) at d=2
        assert shadow_norm(Fraction(2, 7)) == Fraction(7, 2)
        assert float(shadow_norm(Fraction(2, 7))) == 3.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, Fraction(0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            shadow_norm(bad)

    @given(st.floats(min_value=1e-12, max_value=1.0), st.floats(min_value=1e-12, max_value=1.0))
    @settings(derandomize=True)
    def test_strictly_decreasing(self, w1, w2):
        if w1 < w2:
            assert shadow_norm(w1) > shadow_norm(w2)


class TestSupportMask:
    def test_interval_wraps(self):
        m = SupportMask.interval(8, 6, 4)
        assert sorted(m.sites) == [0, 1, 6, 7]
        assert m.contiguous_bounds() == (6, 4)

    def test_noncontiguous(self):
        m = SupportMask(8, frozenset({0, 2}))
        assert m.contiguous_bounds() is None

    def test_empty_and_full(self):
        assert SupportMask.empty(5).contiguous_bounds() == (0, 0)
        assert SupportMask.interval(5, 0, 5).contiguous_bounds() == (0, 5)

    def test_site_range_checked(self):
        with pytest.raises(ValueError):
            SupportMask(4, frozenset({4}))

    @given(st.integers(1, 64), st.integers(-200, 200), st.integers(0, 64))
    @settings(max_examples=200, derandomize=True)
    def test_interval_holds_its_cyclic_sites(self, n, start, length):
        length = min(length, n)
        assert SupportMask.interval(n, start, length).sites == {(start + i) % n for i in range(length)}

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: SupportMask(4, frozenset({4})), "site indices must lie in [0, 4)"),
            (lambda: SupportMask(4, frozenset({-1, 2})), "site indices must lie in [0, 4)"),
            (lambda: SupportMask.interval(0, 0, 0), "boundary size must be positive"),
            (lambda: SupportMask.interval(5, 2, 6), "interval length must be in [0, 5], got 6"),
            (lambda: SupportMask.interval(5, 1, -1), "interval length must be in [0, 5], got -1"),
        ],
    )
    def test_error_messages(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def cyclic_sites(n, start, length):
    return {(start + i) % n for i in range(length)}


def runs_of(sites):
    """Maximal runs [start, end) of consecutive integers in a set."""
    runs = []
    for site in sorted(sites):
        if runs and runs[-1][1] == site:
            runs[-1][1] += 1
        else:
            runs.append([site, site + 1])
    return tuple(map(tuple, runs))


@st.composite
def interval_unions(draw):
    """(n, intervals A, intervals B): two random unions of cyclic intervals
    over the same n in 1..64, each a list of (start, length)."""
    n = draw(st.integers(1, 64))
    part = st.tuples(st.integers(-2 * n, 2 * n), st.integers(0, n))
    return n, draw(st.lists(part, max_size=4)), draw(st.lists(part, max_size=4))


class TestSupportRuns:
    """A mask holds its runs; everything else is read off them and must
    match what the set of sites gives."""

    @staticmethod
    def build(n, parts):
        mask, sites = SupportMask.empty(n), set()
        for start, length in parts:
            mask = mask.union(SupportMask.interval(n, start, length))
            sites |= cyclic_sites(n, start, length)
        return mask, sites

    @given(interval_unions())
    @settings(max_examples=400, derandomize=True)
    def test_runs_match_the_sites(self, case):
        n, parts_a, parts_b = case
        a, sites_a = self.build(n, parts_a)
        b, sites_b = self.build(n, parts_b)
        for mask, sites in ((a, sites_a), (b, sites_b)):
            # 1. the derived sites, the size and membership
            assert mask.sites == sites and mask.k == len(sites)
            assert [site in mask for site in range(-1, n + 1)] == [site in sites for site in range(-1, n + 1)]
            # 2. canonical runs: the one form, however the mask was built
            assert mask.runs == runs_of(sites)
            assert mask == SupportMask(n, sites) and hash(mask) == hash(SupportMask(n, sites))
            # 3. the interval is the one the set scan finds
            assert mask.contiguous_bounds() == contiguous_bounds_scan(mask)
            # 4. the tree's leaf-pair runs
            assert _pair_runs(mask) == pair_runs_of_sites(mask)
        # 5. union is set union
        union = a.union(b)
        assert union.sites == sites_a | sites_b
        assert union == b.union(a) == SupportMask(n, sites_a | sites_b)

    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_every_site_set_of_small_n(self, n):
        for bits in range(1 << n):
            sites = {i for i in range(n) if bits >> i & 1}
            mask = SupportMask(n, sites)
            assert mask.runs == runs_of(sites) and mask.sites == sites
            assert mask.contiguous_bounds() == contiguous_bounds_scan(mask)
            assert _pair_runs(mask) == pair_runs_of_sites(mask)

    def test_wrapped_interval_is_two_runs(self):
        m = SupportMask.interval(8, 6, 4)
        assert m.runs == ((0, 2), (6, 8))
        assert m == SupportMask(8, {0, 1, 6, 7}) == SupportMask.interval(8, 0, 2).union(SupportMask.interval(8, 6, 2))

    def test_huge_boundary_costs_nothing_per_site(self):
        n = 1 << 60
        m = SupportMask.interval(n, n - 5, n // 2).union(SupportMask.interval(n, 3, 7))
        assert m.runs == ((0, n // 2 - 5), (n - 5, n))
        assert m.k == n // 2 and m.contiguous_bounds() == (n - 5, n // 2)
        assert (n - 1) in m and (n // 2) not in m
        assert _pair_runs(m) == [(True, n // 4 - 2), (False, n // 4 - 1), (True, 3)]

    def test_union_over_different_sizes_is_refused(self):
        with pytest.raises(ValueError) as err:
            SupportMask.interval(4, 0, 1).union(SupportMask.interval(8, 0, 1))
        assert str(err.value) == "cannot union masks over different boundary sizes"


class TestModelParams:
    @pytest.mark.parametrize("d", [2, 3, 5, 17])
    def test_couplings(self, d):
        p = ModelParams(d)
        assert mismatch_weight(d) == pytest.approx(d / (d**2 + 1))
        assert 0 < mismatch_weight(d) <= 0.5
        assert p.h == 0.5 * math.log(d) > 0
        assert mismatch_weight(d, exact=True) == Fraction(d, d**2 + 1)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            ModelParams(1)


class TestPlrResult:
    def test_reciprocal_consistency(self):
        r = PlrResult.from_w(0.04, 2)
        assert r.w * r.shadow_norm_sq == pytest.approx(1.0)
        assert r.log_d_norm == pytest.approx(-(-4.6438561897747395), rel=1e-12)

    def test_rational_mode(self):
        r = PlrResult.from_w(Fraction(53, 1125), 2)
        assert r.shadow_norm_sq == Fraction(1125, 53)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            PlrResult.from_w(0.0, 2)


class TestPlrFromEf:
    def test_empty_support(self):
        assert plr_from_ef(SupportMask.empty(2), {frozenset(): 1.0}, 2) == 1.0

    @pytest.mark.parametrize(
        "d,w_single,expected",
        [
            (2, 4 / 5, 1 / 5),  # one two-qudit gate, W(leaf) = 2a
            (3, 6 / 10, 1 / 10),
        ],
    )
    def test_single_gate_single_leaf(self, d, w_single, expected):
        support = SupportMask(2, frozenset({0}))
        ef = {frozenset(): 1.0, frozenset({0}): w_single}
        assert plr_from_ef(support, ef, d) == pytest.approx(expected, rel=1e-14)
        exact = plr_from_ef(
            support,
            {frozenset(): Fraction(1), frozenset({0}): Fraction(w_single).limit_denominator(100)},
            d,
            exact=True,
        )
        assert exact == Fraction(1, d * d + 1)

    def test_missing_subset_raises(self):
        support = SupportMask(4, frozenset({0, 1}))
        with pytest.raises(ValueError, match="missing subset"):
            plr_from_ef(support, {frozenset(): 1.0}, 2)

    @pytest.mark.parametrize("d", [10**20, 10**40])
    def test_float_path_beyond_double_range(self, d):
        # (d^2-1)^4 = 10^320 at d = 10^40 overflows a double; w ~ d^-4 does not
        support = SupportMask.interval(4, 0, 4)
        exact_table = ef_table(support, TreeSpec(4, d), exact=True)
        float_table = {b: float(v) for b, v in exact_table.items()}
        want = float(plr_from_ef(support, exact_table, d, exact=True))
        assert plr_from_ef(support, float_table, d) == pytest.approx(want, rel=1e-12)

    def test_subset_cap(self):
        big = SupportMask(32, frozenset(range(21)))
        with pytest.raises(ValueError, match="cap"):
            plr_from_ef(big, {}, 2)

    @given(st.integers(0, 255), st.integers(2, 4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_maximally_mixed_ef_telescopes_to_zero(self, bits, d):
        # W(B) = d^-|B| (maximally mixed features): the alternating sum
        # telescopes, so only the identity Pauli survives
        support = SupportMask(8, frozenset(i for i in range(8) if bits >> i & 1))
        ef = {b: Fraction(1, d ** len(b)) for b in subsets_of(support.sites)}
        got = plr_from_ef(support, ef, d, exact=True)
        assert got == (1 if not support.sites else 0)

    @given(st.integers(0, 255), st.integers(2, 4))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_all_ones_ef_is_local_measurement_rate(self, bits, d):
        # W(B) = 1 for all B (pure product features) gives the random
        # local-basis measurement rate (d+1)^-k
        support = SupportMask(8, frozenset(i for i in range(8) if bits >> i & 1))
        ef = {b: Fraction(1) for b in subsets_of(support.sites)}
        got = plr_from_ef(support, ef, d, exact=True)
        assert got == Fraction(1, (d + 1) ** support.k)

    def test_subset_order_is_lexicographic_bitmask(self):
        subs = list(subsets_of({3, 1}))
        assert subs == [frozenset(), frozenset({1}), frozenset({3}), frozenset({1, 3})]
