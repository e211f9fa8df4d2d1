"""Tree-circuit learning rates: recursion, series, fusion algebra, crossover."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holoshadow as hs
from conftest import ef_loop
from holoshadow.core import SupportMask, WVector, plr_from_ef
from holoshadow.tree import (
    TreeSpec,
    crossover_table,
    g_sequence,
    log_shallow_reference,
    table_rows,
)

# frozen reference values of the convergent series and norm base,
# pinned at 1e-3 from independent evaluation of q_series
QBETA = {
    2: (-0.3402, 2.1079),
    3: (-0.1350, 3.0521),
    4: (-0.0720, 4.0301),
    5: (-0.0447, 5.0196),
    10: (-0.0105, 10.0050),
    20: (-0.0026, 20.0012),
}


def mask(n, *sites):
    return SupportMask(n, frozenset(sites))


def contiguous_log_plr(d, m):
    """ln w of the fully supported N = 2^m tree."""
    n = 1 << m
    return -hs.plr_tree(SupportMask.interval(n, 0, n), TreeSpec(n, d)).log_d_norm * math.log(d)


def exact_ln(w):
    return math.log(w.numerator) - math.log(w.denominator)


def level_fold_w(support, spec):
    """Exact w by fusing every sibling pair, level by level, with no runs."""
    vecs = [
        hs.leaf_vector(2 * i in support or 2 * i + 1 in support, spec.d, exact=True)
        for i in range(spec.n // 2)
    ]
    while len(vecs) > 1:
        vecs = [hs.fuse(vecs[i], vecs[i + 1], spec.d, exact=True) for i in range(0, len(vecs), 2)]
    return vecs[0].total


class TestLeafVectors:
    def test_hole(self):
        assert hs.leaf_vector(False, 5, exact=True) == WVector(Fraction(1), Fraction(0))

    def test_particle_d2(self):
        assert hs.leaf_vector(True, 2, exact=True) == WVector(Fraction(-1, 15), Fraction(4, 15))

    def test_particle_d3(self):
        assert hs.leaf_vector(True, 3, exact=True) == WVector(Fraction(-1, 80), Fraction(9, 80))


class TestFuse:
    def test_hole_absorbs_hole(self):
        hole = hs.leaf_vector(False, 7, exact=True)
        assert hs.fuse(hole, hole, 7, exact=True) == WVector(Fraction(1), Fraction(0))

    def test_two_particles_d2(self):
        p = hs.leaf_vector(True, 2, exact=True)
        assert hs.fuse(p, p, 2, exact=True) == WVector(Fraction(-11, 1125), Fraction(64, 1125))

    def test_hole_particle_d2(self):
        # confirmed against the brute-force feature oracle (full-tree rate
        # for N=4, support={2,3} is 1/25 + 8/75 = 11/75 by both routes)
        hole = hs.leaf_vector(False, 2, exact=True)
        p = hs.leaf_vector(True, 2, exact=True)
        got = hs.fuse(hole, p, 2, exact=True)
        assert got == WVector(Fraction(1, 25), Fraction(8, 75))


class TestPlrTree:
    def test_empty_support(self):
        r = hs.plr_tree(SupportMask.empty(8), TreeSpec(8, 2), exact=True)
        assert r.w == 1

    def test_full_support_n4_d2(self):
        r = hs.plr_tree(SupportMask.interval(4, 0, 4), TreeSpec(4, 2), exact=True)
        assert r.w == Fraction(53, 1125)
        assert r.shadow_norm_sq == Fraction(1125, 53)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_single_leaf_n2(self, d):
        r = hs.plr_tree(mask(2, 0), TreeSpec(2, d), exact=True)
        assert r.w == Fraction(1, d * d + 1)

    def test_rejects_wrong_sizes(self):
        with pytest.raises(ValueError):
            TreeSpec(6, 2)
        with pytest.raises(ValueError):
            hs.plr_tree(SupportMask.empty(4), TreeSpec(8, 2))

    @given(st.integers(0, 255), st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_subtree_swap_symmetry(self, bits, level, block):
        # exchanging the two subtrees under any node relabels leaves by
        # XOR within the block and cannot change the learning rate
        n = 8
        spec = TreeSpec(n, 2)
        sites = {i for i in range(n) if bits >> i & 1}
        size = 1 << level
        offset = (block % (n // size)) * size
        half = size // 2 or 1
        swapped = {
            (i ^ half) if offset <= i < offset + size and size > 1 else i for i in sites
        }
        w1 = hs.plr_tree(SupportMask(n, frozenset(sites)), spec, exact=True).w
        w2 = hs.plr_tree(SupportMask(n, frozenset(swapped)), spec, exact=True).w
        assert w1 == w2
        assert 0 < w1 <= 1  # a whole tree's component sum is a rate

    @given(
        st.integers(1, 10),
        st.sampled_from([2, 3, 5]),
        st.lists(st.tuples(st.integers(0, 1023), st.integers(1, 1024)), min_size=1, max_size=3),
    )
    @example(3, 3, [(2, 1), (4, 2), (7, 1)])
    @example(3, 3, [(0, 1)])
    @example(3, 3, [(0, 8)])
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_log_space_fold_matches(self, m, d, intervals):
        # on random multi-interval supports up to N = 1024, the rational run
        # fold equals a plain level-by-level fold, and the log-scaled float
        # fold agrees with it on ln w
        n = 1 << m
        support = SupportMask.empty(n)
        for start, length in intervals:
            support = support.union(SupportMask.interval(n, start % n, min(length, n)))
        spec = TreeSpec(n, d)
        exact_w = hs.plr_tree(support, spec, exact=True).w
        assert exact_w == level_fold_w(support, spec)
        ln_w = -hs.plr_tree(support, spec).log_d_norm * math.log(d)
        assert ln_w == pytest.approx(exact_ln(exact_w), rel=1e-12)

    @pytest.mark.parametrize("length,log_d_norm", [(8192, 8813.30869106342), (993, 1071.5057126770748)])
    def test_underflowing_rates_stay_in_log_scale(self, length, log_d_norm):
        # w below (or among the subnormal) doubles: the log-scaled fold keeps
        # log_d_norm at the independent reference value
        r = hs.plr_tree(SupportMask.interval(16384, 0, length), TreeSpec(16384, 2))
        assert r.log_d_norm == pytest.approx(log_d_norm, rel=1e-9)

    def test_exact_cap_follows_fold_cost(self):
        # the cap bounds particle pairs x log2(d^4-1), not N: a sparse support
        # on a large tree folds exactly, a dense one on a smaller tree is refused
        big = SupportMask(1 << 14, frozenset({0, 5000, 9000}))
        assert hs.plr_tree(big, TreeSpec(1 << 14, 5), exact=True).w > 0
        with pytest.raises(ValueError, match="particle pairs"):
            hs.plr_tree(SupportMask.interval(4096, 0, 4096), TreeSpec(4096, 5), exact=True)


class TestEntanglementFeatureOracle:
    def test_single_gate(self):
        spec = TreeSpec(2, 2)
        assert hs.ef_bruteforce(SupportMask.empty(2), spec, exact=True) == 1
        assert hs.ef_bruteforce(mask(2, 0, 1), spec, exact=True) == 1
        assert hs.ef_bruteforce(mask(2, 0), spec, exact=True) == Fraction(4, 5)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="N <= 16"):
            hs.ef_bruteforce(SupportMask.empty(32), TreeSpec(32, 2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_fold_matches_oracle_n4(self, d):
        # the recursive fold and the exhaustive feature sum are independent
        # routes to the same rate; they must agree exactly in rationals
        spec = TreeSpec(4, d)
        full = SupportMask.interval(4, 0, 4)
        table = hs.ef_table(full, spec, exact=True)
        for bits in range(16):
            m = SupportMask(4, frozenset(i for i in range(4) if bits >> i & 1))
            assert hs.plr_tree(m, spec, exact=True).w == plr_from_ef(m, table, d, exact=True)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fold_matches_oracle_n16(self, d):
        # depth 4: the fold equals the feature sum over every subset of 32
        # fixed supports of 1 to 4 sites, contiguous and scattered
        spec = TreeSpec(16, d)
        rng = random.Random(16)
        supports = [frozenset(rng.sample(range(16), k)) for k in (1, 2, 3, 4) for _ in range(7)]
        supports += [frozenset(range(s, s + 4)) for s in (0, 5, 8, 12)]
        for support in supports:
            table = hs.ef_table(SupportMask(16, support), spec, exact=True)
            for b in table:
                m = SupportMask(16, b)
                assert hs.plr_tree(m, spec, exact=True).w == plr_from_ef(m, table, d, exact=True)

    @given(
        st.sampled_from([2, 4, 8, 16]),
        st.sampled_from([2, 3, 5, 10**6]),
        st.integers(0, (1 << 16) - 1),
    )
    @example(16, 2, 0)
    @example(16, 10**6, (1 << 16) - 1)
    @example(4, 3, 0b1111)
    @example(2, 5, 0)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_matches_assignment_loop(self, n, d, bits):
        # the bit-parallel sum equals one loop iteration per assignment:
        # exactly in rationals, to 1e-12 in floats
        region = SupportMask(n, frozenset(i for i in range(n) if bits >> i & 1))
        spec = TreeSpec(n, d)
        assert hs.ef_bruteforce(region, spec, exact=True) == ef_loop(region, spec, exact=True)
        assert hs.ef_bruteforce(region, spec) == pytest.approx(ef_loop(region, spec), rel=1e-12)


class TestContiguousSeries:
    def test_g_start_d2(self):
        # g_0 = -1/2, g_1 = -1/2 (-1/2 + 4/5) / (1 - 2/5) = -1/4
        assert g_sequence(2, 2) == pytest.approx([-0.5, -0.25], rel=1e-15)

    def test_depth_vectors_d2(self):
        # fully supported depth-1 and depth-2 trees: the particle leaf
        # (-1/15 + 4/15) and its square (-11/1125 + 64/1125)
        r1 = hs.plr_tree(SupportMask.interval(2, 0, 2), TreeSpec(2, 2), exact=True)
        assert r1.w == Fraction(-1, 15) + Fraction(4, 15)
        r2 = hs.plr_tree(SupportMask.interval(4, 0, 4), TreeSpec(4, 2), exact=True)
        assert r2.w == Fraction(-11, 1125) + Fraction(64, 1125)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_g_monotone_in_band(self, d):
        gs = g_sequence(d, 12)
        assert gs[0] == pytest.approx(-1.0 / d)
        for prev, cur in zip(gs, gs[1:]):
            assert -1.0 / d < cur < 0.0
            assert abs(cur) < abs(prev)

    def test_fixed_points_are_stationary(self):
        for d in (2, 5):
            a2 = 2 * d / (d * d + 1)
            for g_star in (0.0, 1.0):
                assert g_star * (g_star + a2) / (1 + a2 * g_star) == pytest.approx(g_star)

    def test_vector_matches_full_fold(self):
        # depth-3 contiguous vector (the particle leaf squared twice by the
        # gate rule) == folding a fully supported 8-leaf tree
        v = hs.leaf_vector(True, 2, exact=True)
        for _ in range(2):
            v = hs.fuse(v, v, 2, exact=True)
        r = hs.plr_tree(SupportMask.interval(8, 0, 8), TreeSpec(8, 2), exact=True)
        assert v.total == r.w


class TestSeriesAndBeta:
    @pytest.mark.parametrize("d,qb", sorted(QBETA.items()))
    def test_reference_values(self, d, qb):
        q_ref, beta_ref = qb
        b = hs.beta(d)
        assert b.q == pytest.approx(q_ref, abs=1e-3)
        assert b.beta_norm == pytest.approx(beta_ref, abs=1e-3)

    @pytest.mark.parametrize("d", range(2, 65))
    def test_bound_chain(self, d):
        b = hs.beta(d)
        assert math.log((d * d - 1) / (d * d + 1)) <= b.q < 0
        assert d < b.beta_norm <= d + 1 / d

    @pytest.mark.parametrize("d", [10, 20])
    def test_large_d_asymptote(self, d):
        b = hs.beta(d)
        assert abs(b.beta_norm - d - 0.5 / d**2) <= d**-3

    def test_table_rows(self):
        rows = table_rows([2, 3])
        assert [r["d"] for r in rows] == [2, 3]
        assert rows[0]["beta"] == pytest.approx(2.1079, abs=1e-3)


class TestLargeDFusion:
    def test_empty_support(self):
        cut = hs.tree_large_d_cuts(SupportMask.empty(8))
        assert (cut.bdry_cost, cut.bulk_cost) == (0, 0)

    def test_leaf_count_comes_from_the_support(self):
        with pytest.raises(ValueError, match="power of two >= 2, got 12"):
            hs.tree_large_d_cuts(SupportMask.empty(12))

    def test_two_separated_particles(self):
        cut = hs.tree_large_d_cuts(mask(4, 0, 2))
        assert (cut.bdry_cost, cut.bulk_cost) == (4, 0)

    @pytest.mark.parametrize("m,n", [(1, 8), (2, 8), (2, 16), (3, 16)])
    def test_aligned_contiguous(self, m, n):
        # a support filling one subtree costs k boundary cuts and one bulk cut
        k = 1 << m
        cut = hs.tree_large_d_cuts(SupportMask.interval(n, 0, k))
        assert (cut.bdry_cost, cut.bulk_cost) == (k, 1)

    # the particle/hole/mixed fusion table: (left, right) -> (label, bulk cuts)
    OLD_TABLE = {
        ("particle", "particle"): ("particle", 0),
        ("hole", "hole"): ("hole", 0),
        ("mixed", "mixed"): ("mixed", 0),
        ("particle", "hole"): ("mixed", 1),
        ("hole", "particle"): ("mixed", 1),
        ("particle", "mixed"): ("particle", 0),
        ("mixed", "particle"): ("particle", 0),
        ("hole", "mixed"): ("hole", 0),
        ("mixed", "hole"): ("hole", 0),
    }
    # a four-leaf subtree's sites (offsets) for each label, and the bulk cuts inside it
    QUARTER = {"particle": ((0, 2), 0), "hole": ((), 0), "mixed": ((0,), 1)}

    @pytest.mark.parametrize("left,right", sorted(OLD_TABLE))
    def test_fusion_table(self, left, right):
        # the N = 8 root fuses two four-leaf subtrees with these labels; its
        # own label shows as the cut it costs against a hole or a particle
        # eight-leaf sibling in an N = 16 tree
        label, cuts = self.OLD_TABLE[left, right]
        (left_sites, left_cuts), (right_sites, right_cuts) = self.QUARTER[left], self.QUARTER[right]
        sites = set(left_sites) | {4 + s for s in right_sites}
        bulk = left_cuts + right_cuts + cuts
        assert hs.tree_large_d_cuts(mask(8, *sites)).bulk_cost == bulk
        assert hs.tree_large_d_cuts(mask(16, *sites)).bulk_cost == bulk + (label == "particle")
        assert hs.tree_large_d_cuts(mask(16, *sites, *range(8, 16))).bulk_cost == bulk + (label == "hole")

    def test_exponent_consistency_all_supports(self):
        # large-d exponent from the fusion algebra vs the exact fold at d=64
        spec = TreeSpec(8, 64)
        for bits in range(256):
            m = SupportMask(8, frozenset(i for i in range(8) if bits >> i & 1))
            cut = hs.tree_large_d_cuts(m)
            r = hs.plr_tree(m, spec)
            assert abs(r.log_d_norm - cut.min_cost) <= 0.3


class TestShallowReference:
    @pytest.mark.parametrize("k,d,val", [(1, 2, 2.0), (4, 2, 64.0), (8, 2, 2048.0)])
    def test_values(self, k, d, val):
        assert log_shallow_reference(k, d) == pytest.approx(math.log(val), rel=1e-15)

    def test_overflow_reported_in_log_space(self):
        # 2000 * 3^2000 overflows a double; its log is reported
        assert log_shallow_reference(2000, 3) == pytest.approx(
            math.log(2000) + 2000 * math.log(3)
        )


class TestCrossover:
    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_branch_identity(self, d):
        q = hs.q_series(d)
        x = q + math.log(d * d / (d * d - 1))
        k_lo, k_hi = hs.crossover_kstar(d)
        for k in (k_lo, k_hi):
            w = x * k
            assert abs(w * math.exp(w) - x) <= 1e-10

    def test_branch_ordering(self):
        k_lo, k_hi = hs.crossover_kstar(2)
        assert 0 < k_lo < k_hi

    def test_large_d_trend(self):
        # k_hi tracks 6 d^3 ln d + 2 d^3 ln ln d at large d
        for d in (10, 20):
            _, k_hi = hs.crossover_kstar(d)
            ref = 6 * d**3 * math.log(d) + 2 * d**3 * math.log(math.log(d))
            assert 0.8 < k_hi / ref < 1.6

    def test_numeric_crossover_d2(self):
        # exact contiguous norms: the tree beats the k d^k reference until
        # far past the spec'd small-k regime
        assert math.exp(-contiguous_log_plr(2, 2)) == pytest.approx(1125 / 53)
        assert math.log(1125 / 53) < log_shallow_reference(4, 2)
        assert math.exp(-contiguous_log_plr(2, 1)) == pytest.approx(5.0)
        assert math.log(5.0) < log_shallow_reference(2, 2)
        assert hs.crossover_numeric(2, 512) == 128
        assert hs.crossover_numeric(2, 2**40) == 128

    def test_numeric_sentinel(self):
        assert hs.crossover_numeric(2, 64) is None

    def test_asymptotic_slopes(self):
        # tree log-norm slope approaches ln(beta); the reference's is
        # ln(d) plus a shrinking ln-k correction
        b = hs.beta(2)
        slope = (-contiguous_log_plr(2, 8) + contiguous_log_plr(2, 7)) / 128
        assert slope == pytest.approx(math.log(b.beta_norm), rel=1e-3)

    @pytest.mark.parametrize("k_max", [100, 63, 3, 1, 0, -8])
    def test_k_max_must_be_a_power_of_two(self, k_max):
        # the table used to stop silently below the last power of two
        for compute in (hs.crossover_numeric, crossover_table):
            with pytest.raises(ValueError) as err:
                compute(2, k_max)
            assert str(err.value) == f"k_max must be a power of two >= 2, got {k_max}"

    def test_crossover_table_flags_interpolation(self):
        rows = crossover_table(2, 8)
        by_k = {r["k"]: r for r in rows}
        assert not by_k[4]["interpolated"]
        assert by_k[5]["interpolated"]
        t = (math.log(5) - math.log(4)) / (math.log(8) - math.log(4))
        expected = (1 - t) * by_k[4]["log_tree_norm_sq"] + t * by_k[8]["log_tree_norm_sq"]
        assert by_k[5]["log_tree_norm_sq"] == pytest.approx(expected)
