"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Layer conventions: the cut formulas' ring index l counts rings around the
central tile, so an "l-ring" network is generate_tiling(p, q, l + 1); the
exact statistical-model criterion keeps to generate_tiling(3, 7, 2) (16
tiles), small enough for the enumeration oracle in the unit tests to check
the same sums.  Run with -s to see the summary lines.
"""

import json
import math
import time
from fractions import Fraction

import holoshadow as hs
from holoshadow.analysis import ceff_approx, fit_ceff
from holoshadow.cli import run
from holoshadow.core import ModelParams, SupportMask, plr_from_ef
from holoshadow.cuts import (
    bulk_geodesic,
    cut_sweep,
    min_cut_exact,
    pinned_for_interval,
)
from holoshadow.lambertw import lambert_w
from holoshadow.tiling import boundary_size, dual_graph, two_tile_graph
from holoshadow.tree import TreeSpec, log_shallow_reference

from conftest import bfs_route_points

REFERENCE_QBETA = {
    2: (-0.3402, 2.1079),
    3: (-0.1350, 3.0521),
    4: (-0.0720, 4.0301),
    5: (-0.0447, 5.0196),
    10: (-0.0105, 10.0050),
    20: (-0.0026, 20.0012),
}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_table_reproduction(tmp_path):
    out = tmp_path / "table.csv"
    t0 = time.perf_counter()
    code = run(["tree", "table", "--d", "2,3,4,5,10,20", "--out", str(out), "--no-timestamp"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rows = {}
    for line in out.read_text().splitlines():
        if line.startswith("#") or line.startswith("d,"):
            continue
        d, q, b = line.split(",")
        rows[int(d)] = (float(q), float(b))
    ok = elapsed < 1.0
    worst = 0.0
    for d, (q_ref, b_ref) in REFERENCE_QBETA.items():
        dq = abs(rows[d][0] - q_ref)
        db = abs(rows[d][1] - b_ref)
        worst = max(worst, dq, db)
        ok = ok and dq <= 1e-3 and db <= 1e-3
    report(1, ok, f"Q/beta table for d=2..20, worst |error| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_tree_oracle_equivalence():
    t0 = time.perf_counter()
    worst_rel = 0.0
    exact_ok = True
    for d in (2, 3):
        spec = TreeSpec(8, d)
        full = SupportMask.interval(8, 0, 8)
        exact_table = hs.ef_table(full, spec, exact=True)
        float_table = {b: float(v) for b, v in exact_table.items()}
        for bits in range(256):
            m = SupportMask(8, frozenset(i for i in range(8) if bits >> i & 1))
            w_fold = hs.plr_tree(m, spec, exact=True).w
            w_ef = plr_from_ef(m, exact_table, d, exact=True)
            exact_ok = exact_ok and (w_fold == w_ef)
            w_fold_f = hs.plr_tree(m, spec).w
            w_ef_f = plr_from_ef(m, float_table, d)
            worst_rel = max(worst_rel, abs(w_fold_f - w_ef_f) / abs(w_fold_f))
    elapsed = time.perf_counter() - t0
    ok = exact_ok and worst_rel <= 1e-12 and elapsed < 10.0
    report(
        2,
        ok,
        f"fold == feature oracle on all 512 (N=8, d=2,3) supports; "
        f"rational exact, float rel <= {worst_rel:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_closed_form_tree_values():
    ok = True
    for d in range(2, 11):
        w = hs.plr_tree(SupportMask(2, frozenset({0})), TreeSpec(2, d), exact=True).w
        ok = ok and w == Fraction(1, d * d + 1)
    w4 = hs.plr_tree(SupportMask.interval(4, 0, 4), TreeSpec(4, 2), exact=True).w
    ok = ok and w4 == Fraction(53, 1125)
    report(3, ok, "w(N=2, 1 leaf) = 1/(d^2+1) for d=2..10; w(N=4, full, d=2) = 53/1125 exact")


def test_criterion_04_bound_chain():
    ok = True
    for d in range(2, 65):
        b = hs.beta(d)
        ok = ok and math.log((d * d - 1) / (d * d + 1)) <= b.q < 0
        ok = ok and d < b.beta_norm <= d + 1 / d
    for d in (10, 20):
        b = hs.beta(d)
        ok = ok and abs(b.beta_norm - d - 0.5 / d**2) <= d**-3
    report(4, ok, "ln((d^2-1)/(d^2+1)) <= Q < 0 and d < beta <= d+1/d on d=2..64; large-d asymptote")


def test_criterion_05_two_triangle_reproduction(tmp_path):
    gpath = tmp_path / "two_triangle.json"
    two_tile_graph(3).save(gpath)
    ok = True
    values = {}
    for d in (2, 3, 5):
        out = tmp_path / f"plr{d}.json"
        code = run(
            ["ising", "plr", "--graph", str(gpath), "--d", str(d), "--support", "2:2",
             "--mode", "per-vertex", "--out", str(out), "--no-timestamp"]
        )
        ok = ok and code == 0
        w = json.loads(out.read_text())["w"]
        values[d] = w
        ok = ok and abs(w - 2 / (d * d + 3)) <= 1e-12
    ok = ok and abs(values[2] - 2 / 7) <= 1e-12
    report(5, ok, f"ising plr per-vertex = 2/(d^2+3) for d=2,3,5 (d=2: {values[2]:.12f})")


def test_criterion_06_cut_oracle_equivalence(sweeps37, sweeps54, graphs37, graphs54):
    """Dual-geodesic sweep vs max-flow on every contiguous full-vertex interval.

    Every row here is a per-leg interval that is its own aligned hull, so the
    sweep reports the wall (bdryC = k, bulkC = geodesic) unclamped.  Verbatim
    equality holds wherever a domain-wall optimum exists; past k + geodesic
    >= N the optimizer's minimum is the wall-free global flip, where the two
    agree on the value min(k + geodesic, N) instead.
    """
    checked = 0
    ok = True
    for graphs, sweeps in ((graphs37, sweeps37), (graphs54, sweeps54)):
        for layers, rows in sweeps.items():
            n = graphs[layers].n_legs
            for row in rows:
                if not row["k"]:
                    continue
                k, geo = row["k"], row["bulkC"]
                wall = k + geo
                bdry, bulk, min_cost = row["oracle"]
                checked += 1
                ok = ok and row["bdryC"] == k and row["minC"] == wall
                ok = ok and min_cost == min(wall, n)
                if wall < n:
                    ok = ok and (bdry, bulk) == (k, geo)
                elif wall > n:
                    ok = ok and (bdry, bulk) == (n, 0)
                else:
                    ok = ok and (bdry, bulk) in ((k, geo), (n, 0))
    report(
        6,
        ok,
        f"BFS == max-flow wall on {checked} full-vertex intervals "
        "({3,7} rings<=4, {5,4} rings<=3), global-flip corner value-checked",
    )


def test_criterion_07_half_boundary_cuts(graphs37, graphs54):
    ok = True
    details = []
    for l in range(1, 6):
        g = graphs37[l + 1]
        dual = dual_graph(g)
        n = g.n_legs
        vals = {bulk_geodesic(g, dual, SupportMask.interval(n, s, n // 2)) for s in range(n)}
        details.append(f"{{3,7}} l={l}: {sorted(vals)}")
        ok = ok and vals == {2 * l + 1}
    for l in range(1, 4):
        g = graphs54[l + 1]
        dual = dual_graph(g)
        n = g.n_legs
        aligned = g.aligned
        vals = set()
        for k in {n // 2, (n + 1) // 2}:
            for s in range(n):
                if s in aligned and (s + k) % n in aligned:
                    vals.add(bulk_geodesic(g, dual, SupportMask.interval(n, s, k)))
        details.append(f"{{5,4}} l={l}: {sorted(vals)}")
        ok = ok and vals and all(3 * l + 1 <= v <= 4 * l for v in vals)
    report(7, ok, "half-boundary bulk cuts: " + "; ".join(details))


def test_criterion_08_lower_bound_staircase(sweeps37, sweeps54, graphs37, graphs54):
    tables = list(sweeps37.values()) + list(sweeps54.values())
    # also the deepest {3,7} patch, an unrestricted {5,4} sweep including
    # partial-tile intervals (priced through their aligned hulls), and the
    # degenerate patches
    tables.append(cut_sweep(graphs37[6], "per-leg"))
    tables.append(cut_sweep(graphs54[3], "per-leg", vertex_aligned_only=False))
    for g in (graphs37[1], graphs54[1], two_tile_graph(3)):
        tables.append(cut_sweep(g, "per-leg"))
    ok = True
    total = 0
    for rows in tables:
        for row in rows:
            total += 1
            ok = ok and row["minC"] >= row["k"]
    report(8, ok, f"minC >= k on {total} per-leg sweep rows across every generated graph")


def test_criterion_09_exponent_law(graphs37):
    g = graphs37[2]
    assert g.n_vertices <= 24
    model = hs.SpinModel(g, ModelParams(64), "per-vertex")
    n = g.n_legs
    intervals = [(0, k) for k in range(1, 7)] + [(s, 3) for s in (2, 4, 6, 8, 10)] + [(3, 2)]
    worst = 0.0
    for start, k in intervals:
        iv = SupportMask.interval(n, start, k)
        r = hs.plr_exact(model, iv)
        cut = min_cut_exact(g, pinned_for_interval(g, iv), "per-vertex")
        worst = max(worst, abs(r.log_d_norm - cut.min_cost))
    ok = len(intervals) >= 10 and worst <= 0.3
    report(9, ok, f"|-log_d w - minC| <= 0.3 at d=64 on {len(intervals)} intervals (worst {worst:.3f})")


def test_criterion_10_ceff_fits(sweeps37, sweeps54, graphs37, graphs54):
    fit37 = fit_ceff(bfs_route_points(sweeps37[5]), graphs37[5].n_legs)
    fit54 = fit_ceff(bfs_route_points(sweeps54[4]), graphs54[4].n_legs)
    ok = abs(fit37.c_eff - 2.03) <= 0.10 and abs(fit54.c_eff - 2.15) <= 0.10
    report(
        10,
        ok,
        f"c_eff({{3,7}}, 4 rings) = {fit37.c_eff:.4f} (target 2.03 +- 0.10); "
        f"c_eff({{5,4}}, 3 rings) = {fit54.c_eff:.4f} (target 2.15 +- 0.10)",
    )


def test_criterion_11_convergence(sweeps37, sweeps54, graphs37, graphs54):
    diffs37 = []
    for l in (1, 2, 3, 4):
        fit = fit_ceff(bfs_route_points(sweeps37[l + 1]), graphs37[l + 1].n_legs)
        diffs37.append(abs(ceff_approx(l, 3, 7, graphs37[l + 1].n_legs) - fit.c_eff))
    diffs54 = []
    for l in (1, 2, 3):
        fit = fit_ceff(bfs_route_points(sweeps54[l + 1]), graphs54[l + 1].n_legs)
        diffs54.append(abs(ceff_approx(l, 5, 4, graphs54[l + 1].n_legs) - fit.c_eff))
    decreasing = all(b < a for a, b in zip(diffs37, diffs37[1:])) and all(
        b < a for a, b in zip(diffs54, diffs54[1:])
    )
    approx37 = [ceff_approx(l, 3, 7, boundary_size(3, 7, l + 1)) for l in range(2, 32)]
    approx54 = [ceff_approx(l, 5, 4, boundary_size(5, 4, l + 1)) for l in range(2, 32)]
    monotone = all(b > a for a, b in zip(approx37, approx37[1:])) and all(
        b > a for a, b in zip(approx54, approx54[1:])
    )
    ok = decreasing and monotone
    report(
        11,
        ok,
        f"|approx - fit| decreasing ({['%.3f' % d for d in diffs37]}, "
        f"{['%.3f' % d for d in diffs54]}); approx monotone to l=31",
    )


def test_criterion_12_geometry():
    radius, phi, rho = 1.0, math.pi, 1 - 1e-6
    length = hs.arc_length(rho, phi, radius)
    geod = hs.poincare_geodesic(rho, 0.0, rho, phi, radius)
    asym = 2 * radius * math.log(2 * length / (phi * radius))
    rel_geo = abs(geod - asym) / asym
    ceff = hs.ceff_continuous(rho, phi, radius)
    deviation = 2.0 - ceff
    predicted = 2 * math.log(math.pi / 2) / math.log(length)
    rel_dev = abs(deviation - predicted) / predicted
    ok = rel_geo <= 1e-3 and rel_dev <= 1e-2
    report(
        12,
        ok,
        f"geodesic matches 2R ln(2L/(phi R)) to {rel_geo:.1e}; "
        f"c_eff deviation from 2 matches 2 ln(pi/2)/ln L to {rel_dev:.1e}",
    )


def test_criterion_13_lambert_w_and_crossover():
    worst = 0.0
    for i in range(100):
        x = -1 / math.e + (i + 0.5) / 100 * (1 / math.e - 1e-12)
        for branch in (0, -1):
            w = lambert_w(x, branch)
            worst = max(worst, abs(w * math.exp(w) - x))
    norm_k4 = hs.plr_tree(SupportMask.interval(4, 0, 4), TreeSpec(4, 2)).shadow_norm_sq
    log_shallow_k4 = log_shallow_reference(4, 2)
    crossover = hs.crossover_numeric(2, 512)
    ok = (
        worst <= 1e-10
        and math.log(norm_k4) < log_shallow_k4
        and crossover is not None
        and crossover > 4
    )
    report(
        13,
        ok,
        f"W e^W = x to {worst:.1e} on 100 samples/branch; tree beats shallow at k=4 "
        f"({norm_k4:.1f} < {math.exp(log_shallow_k4):.0f}); numeric crossover at k={crossover}",
    )


def test_criterion_14_determinism(tmp_path):
    gpath = tmp_path / "g54.json"
    assert run(["tiling", "gen", "--p", "5", "--q", "4", "--layers", "2", "--out", str(gpath)]) == 0
    gpath2 = tmp_path / "g54b.json"
    assert run(["tiling", "gen", "--p", "5", "--q", "4", "--layers", "2", "--out", str(gpath2)]) == 0
    ok = gpath.read_bytes() == gpath2.read_bytes()

    sweep_path = tmp_path / "sweep.csv"
    run(["cut", "sweep", "--graph", str(gpath), "--out", str(sweep_path), "--no-timestamp"])
    commands = [
        ["tree", "plr", "--d", "2", "--n", "8", "--support", "1:3"],
        ["tree", "table", "--d", "2,3,4"],
        ["tree", "crossover", "--d", "2", "--k-max", "64"],
        ["cut", "sweep", "--graph", str(gpath), "--mode", "per-leg"],
        ["ising", "plr", "--graph", str(gpath), "--d", "2", "--support", "0:5"],
        ["ising", "ef", "--graph", str(gpath), "--d", "2", "--support", "0:5"],
        ["fit", "ceff", "--csv", str(sweep_path), "--N", "25"],
        ["geom", "ceff", "--R", "1", "--rho", "0.999", "--phi", "pi"],
    ]
    for i, args in enumerate(commands):
        a, b = tmp_path / f"run_a{i}", tmp_path / f"run_b{i}"
        code_a = run(args + ["--out", str(a), "--no-timestamp"])
        code_b = run(args + ["--out", str(b), "--no-timestamp"])
        ok = ok and code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    report(14, ok, "byte-identical reruns for tiling gen and all 8 output commands")
