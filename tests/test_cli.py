"""Command-line interface: outputs, formats, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoshadow as hs
from holoshadow.cli import _emit, run
from holoshadow.cuts import pinned_for_interval
from holoshadow.tiling import two_tile_graph
from holoshadow.tree import MAX_EXACT_BITS


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(args + ["--out", str(out), "--no-timestamp"])
    assert code == 0
    return json.loads(out.read_text())


def _csv_body(path):
    """Header and data lines of a CSV written by the CLI, comments dropped."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def _cli_subprocess(args, timeout):
    """Run python with these arguments in a fresh interpreter that imports this checkout's package."""
    src = str(Path(hs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestTreeCommands:
    def test_plr_value(self, tmp_path):
        doc = run_json(["tree", "plr", "--d", "2", "--n", "4", "--support", "0:4"], tmp_path)
        assert doc["w"] == pytest.approx(53 / 1125, rel=1e-12)
        assert doc["config"]["d"] == 2

    def test_plr_exact_mode(self, tmp_path):
        doc = run_json(
            ["tree", "plr", "--d", "2", "--n", "4", "--support", "0:4", "--exact"], tmp_path
        )
        assert doc["w_exact"] == "53/1125"

    def test_plr_exact_beyond_sixteen_leaves(self, tmp_path):
        args = ["tree", "plr", "--d", "5", "--n", "1024", "--support", "0:1024"]
        exact = run_json(args + ["--exact"], tmp_path, "exact.json")
        folded = run_json(args, tmp_path, "float.json")
        assert exact["log_d_norm"] == pytest.approx(folded["log_d_norm"], rel=1e-12)
        assert "/" in exact["w_exact"]

    def test_plr_exact_over_cap(self, tmp_path, capsys):
        args = ["tree", "plr", "--d", "5", "--n", "4096", "--support", "0:4096", "--exact"]
        assert run(args + ["--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: rational mode")

    def test_plr_exact_cap_bounds_printed_fraction(self, tmp_path, capsys):
        # single sites 256 apart: every fuse above a particle pair adds
        # log2(d^2+1) bits, which the cap must count for its root to print
        def args(sites):
            support = ",".join(f"{256 * i}:1" for i in range(sites))
            return ["tree", "plr", "--d", "2", "--n", "262144", "--support", support, "--exact"]

        doc = run_json(args(620), tmp_path)
        assert 12000 < Fraction(doc["w_exact"]).denominator.bit_length() <= MAX_EXACT_BITS
        assert run(args(1024) + ["--out", str(tmp_path / "x.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: rational mode")

    @pytest.mark.parametrize("length,log_d_norm", [(8192, 8813.30869106342), (993, 1071.5057126770748)])
    def test_plr_underflowing_rate_is_strict_json(self, tmp_path, length, log_d_norm):
        # w below the normal doubles prints as null, never as Infinity/NaN
        jsonschema = pytest.importorskip("jsonschema")
        from holoshadow import schemas

        out = tmp_path / "probe.json"
        args = ["tree", "plr", "--d", "2", "--n", "16384", "--support", f"0:{length}"]
        assert run(args + ["--out", str(out), "--no-timestamp"]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        jsonschema.validate(doc, schemas.load("result"))
        assert doc["w"] is None and doc["shadow_norm_sq"] is None
        assert doc["log_d_norm"] == pytest.approx(log_d_norm, rel=1e-9)

    def test_plr_multi_interval(self, tmp_path):
        doc = run_json(["tree", "plr", "--d", "2", "--n", "8", "--support", "0:2,6:2"], tmp_path)
        direct = hs.plr_tree(
            hs.SupportMask(8, frozenset({0, 1, 6, 7})), hs.TreeSpec(8, 2)
        )
        assert doc["w"] == pytest.approx(direct.w, rel=1e-12)

    def test_plr_large_d_pathway(self, tmp_path):
        doc = run_json(["tree", "plr", "--d", "inf", "--n", "8", "--support", "0:4"], tmp_path)
        assert doc["w"] is None
        assert doc["log_d_norm"] == 5  # k + one bulk cut

    def test_d_inf_result_names_its_d(self, tmp_path):
        # --d inf is echoed as "inf"; a finite d stays an integer
        doc = run_json(["tree", "plr", "--d", "inf", "--n", "8", "--support", "0:3"], tmp_path)
        assert doc["config"]["d"] == "inf"
        gpath = tmp_path / "g.json"
        hs.generate_tiling(3, 7, 2).save(gpath)
        args = ["ising", "plr", "--graph", str(gpath), "--support", "0:3", "--d"]
        assert run_json(args + ["inf"], tmp_path, "inf.json")["config"]["d"] == "inf"
        assert run_json(args + ["3"], tmp_path, "three.json")["config"]["d"] == 3

    def test_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["tree", "table", "--d", "2,5", "--out", str(out), "--no-timestamp"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "d,Q,beta"
        assert lines[2] == "2,-0.34022467532480793,2.10789492462401"
        d2 = lines[2].split(",")
        assert float(d2[1]) == pytest.approx(-0.3402, abs=1e-3)
        assert float(d2[2]) == pytest.approx(2.1079, abs=1e-3)

    def test_crossover(self, tmp_path):
        csv_path = tmp_path / "cross.csv"
        doc = run_json(
            ["tree", "crossover", "--d", "2", "--k-max", "256", "--csv", str(csv_path)],
            tmp_path,
        )
        assert doc["k_numeric"] == 128
        assert doc["k_lo"] < doc["k_hi"]
        assert _csv_body(csv_path)[:2] == [
            "k,log_tree_norm_sq,log_shallow_norm_sq,interpolated",
            "2,1.6094379124341003,2.0794415416798357,0",
        ]


class TestGraphPipeline:
    def test_gen_sweep_fit(self, tmp_path):
        gpath = tmp_path / "g37.json"
        assert run(["tiling", "gen", "--p", "3", "--q", "7", "--layers", "3", "--out", str(gpath)]) == 0
        g = hs.TilingGraph.load(gpath)
        assert g.n_legs == 33

        spath = tmp_path / "sweep.csv"
        assert run(
            ["cut", "sweep", "--graph", str(gpath), "--mode", "per-leg", "--out", str(spath), "--no-timestamp"]
        ) == 0
        lines = spath.read_text().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "start,k,bdryC,bulkC,minC"
        assert lines[header_idx + 1] == "0,0,0,0,0"

        doc = run_json(
            ["fit", "ceff", "--csv", str(spath), "--N", "33"], tmp_path, "fit.json"
        )
        assert 1.5 < doc["c_eff"] < 2.5
        assert doc["n_points"] > 1000

    @pytest.mark.parametrize("p,q,layers", [(4, 5, 3), (6, 4, 2), (7, 3, 2)])
    def test_gen_other_tilings(self, tmp_path, p, q, layers):
        gpath, expected = tmp_path / "g.json", tmp_path / "expected.json"
        assert run(["tiling", "gen", "--p", str(p), "--q", str(q), "--layers", str(layers), "--out", str(gpath)]) == 0
        hs.generate_tiling(p, q, layers).save(expected)
        assert gpath.read_bytes() == expected.read_bytes()
        assert run(["cut", "sweep", "--graph", str(gpath), "--out", str(tmp_path / "s.csv")]) == 0

    def test_indented_graph_sweeps_the_same(self, tmp_path):
        # earlier versions wrote graph files with indent=1; they still load
        # and sweep to the same rows (the config line names the path)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        assert run(["tiling", "gen", "--p", "5", "--q", "4", "--layers", "3", "--out", str(new)]) == 0
        old.write_text(json.dumps(json.loads(new.read_text()), indent=1) + "\n")
        assert new.read_text().count("\n") == 1 < old.read_text().count("\n")
        rows = []
        for gpath in (new, old):
            out = tmp_path / f"{gpath.stem}.csv"
            assert run(["cut", "sweep", "--graph", str(gpath), "--no-timestamp", "--out", str(out)]) == 0
            rows.append(_csv_body(out))
        assert rows[0] == rows[1] and len(rows[0]) > 1000

    def test_ising_plr(self, tmp_path):
        gpath = tmp_path / "tt.json"
        two_tile_graph(3).save(gpath)
        doc = run_json(
            ["ising", "plr", "--graph", str(gpath), "--d", "2", "--support", "2:2"],
            tmp_path,
        )
        assert doc["w"] == pytest.approx(2 / 7, rel=1e-12)
        assert doc["shadow_norm_sq"] == pytest.approx(3.5, rel=1e-12)

    def test_ising_plr_inf_d(self, tmp_path):
        gpath = tmp_path / "tt.json"
        two_tile_graph(3).save(gpath)
        doc = run_json(
            ["ising", "plr", "--graph", str(gpath), "--d", "inf", "--support", "2:2"],
            tmp_path,
        )
        assert (doc["w"], doc["shadow_norm_sq"], doc["log_d_norm"]) == (None, None, 2)
        assert (doc["bdryC"], doc["bulkC"]) == (1, 1)

    @pytest.mark.parametrize("command,d", [("plr", "2"), ("plr", "inf"), ("ef", "2")])
    def test_ising_union_matches_library(self, tmp_path, command, d):
        gpath = tmp_path / "g37.json"
        g = hs.generate_tiling(3, 7, 4)
        g.save(gpath)
        doc = run_json(["ising", command, "--graph", str(gpath), "--d", d, "--support", "0:3,40:5"], tmp_path)
        mask = hs.SupportMask.interval(g.n_legs, 0, 3).union(hs.SupportMask.interval(g.n_legs, 40, 5))
        if d == "inf":
            cut = hs.plr_large_d(g, mask, mode="per-vertex")
            assert cut == hs.min_cut_exact(g, pinned_for_interval(g, mask), "per-vertex")
            assert (doc["bdryC"], doc["bulkC"], doc["log_d_norm"]) == (cut.bdry_cost, cut.bulk_cost, cut.min_cost)
            return
        model = hs.SpinModel(g, hs.ModelParams(2), "per-vertex")
        if command == "plr":
            assert doc["log_d_norm"] == hs.plr_exact(model, mask).log_d_norm
        else:
            region = pinned_for_interval(g, mask)
            assert doc["region_vertices"] == sorted(region)
            assert doc["W"] == hs.entanglement_feature(model, region)

    def test_ising_ef(self, tmp_path):
        gpath = tmp_path / "tt.json"
        two_tile_graph(3).save(gpath)
        doc = run_json(
            ["ising", "ef", "--graph", str(gpath), "--d", "2", "--support", "2:2"],
            tmp_path,
        )
        assert doc["W"] == pytest.approx(13 / 14, rel=1e-12)
        assert doc["region_vertices"] == [0]

    def test_ising_ef_underflowing_feature_is_strict_json(self, tmp_path):
        # W < 1e-380 at d = 10^130: printed as null, its log_d still ~ bulkC = 3
        jsonschema = pytest.importorskip("jsonschema")
        from holoshadow import schemas

        gpath, out = tmp_path / "g37.json", tmp_path / "ef.json"
        hs.generate_tiling(3, 7, 2).save(gpath)
        args = ["ising", "ef", "--graph", str(gpath), "--d", str(10**130), "--support", "0:6"]
        assert run(args + ["--out", str(out), "--no-timestamp"]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        jsonschema.validate(doc, schemas.load("result"))
        assert doc["W"] is None
        assert doc["minus_log_d_W"] == pytest.approx(3.0, abs=1e-9)

    def test_ising_runs_without_numpy(self, tmp_path):
        # the package's runtime needs only the standard library
        script = (
            "import sys\n"
            "from holoshadow.cli import run\n"
            "g, out = sys.argv[1], sys.argv[2]\n"
            "assert run(['tiling', 'gen', '--p', '3', '--q', '7', '--layers', '2', '--out', g]) == 0\n"
            "for cmd in ('plr', 'ef'):\n"
            "    assert run(['ising', cmd, '--graph', g, '--d', '2', '--support', '0:3', '--out', out]) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = _cli_subprocess(["-c", script, str(tmp_path / "g.json"), str(tmp_path / "out.json")], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestEmptySupport:
    # an empty support has w = W = 1, whose -log_d is 0.0, never -0.0
    @pytest.mark.parametrize(
        "args,field",
        [
            (["tree", "plr", "--d", "2", "--n", "8"], "log_d_norm"),
            (["tree", "plr", "--d", "2", "--n", "8", "--exact"], "log_d_norm"),
            (["ising", "plr", "--graph", "{graph}", "--d", "2"], "log_d_norm"),
            (["ising", "ef", "--graph", "{graph}", "--d", "2"], "minus_log_d_W"),
        ],
        ids=["tree-plr", "tree-plr-exact", "ising-plr", "ising-ef"],
    )
    def test_no_negative_zero(self, tmp_path, args, field):
        gpath, out = tmp_path / "tt.json", tmp_path / "out.json"
        two_tile_graph(3).save(gpath)
        args = [arg.format(graph=gpath) for arg in args]
        assert run(args + ["--support", "0:0", "--out", str(out), "--no-timestamp"]) == 0
        text = out.read_text()
        assert "-0.0" not in text
        value = json.loads(text)[field]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestGeom:
    def test_ceff(self, tmp_path):
        doc = run_json(
            ["geom", "ceff", "--R", "1", "--rho", "0.999999", "--phi", "pi"], tmp_path
        )
        assert doc["c_eff"] == pytest.approx(1.9396, abs=1e-3)

    @pytest.mark.parametrize(
        "args,name",
        [
            (["--rho", "0.9", "--phi", "7"], "phi"),
            (["--R", "0", "--rho", "0.9", "--phi", "1"], "R"),
            (["--R", "inf", "--rho", "0.9", "--phi", "1"], "R"),
            (["--R", "nan", "--rho", "0.9", "--phi", "1"], "R"),
        ],
    )
    def test_out_of_range_parameter(self, args, name, capsys):
        assert run(["geom", "ceff", *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {name} ")

    def test_overflowing_result_is_named(self, capsys):
        assert run(["geom", "ceff", "--R", "1e308", "--rho", "0.9", "--phi", "1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: arc length overflows a double"]


class TestWriter:
    @pytest.mark.parametrize("p,q,layers", [(3, 7, 3), (5, 4, 2)])
    @pytest.mark.parametrize("mode", ["per-leg", "per-vertex"])
    @pytest.mark.parametrize("aligned", [False, True])
    def test_sweep_csv_round_trips(self, tmp_path, p, q, layers, mode, aligned):
        gpath, spath = tmp_path / "g.json", tmp_path / "s.csv"
        g = hs.generate_tiling(p, q, layers)
        g.save(gpath)
        flags = ["--vertex-aligned"] if aligned else []
        assert run(["cut", "sweep", "--graph", str(gpath), "--mode", mode, *flags, "--out", str(spath)]) == 0
        header, *lines = _csv_body(spath)
        columns = header.split(",")
        parsed = [dict(zip(columns, map(int, line.split(",")))) for line in lines]
        rows = list(hs.cut_sweep(g, mode=mode, vertex_aligned_only=aligned))
        assert parsed == rows

        doc = run_json(["fit", "ceff", "--csv", str(spath), "--N", str(g.n_legs)], tmp_path, "fit.json")
        fit = hs.fit_ceff([(row["k"], row["minC"]) for row in rows], g.n_legs)
        assert (doc["c_eff"], doc["stderr"], doc["residual_rms"], doc["n_points"]) == (
            fit.c_eff, fit.stderr, fit.residual_rms, fit.n_points
        )

    def test_sweep_and_fit_stream(self, tmp_path, graphs37):
        # neither command holds the {3,7}x5 sweep's 51,757 rows: traced peaks
        # are 3.1 MiB (sweep) and 0.6 MiB (fit), against 12.5 MiB and 9.5 MiB
        # when the sweep built a list of row dicts and the fit a list of points
        g = graphs37[5]
        gpath, spath = tmp_path / "g.json", tmp_path / "s.csv"
        g.save(gpath)
        tracemalloc.start()
        try:
            assert run(["cut", "sweep", "--graph", str(gpath), "--out", str(spath)]) == 0
            assert run(["fit", "ceff", "--csv", str(spath), "--N", str(g.n_legs), "--out", str(tmp_path / "f.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_streamed_rows_are_rounded(self, tmp_path):
        out = tmp_path / "rows.csv"
        rows = ({"k": k, "x": k + 1 / 3} for k in range(3))
        _emit((("k", "x"), rows), argparse.Namespace(digits=3, no_timestamp=True), str(out))
        assert _csv_body(out) == ["k,x", "0,0.333", "1,1.33", "2,2.33"]

    def test_digits_rounds_csv_by_the_json_rule(self, tmp_path):
        plain, rounded = tmp_path / "plain.csv", tmp_path / "rounded.csv"
        args = ["tree", "crossover", "--d", "3", "--k-max", "64"]
        run_json(args + ["--csv", str(plain)], tmp_path, "plain.json")
        run_json(args + ["--csv", str(rounded), "--digits", "3"], tmp_path, "rounded.json")
        (header, *before), (_, *after) = _csv_body(plain), _csv_body(rounded)
        assert len(before) == len(after) == 63
        for old, new in zip(before, after):
            k, log_tree, log_shallow, flag = old.split(",")
            rule = [str(float(f"{float(v):.3g}")) for v in (log_tree, log_shallow)]
            assert new.split(",") == [k, *rule, flag]


class TestErrors:
    def test_usage_error_is_2(self):
        assert run(["tree", "plr", "--nonsense"]) == 2
        assert run([]) == 2
        assert run(["cut", "sweep", "--graph", "g.json", "--workers", "2"]) == 2
        assert run(["cut", "sweep", "--graph", "g.json", "--oracle", "maxflow"]) == 2
        assert run(["fit", "ceff", "--csv", "s.csv", "--N", "12", "--d", "2"]) == 2
        assert run(["tree", "table", "--d", "2,x"]) == 2
        for digits in ("0", "-1"):
            assert run(["geom", "ceff", "--rho", "0.9", "--phi", "pi", "--digits", digits]) == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (["tree", "plr", "--d", "inf", "--n", "8", "--support", "0:3", "--exact"], "--exact needs a finite d"),
            (["ising", "ef", "--graph", "{graph}", "--d", "inf", "--support", "0:3"], "ising ef needs a finite d"),
            (["ising", "ef", "--graph", "{missing}", "--d", "inf", "--support", "0:3"], "ising ef needs a finite d"),
        ],
        ids=["tree-plr-exact", "ising-ef", "ising-ef-missing-graph"],
    )
    def test_inf_d_without_an_answer_is_a_usage_error(self, tmp_path, capsys, args, message):
        # refused once, after parsing: before any graph is read
        gpath, out = tmp_path / "g.json", tmp_path / "out.json"
        hs.generate_tiling(3, 7, 2).save(gpath)
        args = [arg.format(graph=gpath, missing=tmp_path / "missing.json") for arg in args]
        assert run(args + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]

    @pytest.mark.parametrize("n", [-4, 0, 1, 6, 12])
    @pytest.mark.parametrize("d", ["2", "inf"])
    def test_leaf_count_must_be_a_power_of_two(self, tmp_path, capsys, d, n):
        # refused before the support is read, at either d
        out = tmp_path / "x.json"
        assert run(["tree", "plr", "--d", d, "--n", str(n), "--support", "0:3", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: leaf count must be a power of two >= 2, got {n}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "support,message",
        [
            ("3:17", "interval length must be in [0, 16], got 17"),
            ("5:-1", "interval length must be in [0, 16], got -1"),
            ("0:x", "bad support syntax '0:x'; expected START:LEN"),
            ("0:3,4", "bad support syntax '4'; expected START:LEN"),
        ],
    )
    def test_bad_support_is_named(self, tmp_path, capsys, support, message):
        out = tmp_path / "x.json"
        assert run(["tree", "plr", "--d", "2", "--n", "16", "--support", support, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["tree", "plr", "--d", "1", "--n", "8", "--support", "0:3"], "argument --d: d must be >= 2 or 'inf', got 1"),
            (["tree", "plr", "--d", "x", "--n", "8", "--support", "0:3"], "argument --d: d must be >= 2 or 'inf', got x"),
            (["tree", "table", "--d", "2,x"], "argument --d: must be a comma list of integers, got 2,x"),
            (["geom", "ceff", "--rho", "0.9", "--phi", "pi", "--digits", "x"], "argument --digits: must be a positive integer, got x"),
            (["tree", "table", "--d", "1,2"], "argument --d: d must be >= 2, got 1"),
            (["tree", "crossover", "--d", "1"], "argument --d: d must be >= 2, got 1"),
        ],
        ids=["tree-plr-d1", "tree-plr-dx", "tree-table", "digits", "tree-table-d1", "tree-crossover-d1"],
    )
    def test_bad_flag_values_are_explained(self, capsys, args, message):
        # argparse's usage line, then the parser's own message, never a private function's name
        assert run(args) == 2
        out, err = capsys.readouterr()
        prog = "holoshadow " + " ".join(args[:2])
        assert out == ""
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.endswith(f"\n{prog}: error: {message}\n")

    def test_computation_error_is_1(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(["tree", "plr", "--d", "2", "--n", "6", "--support", "0:1", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "p,q,layers",
        [(p, q, layers) for p, q in ((-5, -5), (2, 100), (1, -100)) for layers in (1, 2)] + [(7, 3, 3), (8, 3, 3)],
    )
    def test_tiling_gen_refusals(self, tmp_path, capsys, p, q, layers):
        # a q = 3 tiling grows two layers; the others are not tilings at all
        if q == 3:
            message = f"{{{p},{q}}} patches stop at 2 layers"
        else:
            message = f"{{{p},{q}}} is not a tiling: p and q must be at least 3"
        gpath = tmp_path / "g.json"
        assert run(["tiling", "gen", "--p", str(p), "--q", str(q), "--layers", str(layers), "--out", str(gpath)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not gpath.exists()

    def test_huge_layer_count_is_refused_at_once(self, tmp_path):
        # the rim census stops once the rim passes the size budget
        gpath = tmp_path / "g.json"
        args = ["tiling", "gen", "--p", "3", "--q", "7", "--layers", "1000000000", "--out", str(gpath)]
        proc = _cli_subprocess(["-m", "holoshadow.cli", *args], timeout=10)
        assert proc.returncode == 1
        assert proc.stderr == "error: a 1000000000-layer {3,7} patch exceeds the size budget\n"
        assert not gpath.exists()

    def test_sweep_error_leaves_no_output(self, tmp_path, capsys):
        # the dual is built before --out is opened, so a graph without a
        # rotation system fails with nothing written
        data = hs.generate_tiling(3, 7, 2).to_json_dict()
        del data["rotation"]
        gpath, out = tmp_path / "g.json", tmp_path / "s.csv"
        gpath.write_text(json.dumps(data))
        assert run(["cut", "sweep", "--graph", str(gpath), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_row_failing_midway_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        # rows stream into a file beside --out, which appears only when the
        # last row is written; an existing --out is left as it was
        def failing_sweep(g, **kwargs):
            yield {"start": 0, "k": 0, "bdryC": 0, "bulkC": 0, "minC": 0}
            raise ValueError("row 2 failed")

        monkeypatch.setattr(hs.cuts, "cut_sweep", failing_sweep)
        gpath, out, kept = tmp_path / "g.json", tmp_path / "s.csv", tmp_path / "kept.csv"
        hs.generate_tiling(3, 7, 2).save(gpath)
        kept.write_text("old\n")
        assert run(["cut", "sweep", "--graph", str(gpath), "--out", str(out)]) == 1
        assert run(["cut", "sweep", "--graph", str(gpath), "--out", str(kept)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: row 2 failed"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "kept.csv"]
        assert kept.read_text() == "old\n"

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a handler that runs out of memory, at once or after a streamed
        # row, exits 1 with one line and leaves no --out file
        def sweep_out_of_memory(g, **kwargs):
            raise MemoryError

        def rows_out_of_memory(g, **kwargs):
            yield {"start": 0, "k": 0, "bdryC": 0, "bulkC": 0, "minC": 0}
            raise MemoryError

        gpath, out = tmp_path / "g.json", tmp_path / "s.csv"
        hs.generate_tiling(3, 7, 2).save(gpath)
        for stand_in in (sweep_out_of_memory, rows_out_of_memory):
            monkeypatch.setattr(hs.cuts, "cut_sweep", stand_in)
            assert run(["cut", "sweep", "--graph", str(gpath), "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: out of memory\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]

    def test_missing_graph_file(self, tmp_path):
        assert run(["cut", "sweep", "--graph", str(tmp_path / "nope.json")]) == 1

    def test_fit_rejects_n_below_leg_count(self, tmp_path, capsys):
        # the 33-leg sweep has rows up to k = 33; --N 20 would drop them silently
        gpath, spath = tmp_path / "g37.json", tmp_path / "sweep.csv"
        assert run(["tiling", "gen", "--p", "3", "--q", "7", "--layers", "3", "--out", str(gpath)]) == 0
        assert run(["cut", "sweep", "--graph", str(gpath), "--out", str(spath)]) == 0
        assert run(["fit", "ceff", "--csv", str(spath), "--N", "20"]) == 1
        assert capsys.readouterr().err == "error: point with k = 21 lies outside 0..N = 0..20\n"

    def test_fit_needs_a_k_min_c_header(self, tmp_path, capsys):
        path = tmp_path / "headless.csv"
        path.write_text("# config: {}\nstart,k,bdryC\n0,1,2\n")
        assert run(["fit", "ceff", "--csv", str(path), "--N", "10", "--out", str(tmp_path / "fit.json")]) == 1
        assert capsys.readouterr() == ("", f"error: {path} has no k,minC header row\n")
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("row,fields", [("5", 1), ("5,2,9", 3)])
    def test_fit_rejects_ragged_rows(self, tmp_path, capsys, row, fields):
        path = tmp_path / "ragged.csv"
        path.write_text(f"# config: {{}}\nk,minC\n1,2\n{row}\n3,4\n")
        assert run(["fit", "ceff", "--csv", str(path), "--N", "10"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path} line 4: {fields} fields, header has 2\n"

    @pytest.mark.parametrize("row", ["x,2", "1.5,2", "5,inf", "5,nan"])
    def test_fit_names_the_line_of_a_bad_cell(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"# config: {{}}\nk,minC\n1,2\n\n{row}\n3,4\n")
        assert run(["fit", "ceff", "--csv", str(path), "--N", "10"]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {path} line 5: k must be an integer and minC a finite number, got {row!r}\n"
        )

    def test_fit_skips_comments_and_blanks_between_rows(self, tmp_path):
        # comment and blank lines anywhere, and a last row without a
        # newline, leave the fit as the plain rows give it
        rows = ["1,2", "2,4", "3,5", "2,4", "4,5"]
        plain, mixed = tmp_path / "plain.csv", tmp_path / "mixed.csv"
        plain.write_text("k,minC\n" + "".join(f"{row}\n" for row in rows))
        mixed.write_text(
            "\n# config: {}\n\nk,minC\n1,2\n# note\n2,4\n\n\n3,5\n#\n2,4\n# last\n" + rows[-1]
        )
        docs = [run_json(["fit", "ceff", "--csv", str(path), "--N", "10"], tmp_path, f"{path.stem}.json")
                for path in (plain, mixed)]
        assert docs[0]["n_points"] == docs[1]["n_points"] == 5
        assert {**docs[0], "config": None} == {**docs[1], "config": None}

    def test_fit_names_the_line_of_a_repeated_header(self, tmp_path, capsys):
        # the header's text reappears at line 6; its own line is named, not line 2
        path = tmp_path / "twice.csv"
        path.write_text("# config: {}\nk,minC\n1,2\n# more\n\nk,minC\n3,4\n")
        assert run(["fit", "ceff", "--csv", str(path), "--N", "10"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path} line 6: k must be an integer and minC a finite number, got 'k,minC'\n"
        )

    @pytest.mark.parametrize("row,message", [
        ("5,2,9", "3 fields, header has 2"),
        ("5,x", "k must be an integer and minC a finite number, got '5,x'"),
    ])
    @pytest.mark.parametrize("tail", ["\n1,2\n", ""], ids=["mid-file", "last-without-newline"])
    def test_fit_counts_comment_lines_in_a_bad_line_s_number(self, tmp_path, capsys, row, message, tail):
        # comment and blank lines before the bad row count towards its number
        path = tmp_path / "late.csv"
        path.write_text(f"# config: {{}}\n\nk,minC\n1,2\n# a\n\n# b\n2,3\n{row}{tail}")
        assert run(["fit", "ceff", "--csv", str(path), "--N", "10"]) == 1
        assert capsys.readouterr().err == f"error: {path} line 9: {message}\n"


@pytest.mark.parametrize(
    "rows,quantity",
    [("1,-5\n2,-7\n3,1e300\n", "residual sum"), ("1,1\n2,1e308\n3,1.7e308\n", "sum of x*y")],
)
def test_fit_names_an_overflowing_quantity(tmp_path, capsys, rows, quantity):
    path = tmp_path / "huge.csv"
    path.write_text(f"k,minC\n{rows}")
    assert run(["fit", "ceff", "--csv", str(path), "--N", "5", "--out", str(tmp_path / "fit.json")]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {quantity} overflows a double\n")
    assert not (tmp_path / "fit.json").exists()


def _split_a_tile(data):
    """Swap the middle leg of a three-leg tile with a distant leg of another
    tile, keeping boundary_order, boundary_legs and rotation in agreement."""
    vertices, order = data["vertices"], data["boundary_order"]
    tile = next(v for v in vertices if len(legs := v["boundary_legs"]) == 3 and legs[2] - legs[0] == 2)
    mid = tile["boundary_legs"][1]
    far = next(b for b in order if b["vertex"] != tile["id"] and abs(b["leg"] - mid) > 3)
    other = vertices[far["vertex"]]
    tile["boundary_legs"] = sorted(set(tile["boundary_legs"]) - {mid} | {far["leg"]})
    other["boundary_legs"] = sorted(set(other["boundary_legs"]) - {far["leg"]} | {mid})
    order[mid]["vertex"], far["vertex"] = other["id"], tile["id"]
    for v, old, new in ((tile, mid, far["leg"]), (other, far["leg"], mid)):
        rot = data["rotation"][v["id"]]
        rot[rot.index(["leg", old])] = ["leg", new]


def _give_leg_0_to_leg_1s_owner(data):
    order = data["boundary_order"]
    order[0]["vertex"] = order[1]["vertex"]


def _shift_leg_ids(data):
    for vertex in data["vertices"]:
        vertex["boundary_legs"] = [leg + 7 for leg in vertex["boundary_legs"]]
    for entry in data["boundary_order"]:
        entry["leg"] += 7
    for rot in data["rotation"]:
        for entry in rot:
            if entry[0] == "leg":
                entry[1] += 7


def _float_rotation_ref(data):
    entry = next(entry for entry in data["rotation"][0] if entry[0] == "edge")
    entry[1] = float(entry[1])  # equal to the tile id, but not an integer


# corrupted field -> (tiling, corruption, error message fragment)
CORRUPTIONS = {
    "missing_key": ((3, 7), lambda data: data.pop("edges"), "missing the key 'edges'"),
    "dangling_edge": ((3, 7), lambda data: data["edges"].append([0, len(data["vertices"])]), "outside vertices"),
    "self_loop": ((3, 7), lambda data: data["edges"].append([1, 1]), "self-loop"),
    "owner": ((3, 7), _give_leg_0_to_leg_1s_owner, "boundary_order"),
    "split_tile": ((5, 4), _split_a_tile, "not one contiguous run"),
    "leg_ids": ((3, 7), _shift_leg_ids, "legs 0..N-1"),
    "float_id": ((3, 7), _float_rotation_ref, "integers"),
}


class TestMalformedGraphs:
    @pytest.mark.parametrize("field", sorted(CORRUPTIONS))
    def test_rejected_on_load(self, tmp_path, capsys, field):
        (p, q), corrupt, message = CORRUPTIONS[field]
        data = hs.generate_tiling(p, q, 2).to_json_dict()
        corrupt(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for args in (["ising", "plr", "--d", "3", "--support", "0:2"], ["cut", "sweep"]):
            assert run(args + ["--graph", str(path), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def _json_paths(doc, prefix=()):
    """Path and value of every node of a JSON document, the root excluded."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield prefix + (key,), value
        yield from _json_paths(value, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


WRONG_TYPES = (None, True, 1.5, "7", [], {}, 7)


@st.composite
def corrupted_graphs(draw):
    """A valid two-layer graph document of a hyperbolic tiling with one field corrupted."""
    p, q = draw(st.sampled_from([(3, 7), (5, 4), (4, 5), (3, 8), (6, 4), (5, 5), (4, 6), (3, 9), (7, 3), (8, 3)]))
    data = hs.generate_tiling(p, q, 2).to_json_dict()
    paths = dict(_json_paths(data))
    kind = draw(st.sampled_from(["drop_key", "wrong_type", "shift_id", "duplicate_id", "swap_rotation", "drop_edge"]))
    if kind == "drop_key":
        path = draw(st.sampled_from([path for path in paths if isinstance(path[-1], str)]))
        del _node(data, path[:-1])[path[-1]]
    elif kind == "wrong_type":
        path = draw(st.sampled_from(list(paths)))
        original = paths[path]
        values = [v for v in WRONG_TYPES if type(v) is not type(original)]
        if type(original) is int:
            values.append(float(original))  # equal to the id, but not an integer
        _node(data, path[:-1])[path[-1]] = draw(st.sampled_from(values))
    elif kind in ("shift_id", "duplicate_id"):
        ids = [path for path, value in paths.items() if type(value) is int]
        path = draw(st.sampled_from(ids))
        if kind == "shift_id":
            value = paths[path] + draw(st.integers(-7, 7).filter(bool))
        else:
            value = paths[draw(st.sampled_from(ids))]
        _node(data, path[:-1])[path[-1]] = value
    elif kind == "swap_rotation":
        entries = [(v, i) for v, rot in enumerate(data["rotation"]) for i in range(len(rot))]
        (v1, i1), (v2, i2) = draw(st.lists(st.sampled_from(entries), min_size=2, max_size=2, unique=True))
        rotation = data["rotation"]
        rotation[v1][i1], rotation[v2][i2] = rotation[v2][i2], rotation[v1][i1]
    else:
        del data["edges"][draw(st.integers(0, len(data["edges"]) - 1))]
    return kind, data


class TestCorruptionFuzz:
    COMMANDS = (
        ["ising", "plr", "--d", "2", "--support", "0:2"],
        ["ising", "plr", "--d", "inf", "--mode", "per-leg", "--support", "0:2"],
        ["cut", "sweep"],
    )

    @given(corrupted_graphs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_exit_contract_holds(self, tmp_path_factory, case):
        kind, data = case
        work = tmp_path_factory.mktemp("fuzz")
        path = work / "graph.json"
        path.write_text(json.dumps(data))
        for args in self.COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(args + ["--graph", str(path), "--out", str(work / "out")])
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == [], (kind, args)
            else:
                assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), (kind, args, code, lines)


class TestSchemas:
    def test_results_validate_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from holoshadow import schemas

        result_schema = schemas.load("result")
        gpath = tmp_path / "g.json"
        run(["tiling", "gen", "--p", "3", "--q", "7", "--layers", "2", "--out", str(gpath)])
        sweep = tmp_path / "s.csv"
        run(["cut", "sweep", "--graph", str(gpath), "--out", str(sweep), "--no-timestamp"])
        commands = [
            ["tree", "plr", "--d", "2", "--n", "4", "--support", "0:4", "--exact"],
            ["tree", "plr", "--d", "inf", "--n", "4", "--support", "0:2"],
            ["tree", "crossover", "--d", "2", "--k-max", "64"],
            ["ising", "plr", "--graph", str(gpath), "--d", "2", "--support", "0:3"],
            ["ising", "plr", "--graph", str(gpath), "--d", "inf", "--support", "0:3"],
            ["ising", "plr", "--graph", str(gpath), "--d", "inf", "--support", "0:3,7:2"],
            ["ising", "ef", "--graph", str(gpath), "--d", "2", "--support", "0:3"],
            ["fit", "ceff", "--csv", str(sweep), "--N", "12"],
            ["geom", "ceff", "--rho", "0.9", "--phi", "pi"],
        ]
        for i, args in enumerate(commands):
            doc = run_json(args, tmp_path, f"schema{i}.json")
            jsonschema.validate(doc, result_schema)
            if "inf" in args:
                assert doc["bdryC"] + doc["bulkC"] == doc["log_d_norm"]

    def test_graph_file_validates(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from holoshadow import schemas

        gpath = tmp_path / "g.json"
        run(["tiling", "gen", "--p", "5", "--q", "4", "--layers", "2", "--out", str(gpath)])
        jsonschema.validate(json.loads(gpath.read_text()), schemas.load("graph"))

    def test_digits_flag_rounds(self, tmp_path):
        doc = run_json(
            ["geom", "ceff", "--rho", "0.9", "--phi", "pi", "--digits", "4"], tmp_path
        )
        assert doc["c_eff"] == float(f"{doc['c_eff']:.4g}")
        assert doc["config"]["digits"] == 4


class TestDeterminism:
    def test_identical_reruns(self, tmp_path):
        gpath = tmp_path / "g.json"
        run(["tiling", "gen", "--p", "5", "--q", "4", "--layers", "2", "--out", str(gpath)])
        variants = [
            ["tree", "table", "--d", "2,3"],
            ["tree", "plr", "--d", "3", "--n", "8", "--support", "1:3"],
            ["cut", "sweep", "--graph", str(gpath), "--vertex-aligned"],
            ["ising", "plr", "--graph", str(gpath), "--d", "2", "--support", "0:5"],
            ["geom", "ceff", "--rho", "0.9", "--phi", "pi"],
        ]
        for i, args in enumerate(variants):
            a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert run(args + ["--out", str(a), "--no-timestamp"]) == 0
            assert run(args + ["--out", str(b), "--no-timestamp"]) == 0
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "p,q,layers,flags,digest",
        [
            (3, 7, 5, [], "f5027f1d46a5d3f420b9b61155a263ad3997dc378366ddbc1afbfc0feac243bd"),
            (5, 4, 4, ["--mode", "per-vertex"], "a4b5963cd04298c960f77561f6e4413d07f625bf0570e9623593b64230872fa1"),
            (5, 4, 4, ["--vertex-aligned"], "65572c59fc351f7be7574a04d9c2580820c0bc20267b7d3cfdf4960a6eba1253"),
        ],
    )
    def test_sweep_csv_is_pinned(self, tmp_path, monkeypatch, p, q, layers, flags, digest):
        # sha256 of the whole file, config line included, so the graph is
        # named by a path relative to the working directory
        monkeypatch.chdir(tmp_path)
        graph = f"g{p}{q}.json"
        assert run(["tiling", "gen", "--p", str(p), "--q", str(q), "--layers", str(layers), "--out", graph]) == 0
        assert run(["cut", "sweep", "--graph", graph, *flags, "--no-timestamp", "--out", "s.csv"]) == 0
        assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == digest

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["geom", "ceff", "--rho", "0.5", "--phi", "pi", "--out", str(out)]) == 0
        assert "generated" in json.loads(out.read_text())
