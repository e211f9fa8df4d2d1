"""Command-line interface: outputs, formats, exit codes, determinism."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoshadow as hs
from holoshadow.cli import run
from holoshadow.tiling import two_tile_graph
from holoshadow.tree import MAX_EXACT_BITS


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(args + ["--out", str(out), "--no-timestamp"])
    assert code == 0
    return json.loads(out.read_text())


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

    def test_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["tree", "table", "--d", "2,5", "--out", str(out), "--no-timestamp"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "d,Q,beta"
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
        header = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "k,log_tree_norm_sq,log_shallow_norm_sq,interpolated"


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

    def test_ising_ef(self, tmp_path):
        gpath = tmp_path / "tt.json"
        two_tile_graph(3).save(gpath)
        doc = run_json(
            ["ising", "ef", "--graph", str(gpath), "--d", "2", "--support", "2:2"],
            tmp_path,
        )
        assert doc["W"] == pytest.approx(13 / 14, rel=1e-12)
        assert doc["region_vertices"] == [0]


class TestGeom:
    def test_ceff(self, tmp_path):
        doc = run_json(
            ["geom", "ceff", "--R", "1", "--rho", "0.999999", "--phi", "pi"], tmp_path
        )
        assert doc["c_eff"] == pytest.approx(1.9396, abs=1e-3)


class TestErrors:
    def test_usage_error_is_2(self):
        assert run(["tree", "plr", "--nonsense"]) == 2
        assert run([]) == 2
        assert run(["cut", "sweep", "--graph", "g.json", "--workers", "2"]) == 2
        assert run(["cut", "sweep", "--graph", "g.json", "--oracle", "maxflow"]) == 2
        assert run(["fit", "ceff", "--csv", "s.csv", "--N", "12", "--d", "2"]) == 2

    def test_computation_error_is_1(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(["tree", "plr", "--d", "2", "--n", "6", "--support", "0:1", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path):
        assert run(["cut", "sweep", "--graph", str(tmp_path / "nope.json")]) == 1

    def test_comma_supports_are_tree_only(self, tmp_path, capsys):
        gpath = tmp_path / "tt.json"
        two_tile_graph(3).save(gpath)
        code = run(["ising", "plr", "--graph", str(gpath), "--d", "2", "--support", "0:1,2:1"])
        assert code == 1
        assert "tree-only" in capsys.readouterr().err


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
    """A valid {3,7}x2 or {5,4}x2 graph document with one field corrupted."""
    p, q = draw(st.sampled_from([(3, 7), (5, 4)]))
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
            ["ising", "ef", "--graph", str(gpath), "--d", "2", "--support", "0:3"],
            ["fit", "ceff", "--csv", str(sweep), "--N", "12"],
            ["geom", "ceff", "--rho", "0.9", "--phi", "pi"],
        ]
        for i, args in enumerate(commands):
            doc = run_json(args, tmp_path, f"schema{i}.json")
            jsonschema.validate(doc, result_schema)

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

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["geom", "ceff", "--rho", "0.5", "--phi", "pi", "--out", str(out)]) == 0
        assert "generated" in json.loads(out.read_text())
