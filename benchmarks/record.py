"""Regenerate the recorded reference data under benchmarks/data/.

    PYTHONPATH=src python3 benchmarks/record.py

The values were recorded at the commit that introduced the benchmark
and must not change afterwards: a sweep row, c_eff or minimal cut that
differs from them is a wrong value.  ``test_references.py`` checks that
regenerating them at that commit reproduces the committed files.
Sweeps run on the program's defaults, so HOLOSHADOW_THREADS is cleared.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from workloads import DATA_DIR, GRAPHS, SWEEPS  # noqa: E402


def compute() -> tuple[dict, dict]:
    """(reference data, malformed graph files by stem)."""
    import holoshadow as hs
    from holoshadow import cuts, tree
    from holoshadow.analysis import fit_ceff
    from holoshadow.core import SupportMask

    os.environ.pop("HOLOSHADOW_THREADS", None)
    graphs = {stem: hs.generate_tiling(*pqn) for stem, pqn in GRAPHS.items()}
    data: dict = {
        "graphs": {
            stem: {"tiles": g.n_vertices, "legs": g.n_legs, "edges": len(g.edges)} for stem, g in graphs.items()
        },
        "sweeps": {},
        "ceff": {},
    }
    for name, (stem, flags, fit) in SWEEPS.items():
        g = graphs[stem]
        mode = flags[flags.index("--mode") + 1] if "--mode" in flags else "per-leg"
        rows = [
            (r["start"], r["k"], r["bdryC"], r["bulkC"], r["minC"])
            for r in cuts.cut_sweep(g, mode=mode, vertex_aligned_only="--vertex-aligned" in flags)
        ]
        data["sweeps"][name] = {"rows": len(rows), "digest": ref.sweep_digest(rows)}
        if fit:
            data["ceff"][name] = fit_ceff([(k, float(minc)) for _, k, _, _, minc in rows], g.n_legs).c_eff

    g = graphs["g37_4"]
    data["dinf_g37_4"] = {}
    for mode in ("per-leg", "per-vertex"):
        rows = cuts.cut_sweep(g, mode=mode, oracle="maxflow")
        data["dinf_g37_4"][mode] = ref.sweep_table([(r["start"], r["k"], 0, 0, r["minC"]) for r in rows], g.n_legs)

    g = graphs["g37_2"]
    dual = hs.dual_graph(g)
    data["geodesic_g37_2"] = [
        [cuts.bulk_geodesic(g, dual, SupportMask.interval(g.n_legs, start, k)) for k in range(g.n_legs)]
        for start in range(g.n_legs)
    ]

    data["crossover"] = {}
    for d in (2, 3, 5):
        k_lo, k_hi = tree.crossover_kstar(d)
        x = tree.q_series(d) + math.log(d * d / (d * d - 1))
        data["crossover"][str(d)] = {"x": x, "k_lo": k_lo, "k_hi": k_hi, "k_numeric": tree.crossover_numeric(d, 256)}

    valid = graphs["g37_2"].to_json_dict()
    owner = json.loads(json.dumps(valid))
    # leg 0 handed to the tile that owns leg 6; boundary_legs still says otherwise
    owner["boundary_order"][0]["vertex"] = owner["boundary_order"][6]["vertex"]
    no_edges = json.loads(json.dumps(valid))
    del no_edges["edges"]
    dangling = json.loads(json.dumps(valid))
    dangling["edges"].append([0, len(dangling["vertices"])])
    malformed = {"malformed_owner": owner, "malformed_no_edges": no_edges, "malformed_dangling_edge": dangling}
    return data, malformed


def dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def main() -> None:
    data, malformed = compute()
    DATA_DIR.mkdir(exist_ok=True)
    (DATA_DIR / "reference.json").write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    for stem, doc in malformed.items():
        (DATA_DIR / f"{stem}.json").write_text(dump(doc), encoding="utf-8")


if __name__ == "__main__":
    main()
