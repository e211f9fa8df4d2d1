"""Command-line interface.

Subcommands mirror the library modules:

    tree plr|table|crossover     tree-circuit learning rates and tables
    tiling gen                   {p,q} tensor-network graph generation
    cut sweep                    minimal cuts over all boundary intervals
    ising plr|ef                 exact statistical-model evaluation
    fit ceff                     effective central charge from a sweep CSV
    geom ceff                    continuum c_eff on the Poincare disk

Every run is deterministic given its flags.  CSV outputs begin with a
"# config: ..." comment carrying the resolved flags (plus a timestamp
line unless --no-timestamp); JSON results embed the same config object.
Graph files written by `tiling gen` stay pure schema JSON so they
round-trip byte-identically through load/save.

Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import analysis, cuts, ising, tiling, tree
from .core import ModelParams, PlrResult, SupportMask

CSV_SWEEP_COLUMNS = ("start", "k", "bdryC", "bulkC", "minC")


def _parse_support(text: str, n: int, allow_multi: bool = False) -> SupportMask:
    parts = text.split(",")
    if len(parts) > 1 and not allow_multi:
        raise ValueError("multi-interval supports (comma lists) are tree-only")
    mask = SupportMask.empty(n)
    for part in parts:
        try:
            start_s, len_s = part.split(":")
            start, length = int(start_s), int(len_s)
        except ValueError:
            raise ValueError(f"bad support syntax {part!r}; expected START:LEN")
        mask = mask.union(SupportMask.interval(n, start % n, length))
    return mask


def _parse_angle(text: str) -> float:
    if text.strip().lower() == "pi":
        return math.pi
    return float(text)


def _parse_d(text: str) -> int | None:
    """Bond dimension, or None for the large-d cut pathway (--d inf)."""
    if text.strip().lower() in ("inf", "infinity"):
        return None
    d = int(text)
    if d < 2:
        raise ValueError(f"d must be >= 2 or 'inf', got {text}")
    return d


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "out", "no_timestamp"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _round_floats(value, digits: int | None):
    if digits is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v, digits) for v in value]
    return value


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    doc = dict(_round_floats(payload, getattr(args, "digits", None)))
    doc["config"] = _config_dict(args)
    if not args.no_timestamp:
        doc["generated"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"
    _write(text, args.out)


def _emit_csv(rows, columns: tuple[str, ...], args: argparse.Namespace) -> None:
    """Stream rows to the sink one line at a time (rows may be any iterable)."""
    digits = getattr(args, "digits", None)

    def lines():
        yield f"# config: {json.dumps(_config_dict(args), sort_keys=True)}\n"
        if not args.no_timestamp:
            yield "# generated: " + time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()) + "\n"
        yield ",".join(columns) + "\n"
        for row in rows:
            yield ",".join(_fmt(row[c], digits) for c in columns) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(lines())
    else:
        sys.stdout.writelines(lines())


def _fmt(value, digits: int | None = None) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.{digits}g}" if digits else repr(value)
    return str(value)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _rate_payload(result: PlrResult) -> dict:
    """JSON fields of a learning rate.  w and its reciprocal are null unless
    w is a positive normal double, which also keeps 1/w <= 2^1022 finite."""
    if float(result.w) < sys.float_info.min:
        return {"w": None, "shadow_norm_sq": None, "log_d_norm": result.log_d_norm}
    return {
        "w": float(result.w),
        "shadow_norm_sq": float(result.shadow_norm_sq),
        "log_d_norm": result.log_d_norm,
    }


def _load_graph(path: str) -> tiling.TilingGraph:
    return tiling.TilingGraph.load(path)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_tree_plr(args: argparse.Namespace) -> int:
    spec = tree.TreeSpec(n=args.n, d=args.d if args.d else 2)
    support = _parse_support(args.support, args.n, allow_multi=True)
    if args.d is None:
        cut = tree.tree_large_d_cuts(support, tree.TreeSpec(n=args.n, d=2))
        payload = {
            "w": None,
            "shadow_norm_sq": None,
            "log_d_norm": cut.min_cost,
            "bdryC": cut.bdry_cost,
            "bulkC": cut.bulk_cost,
        }
    else:
        result = tree.plr_tree(support, spec, exact=args.exact)
        payload = _rate_payload(result)
        if args.exact:
            payload["w_exact"] = str(result.w)
    _emit_json(payload, args)
    return 0


def _cmd_tree_table(args: argparse.Namespace) -> int:
    d_values = [int(part) for part in args.d.split(",")]
    rows = tree.table_rows(d_values)
    _emit_csv(rows, ("d", "Q", "beta"), args)
    return 0


def _cmd_tree_crossover(args: argparse.Namespace) -> int:
    k_lo, k_hi = tree.crossover_kstar(args.d)
    payload = {
        "x": tree.q_series(args.d) + math.log(args.d**2 / (args.d**2 - 1)),
        "k_lo": k_lo,
        "k_hi": k_hi,
        "k_numeric": tree.crossover_numeric(args.d, args.k_max),
        "k_max": args.k_max,
    }
    if args.csv:
        rows = tree.crossover_table(args.d, args.k_max)
        csv_args = argparse.Namespace(**{**vars(args), "out": args.csv})
        _emit_csv(
            rows,
            ("k", "log_tree_norm_sq", "log_shallow_norm_sq", "interpolated"),
            csv_args,
        )
    _emit_json(payload, args)
    return 0


def _cmd_tiling_gen(args: argparse.Namespace) -> int:
    g = tiling.generate_tiling(args.p, args.q, args.layers)
    g.save(args.out)
    return 0


def _cmd_cut_sweep(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    rows = cuts.cut_sweep(g, mode=args.mode, vertex_aligned_only=args.vertex_aligned)
    _emit_csv(rows, CSV_SWEEP_COLUMNS, args)
    return 0


def _cmd_ising_plr(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    support = _parse_support(args.support, g.n_legs)
    if args.d is None:
        result = cuts.plr_large_d(g, support, d=2, mode=args.mode)
        payload = {"w": None, "shadow_norm_sq": None, "log_d_norm": int(result.log_d_norm)}
    else:
        model = ising.SpinModel(g, ModelParams(args.d), boundary_field_mode=args.mode)
        payload = _rate_payload(ising.plr_exact(model, support))
    _emit_json(payload, args)
    return 0


def _cmd_ising_ef(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    support = _parse_support(args.support, g.n_legs)
    if args.d is None:
        raise ValueError("ising ef needs a finite d")
    model = ising.SpinModel(g, ModelParams(args.d), boundary_field_mode=args.mode)
    region = cuts.pinned_for_interval(g, support)
    w = ising.entanglement_feature(model, region)
    payload = {
        "W": w,
        "minus_log_d_W": -math.log(w) / math.log(args.d),
        "region_vertices": sorted(region),
    }
    _emit_json(payload, args)
    return 0


def _cmd_fit_ceff(args: argparse.Namespace) -> int:
    points = []
    cols: tuple[int, int] | None = None
    for line in Path(args.csv).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if cols is None:
            header = line.split(",")
            if "k" not in header or "minC" not in header:
                raise ValueError(f"{args.csv} has no k,minC header row")
            cols = (header.index("k"), header.index("minC"))
            continue
        parts = line.split(",")
        points.append((int(parts[cols[0]]), float(parts[cols[1]])))
    fit = analysis.fit_ceff(points, args.n)
    payload = {
        "c_eff": fit.c_eff,
        "stderr": fit.stderr,
        "residual_rms": fit.residual_rms,
        "n_points": fit.n_points,
        "convention": "cut units (1/ln d absorbed into c_eff)",
    }
    _emit_json(payload, args)
    return 0


def _cmd_geom_ceff(args: argparse.Namespace) -> int:
    payload = {
        "c_eff": analysis.ceff_continuous(args.rho, args.phi, args.R),
        "arc_length": analysis.arc_length(args.rho, args.phi, args.R),
        "geodesic": analysis.poincare_geodesic(args.rho, 0.0, args.rho, args.phi, args.R),
    }
    _emit_json(payload, args)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """No abbreviated options, so --d is never taken for --digits; subcommand parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holoshadow",
        description="Sample complexity of hierarchical classical-shadow schemes",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--out", help="output file (default: stdout)")
        sub.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the timestamp header for byte-identical reruns",
        )
        sub.add_argument(
            "--digits", type=int, default=None, help="significant digits for floats"
        )

    tree_cmd = top.add_parser("tree", help="binary-tree circuit")
    tree_sub = tree_cmd.add_subparsers(dest="subcommand", required=True)

    p = tree_sub.add_parser("plr", help="learning rate of one support")
    p.add_argument("--d", type=_parse_d, required=True, help="local dimension, or 'inf'")
    p.add_argument("--n", type=int, required=True, help="number of leaves (power of 2)")
    p.add_argument("--support", required=True, help="START:LEN[,START:LEN...]")
    p.add_argument("--exact", action="store_true", help="rational arithmetic (capped by the fold's cost)")
    common(p)
    p.set_defaults(func=_cmd_tree_plr)

    p = tree_sub.add_parser("table", help="Q(d) and beta(d) table")
    p.add_argument("--d", default="2,3,4,5,10,20", help="comma list of d values")
    common(p)
    p.set_defaults(func=_cmd_tree_table)

    p = tree_sub.add_parser("crossover", help="tree vs shallow-circuit crossover")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k-max", type=int, default=256, dest="k_max")
    p.add_argument("--csv", help="also write the per-k comparison table here")
    common(p)
    p.set_defaults(func=_cmd_tree_crossover)

    tiling_cmd = top.add_parser("tiling", help="hyperbolic tiling graphs")
    tiling_sub = tiling_cmd.add_subparsers(dest="subcommand", required=True)
    p = tiling_sub.add_parser("gen", help="generate a {p,q} patch")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--out", required=True, help="graph JSON path")
    p.set_defaults(func=_cmd_tiling_gen, no_timestamp=True)

    cut_cmd = top.add_parser("cut", help="minimal cuts")
    cut_sub = cut_cmd.add_subparsers(dest="subcommand", required=True)
    p = cut_sub.add_parser("sweep", help="sweep all contiguous intervals")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=tiling.MODES, default="per-leg")
    p.add_argument("--vertex-aligned", action="store_true", dest="vertex_aligned")
    common(p)
    p.set_defaults(func=_cmd_cut_sweep)

    ising_cmd = top.add_parser("ising", help="exact statistical model")
    ising_sub = ising_cmd.add_subparsers(dest="subcommand", required=True)
    for name, func, help_text in (
        ("plr", _cmd_ising_plr, "pinned-spin learning rate"),
        ("ef", _cmd_ising_ef, "entanglement feature of a region"),
    ):
        p = ising_sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True)
        p.add_argument("--d", type=_parse_d, required=True, help="bond dimension, or 'inf'")
        p.add_argument("--support", required=True, help="START:LEN over boundary legs")
        p.add_argument("--mode", choices=tiling.MODES, default="per-vertex")
        common(p)
        p.set_defaults(func=func)

    fit_cmd = top.add_parser("fit", help="scaling fits")
    fit_sub = fit_cmd.add_subparsers(dest="subcommand", required=True)
    p = fit_sub.add_parser("ceff", help="effective central charge from a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--N", type=int, required=True, dest="n", help="boundary size")
    common(p)
    p.set_defaults(func=_cmd_fit_ceff)

    geom_cmd = top.add_parser("geom", help="continuum geometry")
    geom_sub = geom_cmd.add_subparsers(dest="subcommand", required=True)
    p = geom_sub.add_parser("ceff", help="c_eff on the Poincare disk")
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--phi", type=_parse_angle, required=True)
    common(p)
    p.set_defaults(func=_cmd_geom_ceff)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, NotImplementedError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
