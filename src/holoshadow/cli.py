"""Command-line interface.

Subcommands mirror the library modules:

    tree plr|table|crossover     tree-circuit learning rates and tables
    tiling gen                   {p,q} tensor-network graph generation
    cut sweep                    minimal cuts over all boundary intervals
    ising plr|ef                 exact statistical-model evaluation
    fit ceff                     effective central charge from a sweep CSV
    geom ceff                    continuum c_eff on the Poincare disk

Every run is deterministic given its flags.  Each handler returns its
result, a dict for JSON or (columns, rows) for CSV, and `run` hands it to
one writer, `_emit`.  CSV outputs begin with a "# config: ..." comment
carrying the resolved flags (plus a timestamp line unless
--no-timestamp); JSON results embed the same config object.  --digits N
rounds every float to float(f"{v:.Ng}") in both formats.  Graph files
written by `tiling gen` (its handler returns nothing) stay pure schema
JSON so they round-trip byte-identically through load/save.

Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import operator
import os
import sys
import time

from . import analysis, cuts, ising, tiling, tree
from .core import CutResult, ModelParams, PlrResult, SupportMask, minus_log_d


def _parse_support(text: str, n: int) -> SupportMask:
    mask = SupportMask.empty(n)
    for part in text.split(","):
        try:
            start, length = map(int, part.split(":"))
        except ValueError:
            raise ValueError(f"bad support syntax {part!r}; expected START:LEN")
        mask = mask.union(SupportMask.interval(n, start, length))
    return mask


def _parse_angle(text: str) -> float:
    if text.strip().lower() == "pi":
        return math.pi
    return float(text)


def _parse_d(text: str) -> int | None:
    """Bond dimension, or None for the large-d cut pathway (--d inf)."""
    if text.strip().lower() in ("inf", "infinity"):
        return None
    with contextlib.suppress(argparse.ArgumentTypeError):
        return _parse_finite_d(text)
    raise argparse.ArgumentTypeError(f"d must be >= 2 or 'inf', got {text}")


def _parse_digits(text: str) -> int:
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")


def _parse_finite_d(text: str) -> int:
    with contextlib.suppress(ValueError):
        if int(text) >= 2:
            return int(text)
    raise argparse.ArgumentTypeError(f"d must be >= 2, got {text}")


def _parse_d_list(text: str) -> str:
    """A comma list of bond dimensions, kept as written so the config echoes it."""
    try:
        low = min(map(int, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma list of integers, got {text}") from None
    if low < 2:
        raise argparse.ArgumentTypeError(f"d must be >= 2, got {low}")
    return text


def _config_dict(args: argparse.Namespace) -> dict:
    """The resolved flags, unset ones left out; --d inf is echoed as "inf"."""
    skip = {"func", "out", "no_timestamp"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    if getattr(args, "d", 0) is None:
        config["d"] = "inf"
    return config


def _round_floats(value, digits: int | None):
    if digits is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, digits) for v in value]
    return value


def _emit(result, args: argparse.Namespace, out: str | None) -> None:
    """Write a handler's result: a dict as one JSON document, or
    (columns, rows) as CSV with one %s template per row.  Rows may be any
    iterable, a generator included; each is rounded and written as it
    arrives, and --out appears only once all of them are written.  --digits
    rounds every float in either format by the same rule."""
    digits = args.digits
    config = _config_dict(args)
    stamp = None if args.no_timestamp else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if isinstance(result, dict):
        doc = {**_round_floats(result, digits), "config": config}
        if stamp:
            doc["generated"] = stamp
        lines = [json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n"]
    else:
        columns, rows = result
        head = f"# config: {json.dumps(config, sort_keys=True)}\n"
        if stamp:
            head += f"# generated: {stamp}\n"
        template = ",".join(["%s"] * len(columns)) + "\n"
        cells = operator.itemgetter(*columns)
        if digits is not None:
            rows = (_round_floats(row, digits) for row in rows)
        lines = itertools.chain([head, ",".join(columns) + "\n"], (template % cells(row) for row in rows))
    if out:
        # a row can still fail while the rows stream: write beside --out and
        # move the file into place only once every row is written
        part = f"{out}.{os.getpid()}.part"
        try:
            with open(part, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
            os.replace(part, out)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(part)
            raise
    else:
        sys.stdout.writelines(lines)


def _normal_or_null(x: float) -> float | None:
    """x if it is a positive normal double, else None (JSON null)."""
    return x if x >= sys.float_info.min else None


def _rate_payload(result: PlrResult) -> dict:
    """JSON fields of a learning rate.  w and its reciprocal are null unless
    w is a positive normal double, which also keeps 1/w <= 2^1022 finite."""
    w = _normal_or_null(float(result.w))
    norm = None if w is None else float(result.shadow_norm_sq)
    return {"w": w, "shadow_norm_sq": norm, "log_d_norm": result.log_d_norm}


def _cut_payload(cut: CutResult) -> dict:
    """JSON fields of a --d inf answer, a cut: no rate, log_d_norm = minC."""
    return {"w": None, "shadow_norm_sq": None, "log_d_norm": cut.min_cost, "bdryC": cut.bdry_cost, "bulkC": cut.bulk_cost}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_tree_plr(args: argparse.Namespace) -> dict:
    tree.check_leaf_count(args.n)
    support = _parse_support(args.support, args.n)
    if args.d is None:
        return _cut_payload(tree.tree_large_d_cuts(support))
    result = tree.plr_tree(support, tree.TreeSpec(n=args.n, d=args.d), exact=args.exact)
    payload = _rate_payload(result)
    if args.exact:
        payload["w_exact"] = str(result.w)
    return payload


def _cmd_tree_table(args: argparse.Namespace) -> tuple:
    return ("d", "Q", "beta"), tree.table_rows(int(part) for part in args.d.split(","))


def _cmd_tree_crossover(args: argparse.Namespace) -> dict:
    k_lo, k_hi = tree.crossover_kstar(args.d)
    payload = {
        "x": tree.crossover_x(args.d),
        "k_lo": k_lo,
        "k_hi": k_hi,
        "k_numeric": tree.crossover_numeric(args.d, args.k_max),
        "k_max": args.k_max,
    }
    if args.csv:
        columns = ("k", "log_tree_norm_sq", "log_shallow_norm_sq", "interpolated")
        _emit((columns, tree.crossover_table(args.d, args.k_max)), args, out=args.csv)
    return payload


def _cmd_tiling_gen(args: argparse.Namespace) -> None:
    tiling.generate_tiling(args.p, args.q, args.layers).save(args.out)


def _cmd_cut_sweep(args: argparse.Namespace) -> tuple:
    g = tiling.TilingGraph.load(args.graph)
    rows = cuts.cut_sweep(g, mode=args.mode, vertex_aligned_only=args.vertex_aligned)
    return ("start", "k", "bdryC", "bulkC", "minC"), rows


def _cmd_ising_plr(args: argparse.Namespace) -> dict:
    g = tiling.TilingGraph.load(args.graph)
    support = _parse_support(args.support, g.n_legs)
    if args.d is None:
        return _cut_payload(cuts.plr_large_d(g, support, mode=args.mode))
    model = ising.SpinModel(g, ModelParams(args.d), boundary_field_mode=args.mode)
    return _rate_payload(ising.plr_exact(model, support))


def _cmd_ising_ef(args: argparse.Namespace) -> dict:
    g = tiling.TilingGraph.load(args.graph)
    support = _parse_support(args.support, g.n_legs)
    model = ising.SpinModel(g, ModelParams(args.d), boundary_field_mode=args.mode)
    region = cuts.pinned_for_interval(g, support)
    log_w = ising.log_entanglement_feature(model, region)
    return {
        "W": _normal_or_null(math.exp(log_w)),
        "minus_log_d_W": minus_log_d(log_w, args.d),
        "region_vertices": sorted(region),
    }


def _sweep_points(path: str):
    """(k, minC) of each data row of a sweep CSV, in row order, read one line
    at a time.  A row is keyed by its text from the first of the k and minC
    columns on, so each distinct key is split, checked and converted once:
    to an int k and a finite float minC (int and float take a last field's
    newline as they find it).  A key fixes its row's field count, since a
    row too short to reach that column leaves a key without a comma, which
    no checked key is.  A bad row's line number is counted only once the
    row is found."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line[0] not in "#\n":
                break
        else:
            return
        header = line.rstrip("\n").split(",")
        if "k" not in header or "minC" not in header:
            raise ValueError(f"{path} has no k,minC header row")
        k_col, min_col, width = header.index("k"), header.index("minC"), len(header)
        skip = min(k_col, min_col)
        pick = operator.itemgetter(k_col - skip, min_col - skip)
        points: dict[str, tuple[int, float]] = {}
        get = points.get
        for line in handle:
            if line[0] in "#\n":
                continue
            key = line.split(",", skip)[-1]
            point = get(key)
            if point is None:
                fields = key.split(",")
                if len(fields) != width - skip:
                    raise ValueError(
                        f"{path} line {_line_number(path, line)}: {line.count(',') + 1} fields, header has {width}"
                    )
                k, min_c = pick(fields)
                with contextlib.suppress(ValueError):
                    point = int(k), float(min_c)
                if point is None or not math.isfinite(point[1]):
                    raise ValueError(
                        f"{path} line {_line_number(path, line)}: k must be an integer and minC a finite "
                        f"number, got {line.strip()!r}"
                    )
                points[key] = point
            yield point


def _line_number(path: str, bad: str) -> int:
    """The number of the first data line of a sweep CSV that reads bad: the
    line the reader failed on, since it checks every line in order."""
    with open(path, encoding="utf-8") as handle:
        rows = ((number, line) for number, line in enumerate(handle, 1) if line[0] not in "#\n")
        next(rows)  # the header
        return next(number for number, line in rows if line == bad)


def _cmd_fit_ceff(args: argparse.Namespace) -> dict:
    try:
        fit = analysis.fit_ceff(_sweep_points(args.csv), args.n)
    except OverflowError as exc:
        raise OverflowError(f"{args.csv}: {exc}") from None
    return {
        "c_eff": fit.c_eff,
        "stderr": fit.stderr,
        "residual_rms": fit.residual_rms,
        "n_points": fit.n_points,
        "convention": "cut units (1/ln d absorbed into c_eff)",
    }


def _cmd_geom_ceff(args: argparse.Namespace) -> dict:
    return {
        "c_eff": analysis.ceff_continuous(args.rho, args.phi, args.R),
        "arc_length": analysis.arc_length(args.rho, args.phi, args.R),
        "geodesic": analysis.poincare_geodesic(args.rho, 0.0, args.rho, args.phi, args.R),
    }


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
        sub.add_argument("--no-timestamp", action="store_true", help="omit the timestamp (identical reruns)")
        sub.add_argument("--digits", type=_parse_digits, help="round floats to this many significant digits")

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
    p.add_argument("--d", type=_parse_d_list, default="2,3,4,5,10,20", help="comma list of d values")
    common(p)
    p.set_defaults(func=_cmd_tree_table)

    p = tree_sub.add_parser("crossover", help="tree vs shallow-circuit crossover")
    p.add_argument("--d", type=_parse_finite_d, required=True)
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
        p.add_argument("--support", required=True, help="START:LEN[,START:LEN...] over boundary legs")
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
    if getattr(args, "d", 0) is None and (args.func is _cmd_ising_ef or getattr(args, "exact", False)):
        print(f"error: {'ising ef' if args.func is _cmd_ising_ef else '--exact'} needs a finite d", file=sys.stderr)
        return 2
    try:
        result = args.func(args)
        if result is not None:
            _emit(result, args, args.out)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
