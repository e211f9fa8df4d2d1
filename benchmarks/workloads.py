"""The benchmark's three closed-loop workloads and their output checks.

A workload is a list of ops per pass.  An op is one in-process
``holoshadow.cli.run(argv)`` or one public library call; the runner times
it and then checks its outcome against ``reference``, outside the timed
region.  A nonzero exit or an exception counts as a failed op; a wrong
value on valid input raises ``WrongValue`` and aborts the run.

* ``hyper_sweep``  -- the c_eff pipeline: tiling gen, cut sweep, fit ceff.
  Seed-independent: sweeps are exhaustive.
* ``tree_points``  -- seeded ``tree plr`` queries over N = 16 .. 16384.
* ``ising_points`` -- seeded ``ising plr`` / ``ising ef`` queries on the
  largest generated patches under the enumeration cap, plus library calls.

The mix of op kinds and sizes in a pass is fixed; the seed picks
supports, d and modes within it, so every seed does the same amount of
work and the figures stay comparable across seeds.  Timed ops are chosen
so that none fails at the seed commit.  The seed's known defects (tree
float underflow, malformed graph files) are each workload's
``defect_probe`` ops: they run once per run, untimed, and their outcomes
are reported beside the result, not counted in it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
REL_TOL = 1e-9
# timed tree queries keep their true w above the smallest normal double by
# this factor (2^64), where the seed's float fold keeps its precision
LOG_W_FLOOR = math.log(sys.float_info.min) + 64 * math.log(2)

# (p, q, layers) of every generated graph, keyed by file stem
GRAPHS = {
    "g37_6": (3, 7, 6),
    "g37_4": (3, 7, 4),
    "g54_4": (5, 4, 4),
    "g54_3": (5, 4, 3),
    "g37_2": (3, 7, 2),
    "g54_2": (5, 4, 2),
}

# hyper_sweep's sweeps: name -> (graph, extra flags, fit c_eff afterwards)
SWEEPS = {
    "g37_6_per_leg": ("g37_6", [], True),
    "g54_4_aligned": ("g54_4", ["--vertex-aligned"], True),
    "g54_3_per_leg": ("g54_3", [], False),
    "g54_3_per_vertex": ("g54_3", ["--mode", "per-vertex"], False),
    "g37_4_per_vertex": ("g37_4", ["--mode", "per-vertex"], False),
}

MALFORMED = ("malformed_owner", "malformed_no_edges", "malformed_dangling_edge")


def load_reference() -> dict:
    return json.loads((DATA_DIR / "reference.json").read_text(encoding="utf-8"))


class WrongValue(Exception):
    """The program returned a wrong value on valid input."""


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None


@dataclass
class Op:
    """One timed call; ``check`` returns None when the outcome is the
    expected one, else the reason it failed."""

    label: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]
    rows: int = 1


def cli_call(argv: list[str]) -> Callable[[], Outcome]:
    """A call of holoshadow.cli.run, looked up when called so tracing sees it."""

    def call() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["holoshadow.cli"].run(argv)
        except Exception as exc:  # an exception escaping run() is a failed op
            return Outcome(stdout=out.getvalue(), stderr=err.getvalue(), error=repr(exc))
        return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue())

    return call


def lib_call(fn: Callable[[], object]) -> Callable[[], Outcome]:
    def call() -> Outcome:
        try:
            return Outcome(code=0, value=fn())
        except Exception as exc:
            return Outcome(error=repr(exc))

    return call


def _exit_problem(outcome: Outcome) -> str | None:
    if outcome.error is not None:
        return f"exception {outcome.error}"
    if outcome.code != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {outcome.code}: {last[0]}"
    return None


def expect_json(check_doc: Callable[[dict], None]) -> Callable[[Outcome], str | None]:
    def check(outcome: Outcome) -> str | None:
        problem = _exit_problem(outcome)
        if problem:
            return problem
        check_doc(json.loads(outcome.stdout))
        return None

    return check


def expect_value(check_value: Callable[[object], None]) -> Callable[[Outcome], str | None]:
    def check(outcome: Outcome) -> str | None:
        problem = _exit_problem(outcome)
        if problem:
            return problem
        check_value(outcome.value)
        return None

    return check


def close(value, expected, what: str) -> None:
    if not math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=0.0):
        raise WrongValue(f"{what}: got {value!r}, expected {expected!r}")


def equal(value, expected, what: str) -> None:
    if value != expected:
        raise WrongValue(f"{what}: got {value!r}, expected {expected!r}")


def mod_lib():
    """The holoshadow package; callers look up its modules' functions per
    call, so that tracing sees the wrappers."""
    return sys.modules["holoshadow"]


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    repeats_ops = False  # True when every pass runs the same commands

    def __init__(self, work: Path, seed: int, recorded: dict):
        self.work = work
        self.seed = seed
        self.recorded = recorded

    def graph(self, stem: str) -> str:
        return str(self.work / f"{stem}.json")

    def generate(self, stems) -> None:
        for stem in stems:
            p, q, layers = GRAPHS[stem]
            outcome = cli_call(["tiling", "gen", "--p", str(p), "--q", str(q), "--layers", str(layers),
                                "--out", self.graph(stem)])()
            if outcome.code != 0:
                raise RuntimeError(f"tiling gen failed for {stem}: {outcome.error or outcome.stderr}")

    def prepare(self) -> None:
        """Untimed set-up before the first pass."""

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def defect_probe(self) -> list[Op]:
        """Ops that fail at the seed commit because of a known defect."""
        return []


class HyperSweep(Workload):
    name = "hyper_sweep"
    repeats_ops = True

    def gen_op(self, stem: str) -> Op:
        p, q, layers = GRAPHS[stem]
        expected = self.recorded["graphs"][stem]

        def check_graph(outcome: Outcome) -> str | None:
            problem = _exit_problem(outcome)
            if problem:
                return problem
            data = json.loads(Path(self.graph(stem)).read_text(encoding="utf-8"))
            counts = {"tiles": len(data["vertices"]), "legs": len(data["boundary_order"]),
                      "edges": len(data["edges"])}
            equal(counts, expected, f"tiling gen {stem}")
            return None

        argv = ["tiling", "gen", "--p", str(p), "--q", str(q), "--layers", str(layers), "--out", self.graph(stem)]
        return Op(" ".join(argv[:8]), cli_call(argv), check_graph, rows=0)

    def sweep_op(self, name: str) -> Op:
        stem, flags, _ = SWEEPS[name]
        expected = self.recorded["sweeps"][name]
        csv_path = self.work / f"{name}.csv"

        def check_sweep(outcome: Outcome) -> str | None:
            problem = _exit_problem(outcome)
            if problem:
                return problem
            rows = ref.parse_sweep_csv(csv_path.read_text(encoding="utf-8"))
            equal(len(rows), expected["rows"], f"cut sweep {name} row count")
            for start, k, bdry, bulk, minc in rows:
                if bdry < 0 or bulk < 0 or bdry + bulk != minc:
                    raise WrongValue(f"cut sweep {name} row {start},{k}: {bdry}+{bulk} != {minc}")
            equal(ref.sweep_digest(rows), expected["digest"], f"cut sweep {name} digest")
            return None

        argv = ["cut", "sweep", "--graph", self.graph(stem), *flags, "--out", str(csv_path)]
        return Op(f"cut sweep {name}", cli_call(argv), check_sweep, rows=expected["rows"])

    def fit_op(self, name: str) -> Op:
        stem, _, _ = SWEEPS[name]
        legs = self.recorded["graphs"][stem]["legs"]
        expected = self.recorded["ceff"][name]
        argv = ["fit", "ceff", "--csv", str(self.work / f"{name}.csv"), "--N", str(legs)]
        return Op(f"fit ceff {name}", cli_call(argv),
                  expect_json(lambda doc: close(doc["c_eff"], expected, f"fit ceff {name}")), rows=0)

    def prepare(self) -> None:
        # the small patches are generated once; {3,7}x6, most of the
        # generation time, is regenerated and timed in every pass
        self.generate(("g37_4", "g54_4", "g54_3"))

    def ops(self, pass_index: int) -> list[Op]:
        ops = [self.gen_op("g37_6")]
        for name, (_, _, fit) in SWEEPS.items():
            ops.append(self.sweep_op(name))
            if fit:
                ops.append(self.fit_op(name))
        return ops


def _support_text(intervals: list[tuple[int, int]]) -> str:
    return ",".join(f"{start}:{length}" for start, length in intervals)


def _sites(n: int, intervals: list[tuple[int, int]]) -> set[int]:
    return {(start + i) % n for start, length in intervals for i in range(length)}


def tree_plr_op(n: int, d: int | None, intervals, exact: bool, expected: float | None = None) -> Op:
    """A ``tree plr`` query; ``expected`` is its reference log_d_norm when
    the caller has it already."""
    sites = _sites(n, intervals)
    argv = ["tree", "plr", "--d", "inf" if d is None else str(d), "--n", str(n),
            "--support", _support_text(intervals)]
    if exact:
        argv.append("--exact")
    label = " ".join(argv)
    if d is None:
        expected = ref.tree_large_d_exponent(n, sites)

        def check_doc(doc):
            equal(doc["log_d_norm"], expected, label)
            equal(doc["bdryC"] + doc["bulkC"], expected, label + " bdryC+bulkC")
    else:
        if expected is None:
            expected = ref.tree_log_d_norm(n, d, sites)

        def check_doc(doc):
            if exact:
                equal(Fraction(doc["w_exact"]), ref.tree_w_exact(n, d, sites), label)
            close(doc["log_d_norm"], expected, label + " log_d_norm")

    return Op(label, cli_call(argv), expect_json(check_doc))


class TreePoints(Workload):
    name = "tree_points"
    # queries per N (a tenth of them at d = inf); the largest N gets more,
    # so that the p90 latency falls inside its group, not on an edge
    PER_N = {n: 18 for n in (1 << m for m in range(4, 14))} | {16384: 42}
    EF_CALLS = 4

    def defect_probe(self) -> list[Op]:
        # w underflows to 0.0 (exit 1), and w lands among the subnormals
        # with too few significant bits (log_d_norm 1071.19, not 1071.51)
        return [tree_plr_op(16384, 2, [(0, 8192)], False), tree_plr_op(16384, 2, [(0, 993)], False)]

    def normal_query(self, rng: random.Random, n: int, d: int | None, exact: bool) -> Op:
        """A query on one to three random intervals, redrawn until its true
        w is well inside the normal doubles (the float fold's valid range).
        Each boundary site costs about one power of d, so the intervals'
        lengths are drawn below that budget and few draws are redrawn."""
        if d is None:
            intervals = [(rng.randrange(n), rng.randint(1, n // 2)) for _ in range(rng.randint(1, 3))]
            return tree_plr_op(n, d, intervals, exact)
        budget = -LOG_W_FLOOR / math.log(d)
        while True:
            count = rng.randint(1, 3)
            longest = max(1, min(n // 2, int(budget / count)))
            intervals = [(rng.randrange(n), rng.randint(1, longest)) for _ in range(count)]
            expected = ref.tree_log_d_norm(n, d, _sites(n, intervals))
            if expected < budget:
                return tree_plr_op(n, d, intervals, exact, expected)

    def ops(self, pass_index: int) -> list[Op]:
        rng = random.Random(self.seed * 1_000_003 + pass_index)
        ops = []
        for n, count in self.PER_N.items():
            for j in range(count):
                d = None if j < count // 9 else rng.choice((2, 3, 5))
                exact = n == 16 and d is not None and j % 2 == 0
                ops.append(self.normal_query(rng, n, d, exact))
        for d in (2, 3, 5):
            expected = self.recorded["crossover"][str(d)]
            argv = ["tree", "crossover", "--d", str(d), "--k-max", "256"]

            def check_crossover(doc, expected=expected, d=d):
                for key in ("x", "k_lo", "k_hi"):
                    close(doc[key], expected[key], f"tree crossover --d {d} {key}")
                equal(doc["k_numeric"], expected["k_numeric"], f"tree crossover --d {d} k_numeric")

            ops.append(Op(" ".join(argv), cli_call(argv), expect_json(check_crossover)))
        for _ in range(self.EF_CALLS):
            d = rng.choice((2, 3, 5))
            region = frozenset(i for i in range(16) if rng.random() < 0.5)
            expected = float(ref.tree_ef_exact(16, d, region))

            def ef(region=region, d=d):
                lib = mod_lib()
                return lib.tree.ef_bruteforce(lib.core.SupportMask(16, region), lib.tree.TreeSpec(16, d))

            ops.append(Op(f"ef_bruteforce N=16 d={d} |B|={len(region)}", lib_call(ef),
                          expect_value(lambda v, e=expected, d=d: close(v, e, f"ef_bruteforce d={d}"))))
        rng.shuffle(ops)
        return ops


def malformed_op(stem: str) -> Op:
    argv = ["ising", "plr", "--graph", str(DATA_DIR / f"{stem}.json"), "--d", "3", "--support", "0:2"]

    def check(outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return f"exception {outcome.error}"
        lines = outcome.stderr.strip().splitlines()
        if outcome.code != 1 or len(lines) != 1:
            return f"exit {outcome.code} with {len(lines)} stderr lines, expected exit 1 and one line"
        return None

    return Op(f"ising plr {stem}", cli_call(argv), check)


class IsingPoints(Workload):
    name = "ising_points"
    # every --d inf op leaves a flow network in the program's cache, and
    # passes slow down until about 70 are held, then stay level; prepare()
    # runs this many more --d inf ops, untimed, so timing starts level
    CACHE_FILL_OPS = 72
    # queries per (d, mode) of each command on each graph, sized so that
    # the p50 and p90 latencies fall inside the two {3,7} groups
    PER_COMBO = {"g37_2": 4, "g54_2": 2}
    D_VALUES = (2, 3, 5, 10)
    MODES = ("per-vertex", "per-leg")
    DINF_QUERIES = 12
    OPTIMALITY_LEGS = 6

    def prepare(self) -> None:
        self.generate(("g37_2", "g54_2", "g37_4"))
        self.models = {stem: ref.IsingGraph(self.graph(stem)) for stem in ("g37_2", "g54_2")}
        rng = random.Random(self.seed)
        n_legs = len(self.recorded["dinf_g37_4"]["per-leg"])
        for i in range(self.CACHE_FILL_OPS):
            op = self.dinf_op(self.MODES[i % 2], rng.randrange(n_legs), rng.randint(1, n_legs - 1))
            problem = op.check(op.call())
            if problem is not None:
                raise RuntimeError(f"{op.label} failed in set-up: {problem}")

    def query_op(self, command: str, stem: str, d: int, mode: str, start: int, length: int) -> Op:
        model = self.models[stem]
        argv = ["ising", command, "--graph", self.graph(stem), "--d", str(d),
                "--support", f"{start}:{length}", "--mode", mode]
        label = f"ising {command} {stem} --d {d} --support {start}:{length} --mode {mode}"
        if command == "plr":
            log_w = model.log_w(d, mode, start, length)

            def check_doc(doc):
                close(doc["w"], math.exp(log_w), label + " w")
                close(doc["log_d_norm"], -log_w / math.log(d), label + " log_d_norm")
        else:
            log_ef = model.log_ef(d, mode, start, length)
            owners = model.owners(start, length)

            def check_doc(doc):
                close(doc["W"], math.exp(log_ef), label + " W")
                equal(doc["region_vertices"], owners, label + " region")

        return Op(label, cli_call(argv), expect_json(check_doc))

    def dinf_op(self, mode: str, start: int, length: int) -> Op:
        expected = self.recorded["dinf_g37_4"][mode][start][length]
        argv = ["ising", "plr", "--graph", self.graph("g37_4"), "--d", "inf",
                "--support", f"{start}:{length}", "--mode", mode]
        label = f"ising plr g37_4 --d inf --support {start}:{length} --mode {mode}"

        def check_doc(doc):
            equal(doc["log_d_norm"], expected, label)

        return Op(label, cli_call(argv), expect_json(check_doc))

    def defect_probe(self) -> list[Op]:
        return [malformed_op(stem) for stem in MALFORMED]

    def optimality_op(self, d: int, mode: str, start: int) -> Op:
        legs = self.OPTIMALITY_LEGS
        best = self.models["g37_2"].min_w_over_subsets(d, mode, start, legs)
        bound = 1.0 / (float(d) ** legs + 1.0)
        tied = math.isclose(best, bound, rel_tol=REL_TOL)
        path = self.graph("g37_2")

        def call():
            lib = mod_lib()
            g = lib.tiling.TilingGraph.load(path)
            model = lib.ising.SpinModel(g, lib.core.ModelParams(d), boundary_field_mode=mode)
            return lib.ising.optimality_check(model, lib.core.SupportMask.interval(g.n_legs, start, legs))

        label = f"optimality_check g37_2 d={d} {mode} legs {start}:{legs}"

        def check_value(value):
            if not tied:
                equal(value, best <= bound, label)

        return Op(label, lib_call(call), expect_value(check_value))

    def renyi_op(self, mode: str, start: int, length: int) -> Op:
        model = self.models["g37_2"]
        d_list = list(self.D_VALUES)
        bulk = self.recorded["geodesic_g37_2"][start][length]
        expected = [-model.log_ef(d, mode, start, length) / math.log(d) for d in d_list]
        path = self.graph("g37_2")

        def call():
            lib = mod_lib()
            g = lib.tiling.TilingGraph.load(path)
            spin = lib.ising.SpinModel(g, lib.core.ModelParams(2), boundary_field_mode=mode)
            return lib.ising.renyi_vs_cut(spin, lib.core.SupportMask.interval(g.n_legs, start, length), d_list)

        label = f"renyi_vs_cut g37_2 {mode} {start}:{length}"

        def check_value(rows):
            equal([row["d"] for row in rows], d_list, label + " d")
            for row, renyi in zip(rows, expected):
                close(row["renyi_over_log_d"], renyi, label + f" d={row['d']}")
                equal(row["bulkC"], bulk, label + " bulkC")

        return Op(label, lib_call(call), expect_value(check_value))

    def ops(self, pass_index: int) -> list[Op]:
        rng = random.Random(self.seed * 1_000_003 + pass_index)
        ops = []
        for stem in ("g37_2", "g54_2"):
            n_legs = self.models[stem].n_legs
            for command in ("plr", "ef"):
                for d in self.D_VALUES:
                    for mode in self.MODES:
                        for _ in range(self.PER_COMBO[stem]):
                            start, length = rng.randrange(n_legs), rng.randint(1, n_legs - 1)
                            ops.append(self.query_op(command, stem, d, mode, start, length))
        n_legs = len(self.recorded["dinf_g37_4"]["per-leg"])
        for i in range(self.DINF_QUERIES):
            ops.append(self.dinf_op(self.MODES[i % 2], rng.randrange(n_legs), rng.randint(1, n_legs - 1)))
        n_legs = self.models["g37_2"].n_legs
        ops.append(self.optimality_op(rng.choice((2, 3, 5)), rng.choice(self.MODES), rng.randrange(n_legs)))
        ops.append(self.renyi_op(rng.choice(self.MODES), rng.randrange(n_legs), rng.randint(1, n_legs - 1)))
        rng.shuffle(ops)
        return ops


WORKLOADS = {cls.name: cls for cls in (HyperSweep, TreePoints, IsingPoints)}
