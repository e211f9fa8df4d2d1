"""holoshadow benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload tree_points --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the checkout this file sits in; the run exits with code 2 before
measuring anything when that source tree is missing.

A run first runs untimed warm-up passes for ``WARMUP_SECONDS`` of op
time, so that the sweep pool's first-use cost (fork, first page faults)
and the program's caches settle and timed passes measure steady state.
Then it runs timed passes until ``--seconds`` of op time have passed and
at least ``MIN_PASSES`` passes are done.  Every op's outcome is checked
after it is timed.
After the timed passes the workload's known-defect ops run once, untimed;
their outcomes go to the details line, not into the result.

``setup_s`` is the median of fresh-interpreter ``import holoshadow.cli``
times: two probes before the workload, one after each timed pass and the
rest after it, so that the probes sample the machine's load over the
whole run (one untimed probe first).  Set-up work the program moves to
import time shows there.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pairs of
passes on one op list, one untraced and one with spans recorded around
the program's public callables (alternating which goes first), and prints the per-layer metrics
per traced pass plus ``trace.overhead_frac``.  Program defaults only:
no ``--workers``, no ``--seed``, and HOLOSHADOW_THREADS is removed from
the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_PASSES = 5  # hyper_sweep repeats its 8 commands; each needs this many samples
RSS_PASS = 3
WARMUP_SECONDS = 3.0
SETUP_PROBES = 9  # at least; two before the workload, one after each timed pass
SETUP_PROBES_BEFORE = 2
PROBE = "import time; t = time.perf_counter(); import holoshadow.cli; print(time.perf_counter() - t)"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HOLOSHADOW_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probes(count: int) -> list[float]:
    """Import times of holoshadow.cli in fresh interpreters."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", PROBE], env=program_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return times


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, trace: bool):
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.failed: dict[str, int] = {}
        self.failure_examples: dict[str, str] = {}
        self.attempted = 0
        self.tracer = None
        if trace:
            from spans import Tracer

            self.tracer = Tracer()

    def run_pass(self, ops, record: bool, traced: bool = False) -> tuple[float, int, float]:
        """Time each op, then check it; returns (op seconds, rows, row seconds)."""
        from workloads import WrongValue

        total = rows = row_time = 0.0
        if traced:
            self.tracer.install()
        try:
            for op in ops:
                if traced:
                    self.tracer.op += 1
                start = time.perf_counter()
                outcome = op.call()
                elapsed = time.perf_counter() - start
                total += elapsed
                if op.rows:
                    rows += op.rows
                    row_time += elapsed
                try:
                    problem = op.check(outcome)
                except (WrongValue, ValueError, KeyError, TypeError) as exc:
                    raise SystemExit(f"wrong output on valid input, run aborted: {op.label}: {exc!r}")
                if record:
                    self.attempted += 1
                    self.latencies.append(elapsed)
                    self.by_label.setdefault(op.label, []).append(elapsed)
                    if problem is not None:
                        kind = f"{op.label.split(' --')[0]}: {problem.split(':')[0]}"
                        self.failed[kind] = self.failed.get(kind, 0) + 1
                        self.failure_examples.setdefault(kind, f"{op.label}: {problem}")
        finally:
            if traced:
                self.tracer.uninstall()
        return total, rows, row_time


def probe_defects(workload) -> dict[str, str]:
    """Run the seed's known-defect ops once, untimed; label -> outcome."""
    from workloads import WrongValue

    outcomes = {}
    for op in workload.defect_probe():
        try:
            problem = op.check(op.call())
        except WrongValue as exc:
            problem = f"wrong value: {exc}"
        outcomes[op.label] = problem or "ok"
    return outcomes


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS, load_reference

    import numpy

    setup_times = []
    if not trace:
        setup_probes(1)  # untimed: compiles bytecode and fills the page cache
        setup_times = setup_probes(SETUP_PROBES_BEFORE)
    work = ROOT / ".bench_tmp" / f"{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](work, seed, load_reference())
        workload.prepare()
        runner = Runner(trace)
        index = warmup = 0
        while warmup < WARMUP_SECONDS:
            warmup += runner.run_pass(workload.ops(index), record=False)[0]
            index += 1
        # the harness's own objects stay out of the program's collections
        gc.collect()
        gc.freeze()
        pass_times, traced_times, row_rates = [], [], []
        rss_mb = None
        while sum(pass_times) + sum(traced_times) < seconds or len(pass_times) < MIN_PASSES:
            ops = workload.ops(index)
            # a traced pair alternates which of its two passes runs first
            traced_first = trace and index % 2 == 1
            if traced_first:
                gc.collect()
                traced_times.append(runner.run_pass(ops, record=False, traced=True)[0])
            gc.collect()
            elapsed, rows, row_time = runner.run_pass(ops, record=True)
            pass_times.append(elapsed)
            row_rates.append(rows / row_time)
            if trace and not traced_first:
                gc.collect()
                traced_times.append(runner.run_pass(ops, record=False, traced=True)[0])
            if len(pass_times) == RSS_PASS:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not trace:
                setup_times += setup_probes(1)
            index += 1
        known_defects = probe_defects(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        setup_times += setup_probes(max(0, SETUP_PROBES - len(setup_times)))

    failed = sum(runner.failed.values())
    detail = {
        "workload": workload_name,
        "seed": seed,
        "passes": len(pass_times),
        "pass_s": [round(t, 4) for t in pass_times],
        "op_samples": len(runner.latencies),
        "fail_frac": failed / runner.attempted,
        "failed_by_kind": runner.failed,
        "failure_examples": runner.failure_examples,
        "known_defects": known_defects,
        "command_ms": {label: [round(t * 1000.0, 2) for t in times] for label, times in runner.by_label.items()}
        if workload.repeats_ops else None,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if trace:
        metrics = runner.tracer.layer_metrics(len(traced_times))
        metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(pass_times) - 1.0
        from spans import metric_names

        units = dict(metric_names())
        detail["note"] = "sweep pool workers are not traced; their time is in cuts.cut_sweep.self_s"
        write_spans(runner.tracer, workload_name, seed)
    else:
        if workload.repeats_ops:
            # the same commands every pass: each counts once, at its mean latency
            latencies = [statistics.fmean(times) for times in runner.by_label.values()]
        else:
            latencies = runner.latencies
        latencies_ms = [t * 1000.0 for t in latencies]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_times),
            "rows_per_s": statistics.median(row_rates),
            "op_p50_ms": percentile(latencies_ms, 50),
            "op_p90_ms": percentile(latencies_ms, 90),
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
    result = {
        "correct": True,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return detail, result


def write_spans(tracer, workload_name: str, seed: int) -> None:
    out = ROOT / ".bench_tmp" / f"spans-{workload_name}-seed{seed}.jsonl"
    with open(out, "w", encoding="utf-8") as handle:
        for name, start, end, parent, op, count in tracer.spans:
            handle.write(json.dumps([name, start, end, parent, op, count]) + "\n")


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "holoshadow" / "__init__.py").is_file():
        print(f"error: no holoshadow source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HOLOSHADOW_THREADS", None)
    sys.path.insert(0, str(SRC))
    import holoshadow.cli  # noqa: F401

    if not Path(holoshadow.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: holoshadow was imported from outside {SRC}", file=sys.stderr)
        return 2
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
