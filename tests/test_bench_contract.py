"""The names the benchmark traces and calls in holoshadow still exist.

benchmarks/spans.py wraps each callable in its TRACED table; a name
removed from the package would otherwise surface only when a traced
benchmark run dies on the missing attribute.  Every call the benchmark
sources make to a holoshadow function is read from them and bound to the
function's current signature, so a removed or renamed parameter fails
here and not in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = BENCHMARKS / "spans.py"

#: holoshadow callables by the name the benchmark sources call them by
CALLED = {
    "SpinModel": "ising.SpinModel",
    "ModelParams": "core.ModelParams",
    "optimality_check": "ising.optimality_check",
    "renyi_vs_cut": "ising.renyi_vs_cut",
    "cut_sweep": "cuts.cut_sweep",
    "bulk_geodesic": "cuts.bulk_geodesic",
    "dual_graph": "tiling.dual_graph",
    "generate_tiling": "tiling.generate_tiling",
    "ef_table": "tree.ef_table",
    "ef_bruteforce": "tree.ef_bruteforce",
    "TreeSpec": "tree.TreeSpec",
    "crossover_kstar": "tree.crossover_kstar",
    "crossover_numeric": "tree.crossover_numeric",
    "q_series": "tree.q_series",
    "plr_from_ef": "core.plr_from_ef",
    "fit_ceff": "analysis.fit_ceff",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,path", [entry[:2] for entry in load_spans().TRACED])
def test_traced_name_resolves(module_name, path):
    target = importlib.import_module(f"holoshadow.{module_name}")
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target)


def resolve(dotted):
    module_name, attr = dotted.split(".")
    return getattr(importlib.import_module(f"holoshadow.{module_name}"), attr)


def benchmark_calls():
    """(file:line, name, call node) of every call in benchmarks/*.py to a
    name in CALLED, as ``name(...)`` or ``anything.name(...)``."""
    calls = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in CALLED:
                    calls.append((f"{path.name}:{node.lineno}", name, node))
    return calls


CALLS = benchmark_calls()


def test_every_contract_name_is_called():
    assert {name for _, name, _ in CALLS} == set(CALLED)


@pytest.mark.parametrize("where,name,node", CALLS, ids=[f"{where}:{name}" for where, name, _ in CALLS])
def test_benchmark_call_binds(where, name, node):
    # e.g. record.py passes cut_sweep(g, mode=, vertex_aligned_only=) and
    # (g, mode=, oracle=), workloads.py SpinModel(g, params, boundary_field_mode=),
    # test_references.py ef_table(..., exact=) and plr_from_ef(..., exact=)
    assert all(keyword.arg for keyword in node.keywords)
    signature = inspect.signature(resolve(CALLED[name]))
    keywords = {keyword.arg: None for keyword in node.keywords}
    if any(isinstance(arg, ast.Starred) for arg in node.args):
        # record.py unpacks (p, q, layers) into generate_tiling
        signature.bind_partial(**keywords)
    else:
        signature.bind(*node.args, **keywords)


def test_plr_tree_takes_spec():
    # the plr_tree span counts leaves from its bound "spec" argument
    from holoshadow.tree import plr_tree

    assert "spec" in inspect.signature(plr_tree).parameters


def test_cut_sweep_takes_oracle():
    # benchmarks/record.py records the max-flow sweep with oracle="maxflow"
    from holoshadow.cuts import cut_sweep

    assert "oracle" in inspect.signature(cut_sweep).parameters
