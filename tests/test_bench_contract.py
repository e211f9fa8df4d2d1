"""The names the benchmark traces and calls in holoshadow still exist.

benchmarks/spans.py wraps each callable in its TRACED table; a name
removed from the package would otherwise surface only when a traced
benchmark run dies on the missing attribute.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


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


def test_plr_tree_takes_spec():
    # the plr_tree span counts leaves from its bound "spec" argument
    from holoshadow.tree import plr_tree

    assert "spec" in inspect.signature(plr_tree).parameters


def test_cut_sweep_takes_oracle():
    # benchmarks/record.py records the max-flow sweep with oracle="maxflow"
    from holoshadow.cuts import cut_sweep

    assert "oracle" in inspect.signature(cut_sweep).parameters
