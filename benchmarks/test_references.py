"""Self-tests of the benchmark's references.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_references.py

They pin the references to the program's own oracles and to a published
closed form, and check that the recorded sweep data regenerates.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import reference as ref  # noqa: E402
from holoshadow.core import SupportMask, plr_from_ef  # noqa: E402
from holoshadow.tiling import two_tile_graph  # noqa: E402
from holoshadow.tree import TreeSpec, ef_table  # noqa: E402


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("d", [2, 3])
def test_tree_reference_matches_feature_oracle(n, d):
    spec = TreeSpec(n, d)
    full = ef_table(SupportMask.interval(n, 0, n), spec, exact=True)
    for bits in range(1, 1 << n):
        sites = frozenset(i for i in range(n) if bits >> i & 1)
        expected = plr_from_ef(SupportMask(n, sites), full, d, exact=True)
        assert ref.tree_w_exact(n, d, sites) == expected
        assert math.isclose(ref.tree_log_w(n, d, sites), math.log(expected), rel_tol=1e-12, abs_tol=1e-13)
        assert ref.tree_ef_exact(n, d, sites) == full[sites]


def test_tree_reference_folds_past_float_range():
    # half of a 2^14-leaf tree at d = 2: w underflows a double
    log_w = ref.tree_log_w(16384, 2, set(range(8192)))
    assert log_w < math.log(5e-324)
    assert ref.tree_large_d_exponent(16384, set(range(8192))) == 8192 + 1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_ising_reference_two_triangle_closed_form(tmp_path, d):
    path = tmp_path / "two_triangle.json"
    two_tile_graph(3).save(path)
    w = math.exp(ref.IsingGraph(path).log_w(d, "per-vertex", 2, 2))
    assert math.isclose(w, Fraction(2, d * d + 3), rel_tol=1e-12)


def test_recorded_data_regenerates():
    import record

    data, malformed = record.compute()
    assert data == json.loads((BENCH_DIR / "data" / "reference.json").read_text(encoding="utf-8"))
    for stem, doc in malformed.items():
        assert doc == json.loads((BENCH_DIR / "data" / f"{stem}.json").read_text(encoding="utf-8"))
