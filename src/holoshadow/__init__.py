"""holoshadow: sample complexity of hierarchical classical-shadow schemes.

Learning rates and shadow norms of Pauli operators under binary-tree
measurement circuits and hyperbolic random tensor networks, computed by
exact replica recursions, minimal cuts, and exact statistical-model sums
by variable elimination.
"""

from .analysis import FitResult, arc_length, ceff_approx, ceff_continuous, fit_ceff, poincare_geodesic
from .core import CutResult, ModelParams, PlrResult, SupportMask, WVector, plr_from_ef
from .cuts import bulk_geodesic, cut_sweep, min_cut_exact, plr_large_d
from .ising import SpinModel, entanglement_feature, optimality_check, plr_exact, renyi_vs_cut
from .lambertw import lambert_w
from .tiling import DualGraph, TilingGraph, boundary_size, dual_graph, generate_tiling, two_tile_graph
from .tree import (
    BetaResult,
    TreeSpec,
    beta,
    crossover_kstar,
    crossover_numeric,
    ef_bruteforce,
    ef_table,
    fuse,
    leaf_vector,
    plr_tree,
    q_series,
    tree_large_d_cuts,
)

__version__ = "0.1.0"
